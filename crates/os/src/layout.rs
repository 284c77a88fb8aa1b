//! Physical and virtual memory layout of the simulated machine.

use mtlb_mmc::{MmcConfig, TABLE_BASE};
use mtlb_tlb::HptConfig;
use mtlb_types::{PageSize, PhysAddr, VirtAddr, PAGE_SIZE};

/// Fixed placement of kernel structures in low physical memory.
///
/// The kernel occupies the bottom of DRAM, identity-mapped (VA = PA) by a
/// single locked block-TLB entry — the paper's "kernel code and data
/// structures are mapped using a single block TLB entry that is not
/// subject to replacement" (§3.2). User frames are handed out above the
/// reserved region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelLayout {
    /// Base of the hashed page table.
    pub hpt_base: PhysAddr,
    /// Bytes of low DRAM reserved for the kernel (tables + text + data),
    /// also the span of the identity block mapping.
    pub reserved_bytes: u64,
    /// Hashed-page-table capacity multiplier (power of two). `1` is the
    /// paper's 16 K-bucket table; the multi-core machine scales the
    /// table with its core count so N co-resident working sets fit.
    pub hpt_scale: u64,
}

impl KernelLayout {
    /// Computes the standard layout for a machine with the given MMC
    /// geometry: the MMC's mapping table at [`TABLE_BASE`], the hashed
    /// page table immediately after (page aligned) and scaled by
    /// `hpt_scale` (power of two; `Kernel::new` passes the machine's
    /// core count rounded up, and `1` is the paper's table), 16 MB
    /// reserved in total.
    ///
    /// # Panics
    ///
    /// Panics when `hpt_scale` is not a power of two, the tables do not
    /// fit in the reservation, or the reservation exceeds installed
    /// DRAM.
    #[must_use]
    pub fn standard_scaled(mmc: &MmcConfig, hpt_scale: u64) -> Self {
        assert!(
            hpt_scale.is_power_of_two(),
            "hpt_scale must be a power of two (bucket hashing masks)"
        );
        let layout = Self::place(mmc, hpt_scale);
        assert!(
            layout.tables_fit(),
            "kernel tables exceed the reserved region"
        );
        assert!(
            layout.reserved_bytes <= mmc.installed_dram,
            "kernel reservation exceeds installed DRAM"
        );
        layout
    }

    /// The largest `hpt_scale` whose tables fit the reservation beside
    /// `mmc`'s mapping table — a power of two, so also the most cores a
    /// machine over `mmc` can have (the machine scales the table with
    /// its core count rounded up).
    #[must_use]
    pub fn max_hpt_scale(mmc: &MmcConfig) -> u64 {
        let mut scale = 1;
        while Self::place(mmc, scale * 2).tables_fit() {
            scale *= 2;
        }
        scale
    }

    /// Mapping table at [`TABLE_BASE`], HPT immediately after (page
    /// aligned), 16 MB reserved; nothing checked.
    fn place(mmc: &MmcConfig, hpt_scale: u64) -> Self {
        let table_end = TABLE_BASE + mmc.table_bytes();
        KernelLayout {
            hpt_base: table_end.align_up(PAGE_SIZE),
            reserved_bytes: PageSize::Size16M.bytes(),
            hpt_scale,
        }
    }

    /// Whether the mapping table and the HPT end inside the reservation.
    fn tables_fit(&self) -> bool {
        (self.hpt_base + self.hpt_config().table_bytes()).get() <= self.reserved_bytes
    }

    /// The hashed-page-table geometry placed by this layout (the paper's
    /// 16 K-bucket table, times `hpt_scale`).
    #[must_use]
    pub fn hpt_config(&self) -> HptConfig {
        let base = HptConfig::paper_default(self.hpt_base);
        HptConfig {
            base: base.base,
            buckets: base.buckets * self.hpt_scale,
            overflow_slots: base.overflow_slots * self.hpt_scale,
        }
    }

    /// First user-allocatable page frame.
    #[must_use]
    pub fn first_user_frame(&self) -> u64 {
        self.reserved_bytes / PAGE_SIZE
    }
}

/// Conventional bases for user-space regions.
///
/// The kernel's identity block mapping owns virtual `0..16 MB`, so user
/// regions start above it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UserLayout;

impl UserLayout {
    /// Program text.
    pub const TEXT_BASE: VirtAddr = VirtAddr::new(0x0100_0000);
    /// Static data / BSS.
    pub const DATA_BASE: VirtAddr = VirtAddr::new(0x1000_0000);
    /// Heap (grown by `sbrk`).
    pub const HEAP_BASE: VirtAddr = VirtAddr::new(0x2000_0000);
    /// Stack region base (grows upward in this simplified model).
    pub const STACK_BASE: VirtAddr = VirtAddr::new(0x7000_0000);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_layout_fits_paper_tables() {
        let mmc = MmcConfig::paper_default(256 << 20);
        let l = KernelLayout::standard_scaled(&mmc, 1);
        // 512 MB shadow / 4 KB pages * 4 B = 512 KB table at 0.
        assert_eq!(l.hpt_base, PhysAddr::new(512 * 1024));
        // HPT: 16 K buckets + overflow, 16 B each = 512 KB.
        assert_eq!(l.hpt_config().table_bytes(), 512 * 1024);
        assert_eq!(l.reserved_bytes, 16 << 20);
        assert_eq!(l.first_user_frame(), 4096);
    }

    #[test]
    fn user_regions_clear_the_kernel_block() {
        let mmc = MmcConfig::paper_default(256 << 20);
        let l = KernelLayout::standard_scaled(&mmc, 1);
        for base in [
            UserLayout::TEXT_BASE,
            UserLayout::DATA_BASE,
            UserLayout::HEAP_BASE,
            UserLayout::STACK_BASE,
        ] {
            assert!(base.get() >= l.reserved_bytes);
        }
    }

    #[test]
    fn sixteen_times_the_paper_hpt_is_the_largest_that_fits() {
        let mmc = MmcConfig::paper_default(256 << 20);
        // 512 KB mapping table + 16 x 512 KB HPT = 8.5 MB of 16 MB; 32 x
        // would need 16.5 MB.
        assert_eq!(KernelLayout::max_hpt_scale(&mmc), 16);
        let l = KernelLayout::standard_scaled(&mmc, 16);
        assert_eq!(l.hpt_config().table_bytes(), 16 * 512 * 1024);
    }

    #[test]
    #[should_panic(expected = "kernel tables exceed the reserved region")]
    fn an_hpt_beyond_the_limit_is_rejected() {
        let mmc = MmcConfig::paper_default(256 << 20);
        let _ = KernelLayout::standard_scaled(&mmc, 2 * KernelLayout::max_hpt_scale(&mmc));
    }

    #[test]
    #[should_panic(expected = "exceeds installed DRAM")]
    fn tiny_dram_rejected() {
        let mut mmc = MmcConfig::paper_default(256 << 20);
        mmc.installed_dram = 8 << 20;
        let _ = KernelLayout::standard_scaled(&mmc, 1);
    }
}
