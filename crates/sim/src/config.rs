//! Whole-machine configuration presets.

use mtlb_cache::CacheConfig;
use mtlb_mmc::MmcConfig;
use mtlb_os::{KernelConfig, KernelLayout};
use mtlb_schemes::SchemeConfig;

/// Default installed DRAM for experiments (256 MB — comfortably holding
/// every benchmark while leaving the shadow range far above it).
pub(crate) const DEFAULT_DRAM: u64 = 256 << 20;

/// Configuration of a complete simulated machine.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// CPU TLB entries (the paper sweeps 64 / 96 / 128 / 256).
    pub cpu_tlb_entries: usize,
    /// Translation front end: the paper's TLB (`Cpu`, the default —
    /// bit-identical to the machine before schemes existed) or a rival
    /// design from `mtlb-schemes` (fig5).
    pub scheme: SchemeConfig,
    /// Data cache geometry (512 KB direct-mapped by default).
    pub cache: CacheConfig,
    /// Memory controller (installed DRAM, shadow range, optional MTLB,
    /// latencies).
    pub mmc: MmcConfig,
    /// Kernel policy (superpage use, allocators, paging, costs).
    pub kernel: KernelConfig,
    /// CPU cores sharing the bus, MMC, and MTLB. Each core has a
    /// private CPU TLB, micro-ITLB, and L1 data cache; `1` (the
    /// default, and the paper's setup) is bit-identical to the machine
    /// before cores existed.
    pub cores: usize,
}

impl MachineConfig {
    /// The paper's MTLB-equipped system: `tlb_entries`-entry CPU TLB, a
    /// 128-entry 2-way MTLB, and a kernel that promotes `remap()`ed
    /// regions to shadow superpages.
    #[must_use]
    pub fn paper_mtlb(tlb_entries: usize) -> Self {
        MachineConfig {
            cpu_tlb_entries: tlb_entries,
            scheme: SchemeConfig::Cpu,
            cache: CacheConfig::paper_default(),
            mmc: MmcConfig::paper_default(DEFAULT_DRAM),
            kernel: KernelConfig::default(),
            cores: 1,
        }
    }

    /// The baseline system: same CPU TLB, conventional MMC (no MTLB), and
    /// a kernel whose `remap()` is a no-op so identical workload binaries
    /// run on 4 KB pages throughout.
    #[must_use]
    pub fn paper_base(tlb_entries: usize) -> Self {
        MachineConfig {
            cpu_tlb_entries: tlb_entries,
            scheme: SchemeConfig::Cpu,
            cache: CacheConfig::paper_default(),
            mmc: MmcConfig::no_mtlb(DEFAULT_DRAM),
            kernel: KernelConfig {
                use_superpages: false,
                ..KernelConfig::default()
            },
            cores: 1,
        }
    }

    /// Same machine with a different MTLB geometry (§3.5 sensitivity
    /// sweeps). Panics if this configuration has no MTLB.
    #[must_use]
    pub fn with_mtlb_geometry(mut self, entries: usize, assoc: usize) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "Documented contract: resizing the MTLB of a baseline (no-MTLB) configuration is an experiment-script bug."
        )]
        let mtlb = self
            .mmc
            .mtlb
            .as_mut()
            .expect("machine has no MTLB to resize");
        mtlb.entries = entries;
        mtlb.assoc = assoc;
        self
    }

    /// Same machine with a different installed-DRAM size (paging
    /// experiments shrink it to force eviction).
    #[must_use]
    pub fn with_dram(mut self, bytes: u64) -> Self {
        self.mmc.installed_dram = bytes;
        self
    }

    /// Same machine with a different translation front end (fig5's
    /// rival-scheme sweeps).
    #[must_use]
    pub fn with_scheme(mut self, scheme: SchemeConfig) -> Self {
        self.scheme = scheme;
        self
    }

    /// Same machine with `cores` CPU front ends over the shared
    /// bus/MMC/MTLB. The shared hashed page table scales with the core
    /// count (rounded up to a power of two) so N co-resident working
    /// sets fit; at `cores == 1` the paper geometry is untouched.
    ///
    /// # Panics
    ///
    /// Panics when `cores` is zero or above
    /// [`max_cores`](Self::max_cores): the scaled table would not fit
    /// the kernel's reserved region.
    #[must_use]
    pub fn with_cores(mut self, cores: usize) -> Self {
        assert!(cores > 0, "a machine needs at least one core");
        let max = self.max_cores();
        assert!(
            cores <= max,
            "{cores} cores: the scaled hashed page table fits at most {max}"
        );
        self.cores = cores;
        self
    }

    /// The most cores [`with_cores`](Self::with_cores) accepts: the
    /// largest hashed-page-table scale that fits the kernel's 16 MB
    /// reservation beside this machine's MMC mapping table (16 for the
    /// paper's 512 MB shadow window).
    #[must_use]
    pub fn max_cores(&self) -> usize {
        KernelLayout::max_hpt_scale(&self.mmc) as usize
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::paper_mtlb(96)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_mtlb_and_superpages() {
        let mtlb = MachineConfig::paper_mtlb(64);
        assert!(mtlb.mmc.mtlb.is_some());
        assert!(mtlb.kernel.use_superpages);
        let base = MachineConfig::paper_base(64);
        assert!(base.mmc.mtlb.is_none());
        assert!(!base.kernel.use_superpages);
    }

    #[test]
    fn geometry_override() {
        let m = MachineConfig::paper_mtlb(128).with_mtlb_geometry(512, 4);
        let g = m.mmc.mtlb.unwrap();
        assert_eq!((g.entries, g.assoc), (512, 4));
    }

    #[test]
    #[should_panic(expected = "no MTLB")]
    fn resizing_absent_mtlb_panics() {
        let _ = MachineConfig::paper_base(128).with_mtlb_geometry(512, 4);
    }

    #[test]
    fn core_limit_follows_the_kernel_layout() {
        assert_eq!(MachineConfig::paper_mtlb(64).max_cores(), 16);
        assert_eq!(MachineConfig::paper_base(64).max_cores(), 16);
        let machine = crate::Machine::new(MachineConfig::paper_mtlb(64).with_cores(16));
        assert_eq!(machine.kernel().layout().hpt_scale, 16);
    }

    #[test]
    #[should_panic(expected = "17 cores: the scaled hashed page table fits at most 16")]
    fn too_many_cores_panic_in_the_config() {
        let _ = MachineConfig::paper_mtlb(64).with_cores(17);
    }

    #[test]
    fn default_mtlb_geometry_matches_paper() {
        let g = MachineConfig::default().mmc.mtlb.unwrap();
        assert_eq!((g.entries, g.assoc), (128, 2));
    }
}
