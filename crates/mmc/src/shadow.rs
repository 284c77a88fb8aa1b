//! Shadow address range and shadow page table entries.

use core::fmt;

use mtlb_types::{PhysAddr, Ppn, ShadowAddr, PAGE_SHIFT, PAGE_SIZE};

/// The region of physical address space designated as shadow memory.
///
/// The paper's running example (§2.2): 512 MB of shadow space at
/// `0x8000_0000..0xA000_0000`, in a machine whose installed DRAM ends
/// well below `0x8000_0000`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShadowRange {
    base: PhysAddr,
    size_bytes: u64,
}

impl ShadowRange {
    /// Creates a shadow range `[base, base + size_bytes)`.
    ///
    /// # Panics
    ///
    /// Panics unless both base and size are page-aligned and the size is
    /// non-zero.
    #[must_use]
    pub fn new(base: PhysAddr, size_bytes: u64) -> Self {
        assert!(
            base.is_aligned(PAGE_SIZE) && size_bytes > 0 && size_bytes.is_multiple_of(PAGE_SIZE),
            "shadow range must be page-aligned and non-empty"
        );
        #[expect(
            clippy::expect_used,
            reason = "Documented contract: constructor-time configuration check, like the frame range."
        )]
        base.get()
            .checked_add(size_bytes)
            .expect("shadow range overflows the address space");
        ShadowRange { base, size_bytes }
    }

    /// The paper's example range: 512 MB at `0x8000_0000`.
    #[must_use]
    pub fn paper_default() -> Self {
        ShadowRange::new(PhysAddr::new(0x8000_0000), 512 << 20)
    }

    /// First shadow address, in its bus view (for range comparisons
    /// against DRAM bounds).
    #[must_use]
    pub const fn base(&self) -> PhysAddr {
        self.base
    }

    /// First shadow address, in its typed shadow view.
    #[must_use]
    pub const fn shadow_base(&self) -> ShadowAddr {
        ShadowAddr::from_bus(self.base)
    }

    /// Size of the range in bytes.
    #[must_use]
    pub const fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Number of 4 KB shadow pages in the range.
    #[must_use]
    pub const fn pages(&self) -> u64 {
        self.size_bytes >> PAGE_SHIFT
    }

    /// Returns `true` when `pa` lies inside the shadow range. This is the
    /// classification the MMC performs on every bus operation.
    #[must_use]
    pub fn contains(&self, pa: PhysAddr) -> bool {
        pa >= self.base && pa.offset_from(self.base) < self.size_bytes
    }

    /// Classifies a bus address: the typed shadow address when `pa` falls
    /// inside the shadow window, `None` for real (DRAM-side) addresses.
    ///
    /// This is the sole place the simulator mints a [`ShadowAddr`] from a
    /// bare bus address.
    #[must_use]
    pub fn classify(&self, pa: PhysAddr) -> Option<ShadowAddr> {
        if self.contains(pa) {
            Some(ShadowAddr::from_bus(pa))
        } else {
            None
        }
    }

    /// The index of the shadow page containing `sa`, used to address the
    /// flat mapping table.
    ///
    /// # Panics
    ///
    /// Panics when `sa` is outside the range.
    #[must_use]
    pub fn page_index(&self, sa: ShadowAddr) -> u64 {
        assert!(self.contains(sa.bus()), "address {sa} outside shadow range");
        sa.offset_from(self.shadow_base()) >> PAGE_SHIFT
    }

    /// The shadow address of the page with the given index.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    #[must_use]
    pub fn page_addr(&self, index: u64) -> ShadowAddr {
        assert!(index < self.pages(), "shadow page index out of range");
        self.shadow_base() + (index << PAGE_SHIFT)
    }
}

/// A 4-byte entry of the flat shadow-to-real mapping table (§2.2).
///
/// Layout (32 bits): bits 23..0 hold the real page frame number
/// (sufficient for 64 GB of real memory, as the paper notes), bit 24 is
/// *valid*, bit 25 *fault*, bit 26 *referenced*, bit 27 *dirty*; the top
/// nibble is reserved "for future expansion".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ShadowPte {
    /// Real page frame backing this shadow page (meaningful when valid).
    pub rpfn: Ppn,
    /// The backing page is present in DRAM; accesses may proceed.
    pub valid: bool,
    /// Set by the OS when the page was swapped out: accesses raise a
    /// (precise) shadow page fault for the OS to service (§4).
    pub fault: bool,
    /// A cache fill has touched this base page since the OS last cleared
    /// the bit (approximate — see §2.5).
    pub referenced: bool,
    /// An exclusive fill or writeback has targeted this base page since
    /// the OS last cleaned it (exact — see §2.5).
    pub dirty: bool,
}

impl ShadowPte {
    /// An invalid (unmapped) entry.
    #[must_use]
    pub const fn invalid() -> Self {
        ShadowPte {
            rpfn: Ppn::new(0),
            valid: false,
            fault: false,
            referenced: false,
            dirty: false,
        }
    }

    /// A freshly-established, clean, present mapping to `rpfn`.
    #[must_use]
    pub const fn present(rpfn: Ppn) -> Self {
        ShadowPte {
            rpfn,
            valid: true,
            fault: false,
            referenced: false,
            dirty: false,
        }
    }

    /// An entry for a page the OS has swapped out: not valid, fault bit
    /// set so the OS can distinguish a shadow page fault from a wild
    /// access when it inspects the table.
    #[must_use]
    pub const fn swapped_out() -> Self {
        ShadowPte {
            rpfn: Ppn::new(0),
            valid: false,
            fault: true,
            referenced: false,
            dirty: false,
        }
    }

    /// Encodes into the 4-byte table format.
    ///
    /// # Panics
    ///
    /// Panics (debug) when the frame number exceeds 24 bits.
    #[must_use]
    pub fn encode(&self) -> u32 {
        // Bit-field packing, not address arithmetic: the raw frame index
        // is deliberately unwrapped into a 24-bit field here.
        let rpfn = self.rpfn.index();
        debug_assert!(rpfn < (1 << 24), "real pfn exceeds 24 bits");
        (rpfn as u32)
            | u32::from(self.valid) << 24
            | u32::from(self.fault) << 25
            | u32::from(self.referenced) << 26
            | u32::from(self.dirty) << 27
    }

    /// Decodes from the 4-byte table format.
    #[must_use]
    pub fn decode(raw: u32) -> Self {
        ShadowPte {
            rpfn: Ppn::new(u64::from(raw & 0x00ff_ffff)),
            valid: raw & (1 << 24) != 0,
            fault: raw & (1 << 25) != 0,
            referenced: raw & (1 << 26) != 0,
            dirty: raw & (1 << 27) != 0,
        }
    }
}

impl fmt::Display for ShadowPte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShadowPte(rpfn={}, {}{}{}{})",
            self.rpfn,
            if self.valid { "V" } else { "-" },
            if self.fault { "F" } else { "-" },
            if self.referenced { "R" } else { "-" },
            if self.dirty { "D" } else { "-" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_classification() {
        let r = ShadowRange::paper_default();
        assert!(!r.contains(PhysAddr::new(0x7fff_ffff)));
        assert!(r.contains(PhysAddr::new(0x8000_0000)));
        assert!(r.contains(PhysAddr::new(0x9fff_ffff)));
        assert!(!r.contains(PhysAddr::new(0xa000_0000)));
        assert_eq!(r.pages(), 128 * 1024); // 512 MB / 4 KB = 128 K pages (§2.2)
    }

    #[test]
    fn page_index_round_trips() {
        let r = ShadowRange::paper_default();
        let sa = r.classify(PhysAddr::new(0x8024_0080)).unwrap();
        let idx = r.page_index(sa);
        assert_eq!(idx, 0x240);
        assert_eq!(r.page_addr(idx).bus(), PhysAddr::new(0x8024_0000));
    }

    #[test]
    fn classify_rejects_real_addresses() {
        let r = ShadowRange::paper_default();
        assert_eq!(r.classify(PhysAddr::new(0x100)), None);
        assert_eq!(r.classify(PhysAddr::new(0xa000_0000)), None);
        assert!(r.classify(PhysAddr::new(0x8000_0000)).is_some());
    }

    #[test]
    #[should_panic(expected = "outside shadow range")]
    fn page_index_rejects_out_of_range_shadow() {
        let r = ShadowRange::paper_default();
        // A ShadowAddr minted outside the window (contract violation).
        let _ = r.page_index(ShadowAddr::from_bus(PhysAddr::new(0x100)));
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn misaligned_range_rejected() {
        let _ = ShadowRange::new(PhysAddr::new(0x100), 4096);
    }

    #[test]
    fn pte_encode_decode_round_trip() {
        let cases = [
            ShadowPte::invalid(),
            ShadowPte::present(Ppn::new(0x40138)),
            ShadowPte::swapped_out(),
            ShadowPte {
                rpfn: Ppn::new(0xff_ffff),
                valid: true,
                fault: false,
                referenced: true,
                dirty: true,
            },
        ];
        for pte in cases {
            assert_eq!(ShadowPte::decode(pte.encode()), pte);
        }
    }

    #[test]
    fn pte_entry_is_four_bytes_with_room_to_spare() {
        // The paper: 24-bit frame + 4 state bits fit in 4 bytes "with room
        // left over for future expansion".
        let pte = ShadowPte {
            rpfn: Ppn::new(0xff_ffff),
            valid: true,
            fault: true,
            referenced: true,
            dirty: true,
        };
        assert_eq!(pte.encode() >> 28, 0, "top nibble stays reserved");
    }

    #[test]
    fn display_shows_bits() {
        let pte = ShadowPte {
            rpfn: Ppn::new(1),
            valid: true,
            fault: false,
            referenced: true,
            dirty: false,
        };
        assert!(pte.to_string().contains("V-R-"));
    }
}
