//! TLB entry representation.

use core::fmt;

use mtlb_types::{PageSize, PhysAddr, Ppn, Prot, VirtAddr, Vpn};

/// One CPU TLB entry: a virtual (super)page mapped to a bus-physical
/// (super)page frame with uniform protection.
///
/// Both the virtual and the physical base must be aligned to the entry's
/// page size — the classic superpage constraint. The whole point of the
/// paper is that the *physical* side of this pair may be a **shadow**
/// frame, which the OS can always allocate aligned, while the real frames
/// behind it stay discontiguous.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbEntry {
    vpn_base: Vpn,
    pfn_base: Ppn,
    size: PageSize,
    prot: Prot,
}

impl TlbEntry {
    /// Creates an entry mapping the (super)page of `size` whose first
    /// virtual page is `vpn_base` onto the frame range starting at
    /// `pfn_base`.
    ///
    /// Returns `None` unless both bases are size-aligned.
    #[must_use]
    pub fn new(vpn_base: Vpn, pfn_base: Ppn, size: PageSize, prot: Prot) -> Option<Self> {
        if !vpn_base.is_aligned_to(size) || !pfn_base.is_aligned_to(size) {
            return None;
        }
        Some(TlbEntry {
            vpn_base,
            pfn_base,
            size,
            prot,
        })
    }

    /// The first virtual page covered.
    #[must_use]
    #[inline]
    pub fn vpn_base(&self) -> Vpn {
        self.vpn_base
    }

    /// The first physical page frame of the mapping.
    #[must_use]
    #[inline]
    pub fn pfn_base(&self) -> Ppn {
        self.pfn_base
    }

    /// The (super)page size.
    #[must_use]
    #[inline]
    pub fn size(&self) -> PageSize {
        self.size
    }

    /// The protection bits (shared by every base page under the entry).
    #[must_use]
    #[inline]
    pub fn prot(&self) -> Prot {
        self.prot
    }

    /// Returns `true` when `vpn` falls inside this entry's virtual range.
    #[must_use]
    #[inline]
    pub fn covers(&self, vpn: Vpn) -> bool {
        let delta = vpn.index().wrapping_sub(self.vpn_base.index());
        delta < self.size.base_pages()
    }

    /// Translates a virtual address through this entry, or `None` when
    /// the address falls outside the entry's virtual range.
    ///
    /// The guard is structural rather than a debug assertion: a stale
    /// or mis-probed entry asked to translate a foreign address must
    /// never hand back a plausible-but-wrong physical address in
    /// release builds — with cross-core shootdowns in play, a stale
    /// entry is an ordinary hazard, not a programming error.
    #[must_use]
    #[inline]
    pub fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        self.covers(va.vpn())
            .then(|| self.pfn_base.base_addr() + va.offset_in(self.size))
    }

    /// Returns `true` when this entry's virtual range overlaps
    /// `[vpn, vpn + pages)`.
    #[must_use]
    pub fn overlaps(&self, vpn: Vpn, pages: u64) -> bool {
        let a0 = self.vpn_base.index();
        let a1 = a0 + self.size.base_pages();
        let b0 = vpn.index();
        let b1 = b0 + pages;
        a0 < b1 && b0 < a1
    }
}

impl fmt::Debug for TlbEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TlbEntry(va {:#x}..+{} -> pa {:#x}, {:?})",
            self.vpn_base.base_addr().get(),
            self.size,
            self.pfn_base.base_addr().get(),
            self.prot
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_enforced() {
        assert!(TlbEntry::new(Vpn::new(4), Ppn::new(8), PageSize::Size16K, Prot::RW).is_some());
        assert!(TlbEntry::new(Vpn::new(5), Ppn::new(8), PageSize::Size16K, Prot::RW).is_none());
        assert!(TlbEntry::new(Vpn::new(4), Ppn::new(9), PageSize::Size16K, Prot::RW).is_none());
        // Base pages are always aligned.
        assert!(TlbEntry::new(Vpn::new(5), Ppn::new(9), PageSize::Base4K, Prot::RW).is_some());
    }

    #[test]
    fn coverage_and_translation() {
        let e = TlbEntry::new(Vpn::new(4), Ppn::new(0x80240), PageSize::Size16K, Prot::RW)
            .expect("aligned");
        assert!(e.covers(Vpn::new(4)));
        assert!(e.covers(Vpn::new(7)));
        assert!(!e.covers(Vpn::new(8)));
        assert!(!e.covers(Vpn::new(3)));
        // Figure 1: VA 0x00004080 -> 0x80240080; VA 0x00005040 (vpn 5, the
        // second base page) -> 0x80241040.
        assert_eq!(
            e.translate(VirtAddr::new(0x4080)),
            Some(PhysAddr::new(0x8024_0080))
        );
        assert_eq!(
            e.translate(VirtAddr::new(0x5040)),
            Some(PhysAddr::new(0x8024_1040))
        );
    }

    /// Regression: translating an address the entry does not cover must
    /// be a structural `None`, never a silently wrong physical address
    /// (the release-build hazard the old debug-only assertion allowed).
    #[test]
    fn translate_outside_entry_is_none() {
        let e = TlbEntry::new(Vpn::new(4), Ppn::new(0x80240), PageSize::Size16K, Prot::RW)
            .expect("aligned");
        assert_eq!(e.translate(VirtAddr::new(0x8000)), None); // one past the end
        assert_eq!(e.translate(VirtAddr::new(0x3fff)), None); // one before the base
        assert_eq!(e.translate(VirtAddr::new(0)), None);
        assert_eq!(e.translate(VirtAddr::new(u64::MAX)), None);
    }

    #[test]
    fn overlap_detection() {
        let e = TlbEntry::new(Vpn::new(8), Ppn::new(8), PageSize::Size16K, Prot::RW).unwrap();
        assert!(e.overlaps(Vpn::new(0), 9));
        assert!(!e.overlaps(Vpn::new(0), 8));
        assert!(e.overlaps(Vpn::new(11), 1));
        assert!(!e.overlaps(Vpn::new(12), 100));
        assert!(e.overlaps(Vpn::new(9), 1));
    }

    #[test]
    fn debug_output_is_informative() {
        let e = TlbEntry::new(Vpn::new(4), Ppn::new(8), PageSize::Size16K, Prot::RX).unwrap();
        let s = format!("{e:?}");
        assert!(s.contains("16KB"));
        assert!(s.contains("0x4000"));
    }
}
