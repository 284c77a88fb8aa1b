//! Per-process address-space bookkeeping.

use std::collections::BTreeMap;

use mtlb_types::{PageSize, Ppn, Prot, Spn, Vpn, PAGE_SIZE};

/// What backs a mapped virtual page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backing {
    /// An ordinary page mapped straight to a real DRAM frame.
    Real(Ppn),
    /// A page inside a shadow-backed superpage: the CPU-visible frame is
    /// a shadow page; the real frame behind it lives in the MMC's table
    /// (and may be absent while swapped out).
    Shadow {
        /// The shadow page frame the CPU TLB maps this page to.
        shadow_spn: Spn,
    },
}

impl Backing {
    /// Returns `true` for a page mapped straight to a real frame.
    #[must_use]
    pub fn is_real(self) -> bool {
        matches!(self, Backing::Real(_))
    }

    /// The CPU-visible (bus) frame the page's PTE maps: the real frame,
    /// or the shadow page's bus frame.
    #[must_use]
    pub fn frame(self) -> Ppn {
        match self {
            Backing::Real(frame) => frame,
            Backing::Shadow { shadow_spn } => shadow_spn.bus(),
        }
    }
}

/// Kernel bookkeeping for one mapped virtual page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageInfo {
    /// Current backing.
    pub backing: Backing,
    /// Protection (uniform across a superpage).
    pub prot: Prot,
    /// Size of the TLB mapping this page belongs to: `Base4K` for
    /// ordinary pages, the superpage size for remapped ones.
    pub mapping_size: PageSize,
}

/// One shadow-backed superpage created by `remap`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuperpageInfo {
    /// First virtual page (size-aligned).
    pub vpn_base: Vpn,
    /// Superpage size.
    pub size: PageSize,
    /// First shadow page frame (size-aligned; contiguous shadow range).
    pub shadow_base: Spn,
}

impl SuperpageInfo {
    /// Returns `true` when `vpn` lies inside this superpage.
    #[must_use]
    pub fn covers(&self, vpn: Vpn) -> bool {
        let d = vpn.index().wrapping_sub(self.vpn_base.index());
        d < self.size.base_pages()
    }
}

/// The kernel's view of a (single) process address space.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    pages: BTreeMap<u64, PageInfo>,
    superpages: BTreeMap<u64, SuperpageInfo>,
}

impl AddressSpace {
    /// An empty address space.
    #[must_use]
    pub fn new() -> Self {
        AddressSpace::default()
    }

    /// Records a mapping for one page.
    ///
    /// # Panics
    ///
    /// Panics if the page is already mapped ([`remap_page`](Self::remap_page)
    /// re-points a mapped page).
    pub fn map_page(&mut self, vpn: Vpn, info: PageInfo) {
        let prev = self.pages.insert(vpn.index(), info);
        assert!(prev.is_none(), "vpn {vpn} is already mapped");
    }

    /// Re-points an already-mapped page (remap): a new backing and
    /// mapping size under the same protection, which it returns.
    ///
    /// # Panics
    ///
    /// Panics if the page is not currently mapped.
    pub fn remap_page(&mut self, vpn: Vpn, backing: Backing, mapping_size: PageSize) -> Prot {
        #[expect(
            clippy::panic,
            reason = "Documented contract: `remap_page` requires a mapped page; `map_page` is the entry point for new mappings."
        )]
        let slot = self
            .pages
            .get_mut(&vpn.index())
            .unwrap_or_else(|| panic!("remap of unmapped vpn {vpn}"));
        slot.backing = backing;
        slot.mapping_size = mapping_size;
        slot.prot
    }

    /// Looks up one page.
    #[must_use]
    pub fn page(&self, vpn: Vpn) -> Option<&PageInfo> {
        self.pages.get(&vpn.index())
    }

    /// Number of mapped pages.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    /// Iterates mapped pages of a vpn range.
    pub fn pages_in(&self, vpn: Vpn, pages: u64) -> impl Iterator<Item = (Vpn, &PageInfo)> + '_ {
        self.pages
            .range(vpn.index()..vpn.offset(pages).index())
            .map(|(k, v)| (Vpn::new(*k), v))
    }

    /// Records a created superpage.
    ///
    /// # Panics
    ///
    /// Panics on overlap with an existing superpage.
    pub fn add_superpage(&mut self, sp: SuperpageInfo) {
        assert!(
            self.superpage_of(sp.vpn_base).is_none()
                && self
                    .superpage_of(sp.vpn_base.offset(sp.size.base_pages() - 1))
                    .is_none(),
            "superpage overlaps an existing one"
        );
        self.superpages.insert(sp.vpn_base.index(), sp);
    }

    /// Finds the superpage containing `vpn`, if any.
    #[must_use]
    pub fn superpage_of(&self, vpn: Vpn) -> Option<&SuperpageInfo> {
        self.superpages
            .range(..=vpn.index())
            .next_back()
            .map(|(_, sp)| sp)
            .filter(|sp| sp.covers(vpn))
    }

    /// Removes a superpage record by base vpn.
    pub fn remove_superpage(&mut self, vpn_base: Vpn) -> Option<SuperpageInfo> {
        self.superpages.remove(&vpn_base.index())
    }

    /// All superpages, ordered by virtual base.
    pub fn superpages(&self) -> impl Iterator<Item = &SuperpageInfo> + '_ {
        self.superpages.values()
    }

    /// Total bytes currently mapped.
    #[must_use]
    pub fn mapped_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(frame: u64) -> PageInfo {
        PageInfo {
            backing: Backing::Real(Ppn::new(frame)),
            prot: Prot::RW,
            mapping_size: PageSize::Base4K,
        }
    }

    #[test]
    fn map_and_lookup() {
        let mut a = AddressSpace::new();
        a.map_page(Vpn::new(5), info(100));
        assert_eq!(
            a.page(Vpn::new(5)).unwrap().backing,
            Backing::Real(Ppn::new(100))
        );
        assert!(a.page(Vpn::new(6)).is_none());
        assert_eq!(a.mapped_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_map_panics() {
        let mut a = AddressSpace::new();
        a.map_page(Vpn::new(5), info(1));
        a.map_page(Vpn::new(5), info(2));
    }

    #[test]
    fn remap_replaces_backing_and_keeps_protection() {
        let mut a = AddressSpace::new();
        a.map_page(Vpn::new(5), info(1));
        let prot = a.remap_page(
            Vpn::new(5),
            Backing::Shadow {
                shadow_spn: Spn::new(0x80240),
            },
            PageSize::Size16K,
        );
        assert_eq!(prot, Prot::RW);
        let p = a.page(Vpn::new(5)).unwrap();
        assert!(matches!(p.backing, Backing::Shadow { .. }));
        assert_eq!(p.mapping_size, PageSize::Size16K);
        assert_eq!(p.prot, Prot::RW);
    }

    #[test]
    fn superpage_lookup_by_containment() {
        let mut a = AddressSpace::new();
        a.add_superpage(SuperpageInfo {
            vpn_base: Vpn::new(8),
            size: PageSize::Size16K,
            shadow_base: Spn::new(0x80240),
        });
        assert!(a.superpage_of(Vpn::new(7)).is_none());
        assert!(a.superpage_of(Vpn::new(8)).is_some());
        assert!(a.superpage_of(Vpn::new(11)).is_some());
        assert!(a.superpage_of(Vpn::new(12)).is_none());
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_superpages_panic() {
        let mut a = AddressSpace::new();
        a.add_superpage(SuperpageInfo {
            vpn_base: Vpn::new(8),
            size: PageSize::Size16K,
            shadow_base: Spn::new(0x80240),
        });
        a.add_superpage(SuperpageInfo {
            vpn_base: Vpn::new(8),
            size: PageSize::Size64K,
            shadow_base: Spn::new(0x80300),
        });
    }

    #[test]
    fn pages_in_iterates_range() {
        let mut a = AddressSpace::new();
        for v in [1u64, 2, 5, 9] {
            a.map_page(Vpn::new(v), info(v));
        }
        let got: Vec<u64> = a.pages_in(Vpn::new(2), 6).map(|(v, _)| v.index()).collect();
        assert_eq!(got, vec![2, 5]);
    }

    #[test]
    fn mapped_bytes_counts_pages() {
        let mut a = AddressSpace::new();
        a.map_page(Vpn::new(1), info(1));
        a.map_page(Vpn::new(2), info(2));
        assert_eq!(a.mapped_bytes(), 2 * PAGE_SIZE);
    }
}
