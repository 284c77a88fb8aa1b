//! The complete-subblock TLB of Talluri & Hill (ASPLOS 1994) — the
//! related-work alternative the paper compares its design against (§5).
//!
//! Each entry covers a 64 KB-aligned block (16 base pages) with an
//! **independent frame, protection and valid bit per subblock**, so, like
//! shadow superpages, it maps discontiguous frames — but the per-subblock
//! frame storage lives *in the processor TLB*, which is what "will
//! severely limit the maximum superpage size for an on-processor TLB"
//! (§5). The paper's design moves those mappings to the memory
//! controller instead.
//!
//! A 4 KB fill sets one subblock (complete-subblock: the siblings are not
//! prefetched, so the scheme needs no [`ContigInfo`]); a superpage of at
//! most one block sets every subblock it covers; a larger superpage takes
//! one entry whole. Replacement is the shared store's NRU with a rotating
//! hand, as in the paper's TLB, and locked kernel block entries live in
//! its side list.

use mtlb_tlb::{ContigInfo, TlbEntry};
use mtlb_types::{PageSize, Ppn, Prot, Vpn, PAGE_SIZE};

use crate::{RivalEntry, RivalTlb, Slot};

/// The region one entry tags.
const BLOCK: PageSize = PageSize::Size64K;

/// Subblocks per block.
const SUBBLOCKS: usize = BLOCK.base_pages() as usize;

/// What one entry maps.
#[derive(Clone, Copy, Debug)]
#[expect(
    clippy::large_enum_variant,
    reason = "Entries live in one preallocated slot vector; boxing the block would allocate on every miss that opens one."
)]
pub enum Mapping {
    /// The block starting at page `base`: a frame and protection per
    /// subblock, `None` where the subblock is invalid.
    Block {
        base: Vpn,
        subs: [Option<(Ppn, Prot)>; SUBBLOCKS],
    },
    /// A superpage larger than a block, held whole.
    Whole(TlbEntry),
}

impl Mapping {
    /// The entry translating `vpn`: a 4 KB view of its subblock, or the
    /// whole superpage. `None` when the tag does not cover `vpn` or its
    /// subblock is invalid.
    fn entry_at(&self, vpn: Vpn) -> Option<TlbEntry> {
        match self {
            Mapping::Block { base, subs } => {
                let sub = vpn.index().wrapping_sub(base.index());
                let (pfn, prot) = (*subs.get(usize::try_from(sub).ok()?)?)?;
                TlbEntry::new(vpn, pfn, PageSize::Base4K, prot)
            }
            Mapping::Whole(e) => e.covers(vpn).then_some(*e),
        }
    }
}

/// The complete-subblock TLB: `capacity` fully-associative entries of
/// one 64 KB block (or one larger superpage) each, on the shared NRU
/// slot store.
pub type SubblockTlb = RivalTlb<Mapping>;

impl SubblockTlb {
    /// Creates an empty TLB with `capacity` block entries.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_capacity(capacity)
    }
}

impl RivalEntry for Mapping {
    const NAME: &'static str = "subblock";

    /// The first slot with a valid translation for `vpn`: a resident
    /// block whose subblock is invalid does not stop the scan.
    fn find(tlb: &SubblockTlb, vpn: Vpn) -> Option<(usize, TlbEntry)> {
        let mut slots = tlb.slots.iter().enumerate();
        slots.find_map(|(i, s)| Some((i, s.as_ref()?.entry.entry_at(vpn)?)))
    }

    fn fill(tlb: &mut SubblockTlb, entry: TlbEntry, _contig: &ContigInfo) {
        let vpn = entry.vpn_base();
        let pages = entry.size().base_pages();
        if pages > BLOCK.base_pages() {
            tlb.discard(|m| m.overlaps(vpn, pages));
            tlb.install(Mapping::Whole(entry));
            return;
        }
        // The block's own entry takes the fill; an overlapping whole
        // superpage goes.
        let base = vpn.align_down_to(BLOCK);
        let is_block = |m: &Mapping| matches!(m, Mapping::Block { base: b, .. } if *b == base);
        tlb.discard(|m| m.overlaps(base, BLOCK.base_pages()) && !is_block(m));
        let resident = tlb
            .slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|s| is_block(&s.entry)));
        let i = resident.unwrap_or_else(|| {
            tlb.install(Mapping::Block {
                base,
                subs: [None; SUBBLOCKS],
            })
        });
        if let Some(Slot {
            entry: Mapping::Block { subs, .. },
            used,
        }) = &mut tlb.slots[i]
        {
            *used = true;
            let first = vpn.index() - base.index();
            for k in 0..pages {
                if let Some(sub) = subs.get_mut((first + k) as usize) {
                    *sub = Some((Ppn::new(entry.pfn_base().index() + k), entry.prot()));
                }
            }
        }
    }

    fn overlaps(&self, vpn: Vpn, pages: u64) -> bool {
        let (first, len) = match self {
            Mapping::Block { base, .. } => (base.index(), BLOCK.base_pages()),
            Mapping::Whole(e) => (e.vpn_base().index(), e.size().base_pages()),
        };
        first < vpn.index().saturating_add(pages) && vpn.index() < first + len
    }

    /// Bytes the valid subblocks (or the whole superpage) translate.
    fn reach_bytes(&self) -> u64 {
        match self {
            Mapping::Block { subs, .. } => subs.iter().flatten().count() as u64 * PAGE_SIZE,
            Mapping::Whole(e) => e.size().bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_tlb::{LookupOutcome, TranslationScheme};
    use mtlb_types::{AccessKind, PhysAddr, PrivilegeLevel, VirtAddr};

    fn fill(tlb: &mut SubblockTlb, vpn: u64, pfn: u64, size: PageSize) {
        let e = TlbEntry::new(Vpn::new(vpn), Ppn::new(pfn), size, Prot::RW).expect("aligned");
        tlb.fill(e, &ContigInfo::for_entry(&e));
    }

    fn read(tlb: &mut SubblockTlb, page: u64) -> LookupOutcome {
        let va = VirtAddr::new(page * PAGE_SIZE + 0x24);
        tlb.translate(va, AccessKind::Read, PrivilegeLevel::User)
    }

    fn hit(pfn: u64) -> LookupOutcome {
        LookupOutcome::Hit(PhysAddr::new(pfn * PAGE_SIZE + 0x24))
    }

    #[test]
    fn one_block_maps_sixteen_discontiguous_frames() {
        let mut tlb = SubblockTlb::new(4);
        for p in 0..16u64 {
            assert_eq!(read(&mut tlb, 0x40 + p), LookupOutcome::Miss);
            fill(&mut tlb, 0x40 + p, 1000 + p * 37, PageSize::Base4K);
        }
        for p in 0..16u64 {
            assert_eq!(read(&mut tlb, 0x40 + p), hit(1000 + p * 37));
        }
        assert_eq!(tlb.occupancy(), 1, "one entry, not sixteen");
        assert_eq!(tlb.reach_bytes(), 16 * PAGE_SIZE);
        assert_eq!(tlb.stats().fills, 16);
        assert_eq!(tlb.stats().replacements, 0);
    }

    #[test]
    fn an_invalid_subblock_of_a_resident_block_misses() {
        let mut tlb = SubblockTlb::new(4);
        fill(&mut tlb, 0x40, 5, PageSize::Base4K);
        assert!(tlb.slot_for(Vpn::new(0x40)).is_some());
        assert_eq!(read(&mut tlb, 0x41), LookupOutcome::Miss);
        assert!(tlb.slot_for(Vpn::new(0x41)).is_none());
        assert!(tlb.entry_for(Vpn::new(0x41)).is_none());
        assert_eq!(tlb.stats().misses, 1);
        // A subblock's entry is a 4 KB view of its own frame.
        let e = tlb.entry_for(Vpn::new(0x40)).expect("valid subblock");
        assert_eq!(
            (e.size(), e.pfn_base(), e.prot()),
            (PageSize::Base4K, Ppn::new(5), Prot::RW)
        );
    }

    #[test]
    fn a_superpage_within_a_block_sets_the_subblocks_it_covers() {
        let mut tlb = SubblockTlb::new(4);
        fill(&mut tlb, 0x44, 0x80, PageSize::Size16K);
        for p in 0..4u64 {
            assert_eq!(read(&mut tlb, 0x44 + p), hit(0x80 + p));
        }
        assert_eq!(read(&mut tlb, 0x48), LookupOutcome::Miss);
        assert_eq!(tlb.reach_bytes(), PageSize::Size16K.bytes());
    }

    #[test]
    fn a_256k_superpage_hits_on_every_page_it_covers() {
        let mut tlb = SubblockTlb::new(4);
        fill(&mut tlb, 0x41, 7, PageSize::Base4K);
        fill(&mut tlb, 0x40, 0x1000, PageSize::Size256K);
        assert_eq!(tlb.occupancy(), 1, "the overlapping block went");
        for p in 0..64u64 {
            assert_eq!(read(&mut tlb, 0x40 + p), hit(0x1000 + p));
        }
        let whole = tlb.entry_for(Vpn::new(0x7f)).map(|e| e.size());
        assert_eq!(whole, Some(PageSize::Size256K));
        assert_eq!(read(&mut tlb, 0x80), LookupOutcome::Miss);
        assert_eq!(tlb.reach_bytes(), PageSize::Size256K.bytes());
    }

    #[test]
    fn replacement_evicts_a_whole_block() {
        let mut tlb = SubblockTlb::new(2);
        fill(&mut tlb, 0, 1, PageSize::Base4K);
        fill(&mut tlb, 16, 2, PageSize::Base4K);
        fill(&mut tlb, 32, 3, PageSize::Base4K);
        let present = [0u64, 16, 32]
            .iter()
            .filter(|&&p| tlb.entry_for(Vpn::new(p)).is_some())
            .count();
        assert_eq!(present, 2);
        assert_eq!(tlb.stats().replacements, 1);
        assert!(tlb.entry_for(Vpn::new(32)).is_some());
    }

    #[test]
    fn purge_drops_every_overlapping_block() {
        let mut tlb = SubblockTlb::new(4);
        fill(&mut tlb, 0x40, 1, PageSize::Base4K);
        fill(&mut tlb, 0x50, 2, PageSize::Base4K);
        // Page 0x4f's subblock is invalid, but its block is resident.
        assert_eq!(tlb.purge_range(Vpn::new(0x4f), 2), 2);
        assert_eq!(tlb.occupancy(), 0);
    }
}
