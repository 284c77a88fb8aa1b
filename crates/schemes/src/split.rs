//! A multi-page-size split TLB with fixed per-size-class structures,
//! modelled on real cpuid-reported geometries (a 4 KB set-associative
//! array, a mid-size superpage array, and a small fully-associative
//! array for the largest pages), scaled to this simulator's PA-RISC
//! page-size ladder:
//!
//! * 64 entries, 4-way set-associative, 4 KB pages only;
//! * 32 entries, 4-way set-associative, mid superpages (16 KB – 256 KB);
//! * 8 entries, fully associative, large superpages (1 MB – 16 MB).
//!
//! Unlike the paper's unified fully-associative TLB, an entry here can
//! only live in the array matching its page size — big reach *if* the
//! OS produces superpages, but the 4 KB working set is stuck with the
//! 64-entry array no matter what. Locked kernel block entries live in
//! a side list (PA-RISC block-TLB style) and survive every purge.

use mtlb_tlb::{ContigInfo, TlbEntry};
use mtlb_types::{PageSize, Vpn};

use crate::{RivalEntry, RivalTlb, Slot};

/// 4 KB array: 64 entries, 4-way (16 sets).
const BASE_WAYS: usize = 4;
/// Sets in the 4 KB array.
const BASE_SETS: usize = 16;
/// Mid array (16 KB – 256 KB): 32 entries, 4-way (8 sets).
const MID_WAYS: usize = 4;
/// Sets in the mid array.
const MID_SETS: usize = 8;
/// Large array (1 MB – 16 MB): fully associative.
const LARGE_ENTRIES: usize = 8;
/// Total replaceable entries across the three arrays.
const TOTAL_ENTRIES: usize = BASE_SETS * BASE_WAYS + MID_SETS * MID_WAYS + LARGE_ENTRIES;
/// Flat slot-token base of the mid array.
const MID_BASE: usize = BASE_SETS * BASE_WAYS;
/// Flat slot-token base of the large array.
const LARGE_BASE: usize = MID_BASE + MID_SETS * MID_WAYS;

/// Which array a page size maps to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Base,
    Mid,
    Large,
}

fn class_of(size: PageSize) -> Class {
    match size {
        PageSize::Base4K => Class::Base,
        PageSize::Size16K | PageSize::Size64K | PageSize::Size256K => Class::Mid,
        PageSize::Size1M | PageSize::Size4M | PageSize::Size16M => Class::Large,
    }
}

/// The split multi-page-size TLB: plain entries on the shared slot
/// store, flat — 4 KB sets, then mid sets, then the large array — so
/// slot tokens index the store and locked entries use tokens
/// `>= TOTAL_ENTRIES`. Geometry is fixed (the point of the scheme); the
/// `entries` knob other schemes sweep does not apply.
pub type SplitTlb = RivalTlb<TlbEntry>;

impl Default for SplitTlb {
    fn default() -> Self {
        SplitTlb::new()
    }
}

impl SplitTlb {
    /// Creates an empty split TLB with the fixed 64/32/8 geometry.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(TOTAL_ENTRIES)
    }

    /// Flat slot range `[start, start + ways)` an entry of this size
    /// and base VPN may occupy.
    fn set_range(size: PageSize, vpn_base: Vpn) -> (usize, usize) {
        let frame = vpn_base.index() / size.base_pages();
        match class_of(size) {
            Class::Base => {
                let set = (frame as usize) % BASE_SETS;
                (set * BASE_WAYS, BASE_WAYS)
            }
            Class::Mid => {
                let set = (frame as usize) % MID_SETS;
                (MID_BASE + set * MID_WAYS, MID_WAYS)
            }
            Class::Large => (LARGE_BASE, LARGE_ENTRIES),
        }
    }

    /// The slot holding an entry of exactly `size` covering `vpn`.
    fn find_sized(&self, size: PageSize, vpn: Vpn) -> Option<usize> {
        let base = vpn.align_down_to(size);
        let (start, ways) = Self::set_range(size, base);
        (start..start + ways).find(|&i| {
            self.slots[i]
                .as_ref()
                .is_some_and(|s| s.entry.size() == size && s.entry.vpn_base() == base)
        })
    }

    /// Victim way within `[start, start + ways)`: first free, else first
    /// not-recently-used, else reset the set's use bits and take the
    /// first way.
    fn pick_way(&mut self, start: usize, ways: usize) -> usize {
        for i in start..start + ways {
            if self.slots[i].is_none() {
                return i;
            }
        }
        for i in start..start + ways {
            if self.slots[i].as_ref().is_some_and(|s| !s.used) {
                self.stats.replacements = self.stats.replacements.saturating_add(1);
                return i;
            }
        }
        self.stats.nru_resets = self.stats.nru_resets.saturating_add(1);
        for i in start + 1..start + ways {
            if let Some(s) = self.slots[i].as_mut() {
                s.used = false;
            }
        }
        self.stats.replacements = self.stats.replacements.saturating_add(1);
        start
    }
}

impl RivalEntry for TlbEntry {
    const NAME: &'static str = "split";

    /// Each page size's own set, smallest size first.
    fn find(tlb: &SplitTlb, vpn: Vpn) -> Option<(usize, TlbEntry)> {
        let i = PageSize::ALL
            .iter()
            .find_map(|&size| tlb.find_sized(size, vpn))?;
        tlb.slots[i].as_ref().map(|s| (i, s.entry))
    }

    fn fill(tlb: &mut SplitTlb, entry: TlbEntry, _contig: &ContigInfo) {
        // Discard overlapping unlocked entries across every array.
        let pages = entry.size().base_pages();
        tlb.discard(|e| e.overlaps(entry.vpn_base(), pages));
        let (start, ways) = SplitTlb::set_range(entry.size(), entry.vpn_base());
        let way = tlb.pick_way(start, ways);
        tlb.slots[way] = Some(Slot { entry, used: true });
    }

    fn overlaps(&self, vpn: Vpn, pages: u64) -> bool {
        TlbEntry::overlaps(self, vpn, pages)
    }

    fn reach_bytes(&self) -> u64 {
        self.size().bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_tlb::{LookupOutcome, TranslationScheme};
    use mtlb_types::{AccessKind, PhysAddr, Ppn, PrivilegeLevel, Prot, VirtAddr};

    fn fill(tlb: &mut SplitTlb, vpn: u64, ppn: u64, size: PageSize) {
        let e =
            TlbEntry::new(Vpn::new(vpn), Ppn::new(ppn), size, Prot::RW).expect("aligned in tests");
        tlb.fill(e, &ContigInfo::for_entry(&e));
    }

    fn read(tlb: &mut SplitTlb, va: u64) -> LookupOutcome {
        tlb.translate(VirtAddr::new(va), AccessKind::Read, PrivilegeLevel::User)
    }

    #[test]
    fn each_size_class_lands_in_its_own_array() {
        let mut tlb = SplitTlb::new();
        fill(&mut tlb, 1, 0x10, PageSize::Base4K);
        fill(&mut tlb, 4, 0x80240, PageSize::Size16K);
        fill(&mut tlb, 0x400, 0x400, PageSize::Size1M);
        let slot = |vpn| tlb.slot_for(Vpn::new(vpn)).map(|(slot, _)| slot);
        assert!(slot(1).is_some_and(|s| (0..64).contains(&s)), "4 KB array");
        assert!(slot(4).is_some_and(|s| (64..96).contains(&s)), "mid array");
        assert!(
            slot(0x400).is_some_and(|s| (96..104).contains(&s)),
            "large array"
        );
        assert_eq!(
            read(&mut tlb, 0x1080),
            LookupOutcome::Hit(PhysAddr::new(0x10_080))
        );
        assert_eq!(
            read(&mut tlb, 0x5040),
            LookupOutcome::Hit(PhysAddr::new(0x8024_1040))
        );
        assert_eq!(
            read(&mut tlb, 0x400_123),
            LookupOutcome::Hit(PhysAddr::new(0x400_123))
        );
        assert_eq!(tlb.occupancy(), 3);
        assert_eq!(
            tlb.reach_bytes(),
            4096 + PageSize::Size16K.bytes() + PageSize::Size1M.bytes()
        );
    }

    #[test]
    fn base_array_conflicts_within_one_set() {
        let mut tlb = SplitTlb::new();
        // Five 4 KB pages mapping to the same set (stride = BASE_SETS
        // pages) overflow the 4 ways; the NRU victim is evicted.
        for i in 0..5u64 {
            fill(
                &mut tlb,
                0x100 + i * BASE_SETS as u64,
                0x500 + i,
                PageSize::Base4K,
            );
        }
        assert_eq!(tlb.stats().replacements, 1);
        let resident = (0..5u64)
            .filter(|i| {
                tlb.entry_for(Vpn::new(0x100 + i * BASE_SETS as u64))
                    .is_some()
            })
            .count();
        assert_eq!(resident, 4);
    }

    #[test]
    fn capacity_is_the_fixed_geometry() {
        let tlb = SplitTlb::new();
        assert_eq!(tlb.capacity(), 104);
    }

    #[test]
    fn superpage_fill_discards_covered_base_entries() {
        let mut tlb = SplitTlb::new();
        fill(&mut tlb, 4, 0x80240, PageSize::Base4K);
        fill(&mut tlb, 5, 0x80241, PageSize::Base4K);
        fill(&mut tlb, 4, 0x80240, PageSize::Size16K);
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(
            read(&mut tlb, 0x7fff),
            LookupOutcome::Hit(PhysAddr::new(0x8024_3fff))
        );
    }

    #[test]
    fn purge_and_locked_semantics() {
        let mut tlb = SplitTlb::new();
        let block = TlbEntry::new(
            Vpn::new(0),
            Ppn::new(0),
            PageSize::Size16M,
            Prot::RW | Prot::SUPERVISOR_ONLY,
        )
        .expect("aligned");
        tlb.insert_locked(block);
        fill(&mut tlb, 0x9000, 0x100, PageSize::Base4K);
        fill(&mut tlb, 0x400, 0x400, PageSize::Size1M);
        assert_eq!(tlb.purge_range(Vpn::new(0x400), 1), 1);
        assert_eq!(tlb.purge_all(), 1);
        assert_eq!(tlb.occupancy(), 1);
        let out = tlb.translate(
            VirtAddr::new(0x2000),
            AccessKind::Read,
            PrivilegeLevel::Supervisor,
        );
        assert_eq!(out, LookupOutcome::Hit(PhysAddr::new(0x2000)));
        assert_eq!(tlb.last_hit_slot(), TOTAL_ENTRIES);
    }

    #[test]
    fn fast_hit_replay_matches_translate_side_effects() {
        let mut tlb = SplitTlb::new();
        fill(&mut tlb, 7, 0x70, PageSize::Base4K);
        let _ = read(&mut tlb, 0x7000);
        let slot = tlb.last_hit_slot();
        let hits_before = tlb.stats().hits;
        let gen = tlb.generation();
        tlb.note_fast_hits(slot, 5);
        assert_eq!(tlb.stats().hits, hits_before + 5);
        assert_eq!(tlb.generation(), gen, "replay must not bump the generation");
    }
}
