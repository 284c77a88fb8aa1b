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

use mtlb_tlb::{ContigInfo, LookupOutcome, TlbEntry, TlbStats, TranslationScheme};
use mtlb_types::{AccessKind, Fault, PageSize, PrivilegeLevel, VirtAddr, Vpn};

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

#[derive(Clone, Copy, Debug)]
struct Slot {
    entry: TlbEntry,
    used: bool,
}

/// Per-array fill counters for the split scheme.
///
/// Invariant (debug-asserted on every `stats()` read): the three fields
/// sum to the shared [`TlbStats::fills`] counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SplitStats {
    /// Fills into the 4 KB array.
    pub fills_base: u64,
    /// Fills into the mid (16 KB – 256 KB) array.
    pub fills_mid: u64,
    /// Fills into the large (1 MB – 16 MB) array.
    pub fills_large: u64,
}

/// The split multi-page-size TLB. Geometry is fixed (the point of the
/// scheme); the `entries` knob other schemes sweep does not apply.
#[derive(Debug)]
pub struct SplitTlb {
    /// All replaceable entries, flat: 4 KB sets, then mid sets, then
    /// the large array. Slot tokens index this vector; locked entries
    /// use tokens `>= TOTAL_ENTRIES`.
    slots: Vec<Option<Slot>>,
    locked: Vec<TlbEntry>,
    mru: usize,
    generation: u64,
    stats: TlbStats,
    extra: SplitStats,
}

impl Default for SplitTlb {
    fn default() -> Self {
        SplitTlb::new()
    }
}

impl SplitTlb {
    /// Creates an empty split TLB with the fixed 64/32/8 geometry.
    #[must_use]
    pub fn new() -> Self {
        SplitTlb {
            slots: vec![None; TOTAL_ENTRIES],
            locked: Vec::new(),
            mru: 0,
            generation: 0,
            stats: TlbStats::default(),
            extra: SplitStats::default(),
        }
    }

    /// The scheme-specific counters.
    #[must_use]
    pub fn scheme_stats(&self) -> SplitStats {
        self.extra
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

    fn find_covering(&self, vpn: Vpn) -> Option<usize> {
        PageSize::ALL
            .iter()
            .find_map(|&size| self.find_sized(size, vpn))
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

impl TranslationScheme for SplitTlb {
    fn name(&self) -> &'static str {
        "split"
    }

    fn translate(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
        level: PrivilegeLevel,
    ) -> LookupOutcome {
        for (i, e) in self.locked.iter().enumerate() {
            if let Some(pa) = e.translate(va) {
                self.stats.hits = self.stats.hits.saturating_add(1);
                if !e.prot().permits(kind, level) {
                    return LookupOutcome::Fault(Fault::Protection { va, kind });
                }
                self.mru = TOTAL_ENTRIES + i;
                return LookupOutcome::Hit(pa);
            }
        }
        if let Some(i) = self.find_covering(va.vpn()) {
            if let Some(s) = self.slots[i].as_mut() {
                self.stats.hits = self.stats.hits.saturating_add(1);
                if !s.entry.prot().permits(kind, level) {
                    return LookupOutcome::Fault(Fault::Protection { va, kind });
                }
                if let Some(pa) = s.entry.translate(va) {
                    s.used = true;
                    self.mru = i;
                    return LookupOutcome::Hit(pa);
                }
            }
        }
        self.stats.misses = self.stats.misses.saturating_add(1);
        LookupOutcome::Miss
    }

    fn slot_for(&self, vpn: Vpn) -> Option<(usize, TlbEntry)> {
        for (i, e) in self.locked.iter().enumerate() {
            if e.covers(vpn) {
                return Some((TOTAL_ENTRIES + i, *e));
            }
        }
        let i = self.find_covering(vpn)?;
        self.slots[i].as_ref().map(|s| (i, s.entry))
    }

    fn last_hit_slot(&self) -> usize {
        self.mru
    }

    fn note_fast_hits(&mut self, slot: usize, n: u64) {
        if let Some(s) = self.slots.get_mut(slot).and_then(|s| s.as_mut()) {
            s.used = true;
        }
        self.mru = slot;
        self.stats.hits = self.stats.hits.saturating_add(n);
    }

    fn fill(&mut self, entry: TlbEntry, _contig: &ContigInfo) {
        self.generation = self.generation.wrapping_add(1);
        self.stats.fills = self.stats.fills.saturating_add(1);
        // Discard overlapping unlocked entries across every array.
        let pages = entry.size().base_pages();
        crate::purge(&mut self.slots, |s| {
            s.entry.overlaps(entry.vpn_base(), pages)
        });
        match class_of(entry.size()) {
            Class::Base => self.extra.fills_base = self.extra.fills_base.saturating_add(1),
            Class::Mid => self.extra.fills_mid = self.extra.fills_mid.saturating_add(1),
            Class::Large => self.extra.fills_large = self.extra.fills_large.saturating_add(1),
        }
        let (start, ways) = Self::set_range(entry.size(), entry.vpn_base());
        let way = self.pick_way(start, ways);
        self.slots[way] = Some(Slot { entry, used: true });
    }

    fn insert_locked(&mut self, entry: TlbEntry) {
        self.generation = self.generation.wrapping_add(1);
        self.locked.push(entry);
    }

    fn purge_range(&mut self, vpn: Vpn, pages: u64) -> usize {
        self.generation = self.generation.wrapping_add(1);
        let removed = crate::purge(&mut self.slots, |s| s.entry.overlaps(vpn, pages));
        self.stats.purges = self.stats.purges.saturating_add(removed as u64);
        removed
    }

    fn purge_all(&mut self) -> usize {
        self.generation = self.generation.wrapping_add(1);
        let removed = crate::purge(&mut self.slots, |_| true);
        self.stats.purges = self.stats.purges.saturating_add(removed as u64);
        removed
    }

    fn stats(&self) -> TlbStats {
        let SplitStats {
            fills_base,
            fills_mid,
            fills_large,
        } = self.extra;
        debug_assert_eq!(
            fills_base
                .saturating_add(fills_mid)
                .saturating_add(fills_large),
            self.stats.fills,
            "split fill classes != fills"
        );
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
        self.extra = SplitStats::default();
    }

    fn capacity(&self) -> usize {
        TOTAL_ENTRIES
    }

    fn occupancy(&self) -> usize {
        self.slots.iter().flatten().count() + self.locked.len()
    }

    fn reach_bytes(&self) -> u64 {
        let unlocked: u64 = self
            .slots
            .iter()
            .flatten()
            .map(|s| s.entry.size().bytes())
            .sum();
        let locked: u64 = self.locked.iter().map(|e| e.size().bytes()).sum();
        unlocked + locked
    }

    fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_types::{PhysAddr, Ppn, Prot};

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
        let s = tlb.scheme_stats();
        assert_eq!((s.fills_base, s.fills_mid, s.fills_large), (1, 1, 1));
        assert_eq!(
            s.fills_base + s.fills_mid + s.fills_large,
            tlb.stats().fills
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
