//! A coalesced TLB: contiguous VPN→PFN runs detected at fill time and
//! stored as ranged entries (Ban et al., arXiv:1908.08774).
//!
//! Where the paper's MTLB buys reach by *manufacturing* contiguity in
//! shadow space, a coalescing TLB *harvests* whatever contiguity the
//! frame allocator produced by accident: at fill time the kernel hands
//! over the run of physically contiguous, uniformly protected base
//! pages around the faulting page (see
//! [`TranslationScheme::wants_contiguity`]), and the TLB stores the
//! whole run in one entry of up to [`MAX_COALESCE`] pages. Reach per
//! entry grows only as far as the allocator happens to cooperate —
//! which is exactly the design point fig5 compares against shadow
//! superpages.

use mtlb_tlb::{ContigInfo, LookupOutcome, TlbEntry, TlbStats, TranslationScheme};
use mtlb_types::{
    AccessKind, Fault, PageSize, Ppn, PrivilegeLevel, Prot, VirtAddr, Vpn, PAGE_SIZE,
};

/// Maximum base pages one coalesced entry may span — the PTE-cache-line
/// neighbourhood a hardware coalescing TLB can inspect during one walk
/// (matches the kernel's contiguity scan window).
pub const MAX_COALESCE: u64 = 8;

/// One ranged entry: `pages` base pages starting at `base_vpn`, backed
/// by the contiguous frames starting at `base_pfn`.
#[derive(Clone, Copy, Debug)]
struct Range {
    base_vpn: u64,
    base_pfn: u64,
    pages: u64,
    prot: Prot,
    used: bool,
}

impl Range {
    fn covers(&self, vpn: u64) -> bool {
        vpn.wrapping_sub(self.base_vpn) < self.pages
    }

    fn overlaps(&self, vpn: u64, pages: u64) -> bool {
        self.base_vpn < vpn.saturating_add(pages) && vpn < self.base_vpn + self.pages
    }

    /// Synthesizes the per-page view of this range at `vpn` (which must
    /// be covered): a plain 4 KB [`TlbEntry`].
    fn entry_at(&self, vpn: u64) -> Option<TlbEntry> {
        let delta = vpn.wrapping_sub(self.base_vpn);
        TlbEntry::new(
            Vpn::new(vpn),
            Ppn::new(self.base_pfn + delta),
            PageSize::Base4K,
            self.prot,
        )
    }
}

/// Extra counters specific to the coalesced scheme.
///
/// Invariant (debug-asserted on every `stats()` read): `single_fills +
/// coalesced_fills` equals the shared [`TlbStats::fills`] counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoalescedStats {
    /// Fills that produced a one-page entry (no usable contiguity).
    pub single_fills: u64,
    /// Fills that produced or extended a multi-page entry.
    pub coalesced_fills: u64,
    /// Fills absorbed by extending an adjacent resident range.
    pub merges: u64,
    /// Longest run (in base pages) any entry ever held.
    pub max_run_pages: u64,
}

/// The coalesced TLB. Fixed number of ranged entries, NRU replacement
/// (use bit per entry, rotating hand, generation reset — mirroring the
/// paper TLB's policy so the comparison isolates *reach*, not
/// replacement). Locked kernel block entries live in a side list and
/// are never replaced or purged.
#[derive(Debug)]
pub struct CoalescedTlb {
    capacity: usize,
    slots: Vec<Option<Range>>,
    locked: Vec<TlbEntry>,
    hand: usize,
    /// Slot token of the most recent hit; `capacity + i` addresses
    /// locked entry `i`.
    mru: usize,
    generation: u64,
    stats: TlbStats,
    extra: CoalescedStats,
}

impl CoalescedTlb {
    /// Creates an empty coalesced TLB with `capacity` ranged entries.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB must have at least one entry");
        CoalescedTlb {
            capacity,
            slots: vec![None; capacity],
            locked: Vec::new(),
            hand: 0,
            mru: 0,
            generation: 0,
            stats: TlbStats::default(),
            extra: CoalescedStats::default(),
        }
    }

    /// The scheme-specific counters.
    #[must_use]
    pub fn scheme_stats(&self) -> CoalescedStats {
        self.extra
    }

    fn find_covering(&self, vpn: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|r| r.covers(vpn)))
    }

    fn pick_victim(&mut self) -> usize {
        for round in 0..2 {
            let mut idx = self.hand;
            for _ in 0..self.capacity {
                if let Some(r) = &self.slots[idx] {
                    if !r.used {
                        return idx;
                    }
                }
                idx += 1;
                if idx == self.capacity {
                    idx = 0;
                }
            }
            if round == 0 {
                self.stats.nru_resets = self.stats.nru_resets.saturating_add(1);
                for r in self.slots.iter_mut().flatten() {
                    r.used = false;
                }
            }
        }
        // Unreachable in practice: after the reset every occupied slot
        // has a clear use bit. Fall back to the hand position.
        self.hand
    }

    fn note_run(&mut self, pages: u64) {
        if pages > 1 {
            self.extra.coalesced_fills = self.extra.coalesced_fills.saturating_add(1);
        } else {
            self.extra.single_fills = self.extra.single_fills.saturating_add(1);
        }
        self.extra.max_run_pages = self.extra.max_run_pages.max(pages);
    }
}

impl TranslationScheme for CoalescedTlb {
    fn name(&self) -> &'static str {
        "coalesced"
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
                self.mru = self.capacity + i;
                return LookupOutcome::Hit(pa);
            }
        }
        let vpn = va.vpn().index();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(r) = slot {
                if r.covers(vpn) {
                    self.stats.hits = self.stats.hits.saturating_add(1);
                    if !r.prot.permits(kind, level) {
                        return LookupOutcome::Fault(Fault::Protection { va, kind });
                    }
                    r.used = true;
                    self.mru = i;
                    let delta = vpn.wrapping_sub(r.base_vpn);
                    let pa = Ppn::new(r.base_pfn + delta).base_addr() + va.page_offset();
                    return LookupOutcome::Hit(pa);
                }
            }
        }
        self.stats.misses = self.stats.misses.saturating_add(1);
        LookupOutcome::Miss
    }

    fn slot_for(&self, vpn: Vpn) -> Option<(usize, TlbEntry)> {
        let v = vpn.index();
        for (i, e) in self.locked.iter().enumerate() {
            if e.covers(vpn) {
                return Some((self.capacity + i, *e));
            }
        }
        let i = self.find_covering(v)?;
        let entry = self.slots[i].as_ref().and_then(|r| r.entry_at(v))?;
        Some((i, entry))
    }

    fn last_hit_slot(&self) -> usize {
        self.mru
    }

    fn note_fast_hits(&mut self, slot: usize, n: u64) {
        if let Some(r) = self.slots.get_mut(slot).and_then(|s| s.as_mut()) {
            r.used = true;
        }
        self.mru = slot;
        self.stats.hits = self.stats.hits.saturating_add(n);
    }

    fn wants_contiguity(&self) -> bool {
        true
    }

    fn fill(&mut self, entry: TlbEntry, contig: &ContigInfo) {
        self.generation = self.generation.wrapping_add(1);
        self.stats.fills = self.stats.fills.saturating_add(1);
        let anchor = entry.vpn_base().index();
        let (base_vpn, base_pfn, pages) = if entry.size() == PageSize::Base4K {
            let run_base = contig.base.index();
            let run_pfn = contig.pfn.index();
            let run_pages = contig.pages.min(MAX_COALESCE);
            // The run must still contain the filled page after the cap;
            // if not (malformed metadata), coalesce nothing.
            if anchor.wrapping_sub(run_base) < run_pages {
                debug_assert_eq!(
                    run_pfn + (anchor - run_base),
                    entry.pfn_base().index(),
                    "contiguity run disagrees with the filled PTE"
                );
                (run_base, run_pfn, run_pages)
            } else {
                (anchor, entry.pfn_base().index(), 1)
            }
        } else {
            // A (shadow) superpage is one contiguous run by construction.
            (anchor, entry.pfn_base().index(), entry.size().base_pages())
        };
        // Discard overlapping unlocked ranges (a TLB never holds two
        // entries for one virtual address) — uncounted, like the paper
        // TLB's insert-time discard.
        crate::purge(&mut self.slots, |r| r.overlaps(base_vpn, pages));
        // Extend an adjacent resident range instead of spending a slot,
        // when the combined run stays within the coalescing limit.
        let prot = entry.prot();
        if pages < MAX_COALESCE {
            for r in self.slots.iter_mut().flatten() {
                if r.prot != prot || r.pages + pages > MAX_COALESCE {
                    continue;
                }
                if r.base_vpn + r.pages == base_vpn && r.base_pfn + r.pages == base_pfn {
                    r.pages += pages;
                    r.used = true;
                    let run = r.pages;
                    self.extra.merges = self.extra.merges.saturating_add(1);
                    self.note_run(run);
                    return;
                }
                if base_vpn + pages == r.base_vpn && base_pfn + pages == r.base_pfn {
                    r.base_vpn = base_vpn;
                    r.base_pfn = base_pfn;
                    r.pages += pages;
                    r.used = true;
                    let run = r.pages;
                    self.extra.merges = self.extra.merges.saturating_add(1);
                    self.note_run(run);
                    return;
                }
            }
        }
        let new = Range {
            base_vpn,
            base_pfn,
            pages,
            prot,
            used: true,
        };
        self.note_run(pages);
        if let Some(i) = self.slots.iter().position(|s| s.is_none()) {
            self.slots[i] = Some(new);
            return;
        }
        let victim = self.pick_victim();
        self.stats.replacements = self.stats.replacements.saturating_add(1);
        self.slots[victim] = Some(new);
        self.hand = victim + 1;
        if self.hand == self.capacity {
            self.hand = 0;
        }
    }

    fn insert_locked(&mut self, entry: TlbEntry) {
        self.generation = self.generation.wrapping_add(1);
        self.locked.push(entry);
    }

    fn purge_range(&mut self, vpn: Vpn, pages: u64) -> usize {
        self.generation = self.generation.wrapping_add(1);
        let removed = crate::purge(&mut self.slots, |r| r.overlaps(vpn.index(), pages));
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
        debug_assert_eq!(
            self.extra
                .single_fills
                .saturating_add(self.extra.coalesced_fills),
            self.stats.fills,
            "coalesced fill classes != fills"
        );
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
        self.extra = CoalescedStats::default();
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn occupancy(&self) -> usize {
        self.slots.iter().flatten().count() + self.locked.len()
    }

    fn reach_bytes(&self) -> u64 {
        let ranged: u64 = self
            .slots
            .iter()
            .flatten()
            .map(|r| r.pages * PAGE_SIZE)
            .sum();
        let locked: u64 = self.locked.iter().map(|e| e.size().bytes()).sum();
        ranged + locked
    }

    fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_types::PhysAddr;

    fn fill4k(tlb: &mut CoalescedTlb, vpn: u64, pfn: u64, run_base: u64, run_pfn: u64, run: u64) {
        let e = TlbEntry::new(Vpn::new(vpn), Ppn::new(pfn), PageSize::Base4K, Prot::RW)
            .expect("base pages are always aligned");
        let contig = ContigInfo {
            base: Vpn::new(run_base),
            pfn: Ppn::new(run_pfn),
            pages: run,
        };
        tlb.fill(e, &contig);
    }

    fn read(tlb: &mut CoalescedTlb, va: u64) -> LookupOutcome {
        tlb.translate(VirtAddr::new(va), AccessKind::Read, PrivilegeLevel::User)
    }

    #[test]
    fn a_contiguous_run_occupies_one_entry_and_covers_all_pages() {
        let mut tlb = CoalescedTlb::new(4);
        // Pages 0x10..0x18 backed by frames 0x80..0x88.
        fill4k(&mut tlb, 0x12, 0x82, 0x10, 0x80, 8);
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(
            read(&mut tlb, 0x10_000),
            LookupOutcome::Hit(PhysAddr::new(0x80_000))
        );
        assert_eq!(
            read(&mut tlb, 0x17_abc),
            LookupOutcome::Hit(PhysAddr::new(0x87_abc))
        );
        assert_eq!(read(&mut tlb, 0x18_000), LookupOutcome::Miss);
        assert_eq!(tlb.scheme_stats().coalesced_fills, 1);
        assert_eq!(tlb.scheme_stats().max_run_pages, 8);
        assert_eq!(tlb.reach_bytes(), 8 * 4096);
    }

    #[test]
    fn no_contiguity_falls_back_to_single_pages() {
        let mut tlb = CoalescedTlb::new(4);
        fill4k(&mut tlb, 1, 0x10, 1, 0x10, 1);
        fill4k(&mut tlb, 2, 0x30, 2, 0x30, 1);
        assert_eq!(tlb.occupancy(), 2);
        assert_eq!(tlb.scheme_stats().single_fills, 2);
        assert_eq!(tlb.scheme_stats().coalesced_fills, 0);
    }

    #[test]
    fn adjacent_fill_merges_into_the_resident_range() {
        let mut tlb = CoalescedTlb::new(4);
        fill4k(&mut tlb, 4, 0x40, 4, 0x40, 2); // pages 4..6 -> frames 0x40..0x42
        fill4k(&mut tlb, 6, 0x42, 6, 0x42, 1); // exactly adjacent
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(tlb.scheme_stats().merges, 1);
        assert_eq!(
            read(&mut tlb, 0x6010),
            LookupOutcome::Hit(PhysAddr::new(0x42_010))
        );
        // Fills still count one per fill() call.
        assert_eq!(tlb.stats().fills, 2);
        let s = tlb.scheme_stats();
        assert_eq!(s.single_fills + s.coalesced_fills, tlb.stats().fills);
    }

    #[test]
    fn purge_drops_whole_overlapping_ranges() {
        let mut tlb = CoalescedTlb::new(4);
        fill4k(&mut tlb, 0x10, 0x80, 0x10, 0x80, 8);
        assert_eq!(tlb.purge_range(Vpn::new(0x14), 1), 1);
        assert_eq!(read(&mut tlb, 0x10_000), LookupOutcome::Miss);
        assert_eq!(tlb.stats().purges, 1);
    }

    #[test]
    fn locked_entries_survive_purge_all_and_hit_first() {
        let mut tlb = CoalescedTlb::new(2);
        let block = TlbEntry::new(
            Vpn::new(0),
            Ppn::new(0),
            PageSize::Size16M,
            Prot::RW | Prot::SUPERVISOR_ONLY,
        )
        .expect("aligned");
        tlb.insert_locked(block);
        fill4k(&mut tlb, 0x9000, 0x100, 0x9000, 0x100, 1);
        assert_eq!(tlb.purge_all(), 1);
        assert_eq!(tlb.occupancy(), 1);
        let out = tlb.translate(
            VirtAddr::new(0x1000),
            AccessKind::Read,
            PrivilegeLevel::Supervisor,
        );
        assert_eq!(out, LookupOutcome::Hit(PhysAddr::new(0x1000)));
        assert_eq!(tlb.last_hit_slot(), 2, "locked slots sit above capacity");
    }

    #[test]
    fn overfill_replaces_via_nru() {
        let mut tlb = CoalescedTlb::new(2);
        fill4k(&mut tlb, 1, 0x10, 1, 0x10, 1);
        fill4k(&mut tlb, 2, 0x20, 2, 0x20, 1);
        fill4k(&mut tlb, 9, 0x90, 9, 0x90, 1);
        assert_eq!(tlb.occupancy(), 2);
        assert_eq!(tlb.stats().replacements, 1);
        assert!(tlb.entry_for(Vpn::new(9)).is_some());
    }

    #[test]
    fn synthesized_entries_translate_per_page() {
        let mut tlb = CoalescedTlb::new(4);
        fill4k(&mut tlb, 0x10, 0x80, 0x10, 0x80, 4);
        let e = tlb.entry_for(Vpn::new(0x12)).expect("covered");
        assert_eq!(e.size(), PageSize::Base4K);
        assert_eq!(
            e.translate(VirtAddr::new(0x12_345)),
            Some(PhysAddr::new(0x82_345))
        );
        let (slot, e2) = tlb.slot_for(Vpn::new(0x12)).expect("covered");
        assert_eq!(e2, e);
        assert!(slot < tlb.capacity());
    }
}
