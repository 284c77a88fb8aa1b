//! The fully-associative CPU TLB with NRU replacement.
//!
//! # Host-side lookup acceleration
//!
//! A real fully-associative TLB compares all entries in parallel; the
//! straightforward simulation is a linear scan, which makes *every*
//! simulated memory access O(capacity). This implementation keeps an
//! exact page map beside the slots: every live 16 MB-aligned region has
//! an array naming, for each of its 4 KB pages, the unlocked slot that
//! covers it. Unlocked entries never overlap (an insert discards the
//! ones it overlaps), so [`CpuTlb::translate`] and [`CpuTlb::probe`]
//! cost one region lookup and one array load, plus a check of the few
//! locked entries, which the map leaves out. The map is pure
//! acceleration: hit/miss outcomes, NRU use bits, victim choice, and
//! every statistic are identical to the linear scan, which debug builds
//! assert.

use core::cell::Cell;
use core::fmt;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mtlb_types::{AccessKind, FastMap, Fault, PageSize, PhysAddr, PrivilegeLevel, VirtAddr, Vpn};

use crate::TlbEntry;

/// Base pages per page-map region: one page of the largest size, so
/// every (size-aligned) entry lies inside a single region.
const REGION_PAGES: u64 = PageSize::Size16M.base_pages();

/// Host-side acceleration only: the unlocked slot covering each 4 KB
/// page. Each live region owns one `REGION_PAGES`-long array of
/// `slot + 1` (0: no unlocked entry) in a small arena; an array is
/// freed when its last page is unmapped and reused by the next region.
#[derive(Debug, Clone, Default)]
struct PageMap {
    /// Region number (`vpn / REGION_PAGES`) → array number.
    regions: FastMap<u64, u32>,
    /// One-entry memo in front of `regions`: the last region found.
    memo: Cell<Option<(u64, u32)>>,
    /// The arrays, back to back; a free array is all zeros.
    pages: Vec<u16>,
    /// Mapped pages per array.
    live: Vec<u32>,
    /// Free array numbers, reused before the arena grows.
    spare: Vec<u32>,
}

impl PageMap {
    /// The `pages` index of `vpn` in `array`.
    fn index(array: u32, vpn: u64) -> usize {
        array as usize * REGION_PAGES as usize + (vpn % REGION_PAGES) as usize
    }

    /// The `pages` index of `vpn`, if its region has a live array.
    fn at(&self, vpn: u64) -> Option<usize> {
        let region = vpn / REGION_PAGES;
        let array = match self.memo.get() {
            Some((r, a)) if r == region => a,
            _ => {
                let a = *self.regions.get(&region)?;
                self.memo.set(Some((region, a)));
                a
            }
        };
        Some(Self::index(array, vpn))
    }

    /// The unlocked slot covering `vpn`.
    fn slot(&self, vpn: u64) -> Option<usize> {
        let s = self.pages[self.at(vpn)?];
        s.checked_sub(1).map(usize::from)
    }

    /// The first unlocked slot mapped in `[from, end)`, a range inside
    /// one region.
    fn first_in(&self, from: u64, end: u64) -> Option<usize> {
        if from >= end {
            return None;
        }
        let i = self.at(from)?;
        let s = self.pages[i..i + (end - from) as usize]
            .iter()
            .find(|&&s| s != 0)?;
        Some(usize::from(s - 1))
    }

    /// Sets every page of `entry` to `value` (`slot + 1`, or 0 to
    /// unmap), allocating the region's array on first use and freeing
    /// it when its last page is unmapped.
    fn set(&mut self, entry: &TlbEntry, value: u16) {
        let vpn = entry.vpn_base().index();
        let n = entry.size().base_pages() as u32;
        let start = self.at(vpn).unwrap_or_else(|| {
            let a = self.spare.pop().unwrap_or_else(|| {
                self.pages
                    .resize(self.pages.len() + REGION_PAGES as usize, 0);
                self.live.push(0);
                self.live.len() as u32 - 1
            });
            self.regions.insert(vpn / REGION_PAGES, a);
            Self::index(a, vpn)
        });
        self.pages[start..start + n as usize].fill(value);
        let a = start / REGION_PAGES as usize;
        if value != 0 {
            self.live[a] += n;
            return;
        }
        self.live[a] -= n;
        if self.live[a] == 0 {
            self.regions.remove(&(vpn / REGION_PAGES));
            self.memo.set(None);
            self.spare.push(a as u32);
        }
    }
}

/// Result of a TLB lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Translation found and the access is permitted.
    Hit(PhysAddr),
    /// No entry covers the address; the software miss handler must run.
    Miss,
    /// An entry covers the address but forbids the access.
    Fault(Fault),
}

/// TLB event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit (including locked block entries).
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by NRU replacement.
    pub replacements: u64,
    /// Entries removed by explicit purges.
    pub purges: u64,
    /// Times the NRU generation was exhausted and all use bits reset.
    pub nru_resets: u64,
    /// Replaceable entries inserted (miss-handler refills; locked block
    /// entries are not counted). The cycle-attribution auditor checks
    /// this against the kernel's miss-handler invocation count.
    pub fills: u64,
}

impl TlbStats {
    /// Total lookups.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in `[0, 1]`; zero when idle.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    entry: TlbEntry,
    /// NRU use bit: set on every hit, cleared en masse when all are set.
    used: bool,
    /// Locked block entries (kernel mappings) are never replaced or purged
    /// by [`CpuTlb::purge_all`].
    locked: bool,
}

/// The unified instruction/data CPU TLB.
///
/// Fully associative with a **not-recently-used** policy, as in the paper:
/// every hit sets the entry's use bit; a victim is chosen among entries
/// with a clear use bit; when none remain, all (unlocked) use bits are
/// cleared and the scan restarts. A rotating pointer makes victim choice
/// deterministic yet fair.
#[derive(Debug, Clone)]
pub struct CpuTlb {
    capacity: usize,
    slots: Vec<Option<Slot>>,
    /// Rotating scan start for NRU victim selection.
    hand: usize,
    /// Host-side acceleration only: index of the most recently hit slot,
    /// checked first. A real TLB compares all entries in parallel; this
    /// changes nothing observable (hits are hits), it just spares the
    /// simulator the page-map lookup on the common repeat-hit case.
    mru: usize,
    /// Host-side acceleration only: the unlocked slot covering each page.
    map: PageMap,
    /// Host-side acceleration only: the locked slots, which the page map
    /// leaves out because a later unlocked entry may overlap them.
    /// Nothing removes a locked entry, so this only grows.
    locked: Vec<u32>,
    /// Host-side acceleration only: min-heap of the empty slot indices,
    /// so inserts find the same lowest-numbered free slot the reference
    /// linear scan would without walking the slot array.
    free: BinaryHeap<Reverse<u32>>,
    /// Host-side content generation: bumped on every insert and purge.
    /// The machine's memo/fast-forward layers record it when proving a
    /// fast path sound (see the `scheme` module's invalidation
    /// contract). Purely host-side — no simulated state depends on it.
    generation: u64,
    /// High-water mark of resident entries, locked ones included.
    peak: usize,
    /// Whether an insert ever found no free slot and chose a victim.
    evicted: bool,
    stats: TlbStats,
}

impl CpuTlb {
    /// Creates an empty TLB with room for `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero or above `u16::MAX - 1` (the page
    /// map stores `slot + 1` in a `u16`).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB must have at least one entry");
        assert!(
            capacity < usize::from(u16::MAX),
            "TLB capacity {capacity} exceeds the page map's u16::MAX - 1 slots"
        );
        CpuTlb {
            capacity,
            slots: vec![None; capacity],
            hand: 0,
            mru: 0,
            map: PageMap::default(),
            locked: Vec::new(),
            free: (0..capacity as u32).map(Reverse).collect(),
            generation: 0,
            peak: 0,
            evicted: false,
            stats: TlbStats::default(),
        }
    }

    /// The fewest entries this TLB could have had and still behaved
    /// exactly as it did: its peak occupancy (locked entries included)
    /// while no insert has chosen a victim, `None` once one has.
    ///
    /// Exactness: with no victim ever chosen, every insert takes the
    /// lowest-numbered free slot, and an insert into `k` resident
    /// entries finds one at or below slot `k` — so every slot ever used
    /// lies below the peak. The victim scan, the `hand` and NRU resets
    /// never run. Slot numbers, `last_hit_slot`, the statistics, the
    /// page map, `reach_bytes` and so everything the machine derives
    /// from them are therefore the same at every capacity at or above
    /// the peak, and a run at one such capacity *is* the run at any
    /// other. Purely host-side: no simulated state depends on it.
    #[must_use]
    pub fn reach_demand(&self) -> Option<usize> {
        (!self.evicted).then_some(self.peak)
    }

    /// Host-side content generation: changes whenever an insert or
    /// purge may have changed the set of resident entries (and hence
    /// invalidated slot indices and prior lookup results).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Empties the unlocked slot `i`: page map plus the free-slot heap.
    fn clear_slot(&mut self, i: usize) {
        self.vacate(i);
        self.free.push(Reverse(i as u32));
    }

    /// Empties the unlocked slot `i` and unmaps its pages.
    fn vacate(&mut self, i: usize) {
        if let Some(s) = self.slots[i].take() {
            debug_assert!(!s.locked, "nothing removes a locked entry");
            self.map.set(&s.entry, 0);
        }
    }

    /// The covering slot [`translate`](Self::translate) would find — the
    /// lowest-numbered occupied slot whose entry covers `vpn`, exactly as
    /// the reference linear scan would. O(1) in the TLB size: one page-map
    /// load, then the min with any covering locked slot.
    fn find_covering(&self, vpn: Vpn) -> Option<usize> {
        let mut best = self.map.slot(vpn.index());
        for &l in &self.locked {
            let l = l as usize;
            if best.is_none_or(|b| l < b)
                && self.slots[l].as_ref().is_some_and(|s| s.entry.covers(vpn))
            {
                best = Some(l);
            }
        }
        debug_assert_eq!(
            best,
            self.slots
                .iter()
                .enumerate()
                .find(|(_, s)| s.as_ref().is_some_and(|s| s.entry.covers(vpn)))
                .map(|(i, _)| i),
            "page map must agree with the reference linear scan"
        );
        best
    }

    /// Number of entries the TLB can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently valid entries (including locked ones).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets the counters (not the contents).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Looks up `va` for an access of `kind` at privilege `level`,
    /// updating hit/miss statistics and NRU state.
    pub fn translate(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
        level: PrivilegeLevel,
    ) -> LookupOutcome {
        let vpn = va.vpn();
        // Fast path: the most recently hit entry (host-side optimisation
        // of the parallel CAM compare; no observable difference).
        if let Some(slot) = self.slots.get_mut(self.mru).and_then(|s| s.as_mut()) {
            // `translate` is `Some` exactly when the entry covers the
            // address, so the coverage check and the translation cannot
            // disagree.
            if let Some(pa) = slot.entry.translate(va) {
                if !slot.entry.prot().permits(kind, level) {
                    self.stats.hits = self.stats.hits.saturating_add(1);
                    return LookupOutcome::Fault(Fault::Protection { va, kind });
                }
                slot.used = true;
                self.stats.hits = self.stats.hits.saturating_add(1);
                return LookupOutcome::Hit(pa);
            }
        }
        if let Some(i) = self.find_covering(vpn) {
            #[expect(
                clippy::expect_used,
                reason = "Structure invariant: `find_covering` returned this slot, so it is occupied."
            )]
            let slot = self.slots[i].as_mut().expect("covering slot occupied");
            if !slot.entry.prot().permits(kind, level) {
                // Protection faults still count as "found": the entry
                // is present, the access is simply illegal.
                self.stats.hits = self.stats.hits.saturating_add(1);
                return LookupOutcome::Fault(Fault::Protection { va, kind });
            }
            // `find_covering` guarantees coverage, so this translation is
            // structurally `Some`; a disagreement falls through to a miss
            // rather than fabricating a physical address.
            if let Some(pa) = slot.entry.translate(va) {
                slot.used = true;
                self.mru = i;
                self.stats.hits = self.stats.hits.saturating_add(1);
                return LookupOutcome::Hit(pa);
            }
        }
        self.stats.misses = self.stats.misses.saturating_add(1);
        LookupOutcome::Miss
    }

    /// Looks up without perturbing statistics or NRU bits (for debugging
    /// and assertions).
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "Structure invariant: same occupancy invariant as the mutable path above."
    )]
    pub fn probe(&self, vpn: Vpn) -> Option<&TlbEntry> {
        self.find_covering(vpn)
            .map(|i| &self.slots[i].as_ref().expect("covering slot").entry)
    }

    /// Like [`probe`](CpuTlb::probe), but also returns the slot index of
    /// the covering entry, for use with
    /// [`note_fast_hits`](CpuTlb::note_fast_hits).
    #[must_use]
    pub fn probe_slot(&self, vpn: Vpn) -> Option<(usize, &TlbEntry)> {
        let i = self.find_covering(vpn)?;
        match &self.slots[i] {
            Some(s) => Some((i, &s.entry)),
            None => None,
        }
    }

    /// Slot index of the entry that produced the most recent
    /// [`LookupOutcome::Hit`].
    ///
    /// Both `translate` hit paths leave `mru` equal to the hit slot, so
    /// immediately after a `Hit` this identifies the serving entry; the
    /// machine's fast-forward layer records it so replayed hits can be
    /// credited to the same slot.
    #[must_use]
    pub fn last_hit_slot(&self) -> usize {
        self.mru
    }

    /// Replays `n` consecutive translate hits against the entry in
    /// `slot` without re-running the lookup.
    ///
    /// This is the host-side fast-forward path: the caller has already
    /// proven (via an earlier `Hit` on this slot and an unchanged TLB —
    /// no fills or purges since) that each of the `n` accesses would hit
    /// this same entry with permitted protection. The side effects are
    /// exactly those of `n` successful `translate` calls: the NRU used
    /// bit, the MRU pointer and the hit counter.
    pub fn note_fast_hits(&mut self, slot: usize, n: u64) {
        debug_assert!(
            self.slots[slot].is_some(),
            "fast hits against an empty slot"
        );
        if let Some(s) = self.slots.get_mut(slot).and_then(|s| s.as_mut()) {
            s.used = true;
        }
        self.mru = slot;
        self.stats.hits = self.stats.hits.saturating_add(n);
    }

    /// Inserts a replaceable entry, evicting an NRU victim if full.
    ///
    /// Any existing (unlocked) entries overlapping the new entry's virtual
    /// range are discarded first — the "automatically discard pre-existing
    /// mappings" TLB behaviour the paper mentions in §2.3.
    pub fn insert(&mut self, entry: TlbEntry) {
        self.insert_inner(entry, false);
    }

    /// Inserts a *locked* block entry (kernel mappings, paper §3.2) that
    /// is never chosen for replacement and survives [`purge_all`].
    ///
    /// [`purge_all`]: CpuTlb::purge_all
    pub fn insert_locked(&mut self, entry: TlbEntry) {
        self.insert_inner(entry, true);
    }

    fn insert_inner(&mut self, entry: TlbEntry, locked: bool) {
        self.generation = self.generation.wrapping_add(1);
        if !locked {
            self.stats.fills = self.stats.fills.saturating_add(1);
        }
        // Discard overlapping unlocked mappings (a TLB never holds two
        // entries for one virtual address). They cannot overlap each
        // other, so the page map names them: walk the new entry's
        // pages, jumping past each entry found.
        let mut from = entry.vpn_base().index();
        let end = from + entry.size().base_pages();
        while let Some(s) = self.map.first_in(from, end) {
            let Some(doomed) = &self.slots[s] else { break };
            from = doomed.entry.vpn_base().index() + doomed.entry.size().base_pages();
            self.clear_slot(s);
        }
        // Free slot if any (heap min = the lowest-numbered empty slot,
        // as the reference first-free scan would find), else an NRU
        // victim among unlocked entries.
        debug_assert_eq!(
            self.free.peek().map(|&Reverse(i)| i as usize),
            self.slots.iter().position(|s| s.is_none()),
            "free-slot heap must agree with the reference scan"
        );
        let i = match self.free.pop() {
            Some(Reverse(i)) => i as usize,
            None => {
                self.evicted = true;
                let victim = self.pick_victim();
                self.stats.replacements = self.stats.replacements.saturating_add(1);
                self.vacate(victim);
                self.hand = victim + 1;
                if self.hand == self.capacity {
                    self.hand = 0;
                }
                victim
            }
        };
        if locked {
            self.locked.push(i as u32);
        } else {
            self.map.set(&entry, i as u16 + 1);
        }
        self.slots[i] = Some(Slot {
            entry,
            used: true,
            locked,
        });
        self.peak = self.peak.max(self.capacity - self.free.len());
    }

    #[expect(
        clippy::panic,
        reason = "Documented contract: locking every entry then inserting is a configuration error (paper's locked block entries are a bounded handful)."
    )]
    fn pick_victim(&mut self) -> usize {
        for round in 0..2 {
            let mut idx = self.hand;
            for _ in 0..self.capacity {
                if let Some(s) = &self.slots[idx] {
                    if !s.locked && !s.used {
                        return idx;
                    }
                }
                idx += 1;
                if idx == self.capacity {
                    idx = 0;
                }
            }
            // Every unlocked entry is recently used: clear the generation
            // and rescan (an NRU reset).
            if round == 0 {
                self.stats.nru_resets = self.stats.nru_resets.saturating_add(1);
                for s in self.slots.iter_mut().flatten() {
                    if !s.locked {
                        s.used = false;
                    }
                }
            }
        }
        panic!(
            "TLB has no unlocked entry to replace (all {} locked)",
            self.capacity
        );
    }

    /// Purges every unlocked entry overlapping `[vpn, vpn + pages)`
    /// (TLB shootdown during remap). Returns the number removed.
    pub fn purge_range(&mut self, vpn: Vpn, pages: u64) -> usize {
        self.generation = self.generation.wrapping_add(1);
        let mut removed = 0;
        for i in 0..self.capacity {
            if let Some(s) = &self.slots[i] {
                if !s.locked && s.entry.overlaps(vpn, pages) {
                    self.clear_slot(i);
                    removed += 1;
                }
            }
        }
        self.stats.purges = self.stats.purges.saturating_add(removed as u64);
        removed
    }

    /// Purges every unlocked entry (process switch). Locked block entries
    /// survive. Returns the number removed.
    pub fn purge_all(&mut self) -> usize {
        self.generation = self.generation.wrapping_add(1);
        let mut removed = 0;
        for i in 0..self.capacity {
            if let Some(s) = &self.slots[i] {
                if !s.locked {
                    self.clear_slot(i);
                    removed += 1;
                }
            }
        }
        self.stats.purges = self.stats.purges.saturating_add(removed as u64);
        removed
    }

    /// Iterates over the current entries (locked and unlocked).
    pub fn iter(&self) -> impl Iterator<Item = &TlbEntry> {
        self.slots.iter().flatten().map(|s| &s.entry)
    }
}

impl fmt::Display for CpuTlb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CpuTlb({}/{} entries, {} hits, {} misses)",
            self.occupancy(),
            self.capacity,
            self.stats.hits,
            self.stats.misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_types::{PageSize, Ppn, Prot};

    fn entry(vpn: u64, ppn: u64) -> TlbEntry {
        TlbEntry::new(Vpn::new(vpn), Ppn::new(ppn), PageSize::Base4K, Prot::RW).unwrap()
    }

    fn sp_entry(vpn: u64, ppn: u64, size: PageSize) -> TlbEntry {
        TlbEntry::new(Vpn::new(vpn), Ppn::new(ppn), size, Prot::RW).unwrap()
    }

    fn read(tlb: &mut CpuTlb, va: u64) -> LookupOutcome {
        tlb.translate(VirtAddr::new(va), AccessKind::Read, PrivilegeLevel::User)
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut tlb = CpuTlb::new(4);
        assert_eq!(read(&mut tlb, 0x1234), LookupOutcome::Miss);
        tlb.insert(entry(1, 0x100));
        assert_eq!(
            read(&mut tlb, 0x1234),
            LookupOutcome::Hit(PhysAddr::new(0x100234))
        );
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn superpage_entry_covers_whole_range() {
        let mut tlb = CpuTlb::new(4);
        tlb.insert(sp_entry(4, 0x80240, PageSize::Size16K));
        assert_eq!(
            read(&mut tlb, 0x4080),
            LookupOutcome::Hit(PhysAddr::new(0x8024_0080))
        );
        assert_eq!(
            read(&mut tlb, 0x7ffc),
            LookupOutcome::Hit(PhysAddr::new(0x8024_3ffc))
        );
        assert_eq!(read(&mut tlb, 0x8000), LookupOutcome::Miss);
    }

    #[test]
    fn protection_fault_reported() {
        let mut tlb = CpuTlb::new(4);
        tlb.insert(TlbEntry::new(Vpn::new(1), Ppn::new(1), PageSize::Base4K, Prot::READ).unwrap());
        let out = tlb.translate(
            VirtAddr::new(0x1000),
            AccessKind::Write,
            PrivilegeLevel::User,
        );
        assert!(matches!(
            out,
            LookupOutcome::Fault(Fault::Protection { .. })
        ));
    }

    #[test]
    fn supervisor_only_entries_hide_from_user() {
        let mut tlb = CpuTlb::new(4);
        tlb.insert(
            TlbEntry::new(
                Vpn::new(1),
                Ppn::new(1),
                PageSize::Base4K,
                Prot::RW | Prot::SUPERVISOR_ONLY,
            )
            .unwrap(),
        );
        assert!(matches!(read(&mut tlb, 0x1000), LookupOutcome::Fault(_)));
        let out = tlb.translate(
            VirtAddr::new(0x1000),
            AccessKind::Read,
            PrivilegeLevel::Supervisor,
        );
        assert!(matches!(out, LookupOutcome::Hit(_)));
    }

    #[test]
    fn nru_evicts_not_recently_used_first() {
        let mut tlb = CpuTlb::new(2);
        tlb.insert(entry(1, 1));
        tlb.insert(entry(2, 2));
        // Touch page 1 only; then clear generation by forcing a reset via
        // a third insert: both are used -> reset -> hand picks slot 0...
        // Instead, engineer: hit entry 1 so both used bits set from insert;
        // we need a deterministic check, so re-read entry 2 then entry 1,
        // insert -> victim must be a !used entry after reset.
        read(&mut tlb, 0x1000);
        tlb.insert(entry(3, 3));
        // Capacity 2: one of vpn1/vpn2 was evicted; after the reset the
        // scan starts at the hand (slot 0). What must hold: vpn3 present,
        // exactly one of vpn1/vpn2 present.
        assert!(tlb.probe(Vpn::new(3)).is_some());
        let survivors = [1u64, 2]
            .iter()
            .filter(|v| tlb.probe(Vpn::new(**v)).is_some())
            .count();
        assert_eq!(survivors, 1);
        assert_eq!(tlb.stats().replacements, 1);
        assert_eq!(tlb.stats().nru_resets, 1);
    }

    #[test]
    fn nru_prefers_unused_victims() {
        let mut tlb = CpuTlb::new(3);
        tlb.insert(entry(1, 1));
        tlb.insert(entry(2, 2));
        tlb.insert(entry(3, 3));
        // All used bits set by insertion; a 4th insert resets, then picks
        // the first unlocked slot. Touch 1 and 3 afterwards... simpler:
        // force reset now via insert.
        tlb.insert(entry(4, 4));
        // Now exactly one of {1,2,3} is gone and the others have used=false.
        // Touch the survivors so only the new entry's bit is... verify a
        // targeted scenario instead:
        let mut tlb = CpuTlb::new(3);
        tlb.insert(entry(1, 1));
        tlb.insert(entry(2, 2));
        tlb.insert(entry(3, 3));
        // Reset generation manually by filling: insert triggers reset and
        // evicts slot at hand=0 (vpn 1).
        tlb.insert(entry(4, 4));
        assert!(tlb.probe(Vpn::new(1)).is_none());
        // Touch 2 (used=true). 3 and 4: 3 has used=false (reset), 4 used=true.
        read(&mut tlb, 0x2000);
        tlb.insert(entry(5, 5));
        // Victim must be vpn 3: the only not-recently-used entry.
        assert!(tlb.probe(Vpn::new(3)).is_none());
        assert!(tlb.probe(Vpn::new(2)).is_some());
        assert!(tlb.probe(Vpn::new(4)).is_some());
        assert!(tlb.probe(Vpn::new(5)).is_some());
    }

    #[test]
    fn locked_entries_survive_replacement_and_purge() {
        let mut tlb = CpuTlb::new(2);
        tlb.insert_locked(sp_entry(0x80000 >> 2, 0, PageSize::Size16K));
        tlb.insert(entry(1, 1));
        tlb.insert(entry(2, 2)); // must evict vpn1, not the locked entry
        assert!(tlb.probe(Vpn::new(0x80000 >> 2)).is_some());
        assert!(tlb.probe(Vpn::new(2)).is_some());
        assert_eq!(tlb.purge_all(), 1);
        assert!(tlb.probe(Vpn::new(0x80000 >> 2)).is_some());
    }

    #[test]
    #[should_panic(expected = "no unlocked entry")]
    fn all_locked_tlb_cannot_replace() {
        let mut tlb = CpuTlb::new(1);
        tlb.insert_locked(entry(1, 1));
        tlb.insert(entry(2, 2));
    }

    #[test]
    fn insert_discards_overlapping_mapping() {
        let mut tlb = CpuTlb::new(8);
        tlb.insert(entry(4, 0x10));
        tlb.insert(entry(5, 0x11));
        tlb.insert(entry(9, 0x12));
        // A 16 KB superpage over vpns 4..8 must displace the two base
        // mappings inside it but not vpn 9.
        tlb.insert(sp_entry(4, 0x80240, PageSize::Size16K));
        assert_eq!(tlb.occupancy(), 2);
        assert_eq!(
            read(&mut tlb, 0x5040),
            LookupOutcome::Hit(PhysAddr::new(0x8024_1040))
        );
        assert!(tlb.probe(Vpn::new(9)).is_some());
    }

    #[test]
    fn purge_range_removes_cover() {
        let mut tlb = CpuTlb::new(8);
        tlb.insert(entry(1, 1));
        tlb.insert(entry(2, 2));
        tlb.insert(sp_entry(4, 4, PageSize::Size16K));
        assert_eq!(tlb.purge_range(Vpn::new(2), 3), 2); // vpn2 + superpage
        assert!(tlb.probe(Vpn::new(1)).is_some());
        assert!(tlb.probe(Vpn::new(2)).is_none());
        assert!(tlb.probe(Vpn::new(5)).is_none());
        assert_eq!(tlb.stats().purges, 2);
    }

    #[test]
    fn stats_miss_rate() {
        let mut tlb = CpuTlb::new(2);
        read(&mut tlb, 0x1000);
        tlb.insert(entry(1, 1));
        read(&mut tlb, 0x1000);
        read(&mut tlb, 0x1000);
        assert_eq!(tlb.stats().lookups(), 3);
        assert!((tlb.stats().miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn region_arrays_are_freed_and_reused() {
        let mut tlb = CpuTlb::new(8);
        tlb.insert(entry(1, 1));
        tlb.insert(entry(REGION_PAGES + 1, 2));
        tlb.insert(sp_entry(2 * REGION_PAGES, 0, PageSize::Size16M));
        assert_eq!(tlb.map.regions.len(), 3);
        assert_eq!(tlb.purge_all(), 3);
        assert!(
            tlb.map.regions.is_empty(),
            "no array is live after purge_all"
        );
        assert_eq!(tlb.map.spare.len(), 3);
        assert!(
            tlb.map.pages.iter().all(|&p| p == 0),
            "free arrays are zero"
        );
        // A new region takes a freed array; the arena does not grow.
        let arena = tlb.map.pages.len();
        tlb.insert(entry(7 * REGION_PAGES + 5, 3));
        assert_eq!(tlb.map.pages.len(), arena);
        assert_eq!(tlb.map.spare.len(), 2);
        assert_eq!(
            tlb.probe_slot(Vpn::new(7 * REGION_PAGES + 5))
                .map(|(s, _)| s),
            Some(0)
        );
        // The array is freed again when its last page leaves.
        assert_eq!(tlb.purge_range(Vpn::new(7 * REGION_PAGES), REGION_PAGES), 1);
        assert!(tlb.map.regions.is_empty());
        assert_eq!(tlb.map.spare.len(), 3);
    }

    #[test]
    fn capacity_bound_fits_the_page_map() {
        let max = usize::from(u16::MAX) - 1;
        assert_eq!(CpuTlb::new(max).capacity(), max);
        // The highest slot round-trips through the map's `slot + 1`.
        let mut map = PageMap::default();
        map.set(&entry(9, 9), u16::MAX - 1);
        assert_eq!(map.slot(9), Some(max - 1));
    }

    #[test]
    #[should_panic(expected = "exceeds the page map")]
    fn capacity_above_bound_is_rejected() {
        let _ = CpuTlb::new(usize::from(u16::MAX));
    }

    #[test]
    fn display_summarises() {
        let tlb = CpuTlb::new(4);
        assert!(tlb.to_string().contains("0/4"));
    }
}
