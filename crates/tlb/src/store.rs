//! The one slot store behind every translation front end: [`SlotTlb`].

use core::cell::Cell;
use core::fmt;
use core::ops::Range;

use mtlb_types::{AccessKind, FastMap, Fault, PageSize, PhysAddr, PrivilegeLevel, VirtAddr, Vpn};

use crate::{ContigInfo, TlbEntry, TranslationScheme};

/// Base pages per page-map region: one page of the largest size.
const REGION_PAGES: u64 = PageSize::Size16M.base_pages();

/// Host-side acceleration only: the replaceable slot covering each 4 KB
/// page. Each live region owns one `REGION_PAGES`-long array of
/// `slot + 1` (0: no entry) in a small arena; an array is freed when its
/// last page is unmapped and reused by the next region.
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

/// The end of the region holding `vpn`, capped at `end`: ranges are
/// mapped and searched region by region, since a coalesced range may
/// cross a region boundary.
#[inline]
fn region_stop(vpn: u64, end: u64) -> u64 {
    end.min((vpn / REGION_PAGES + 1) * REGION_PAGES)
}

impl PageMap {
    /// The `pages` index of `vpn` in `array`.
    #[inline]
    fn index(array: u32, vpn: u64) -> usize {
        array as usize * REGION_PAGES as usize + (vpn % REGION_PAGES) as usize
    }

    /// The `pages` index of `vpn`, if its region has a live array.
    #[inline]
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

    /// The slot covering `vpn`.
    #[inline]
    fn slot(&self, vpn: u64) -> Option<usize> {
        let s = self.pages[self.at(vpn)?];
        s.checked_sub(1).map(usize::from)
    }

    /// The first slot mapped in `[from, end)`.
    #[inline]
    fn first_in(&self, mut from: u64, end: u64) -> Option<usize> {
        while from < end {
            let stop = region_stop(from, end);
            if let Some(i) = self.at(from) {
                let run = &self.pages[i..i + (stop - from) as usize];
                if let Some(&s) = run.iter().find(|&&s| s != 0) {
                    return Some(usize::from(s - 1));
                }
            }
            from = stop;
        }
        None
    }

    /// Sets the pages `[vpn, vpn + pages)` to `value` (`slot + 1`, or 0
    /// to unmap), region by region.
    #[inline]
    fn set(&mut self, mut vpn: u64, pages: u64, value: u16) {
        let end = vpn + pages;
        while vpn < end {
            let stop = region_stop(vpn, end);
            self.set_in_region(vpn, stop - vpn, value);
            vpn = stop;
        }
    }

    /// [`set`](Self::set) for a range inside one region, allocating the
    /// region's array on first use and freeing it when its last page is
    /// unmapped.
    fn set_in_region(&mut self, vpn: u64, n: u64, value: u16) {
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
            self.live[a] += n as u32;
            return;
        }
        self.live[a] -= n as u32;
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

/// What a front end keeps in a slot of the [`SlotTlb`], and how it fills
/// one.
pub trait SlotEntry: Copy + fmt::Debug + Send {
    /// [`TranslationScheme::name`].
    const NAME: &'static str;
    /// [`TranslationScheme::wants_contiguity`].
    const WANTS_CONTIGUITY: bool = false;
    /// Whether locked entries are slots of the TLB's own capacity, as
    /// the paper's kernel block entry is one of its TLB's entries
    /// (§3.2). Then a lookup tries the most recently hit slot first and
    /// otherwise takes the lowest-numbered covering slot, and locked
    /// slots sit below every replaceable one. Otherwise (the default)
    /// they are a side list beside the capacity, as in a PA-RISC block
    /// TLB, tried before the replaceable slots.
    ///
    /// The lookup order rides on the same constant because the two
    /// orders differ only when a replaceable entry overlaps a locked
    /// one, and each front end keeps the order it has always had there
    /// (the reference tests lock overlapping entries and pin both). The
    /// simulated machine never builds such an overlap: its one locked
    /// entry maps the kernel's reserved `[0, 16 MB)`, the only fill is
    /// the miss handler's for a page a lookup missed (so a page above
    /// it), and every entry a fill makes is aligned within its own size
    /// (at most 16 MB), its coalescing window or its 64 KB block, so it
    /// lies wholly above 16 MB too.
    const LOCKED_IN_SLOTS: bool = false;

    /// The first page and page count of the virtual range the entry's
    /// tag covers: what the page map maps to its slot, what a fill
    /// discards on overlap and what a range purge matches.
    fn span(&self) -> (Vpn, u64);

    /// The entry translating `vpn`, a page of [`span`](Self::span):
    /// itself, or a 4 KB view of the page. `None` when the entry holds
    /// no valid translation for that page (a lookup there misses).
    fn at(&self, vpn: Vpn) -> Option<TlbEntry>;

    /// Bytes of virtual address space the entry translates.
    fn reach_bytes(&self) -> u64;

    /// Installs the miss-handler refill `entry` (the store has counted
    /// the fill and bumped the generation).
    fn fill(tlb: &mut SlotTlb<Self>, entry: TlbEntry, contig: &ContigInfo);
}

/// One replaceable slot's contents.
#[derive(Clone, Copy, Debug)]
struct Slot<E> {
    entry: E,
    /// NRU use bit: set on every hit, cleared en masse when all are set.
    used: bool,
}

/// A fully-associative TLB of `E` entries with **not-recently-used**
/// replacement, as in the paper (§1): every hit sets the entry's use
/// bit; a victim is the first entry with a clear use bit from a
/// rotating hand; when none remains, every use bit is cleared (an NRU
/// reset) and the hand's slot goes. Beside the replaceable slots sit
/// the *locked* block entries (kernel mappings, §3.2), which are never
/// replaced and survive every purge.
///
/// The paper's [`CpuTlb`](crate::CpuTlb) is the store over plain
/// [`TlbEntry`]s; the rival designs in `mtlb-schemes` are the store
/// over their own entry types. An entry type ([`SlotEntry`]) supplies
/// only what is specific to it: the virtual range its tag covers, the
/// entry it translates a page through, its reach and its fill. The
/// store owns everything else — slots and use bits, the hand, the MRU
/// token, the generation, [`TlbStats`], NRU install, the fill-time
/// discard and the purges — and implements [`TranslationScheme`] once.
///
/// Slot tokens (what [`TranslationScheme::slot_for`] and
/// [`TranslationScheme::last_hit_slot`] return) number the locked
/// entries first, in install order, then the replaceable slots.
///
/// # Host-side lookup acceleration
///
/// A real fully-associative TLB compares all entries in parallel; the
/// straightforward simulation is a linear scan, which makes *every*
/// simulated memory access O(capacity). The store keeps an exact page
/// map beside the slots instead: every live 16 MB-aligned region has an
/// array naming, for each of its 4 KB pages, the replaceable slot whose
/// tag covers it. Tags never overlap (a fill discards the entries its
/// own overlaps, and merges only into adjacent ranges), so a lookup is
/// one check of the few locked entries, one region lookup and one
/// array load, and a fill finds the entries it overlaps by walking its
/// own pages. A range may cross a region boundary (a coalesced merge),
/// so ranges are mapped region by region. A lowest-free-slot bitset
/// spares the install a walk of the slots. All of it is pure
/// acceleration: outcomes, use bits, victim choice and every statistic
/// are those of the linear scan, which debug builds assert on every
/// lookup.
#[derive(Debug, Clone)]
pub struct SlotTlb<E> {
    slots: Vec<Option<Slot<E>>>,
    locked: Vec<TlbEntry>,
    /// Where the NRU victim scan starts.
    hand: usize,
    /// Host-side acceleration only: the token of the most recent hit.
    mru: usize,
    /// Host-side acceleration only: the slot covering each page.
    map: PageMap,
    /// Host-side acceleration only: bit `i` is set when slot `i` is
    /// empty, so an install finds the lowest free slot in a few words.
    free: Vec<u64>,
    /// Occupied replaceable slots.
    resident: usize,
    /// High-water mark of `resident`.
    peak: usize,
    /// Whether an install ever found no free slot and chose a victim.
    evicted: bool,
    /// Host-side content generation: bumped on every fill, locked
    /// insert and purge (see the `scheme` module's invalidation
    /// contract). No simulated state depends on it.
    generation: u64,
    stats: TlbStats,
}

impl<E: SlotEntry> SlotTlb<E> {
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
        let mut free = vec![u64::MAX; capacity.div_ceil(64)];
        if !capacity.is_multiple_of(64) {
            free[capacity / 64] = (1 << (capacity % 64)) - 1;
        }
        SlotTlb {
            slots: vec![None; capacity],
            locked: Vec::new(),
            hand: 0,
            mru: 0,
            map: PageMap::default(),
            free,
            resident: 0,
            peak: 0,
            evicted: false,
            generation: 0,
            stats: TlbStats::default(),
        }
    }

    /// The locked entries, in install order.
    #[must_use]
    pub fn locked(&self) -> &[TlbEntry] {
        &self.locked
    }

    /// The entry in replaceable slot `slot`.
    #[must_use]
    pub fn entry(&self, slot: usize) -> Option<&E> {
        Some(&self.slots.get(slot)?.as_ref()?.entry)
    }

    /// The replaceable slot whose tag covers `vpn` (one page-map probe).
    #[must_use]
    pub fn slot_at(&self, vpn: Vpn) -> Option<usize> {
        self.map.slot(vpn.index())
    }

    /// Empties every replaceable slot whose tag overlaps
    /// `[vpn, vpn + pages)`. Uncounted: a fill's discard of the entries
    /// its own entry overlaps (a TLB never holds two entries for one
    /// virtual address, the "automatically discard pre-existing
    /// mappings" behaviour of §2.3). Tags never overlap one another, so
    /// the page map names them: walk the range, jumping past each entry
    /// found.
    pub fn discard(&mut self, vpn: Vpn, pages: u64) {
        let mut from = vpn.index();
        let end = from + pages;
        while let Some(s) = self.map.first_in(from, end) {
            let Some((base, n)) = self.entry(s).map(E::span) else {
                break;
            };
            from = base.index() + n;
            self.vacate(s);
        }
    }

    /// Puts `entry` in the lowest free slot, else in the NRU victim's:
    /// the first unused slot from the hand, after an NRU reset when none
    /// is unused. Returns the slot.
    pub fn install(&mut self, entry: E) -> usize {
        let (slot, victim) = self.place(entry, 0..self.slots.len(), self.hand);
        if victim {
            self.hand = if slot + 1 == self.slots.len() {
                0
            } else {
                slot + 1
            };
        }
        slot
    }

    /// Puts `entry` in the lowest free slot of `ways`, else evicts the
    /// first unused slot of `ways` cyclically from `from`, after
    /// clearing the use bits of `ways` (an NRU reset, which makes
    /// `from` the victim) when none is unused. Returns the slot and
    /// whether a victim went.
    ///
    /// # Panics
    ///
    /// Panics when `ways` is empty (every entry of the TLB is locked).
    #[expect(
        clippy::panic,
        reason = "Documented contract: locking every entry then inserting is a configuration error (paper's locked block entries are a bounded handful)."
    )]
    pub fn place(&mut self, entry: E, ways: Range<usize>, from: usize) -> (usize, bool) {
        debug_assert_eq!(
            self.first_free(ways.clone()),
            ways.clone().find(|&i| self.slots[i].is_none()),
            "free-slot bitset must agree with the reference scan"
        );
        let (slot, victim) = match self.first_free(ways.clone()) {
            Some(i) => (i, false),
            None => {
                if ways.is_empty() {
                    panic!(
                        "TLB has no unlocked entry to replace (all {} locked)",
                        self.locked.len()
                    );
                }
                let mut i = from;
                let unused = loop {
                    if self.slots[i].as_ref().is_some_and(|s| !s.used) {
                        break Some(i);
                    }
                    i = if i + 1 == ways.end { ways.start } else { i + 1 };
                    if i == from {
                        break None;
                    }
                };
                let victim = unused.unwrap_or_else(|| {
                    self.stats.nru_resets = self.stats.nru_resets.saturating_add(1);
                    for s in self.slots[ways].iter_mut().flatten() {
                        s.used = false;
                    }
                    from
                });
                self.stats.replacements = self.stats.replacements.saturating_add(1);
                self.evicted = true;
                self.vacate(victim);
                (victim, true)
            }
        };
        let (base, pages) = entry.span();
        self.map.set(base.index(), pages, slot as u16 + 1);
        self.slots[slot] = Some(Slot { entry, used: true });
        self.free[slot / 64] &= !(1 << (slot % 64));
        self.resident += 1;
        self.peak = self.peak.max(self.resident);
        (slot, victim)
    }

    /// Rewrites the entry in `slot` (a merge, or a newly valid
    /// subblock) and sets its use bit. The new tag may grow only over
    /// pages no other entry covers.
    pub fn replace(&mut self, slot: usize, entry: E) {
        let Some(s) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let (old, new) = (s.entry.span(), entry.span());
        *s = Slot { entry, used: true };
        if old != new {
            self.map.set(old.0.index(), old.1, 0);
            self.map.set(new.0.index(), new.1, slot as u16 + 1);
        }
    }

    /// The lowest free slot of `ways`.
    fn first_free(&self, ways: Range<usize>) -> Option<usize> {
        let mut i = ways.start;
        while i < ways.end {
            let word = self.free[i / 64] >> (i % 64);
            if word != 0 {
                let f = i + word.trailing_zeros() as usize;
                return (f < ways.end).then_some(f);
            }
            i = (i / 64 + 1) * 64;
        }
        None
    }

    /// Empties replaceable slot `i`: page map, free bitset, count.
    fn vacate(&mut self, i: usize) {
        if let Some(s) = self.slots[i].take() {
            let (base, pages) = s.entry.span();
            self.map.set(base.index(), pages, 0);
            self.free[i / 64] |= 1 << (i % 64);
            self.resident -= 1;
        }
    }

    /// A shootdown or process-switch purge: every replaceable entry
    /// `doomed` selects goes, counted, and the generation is bumped
    /// even when nothing goes.
    fn purge(&mut self, doomed: impl Fn(&E) -> bool) -> usize {
        self.generation = self.generation.wrapping_add(1);
        let mut removed = 0;
        for i in 0..self.slots.len() {
            if self.slots[i].as_ref().is_some_and(|s| doomed(&s.entry)) {
                self.vacate(i);
                removed += 1;
            }
        }
        self.stats.purges = self.stats.purges.saturating_add(removed as u64);
        removed
    }

    /// Locked entries counted in the capacity.
    fn locked_slots(&self) -> usize {
        if E::LOCKED_IN_SLOTS {
            self.locked.len()
        } else {
            0
        }
    }

    /// The entry token `t` translates `vpn` through, if any.
    fn at_token(&self, t: usize, vpn: Vpn) -> Option<TlbEntry> {
        match t.checked_sub(self.locked.len()) {
            None => Some(self.locked[t]).filter(|e| e.covers(vpn)),
            Some(s) => self.entry(s)?.at(vpn),
        }
    }

    /// The reference lookup the page map accelerates: the first locked
    /// entry covering `vpn`, else the first slot, in slot order, with a
    /// translation for it.
    fn linear_scan(&self, vpn: Vpn) -> Option<(usize, TlbEntry)> {
        (0..self.locked.len() + self.slots.len()).find_map(|t| Some((t, self.at_token(t, vpn)?)))
    }
}

impl<E: SlotEntry> TranslationScheme for SlotTlb<E> {
    fn name(&self) -> &'static str {
        E::NAME
    }

    fn translate(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
        level: PrivilegeLevel,
    ) -> LookupOutcome {
        let vpn = va.vpn();
        // The paper TLB's most recently hit slot first: host-side, since
        // its entries are compared in parallel and the MRU one is also
        // the lowest covering slot unless entries overlap.
        let mru = if E::LOCKED_IN_SLOTS {
            self.at_token(self.mru, vpn).map(|e| (self.mru, e))
        } else {
            None
        };
        let Some((token, entry)) = mru.or_else(|| self.slot_for(vpn)) else {
            self.stats.misses = self.stats.misses.saturating_add(1);
            return LookupOutcome::Miss;
        };
        // A refused access is a hit that leaves the use bit and the MRU
        // token alone.
        self.stats.hits = self.stats.hits.saturating_add(1);
        if !entry.prot().permits(kind, level) {
            return LookupOutcome::Fault(Fault::Protection { va, kind });
        }
        // The use bit and MRU token, exactly as a replayed hit sets them.
        self.note_fast_hits(token, 0);
        entry
            .translate(va)
            .map_or(LookupOutcome::Miss, LookupOutcome::Hit)
    }

    /// Locked entries first, then one page-map probe.
    fn slot_for(&self, vpn: Vpn) -> Option<(usize, TlbEntry)> {
        let found = match self.locked.iter().position(|e| e.covers(vpn)) {
            Some(i) => Some((i, self.locked[i])),
            None => self.slot_at(vpn).and_then(|s| {
                let token = self.locked.len() + s;
                Some((token, self.at_token(token, vpn)?))
            }),
        };
        debug_assert_eq!(
            found,
            self.linear_scan(vpn),
            "page map must agree with the reference linear scan"
        );
        found
    }

    fn last_hit_slot(&self) -> usize {
        self.mru
    }

    fn note_fast_hits(&mut self, slot: usize, n: u64) {
        if let Some(s) = slot
            .checked_sub(self.locked.len())
            .and_then(|s| self.slots.get_mut(s)?.as_mut())
        {
            s.used = true;
        }
        self.mru = slot;
        self.stats.hits = self.stats.hits.saturating_add(n);
    }

    fn wants_contiguity(&self) -> bool {
        E::WANTS_CONTIGUITY
    }

    fn fill(&mut self, entry: TlbEntry, contig: &ContigInfo) {
        self.generation = self.generation.wrapping_add(1);
        self.stats.fills = self.stats.fills.saturating_add(1);
        E::fill(self, entry, contig);
    }

    /// Locked entries are installed at boot, into an empty TLB (the
    /// kernel's block entry, and each secondary core's copy of it). When
    /// they are slots of the capacity, one takes the highest
    /// replaceable slot; so a TLB of `C` entries with `L` locked ones
    /// runs exactly as the paper TLB whose locked entries took its
    /// lowest `L` slots: the same lowest-free order, the same hand order
    /// over the `C - L` others, and the locked entries still win
    /// lookups.
    ///
    /// # Panics
    ///
    /// When locked entries are slots of the capacity: panics if a
    /// replaceable entry is resident (its slot would be lost uncounted)
    /// or no replaceable slot is left to lock.
    #[expect(
        clippy::panic,
        reason = "Documented contract: locking every entry then inserting is a configuration error (paper's locked block entries are a bounded handful)."
    )]
    fn insert_locked(&mut self, entry: TlbEntry) {
        self.generation = self.generation.wrapping_add(1);
        if E::LOCKED_IN_SLOTS {
            assert_eq!(
                self.resident, 0,
                "locked entries are installed into an empty TLB"
            );
            let Some(last) = self.slots.len().checked_sub(1) else {
                panic!(
                    "TLB has no unlocked entry to replace (all {} locked)",
                    self.locked.len()
                );
            };
            self.slots.pop();
            self.free[last / 64] &= !(1 << (last % 64));
            if self.hand >= last {
                self.hand = 0;
            }
        }
        self.locked.push(entry);
    }

    fn purge_range(&mut self, vpn: Vpn, pages: u64) -> usize {
        let end = vpn.index().saturating_add(pages);
        self.purge(|e| {
            let (base, n) = e.span();
            base.index() < end && vpn.index() < base.index() + n
        })
    }

    fn purge_all(&mut self) -> usize {
        self.purge(|_| true)
    }

    fn stats(&self) -> TlbStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    fn capacity(&self) -> usize {
        self.slots.len() + self.locked_slots()
    }

    fn occupancy(&self) -> usize {
        self.resident + self.locked.len()
    }

    fn reach_bytes(&self) -> u64 {
        let slots = self.slots.iter().flatten();
        let unlocked: u64 = slots.map(|s| s.entry.reach_bytes()).sum();
        let locked: u64 = self.locked.iter().map(|e| e.size().bytes()).sum();
        unlocked + locked
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    /// The fewest entries this TLB could have had and still behaved
    /// exactly as it did: its peak occupancy (counting the locked
    /// entries that are slots of the capacity) while no install has
    /// chosen a victim, `None` once one has.
    ///
    /// Exactness: with no victim ever chosen, every install takes the
    /// lowest free slot, and an install into `k` resident entries finds
    /// one at or below slot `k`, so every slot ever used lies below the
    /// peak. The victim scan, the hand and NRU resets never run. The
    /// fills' other choices depend on slot numbers only: a coalesced
    /// merge takes the lower-numbered of its candidates, and the page
    /// map names the one entry a subblock fill extends. Slot numbers,
    /// `last_hit_slot`, the statistics, the page map, `reach_bytes` and
    /// so everything the machine derives from them are therefore the
    /// same at every capacity at or above the peak, and a run at one
    /// such capacity *is* the run at any other. (The split TLB is built
    /// at its fixed geometry whatever capacity a sweep asks for, so it is
    /// the same front end at every requested capacity anyway.)
    fn reach_demand(&self) -> Option<usize> {
        (!self.evicted).then_some(self.peak + self.locked_slots())
    }
}

impl<E: SlotEntry> fmt::Display for SlotTlb<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} TLB ({}/{} entries, {} hits, {} misses)",
            E::NAME,
            self.occupancy(),
            self.capacity(),
            self.stats.hits,
            self.stats.misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CpuTlb;
    use mtlb_types::{Ppn, Prot};

    fn entry(vpn: u64, ppn: u64) -> TlbEntry {
        TlbEntry::new(Vpn::new(vpn), Ppn::new(ppn), PageSize::Base4K, Prot::RW).unwrap()
    }

    #[test]
    fn region_arrays_are_freed_and_reused() {
        let mut tlb = CpuTlb::new(8);
        tlb.insert(entry(1, 1));
        tlb.insert(entry(REGION_PAGES + 1, 2));
        let sp = TlbEntry::new(
            Vpn::new(2 * REGION_PAGES),
            Ppn::new(0),
            PageSize::Size16M,
            Prot::RW,
        )
        .unwrap();
        tlb.insert(sp);
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
        assert_eq!(tlb.slot_at(Vpn::new(7 * REGION_PAGES + 5)), Some(0));
        // The array is freed again when its last page leaves.
        assert_eq!(tlb.purge_range(Vpn::new(7 * REGION_PAGES), REGION_PAGES), 1);
        assert!(tlb.map.regions.is_empty());
        assert_eq!(tlb.map.spare.len(), 3);
    }

    #[test]
    fn a_range_across_a_region_boundary_is_mapped_in_both_regions() {
        let mut map = PageMap::default();
        map.set(REGION_PAGES - 3, 6, 5);
        assert_eq!(map.regions.len(), 2);
        for vpn in REGION_PAGES - 3..REGION_PAGES + 3 {
            assert_eq!(map.slot(vpn), Some(4), "page {vpn}");
        }
        assert_eq!(map.slot(REGION_PAGES + 3), None);
        assert_eq!(map.first_in(REGION_PAGES - 10, REGION_PAGES - 3), None);
        assert_eq!(map.first_in(REGION_PAGES + 2, REGION_PAGES + 9), Some(4));
        map.set(REGION_PAGES - 3, 6, 0);
        assert!(map.regions.is_empty());
        assert!(map.pages.iter().all(|&p| p == 0));
    }

    #[test]
    fn capacity_bound_fits_the_page_map() {
        let max = usize::from(u16::MAX) - 1;
        assert_eq!(CpuTlb::new(max).capacity(), max);
        // The highest slot round-trips through the map's `slot + 1`.
        let mut map = PageMap::default();
        map.set(9, 1, u16::MAX - 1);
        assert_eq!(map.slot(9), Some(max - 1));
    }

    #[test]
    #[should_panic(expected = "exceeds the page map")]
    fn capacity_above_bound_is_rejected() {
        let _ = CpuTlb::new(usize::from(u16::MAX));
    }

    #[test]
    fn a_locked_entry_takes_the_highest_slot_of_the_paper_tlb() {
        let mut tlb = CpuTlb::new(3);
        tlb.insert_locked(entry(100, 100));
        assert_eq!((tlb.capacity(), tlb.slots.len()), (3, 2));
        tlb.insert(entry(1, 1));
        tlb.insert(entry(2, 2));
        tlb.insert(entry(3, 3));
        assert_eq!(tlb.stats().replacements, 1);
        // Tokens: the locked entry first, then the replaceable slots.
        assert_eq!(tlb.slot_for(Vpn::new(100)).map(|(t, _)| t), Some(0));
        assert_eq!(tlb.slot_for(Vpn::new(3)).map(|(t, _)| t), Some(1));
    }

    #[test]
    #[should_panic(expected = "installed into an empty TLB")]
    fn a_locked_slot_is_never_taken_from_a_resident_entry() {
        let mut tlb = CpuTlb::new(3);
        tlb.insert(entry(1, 1));
        tlb.insert_locked(entry(100, 100));
    }
}
