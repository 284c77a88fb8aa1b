//! Rival TLB-reach designs behind the [`TranslationScheme`] trait.
//!
//! The paper's machine always translates through the fully-associative
//! NRU [`CpuTlb`] (`mtlb-tlb`); this crate supplies the competitors the
//! fig5 experiment and the §5 related-work table pit against it on
//! identical address streams (each cell is a sweep job, run live; the
//! streams are identical because the workloads are deterministic and
//! configuration-independent):
//!
//! * [`CoalescedTlb`] — detects contiguous VPN→PFN runs at fill time
//!   and stores them as ranged entries (Ban et al., arXiv:1908.08774).
//!   Earns reach from whatever physical contiguity the frame allocator
//!   produces naturally.
//! * [`SplitTlb`] — a multi-page-size split TLB with fixed cpuid-style
//!   per-size-class arrays (64×4-way @ 4 KB, 32×4-way mid, 8 FA
//!   large). Earns reach only when the OS actually maps superpages.
//! * [`SubblockTlb`] — Talluri & Hill's complete-subblock TLB, the
//!   design the paper's §5 sets itself against: one entry per 64 KB
//!   block with a frame per 4 KB subblock, so discontiguous frames share
//!   an entry without any help from the OS.
//!
//! All three are one slot store, `RivalTlb<E>`, over their own entry
//! type `E`. The store holds the slots with their use bits, the locked
//! kernel block entries, the MRU token, the generation and the
//! [`TlbStats`], and implements [`TranslationScheme`] once: the
//! locked-first lookup, the hit path, the purges, the free-slot-or-NRU
//! install (the paper TLB's policy, so the comparison isolates reach,
//! not replacement), occupancy and reach. Each rival's module supplies
//! only its entry type, its lookup and its fill (split also its set
//! geometry and set-local victim choice).
//!
//! [`SchemeConfig`] is the serializable selector the machine
//! configuration carries; its [`build`](SchemeConfig::build) factory
//! constructs the chosen front end, and [`SchemeConfig::ALL`] lists every
//! front end for the tests that must cover each one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::iter_over_hash_type
    )
)]

mod coalesced;
mod split;
mod subblock;

pub use coalesced::{CoalescedTlb, MAX_COALESCE};
pub use split::SplitTlb;
pub use subblock::SubblockTlb;

use core::fmt;

use mtlb_tlb::{ContigInfo, CpuTlb, LookupOutcome, TlbEntry, TlbStats, TranslationScheme};
use mtlb_types::{AccessKind, Fault, PrivilegeLevel, VirtAddr, Vpn};

/// `pub` inside a private module: the rivals' public aliases name the
/// store, and the crate exports nothing else of it.
mod store {
    /// A rival TLB: `capacity` replaceable slots of entry type `E`, each
    /// with a use bit, beside a side list of locked kernel block entries
    /// that are never replaced or purged.
    #[derive(Debug)]
    pub struct RivalTlb<E> {
        pub(crate) slots: Vec<Option<super::Slot<E>>>,
        pub(crate) locked: Vec<mtlb_tlb::TlbEntry>,
        /// Where the NRU victim scan starts.
        pub(crate) hand: usize,
        /// Slot token of the most recent hit; `capacity + i` addresses
        /// locked entry `i`.
        pub(crate) mru: usize,
        pub(crate) generation: u64,
        pub(crate) stats: mtlb_tlb::TlbStats,
    }
}

use store::RivalTlb;

/// One replaceable slot's contents.
#[derive(Clone, Copy, Debug)]
struct Slot<E> {
    entry: E,
    used: bool,
}

/// What a rival puts in a slot, and how it finds and fills one.
trait RivalEntry: Copy + fmt::Debug + Send {
    /// [`TranslationScheme::name`].
    const NAME: &'static str;
    /// [`TranslationScheme::wants_contiguity`].
    const WANTS_CONTIGUITY: bool = false;

    /// The replaceable slot translating `vpn`, with the entry it
    /// translates through there.
    fn find(tlb: &RivalTlb<Self>, vpn: Vpn) -> Option<(usize, TlbEntry)>;

    /// Installs the refill `entry`; the store has counted the fill and
    /// bumped the generation.
    fn fill(tlb: &mut RivalTlb<Self>, entry: TlbEntry, contig: &ContigInfo);

    /// Whether the entry's virtual range overlaps `[vpn, vpn + pages)`.
    fn overlaps(&self, vpn: Vpn, pages: u64) -> bool;

    /// Bytes of virtual address space the entry translates.
    fn reach_bytes(&self) -> u64;
}

impl<E: Copy> RivalTlb<E> {
    /// An empty TLB with `capacity` replaceable slots.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB must have at least one entry");
        RivalTlb {
            slots: vec![None; capacity],
            locked: Vec::new(),
            hand: 0,
            mru: 0,
            generation: 0,
            stats: TlbStats::default(),
        }
    }

    /// Puts `entry` in the first free slot, else in the NRU victim's —
    /// the first unused slot from the hand, after resetting every use
    /// bit when none is unused — and returns the slot.
    fn install(&mut self, entry: E) -> usize {
        let i = match self.slots.iter().position(Option::is_none) {
            Some(i) => i,
            None => {
                let n = self.slots.len();
                let unused = (0..n)
                    .map(|k| (self.hand + k) % n)
                    .find(|&i| self.slots[i].as_ref().is_some_and(|s| !s.used));
                let victim = unused.unwrap_or_else(|| {
                    // Every use bit is set: start a new NRU generation.
                    self.stats.nru_resets = self.stats.nru_resets.saturating_add(1);
                    for s in self.slots.iter_mut().flatten() {
                        s.used = false;
                    }
                    self.hand
                });
                self.stats.replacements = self.stats.replacements.saturating_add(1);
                self.hand = (victim + 1) % n;
                victim
            }
        };
        self.slots[i] = Some(Slot { entry, used: true });
        i
    }

    /// Empties every slot whose entry `doomed` selects and returns how
    /// many went. Uncounted: a fill's discard of the entries its own
    /// entry overlaps (a TLB never holds two entries for one virtual
    /// address), like the paper TLB's insert-time discard.
    fn discard(&mut self, doomed: impl Fn(&E) -> bool) -> usize {
        let mut removed = 0;
        for slot in &mut self.slots {
            if slot.as_ref().is_some_and(|s| doomed(&s.entry)) {
                *slot = None;
                removed += 1;
            }
        }
        removed
    }

    /// A shootdown or process-switch purge: a counted [`discard`]
    /// that bumps the generation even when it removes nothing.
    ///
    /// [`discard`]: Self::discard
    fn purge(&mut self, doomed: impl Fn(&E) -> bool) -> usize {
        self.generation = self.generation.wrapping_add(1);
        let removed = self.discard(doomed);
        self.stats.purges = self.stats.purges.saturating_add(removed as u64);
        removed
    }
}

impl<E: RivalEntry> TranslationScheme for RivalTlb<E> {
    fn name(&self) -> &'static str {
        E::NAME
    }

    fn translate(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
        level: PrivilegeLevel,
    ) -> LookupOutcome {
        let Some((slot, entry)) = self.slot_for(va.vpn()) else {
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
        self.note_fast_hits(slot, 0);
        entry
            .translate(va)
            .map_or(LookupOutcome::Miss, LookupOutcome::Hit)
    }

    fn slot_for(&self, vpn: Vpn) -> Option<(usize, TlbEntry)> {
        if let Some(i) = self.locked.iter().position(|e| e.covers(vpn)) {
            return Some((self.slots.len() + i, self.locked[i]));
        }
        E::find(self, vpn)
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

    fn wants_contiguity(&self) -> bool {
        E::WANTS_CONTIGUITY
    }

    fn fill(&mut self, entry: TlbEntry, contig: &ContigInfo) {
        self.generation = self.generation.wrapping_add(1);
        self.stats.fills = self.stats.fills.saturating_add(1);
        E::fill(self, entry, contig);
    }

    fn insert_locked(&mut self, entry: TlbEntry) {
        self.generation = self.generation.wrapping_add(1);
        self.locked.push(entry);
    }

    fn purge_range(&mut self, vpn: Vpn, pages: u64) -> usize {
        self.purge(|e| e.overlaps(vpn, pages))
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
        self.slots.len()
    }

    fn occupancy(&self) -> usize {
        self.slots.iter().flatten().count() + self.locked.len()
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
}

/// Which translation front end a machine uses.
///
/// `Cpu` (the default) is the paper's TLB and is bit-identical to the
/// machine before this selector existed; the rivals are the fig5
/// competitors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchemeConfig {
    /// The paper's fully-associative NRU TLB ([`CpuTlb`]).
    #[default]
    Cpu,
    /// Contiguity-coalescing TLB ([`CoalescedTlb`]).
    Coalesced,
    /// Multi-page-size split TLB ([`SplitTlb`]; fixed geometry — the
    /// configured entry count does not apply).
    Split,
    /// Complete-subblock TLB ([`SubblockTlb`]; the configured entry
    /// count is the number of 64 KB blocks).
    Subblock,
}

impl SchemeConfig {
    /// Every front end. The per-scheme tests (conformance, the
    /// machine-level audit, the fast-path differential, the shootdown
    /// table) iterate this list, so a new variant is covered by all of
    /// them once it is listed here.
    pub const ALL: [SchemeConfig; 4] = [
        SchemeConfig::Cpu,
        SchemeConfig::Coalesced,
        SchemeConfig::Split,
        SchemeConfig::Subblock,
    ];

    /// Short stable identifier (matches
    /// [`TranslationScheme::name`]).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SchemeConfig::Cpu => "cpu",
            SchemeConfig::Coalesced => "coalesced",
            SchemeConfig::Split => "split",
            SchemeConfig::Subblock => "subblock",
        }
    }

    /// Builds the selected front end. `entries` sizes the schemes with
    /// a configurable capacity (`Cpu`, `Coalesced`, `Subblock`); the
    /// split TLB's geometry is fixed by design.
    #[must_use]
    pub fn build(&self, entries: usize) -> Box<dyn TranslationScheme> {
        match self {
            SchemeConfig::Cpu => Box::new(CpuTlb::new(entries)),
            SchemeConfig::Coalesced => Box::new(CoalescedTlb::new(entries)),
            SchemeConfig::Split => Box::new(SplitTlb::new()),
            SchemeConfig::Subblock => Box::new(SubblockTlb::new(entries)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_the_named_scheme() {
        for cfg in SchemeConfig::ALL {
            let scheme = cfg.build(96);
            assert_eq!(scheme.name(), cfg.name());
            assert_eq!(scheme.occupancy(), 0);
        }
        let names = SchemeConfig::ALL.map(|cfg| cfg.name());
        assert_eq!(names, ["cpu", "coalesced", "split", "subblock"]);
        assert_eq!(SchemeConfig::default(), SchemeConfig::Cpu);
        assert_eq!(SchemeConfig::Cpu.build(64).capacity(), 64);
        assert_eq!(SchemeConfig::Subblock.build(64).capacity(), 64);
        assert_eq!(SchemeConfig::Split.build(64).capacity(), 104);
    }
}
