//! The pluggable translation-scheme layer.
//!
//! The machine model does not talk to [`CpuTlb`](crate::CpuTlb)
//! directly: it holds a `Box<dyn TranslationScheme>` and drives every
//! translation front end — the paper's fully-associative NRU TLB, and
//! rival designs such as a coalesced TLB or a multi-page-size split
//! TLB — through this one trait. All of them are the one slot store,
//! [`SlotTlb`](crate::SlotTlb), over their own entry types, and it
//! implements the trait once. The surface is the set of operations the
//! machine and the kernel perform on a TLB, plus two additions rivals
//! need:
//!
//! * [`TranslationScheme::fill`] takes a [`ContigInfo`] describing the
//!   mapping-contiguity the kernel observed around the faulting page,
//!   so schemes that coalesce contiguous VPN→PFN runs can build ranged
//!   entries. Schemes that do not care (the default) ignore it, and the
//!   kernel only computes it when
//!   [`wants_contiguity`](TranslationScheme::wants_contiguity) says so —
//!   the default path pays nothing.
//! * [`TranslationScheme::generation`] is a host-side counter bumped on
//!   every content change (fill, locked insert, purge). The machine's
//!   access-memo and fast-forward layers record it when they prove a
//!   fast path sound and assert it unchanged when replaying, making the
//!   "TLB unchanged since the memo was minted" invariant checkable per
//!   scheme rather than implied by the kernel-entry protocol alone.
//!
//! # Invalidation contract
//!
//! Slot numbers returned by [`slot_for`](TranslationScheme::slot_for)
//! and [`last_hit_slot`](TranslationScheme::last_hit_slot) are only
//! meaningful while [`generation`](TranslationScheme::generation) is
//! unchanged; any fill or purge may reuse them. Callers replaying hits
//! via [`note_fast_hits`](TranslationScheme::note_fast_hits) must have
//! proven (hit on that slot, generation unchanged) that each replayed
//! access would hit the same entry with permitted protection.

use core::fmt;

use mtlb_types::{AccessKind, Ppn, PrivilegeLevel, VirtAddr, Vpn};

use crate::{LookupOutcome, TlbEntry, TlbStats};

/// Mapping-contiguity metadata handed to [`TranslationScheme::fill`].
///
/// Describes a run of `pages` base pages, starting at virtual page
/// `base`, whose backing frames are physically contiguous starting at
/// `pfn` with uniform protection. The run always contains the filled
/// entry. The kernel derives it from the page-table neighbourhood it
/// already walked, so producing it costs no simulated cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContigInfo {
    /// First virtual page of the known-contiguous run.
    pub base: Vpn,
    /// Physical frame backing `base`.
    pub pfn: Ppn,
    /// Length of the run in base pages (at least 1).
    pub pages: u64,
}

impl ContigInfo {
    /// The trivial run: exactly the pages the entry itself maps.
    #[must_use]
    pub fn for_entry(entry: &TlbEntry) -> Self {
        ContigInfo {
            base: entry.vpn_base(),
            pfn: entry.pfn_base(),
            pages: entry.size().base_pages(),
        }
    }
}

/// A complete CPU translation front end.
///
/// Implemented once, by the slot store [`SlotTlb`](crate::SlotTlb),
/// for the paper's fully-associative NRU TLB ([`CpuTlb`](crate::CpuTlb),
/// the default) and the rival designs in the `mtlb-schemes` crate. See
/// the module documentation for the invalidation contract; see
/// `DESIGN.md` §11 for how to add a scheme.
pub trait TranslationScheme: fmt::Debug + Send {
    /// Short stable identifier (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Looks up `va` for an access of `kind` at privilege `level`,
    /// updating hit/miss statistics and replacement state.
    fn translate(&mut self, va: VirtAddr, kind: AccessKind, level: PrivilegeLevel)
        -> LookupOutcome;

    /// The entry that covers `vpn`, if any, without perturbing
    /// statistics or replacement state (for assertions and debugging).
    ///
    /// Schemes with ranged or compressed storage synthesize an
    /// equivalent [`TlbEntry`] view of the covering mapping.
    fn entry_for(&self, vpn: Vpn) -> Option<TlbEntry> {
        self.slot_for(vpn).map(|(_, e)| e)
    }

    /// Like [`entry_for`](Self::entry_for), but also returns the slot
    /// token of the covering entry, for use with
    /// [`note_fast_hits`](Self::note_fast_hits).
    fn slot_for(&self, vpn: Vpn) -> Option<(usize, TlbEntry)>;

    /// Slot token of the entry that produced the most recent
    /// [`LookupOutcome::Hit`].
    fn last_hit_slot(&self) -> usize;

    /// Replays `n` consecutive translate hits against the entry in
    /// `slot` without re-running the lookup. Side effects must equal
    /// those of `n` successful [`translate`](Self::translate) calls
    /// (use/recency state and the hit counter); the generation counter
    /// must NOT change.
    fn note_fast_hits(&mut self, slot: usize, n: u64);

    /// Whether [`fill`](Self::fill) wants real [`ContigInfo`]. When
    /// `false` (the default) the kernel skips the contiguity scan and
    /// passes [`ContigInfo::for_entry`].
    fn wants_contiguity(&self) -> bool {
        false
    }

    /// Installs the miss-handler refill `entry`, evicting as needed.
    /// `contig` describes the known-contiguous mapping run around the
    /// entry (see [`ContigInfo`]); schemes without ranged storage
    /// ignore it. Counts exactly one fill.
    fn fill(&mut self, entry: TlbEntry, contig: &ContigInfo);

    /// Installs a *locked* block entry (kernel mappings) that is never
    /// replaced and survives [`purge_all`](Self::purge_all).
    fn insert_locked(&mut self, entry: TlbEntry);

    /// Purges every unlocked entry overlapping `[vpn, vpn + pages)`
    /// (TLB shootdown). Returns the number of entries removed.
    fn purge_range(&mut self, vpn: Vpn, pages: u64) -> usize;

    /// Purges every unlocked entry (process switch). Locked block
    /// entries survive. Returns the number of entries removed.
    fn purge_all(&mut self) -> usize;

    /// Accumulated hit/miss/replacement counters.
    fn stats(&self) -> TlbStats;

    /// Resets the counters (not the contents).
    fn reset_stats(&mut self);

    /// Number of entries the scheme can hold.
    fn capacity(&self) -> usize;

    /// Number of currently valid entries (including locked ones).
    fn occupancy(&self) -> usize;

    /// Total bytes of virtual address space the resident entries can
    /// translate — the scheme's current *reach*.
    fn reach_bytes(&self) -> u64;

    /// Host-side content generation: bumped on every fill, locked
    /// insert, and purge. See the module docs for the contract with
    /// the machine's memo/fast-forward layers.
    fn generation(&self) -> u64;

    /// A capacity from which on this front end runs the same, bit for
    /// bit, at every capacity — lookups, slot numbers, statistics and
    /// reach — or `None` when it claims no such bound. A sweep may then
    /// answer a cell that differs from a finished run only in capacity,
    /// at least this, with that run. The default (`None`) claims
    /// nothing, so such a scheme is reused only at its own capacity.
    /// The slot store's implementation states its proof.
    fn reach_demand(&self) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CpuTlb;
    use mtlb_types::{PageSize, PhysAddr, Prot};

    fn entry(vpn: u64, ppn: u64) -> TlbEntry {
        TlbEntry::new(Vpn::new(vpn), Ppn::new(ppn), PageSize::Base4K, Prot::RW)
            .expect("base pages are always aligned")
    }

    #[test]
    fn contig_info_for_entry_covers_exactly_the_entry() {
        let e =
            TlbEntry::new(Vpn::new(4), Ppn::new(8), PageSize::Size16K, Prot::RW).expect("aligned");
        let c = ContigInfo::for_entry(&e);
        assert_eq!(c.base, Vpn::new(4));
        assert_eq!(c.pfn, Ppn::new(8));
        assert_eq!(c.pages, 4);
    }

    #[test]
    fn cpu_tlb_behind_the_trait_matches_direct_use() {
        let mut direct = CpuTlb::new(4);
        let mut boxed: Box<dyn TranslationScheme> = Box::new(CpuTlb::new(4));
        for (vpn, ppn) in [(1u64, 0x10u64), (2, 0x11), (3, 0x12)] {
            let e = entry(vpn, ppn);
            direct.insert(e);
            boxed.fill(e, &ContigInfo::for_entry(&e));
        }
        for va in [0x1080u64, 0x2040, 0x3000, 0x9000] {
            let a = direct.translate(VirtAddr::new(va), AccessKind::Read, PrivilegeLevel::User);
            let b = boxed.translate(VirtAddr::new(va), AccessKind::Read, PrivilegeLevel::User);
            assert_eq!(a, b);
        }
        assert_eq!(direct.stats(), boxed.stats());
        assert_eq!(boxed.name(), "cpu");
        assert_eq!(boxed.capacity(), 4);
        assert_eq!(boxed.occupancy(), 3);
        assert_eq!(boxed.reach_bytes(), 3 * 4096);
        assert!(!boxed.wants_contiguity());
    }

    #[test]
    fn generation_bumps_on_content_changes_only() {
        let mut tlb: Box<dyn TranslationScheme> = Box::new(CpuTlb::new(4));
        let g0 = tlb.generation();
        let e = entry(1, 0x10);
        tlb.fill(e, &ContigInfo::for_entry(&e));
        let g1 = tlb.generation();
        assert_ne!(g0, g1, "fill must bump the generation");
        // Lookups and fast-hit replays must not.
        let _ = tlb.translate(
            VirtAddr::new(0x1000),
            AccessKind::Read,
            PrivilegeLevel::User,
        );
        let slot = tlb.last_hit_slot();
        tlb.note_fast_hits(slot, 3);
        assert_eq!(tlb.generation(), g1);
        // Purges must.
        tlb.purge_all();
        assert_ne!(tlb.generation(), g1);
    }

    #[test]
    fn slot_for_and_entry_for_agree() {
        let mut tlb = CpuTlb::new(4);
        tlb.insert(entry(5, 0x20));
        let scheme: &dyn TranslationScheme = &tlb;
        let (slot, e) = scheme.slot_for(Vpn::new(5)).expect("present");
        assert_eq!(scheme.entry_for(Vpn::new(5)), Some(e));
        assert_eq!(
            e.translate(VirtAddr::new(0x5040)),
            Some(PhysAddr::new(0x20040))
        );
        assert!(scheme.entry_for(Vpn::new(6)).is_none());
        assert!(scheme.slot_for(Vpn::new(6)).is_none());
        let _ = slot;
    }
}
