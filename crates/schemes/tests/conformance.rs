//! Scheme-conformance suite: every [`TranslationScheme`] implementation
//! reachable through the [`SchemeConfig`] factory must honour the same
//! behavioural contract the machine and kernel rely on:
//!
//! * fill-then-lookup round trips (translate hits with the right
//!   physical address; `entry_for`/`slot_for` agree with the hit);
//! * a covering entry that forbids the access faults, and the lookup
//!   counts as a hit;
//! * `purge_range`/`purge_all` invalidate mappings while locked kernel
//!   block entries survive;
//! * statistics reconcile with the operations performed (fills count
//!   `fill` calls, misses count `Miss` outcomes, `note_fast_hits`
//!   advances the hit counter like real lookups);
//! * the generation counter bumps on every content change and *only*
//!   on content changes — the soundness basis for the machine's
//!   access-memo and fast-forward layers.
//!
//! Each test runs against every scheme in [`SchemeConfig::ALL`] through
//! the factory, so a new scheme listed there is conformance-checked for
//! free.

use mtlb_schemes::SchemeConfig;
use mtlb_tlb::{ContigInfo, LookupOutcome, TlbEntry, TlbStats, TranslationScheme};
use mtlb_types::{AccessKind, Fault, PageSize, PhysAddr, Ppn, PrivilegeLevel, Prot, VirtAddr, Vpn};

/// Every scheme the factory can build, with a capacity small enough to
/// exercise replacement but large enough for the test working sets.
fn all_schemes() -> Vec<Box<dyn TranslationScheme>> {
    SchemeConfig::ALL.iter().map(|cfg| cfg.build(8)).collect()
}

fn entry4k(vpn: u64, ppn: u64) -> TlbEntry {
    TlbEntry::new(Vpn::new(vpn), Ppn::new(ppn), PageSize::Base4K, Prot::RW)
        .expect("base pages are always aligned")
}

/// Fills a 4 KB mapping with the trivial (single-page) contiguity run,
/// so coalescing schemes behave like the others.
fn fill4k(scheme: &mut dyn TranslationScheme, vpn: u64, ppn: u64) {
    let e = entry4k(vpn, ppn);
    scheme.fill(e, &ContigInfo::for_entry(&e));
}

fn read(scheme: &mut dyn TranslationScheme, va: u64) -> LookupOutcome {
    scheme.translate(VirtAddr::new(va), AccessKind::Read, PrivilegeLevel::User)
}

/// Deliberately non-adjacent (VPN and PFN) mappings: no scheme may
/// merge them, so occupancy and reach are comparable across designs.
const MAPPINGS: [(u64, u64); 3] = [(0x11, 0x210), (0x23, 0x450), (0x35, 0x690)];

#[test]
fn fill_then_lookup_round_trips() {
    for scheme in &mut all_schemes() {
        for (vpn, ppn) in MAPPINGS {
            fill4k(scheme.as_mut(), vpn, ppn);
        }
        for (vpn, ppn) in MAPPINGS {
            let va = vpn * 4096 + 0x123;
            let pa = PhysAddr::new(ppn * 4096 + 0x123);
            assert_eq!(
                read(scheme.as_mut(), va),
                LookupOutcome::Hit(pa),
                "{}: filled mapping must translate",
                scheme.name()
            );
            let e = scheme
                .entry_for(Vpn::new(vpn))
                .unwrap_or_else(|| panic!("{}: entry_for after fill", scheme.name()));
            assert_eq!(e.translate(VirtAddr::new(va)), Some(pa));
            let (_, e2) = scheme
                .slot_for(Vpn::new(vpn))
                .unwrap_or_else(|| panic!("{}: slot_for after fill", scheme.name()));
            assert_eq!(e2, e, "{}: slot_for and entry_for agree", scheme.name());
        }
        assert_eq!(
            read(scheme.as_mut(), 0x77770123),
            LookupOutcome::Miss,
            "{}: unmapped page must miss",
            scheme.name()
        );
        assert!(scheme.entry_for(Vpn::new(0x77770)).is_none());
        assert!(scheme.slot_for(Vpn::new(0x77770)).is_none());
        assert_eq!(scheme.occupancy(), MAPPINGS.len(), "{}", scheme.name());
        assert!(scheme.occupancy() <= scheme.capacity());
        assert_eq!(
            scheme.reach_bytes(),
            MAPPINGS.len() as u64 * 4096,
            "{}: three distinct 4 KB mappings reach 12 KB",
            scheme.name()
        );
    }
}

#[test]
fn a_forbidding_entry_faults_and_counts_one_hit() {
    for scheme in &mut all_schemes() {
        let e = TlbEntry::new(Vpn::new(0x42), Ppn::new(0x84), PageSize::Base4K, Prot::READ)
            .expect("base pages are always aligned");
        scheme.fill(e, &ContigInfo::for_entry(&e));
        let (va, kind) = (VirtAddr::new(0x42_010), AccessKind::Write);
        assert_eq!(
            scheme.translate(va, kind, PrivilegeLevel::User),
            LookupOutcome::Fault(Fault::Protection { va, kind }),
            "{}: a read-only entry refuses a write",
            scheme.name()
        );
        let s = scheme.stats();
        assert_eq!(
            (s.hits, s.misses),
            (1, 0),
            "{}: the refused lookup is a hit",
            scheme.name()
        );
    }
}

#[test]
fn purge_range_invalidates_exactly_the_overlap() {
    for scheme in &mut all_schemes() {
        for (vpn, ppn) in MAPPINGS {
            fill4k(scheme.as_mut(), vpn, ppn);
        }
        let (gone_vpn, _) = MAPPINGS[1];
        let removed = scheme.purge_range(Vpn::new(gone_vpn), 1);
        assert_eq!(removed, 1, "{}: one mapping overlaps", scheme.name());
        assert_eq!(
            read(scheme.as_mut(), gone_vpn * 4096),
            LookupOutcome::Miss,
            "{}: purged mapping must miss",
            scheme.name()
        );
        for (vpn, _) in [MAPPINGS[0], MAPPINGS[2]] {
            assert!(
                matches!(read(scheme.as_mut(), vpn * 4096), LookupOutcome::Hit(_)),
                "{}: non-overlapping mappings survive purge_range",
                scheme.name()
            );
        }
        assert_eq!(scheme.stats().purges, 1, "{}", scheme.name());
    }
}

#[test]
fn purge_all_removes_everything_but_locked_entries() {
    for scheme in &mut all_schemes() {
        // A PA-RISC style locked kernel block mapping at VA 0.
        let block = TlbEntry::new(
            Vpn::new(0),
            Ppn::new(0),
            PageSize::Size16M,
            Prot::RW | Prot::SUPERVISOR_ONLY,
        )
        .expect("16M at zero is aligned");
        scheme.insert_locked(block);
        for (vpn, ppn) in MAPPINGS {
            fill4k(scheme.as_mut(), vpn * 0x1000, ppn);
        }
        let removed = scheme.purge_all();
        assert_eq!(removed, MAPPINGS.len(), "{}", scheme.name());
        assert_eq!(
            scheme.occupancy(),
            1,
            "{}: locked entry remains",
            scheme.name()
        );
        for (vpn, _) in MAPPINGS {
            assert_eq!(
                read(scheme.as_mut(), vpn * 0x1000 * 4096),
                LookupOutcome::Miss,
                "{}: unlocked mappings gone after purge_all",
                scheme.name()
            );
        }
        let out = scheme.translate(
            VirtAddr::new(0x4321),
            AccessKind::Read,
            PrivilegeLevel::Supervisor,
        );
        assert_eq!(
            out,
            LookupOutcome::Hit(PhysAddr::new(0x4321)),
            "{}: locked block entry survives and still translates",
            scheme.name()
        );
        assert!(
            scheme.entry_for(Vpn::new(3)).is_some(),
            "{}: entry_for sees the locked block",
            scheme.name()
        );
    }
}

#[test]
fn stats_reconcile_with_the_operations_performed() {
    for scheme in &mut all_schemes() {
        for (vpn, ppn) in MAPPINGS {
            fill4k(scheme.as_mut(), vpn, ppn);
        }
        // 3 hits, 2 misses, then 5 replayed fast hits.
        for (vpn, _) in MAPPINGS {
            assert!(matches!(
                read(scheme.as_mut(), vpn * 4096),
                LookupOutcome::Hit(_)
            ));
        }
        for va in [0x5555_0000u64, 0x6666_0000] {
            assert_eq!(read(scheme.as_mut(), va), LookupOutcome::Miss);
        }
        let (vpn, _) = MAPPINGS[0];
        assert!(matches!(
            read(scheme.as_mut(), vpn * 4096),
            LookupOutcome::Hit(_)
        ));
        let slot = scheme.last_hit_slot();
        scheme.note_fast_hits(slot, 5);
        let s = scheme.stats();
        assert_eq!(
            s.fills,
            MAPPINGS.len() as u64,
            "{}: one fill per fill() call",
            scheme.name()
        );
        assert_eq!(s.misses, 2, "{}: one miss per Miss outcome", scheme.name());
        assert_eq!(
            s.hits,
            4 + 5,
            "{}: note_fast_hits counts like real lookups",
            scheme.name()
        );
        assert_eq!(s.lookups(), s.hits + s.misses, "{}", scheme.name());
        scheme.reset_stats();
        assert_eq!(
            scheme.stats(),
            TlbStats::default(),
            "{}: reset zeroes",
            scheme.name()
        );
        // Contents survive a stats reset.
        assert!(
            matches!(read(scheme.as_mut(), vpn * 4096), LookupOutcome::Hit(_)),
            "{}: reset_stats must not drop entries",
            scheme.name()
        );
    }
}

#[test]
fn generation_bumps_on_content_changes_and_only_those() {
    for scheme in &mut all_schemes() {
        // Locked entries are installed at boot, into the empty TLB.
        let g0 = scheme.generation();
        let block = TlbEntry::new(
            Vpn::new(0x4000),
            Ppn::new(0x4000),
            PageSize::Size16M,
            Prot::RW | Prot::SUPERVISOR_ONLY,
        )
        .expect("aligned");
        scheme.insert_locked(block);
        let g1 = scheme.generation();
        assert_ne!(g1, g0, "{}: insert_locked bumps", scheme.name());
        fill4k(scheme.as_mut(), 0x11, 0x210);
        let g2 = scheme.generation();
        assert_ne!(g2, g1, "{}: fill bumps the generation", scheme.name());

        // Lookups (hit and miss) and fast-hit replays must not bump it.
        assert!(matches!(
            read(scheme.as_mut(), 0x11_000),
            LookupOutcome::Hit(_)
        ));
        assert_eq!(read(scheme.as_mut(), 0x9999_0000), LookupOutcome::Miss);
        let slot = scheme.last_hit_slot();
        scheme.note_fast_hits(slot, 3);
        scheme.reset_stats();
        assert_eq!(
            scheme.generation(),
            g2,
            "{}: lookups, replays, and stats resets leave the generation alone",
            scheme.name()
        );

        // Every purge bumps it, even one that removes nothing — the
        // memo layer treats any purge as invalidating.
        assert_eq!(scheme.purge_range(Vpn::new(0x77770), 1), 0);
        let g3 = scheme.generation();
        assert_ne!(
            g3,
            g2,
            "{}: purge_range bumps even when empty",
            scheme.name()
        );
        scheme.purge_all();
        assert_ne!(
            scheme.generation(),
            g3,
            "{}: purge_all bumps",
            scheme.name()
        );
    }
}

#[test]
fn note_fast_hits_preserves_a_subsequent_lookup() {
    for scheme in &mut all_schemes() {
        fill4k(scheme.as_mut(), 0x42, 0x84);
        let first = read(scheme.as_mut(), 0x42_010);
        assert_eq!(first, LookupOutcome::Hit(PhysAddr::new(0x84_010)));
        let slot = scheme.last_hit_slot();
        let (probe_slot, _) = scheme.slot_for(Vpn::new(0x42)).expect("resident");
        assert_eq!(
            probe_slot,
            slot,
            "{}: last_hit_slot identifies the hit entry",
            scheme.name()
        );
        scheme.note_fast_hits(slot, 7);
        assert_eq!(scheme.last_hit_slot(), slot, "{}", scheme.name());
        assert_eq!(
            read(scheme.as_mut(), 0x42_fff),
            LookupOutcome::Hit(PhysAddr::new(0x84_fff)),
            "{}: entry still resident and translating after replay",
            scheme.name()
        );
    }
}

/// Which entry NRU evicts in the schemes whose one rotating hand sweeps
/// every slot (split's NRU is per set: see its
/// `base_array_conflicts_within_one_set`). Each fill maps one page of
/// its own 64 KB block, so the subblock TLB spends one entry per fill.
#[test]
fn nru_evicts_the_first_unused_entry_from_the_hand() {
    let page = |k: u64| k * 16;
    for cfg in [
        SchemeConfig::Cpu,
        SchemeConfig::Coalesced,
        SchemeConfig::Subblock,
    ] {
        let mut scheme = cfg.build(4);
        // Five fills into four slots: every use bit is set, so one NRU
        // reset, and the hand (slot 0) gives up p0.
        for k in 0..5 {
            fill4k(scheme.as_mut(), page(k), 0x100 + k);
        }
        assert!(matches!(
            read(scheme.as_mut(), page(1) * 4096),
            LookupOutcome::Hit(_)
        ));
        // From the hand (slot 1): p1 was used since the reset, p2 was not.
        fill4k(scheme.as_mut(), page(5), 0x105);
        let resident: Vec<u64> = (0..6)
            .filter(|&k| scheme.entry_for(Vpn::new(page(k))).is_some())
            .collect();
        assert_eq!(resident, [1, 3, 4, 5], "{}: p0 then p2 go", cfg.name());
        let s = scheme.stats();
        assert_eq!(
            (s.nru_resets, s.replacements),
            (1, 2),
            "{}: one reset, two replacements",
            cfg.name()
        );
    }
}

// ---------------------------------------------------------------------
// The shared lookup against a linear-scan reference model.
//
// Every front end is one slot store that finds entries through a page
// map; the model below keeps the same slots in a plain vector and finds
// everything by scanning it in slot order, with each scheme's fill
// written out the straightforward way (coalesced merges into the first
// qualifying range in slot order, subblock fills find their block by
// scanning). After every operation the front end's lookups, `slot_for`
// tokens, counters, occupancy and reach must equal the model's.
// ---------------------------------------------------------------------

use mtlb_schemes::MAX_COALESCE;
use proptest::prelude::*;

/// Base pages per 16 MB region.
const REGION: u64 = 4096;

/// The page a raw draw picks: one of the 32 pages around the start of
/// region 1 or 2, so coalesced runs cross 8-page windows and a 16 MB
/// boundary, and subblock fills land in resident and new blocks.
fn page_of(raw: u64) -> u64 {
    (1 + raw % 2) * REGION - 16 + (raw >> 1) % 32
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Fill(u64),
    Translate(u64),
    PurgeRange(u64),
    PurgeAll,
}

/// What a slot of the model holds.
#[derive(Clone, Copy, Debug, PartialEq)]
#[expect(
    clippy::large_enum_variant,
    reason = "The model mirrors the subblock TLB's unboxed block entry."
)]
enum Tag {
    /// `pages` pages from `base` on the frames from `pfn`; `whole` when
    /// the run translates through one superpage entry (cpu, split, a
    /// subblock TLB's large superpage), else through 4 KB views
    /// (coalesced).
    Run {
        base: u64,
        pfn: u64,
        pages: u64,
        prot: Prot,
        whole: bool,
    },
    /// A subblock TLB's 64 KB block: a frame and protection per page.
    Block {
        base: u64,
        subs: [Option<(u64, Prot)>; 16],
    },
}

impl Tag {
    fn span(&self) -> (u64, u64) {
        match *self {
            Tag::Run { base, pages, .. } => (base, pages),
            Tag::Block { base, .. } => (base, 16),
        }
    }

    fn at(&self, vpn: u64) -> Option<TlbEntry> {
        match *self {
            Tag::Run {
                base,
                pfn,
                pages,
                prot,
                whole,
            } => {
                let d = vpn.wrapping_sub(base);
                if d >= pages {
                    return None;
                }
                if whole {
                    let size = PageSize::ALL
                        .into_iter()
                        .find(|s| s.base_pages() == pages)?;
                    TlbEntry::new(Vpn::new(base), Ppn::new(pfn), size, prot)
                } else {
                    TlbEntry::new(Vpn::new(vpn), Ppn::new(pfn + d), PageSize::Base4K, prot)
                }
            }
            Tag::Block { base, subs } => {
                let (pfn, prot) = (*subs.get(usize::try_from(vpn.wrapping_sub(base)).ok()?)?)?;
                TlbEntry::new(Vpn::new(vpn), Ppn::new(pfn), PageSize::Base4K, prot)
            }
        }
    }

    fn reach(&self) -> u64 {
        match *self {
            Tag::Run { pages, .. } => pages * 4096,
            Tag::Block { subs, .. } => subs.iter().flatten().count() as u64 * 4096,
        }
    }
}

/// The split TLB's flat set geometry: 16×4 ways at 4 KB, 8×4 for 16 KB
/// to 256 KB, 8 fully associative above.
fn split_set(size: PageSize, base: u64) -> (usize, usize) {
    let frame = (base / size.base_pages()) as usize;
    match size.base_pages() {
        1 => (frame % 16 * 4, 4),
        4..=64 => (64 + frame % 8 * 4, 4),
        _ => (96, 8),
    }
}

struct Model {
    cfg: SchemeConfig,
    slots: Vec<Option<(Tag, bool)>>,
    locked: Vec<TlbEntry>,
    hand: usize,
    mru: usize,
    stats: TlbStats,
}

impl Model {
    fn new(cfg: SchemeConfig, capacity: usize, locked: Vec<TlbEntry>) -> Self {
        let slots = match cfg {
            SchemeConfig::Cpu => capacity - locked.len(),
            SchemeConfig::Split => 104,
            SchemeConfig::Coalesced | SchemeConfig::Subblock => capacity,
        };
        Model {
            cfg,
            slots: vec![None; slots],
            locked,
            hand: 0,
            mru: 0,
            stats: TlbStats::default(),
        }
    }

    fn at_token(&self, t: usize, vpn: u64) -> Option<TlbEntry> {
        match t.checked_sub(self.locked.len()) {
            None => Some(self.locked[t]).filter(|e| e.covers(Vpn::new(vpn))),
            Some(s) => self.slots.get(s)?.as_ref()?.0.at(vpn),
        }
    }

    fn slot_for(&self, vpn: u64) -> Option<(usize, TlbEntry)> {
        (0..self.locked.len() + self.slots.len()).find_map(|t| Some((t, self.at_token(t, vpn)?)))
    }

    fn translate(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
        level: PrivilegeLevel,
    ) -> LookupOutcome {
        let vpn = va.vpn().index();
        let mru = match self.cfg {
            SchemeConfig::Cpu => self.at_token(self.mru, vpn).map(|e| (self.mru, e)),
            _ => None,
        };
        let Some((t, e)) = mru.or_else(|| self.slot_for(vpn)) else {
            self.stats.misses += 1;
            return LookupOutcome::Miss;
        };
        self.stats.hits += 1;
        if !e.prot().permits(kind, level) {
            return LookupOutcome::Fault(Fault::Protection { va, kind });
        }
        if let Some(Some(slot)) = t.checked_sub(self.locked.len()).map(|s| &mut self.slots[s]) {
            slot.1 = true;
        }
        self.mru = t;
        LookupOutcome::Hit(e.translate(va).expect("the entry covers the address"))
    }

    fn overlapping(&self, base: u64, pages: u64) -> impl Fn(&Tag) -> bool {
        move |tag| {
            let (b, n) = tag.span();
            b < base + pages && base < b + n
        }
    }

    fn discard(&mut self, doomed: impl Fn(&Tag) -> bool) -> usize {
        let mut removed = 0;
        for slot in &mut self.slots {
            if slot.as_ref().is_some_and(|(tag, _)| doomed(tag)) {
                *slot = None;
                removed += 1;
            }
        }
        removed
    }

    /// First free way, else the first unused way cyclically from
    /// `from`, else an NRU reset of `ways` and `from`.
    fn install(&mut self, tag: Tag, ways: std::ops::Range<usize>, from: usize) -> usize {
        let slot = match ways.clone().find(|&i| self.slots[i].is_none()) {
            Some(i) => i,
            None => {
                let n = ways.len();
                let unused = (0..n)
                    .map(|k| ways.start + (from - ways.start + k) % n)
                    .find(|&i| self.slots[i].is_some_and(|(_, used)| !used));
                let victim = unused.unwrap_or_else(|| {
                    self.stats.nru_resets += 1;
                    for (_, used) in self.slots[ways.clone()].iter_mut().flatten() {
                        *used = false;
                    }
                    from
                });
                self.stats.replacements += 1;
                if ways.len() == self.slots.len() {
                    self.hand = (victim + 1) % n;
                }
                victim
            }
        };
        self.slots[slot] = Some((tag, true));
        slot
    }

    fn fill(&mut self, entry: TlbEntry, contig: &ContigInfo) {
        self.stats.fills += 1;
        let (page, pfn, prot) = (
            entry.vpn_base().index(),
            entry.pfn_base().index(),
            entry.prot(),
        );
        let pages = entry.size().base_pages();
        let all = 0..self.slots.len();
        let whole = Tag::Run {
            base: page,
            pfn,
            pages,
            prot,
            whole: true,
        };
        match self.cfg {
            SchemeConfig::Cpu => {
                self.discard(self.overlapping(page, pages));
                self.install(whole, all, self.hand);
            }
            SchemeConfig::Split => {
                self.discard(self.overlapping(page, pages));
                let (start, ways) = split_set(entry.size(), page);
                self.install(whole, start..start + ways, start);
            }
            SchemeConfig::Coalesced => {
                let (base, pfn, pages) = if pages > 1 {
                    (page, pfn, pages)
                } else {
                    let run = contig.pages.min(MAX_COALESCE);
                    if page.wrapping_sub(contig.base.index()) < run {
                        (contig.base.index(), contig.pfn.index(), run)
                    } else {
                        (page, pfn, 1)
                    }
                };
                self.discard(self.overlapping(base, pages));
                for (tag, used) in self.slots.iter_mut().flatten() {
                    let Tag::Run {
                        base: b,
                        pfn: f,
                        pages: n,
                        prot: p,
                        ..
                    } = tag
                    else {
                        continue;
                    };
                    if *p != prot || *n + pages > MAX_COALESCE {
                        continue;
                    }
                    let after = *b + *n == base && *f + *n == pfn;
                    let before = base + pages == *b && pfn + pages == *f;
                    if after || before {
                        if before {
                            (*b, *f) = (base, pfn);
                        }
                        *n += pages;
                        *used = true;
                        return;
                    }
                }
                let run = Tag::Run {
                    base,
                    pfn,
                    pages,
                    prot,
                    whole: false,
                };
                self.install(run, all, self.hand);
            }
            SchemeConfig::Subblock => {
                if pages > 16 {
                    self.discard(self.overlapping(page, pages));
                    self.install(whole, all, self.hand);
                    return;
                }
                let base = page & !15;
                let is_block =
                    move |tag: &Tag| matches!(tag, Tag::Block { base: b, .. } if *b == base);
                let overlapping = self.overlapping(base, 16);
                self.discard(|tag| overlapping(tag) && !is_block(tag));
                let resident = self
                    .slots
                    .iter()
                    .position(|s| s.is_some_and(|(tag, _)| is_block(&tag)));
                let slot = resident.unwrap_or_else(|| {
                    let block = Tag::Block {
                        base,
                        subs: [None; 16],
                    };
                    self.install(block, all, self.hand)
                });
                if let Some((Tag::Block { subs, .. }, used)) = &mut self.slots[slot] {
                    *used = true;
                    for k in 0..pages {
                        subs[(page - base + k) as usize] = Some((pfn + k, prot));
                    }
                }
            }
        }
    }

    fn purge(&mut self, doomed: impl Fn(&Tag) -> bool) -> usize {
        let removed = self.discard(doomed);
        self.stats.purges += removed as u64;
        removed
    }
}

/// A refill `raw` picks: a page, a size (mostly 4 KB), a protection
/// (mostly read-write), a frame offset that keeps neighbouring fills
/// contiguous seven times in eight, and (for 4 KB pages) a contiguity
/// run inside the page's aligned 8-page window.
fn fill_of(raw: u64) -> (TlbEntry, ContigInfo) {
    let size = match (raw >> 8) % 32 {
        0..=25 => PageSize::Base4K,
        26 | 27 => PageSize::Size16K,
        28 => PageSize::Size64K,
        29 => PageSize::Size256K,
        30 => PageSize::Size1M,
        _ => PageSize::Size16M,
    };
    let prot = match (raw >> 13) % 16 {
        0 => Prot::READ,
        1 => Prot::RW | Prot::SUPERVISOR_ONLY,
        _ => Prot::RW,
    };
    let shift = if (raw >> 17).is_multiple_of(8) {
        0x1_0000
    } else {
        0
    };
    let page = page_of(raw);
    let base = page & !(size.base_pages() - 1);
    let entry = TlbEntry::new(Vpn::new(base), Ppn::new(base + shift), size, prot).expect("aligned");
    if size != PageSize::Base4K {
        return (entry, ContigInfo::for_entry(&entry));
    }
    // Each side of the run is mostly empty, so single pages often land
    // between two resident ranges and both qualify for the merge.
    let window = page & !7;
    let lo = window.max(page.saturating_sub(((raw >> 20) % 32).saturating_sub(24)));
    let hi = (window + 8).min(page + 1 + ((raw >> 25) % 32).saturating_sub(24));
    let contig = ContigInfo {
        base: Vpn::new(lo),
        pfn: Ppn::new(lo + shift),
        pages: hi - lo,
    };
    (entry, contig)
}

fn check(scheme: &dyn TranslationScheme, model: &Model, step: usize) {
    let name = scheme.name();
    assert_eq!(scheme.stats(), model.stats, "{name}: counters, step {step}");
    let resident = model.slots.iter().flatten().count() + model.locked.len();
    assert_eq!(
        scheme.occupancy(),
        resident,
        "{name}: occupancy, step {step}"
    );
    let reach: u64 = model
        .slots
        .iter()
        .flatten()
        .map(|(t, _)| t.reach())
        .sum::<u64>()
        + model.locked.iter().map(|e| e.size().bytes()).sum::<u64>();
    assert_eq!(scheme.reach_bytes(), reach, "{name}: reach, step {step}");
    for region in [REGION, 2 * REGION] {
        for vpn in region - 40..region + 40 {
            assert_eq!(
                scheme.slot_for(Vpn::new(vpn)),
                model.slot_for(vpn),
                "{name}: slot_for({vpn:#x}), step {step}"
            );
        }
    }
}

fn run_against_model(cfg: SchemeConfig, capacity: usize, locked: &[u64], ops: &[Op]) {
    let mut scheme = cfg.build(capacity);
    let locked: Vec<TlbEntry> = locked
        .iter()
        .take(capacity - 1)
        .map(|&raw| {
            let size = [PageSize::Base4K, PageSize::Size16K, PageSize::Size64K][raw as usize % 3];
            let base = page_of(raw >> 2) & !(size.base_pages() - 1);
            let prot = Prot::RW | Prot::SUPERVISOR_ONLY;
            TlbEntry::new(Vpn::new(base), Ppn::new(base), size, prot).expect("aligned")
        })
        .collect();
    for &e in &locked {
        scheme.insert_locked(e);
    }
    let mut model = Model::new(cfg, capacity, locked);
    check(scheme.as_ref(), &model, 0);
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Fill(raw) => {
                let (entry, contig) = fill_of(raw);
                scheme.fill(entry, &contig);
                model.fill(entry, &contig);
            }
            Op::Translate(raw) => {
                let va = VirtAddr::new(page_of(raw) * 4096 + (raw >> 8) % 4096 / 4 * 4);
                let kind = [AccessKind::Read, AccessKind::Write, AccessKind::IFetch]
                    [(raw >> 20) as usize % 3];
                let level = if (raw >> 22) % 4 == 0 {
                    PrivilegeLevel::Supervisor
                } else {
                    PrivilegeLevel::User
                };
                let out = scheme.translate(va, kind, level);
                assert_eq!(
                    out,
                    model.translate(va, kind, level),
                    "{}: translate({va:?})",
                    cfg.name()
                );
                if matches!(out, LookupOutcome::Hit(_)) {
                    assert_eq!(
                        scheme.last_hit_slot(),
                        model.mru,
                        "{}: MRU token",
                        cfg.name()
                    );
                }
            }
            Op::PurgeRange(raw) => {
                let (page, pages) = (page_of(raw), 1 + (raw >> 8) % 16);
                let removed = model.purge(model.overlapping(page, pages));
                assert_eq!(
                    scheme.purge_range(Vpn::new(page), pages),
                    removed,
                    "{}",
                    cfg.name()
                );
            }
            Op::PurgeAll => {
                assert_eq!(scheme.purge_all(), model.purge(|_| true), "{}", cfg.name());
            }
        }
        check(scheme.as_ref(), &model, step + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_front_end_matches_the_linear_scan_model(
        capacity in 2usize..24,
        locked in proptest::collection::vec(any::<u64>(), 0..3),
        ops in proptest::collection::vec(prop_oneof![
            20 => any::<u64>().prop_map(Op::Fill),
            12 => any::<u64>().prop_map(Op::Translate),
            2 => any::<u64>().prop_map(Op::PurgeRange),
            1 => Just(Op::PurgeAll),
        ], 1..150),
    ) {
        for cfg in SchemeConfig::ALL {
            run_against_model(cfg, capacity, &locked, &ops);
        }
    }
}
