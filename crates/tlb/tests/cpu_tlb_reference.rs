//! Property test pinning the indexed [`CpuTlb`] to a reference
//! linear-scan implementation of the same NRU policy.
//!
//! The production TLB accelerates lookups with an exact page map (per
//! 16 MB region, the unlocked slot covering each 4 KB page) plus a side
//! list of locked slots and an MRU fast path; this test replays random
//! operation streams — up to three locked block entries installed into
//! the empty TLB first (as boot installs the kernel's), then inserts of
//! base pages and superpages up to 16 MB across several regions,
//! translates at mixed access kinds and privilege levels (biased toward
//! resident entries), range and full purges — against both
//! implementations and demands identical outcomes, MRU slot,
//! statistics, occupancy, entry order, and NRU victim choice after
//! every single step. The reference keeps its locked entries in its
//! lowest slots, where the paper TLB's kernel block entry sits.

use mtlb_tlb::{CpuTlb, LookupOutcome, TlbEntry, TranslationScheme};
use mtlb_types::{AccessKind, Fault, PageSize, PrivilegeLevel, Prot, VirtAddr, Vpn};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Reference model: the original pre-index algorithm, linear scans only.
// ---------------------------------------------------------------------

struct RefSlot {
    entry: TlbEntry,
    used: bool,
    locked: bool,
}

#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
struct RefStats {
    hits: u64,
    misses: u64,
    replacements: u64,
    purges: u64,
    nru_resets: u64,
}

struct RefTlb {
    capacity: usize,
    slots: Vec<Option<RefSlot>>,
    hand: usize,
    mru: usize,
    stats: RefStats,
}

impl RefTlb {
    fn new(capacity: usize) -> Self {
        RefTlb {
            capacity,
            slots: (0..capacity).map(|_| None).collect(),
            hand: 0,
            mru: 0,
            stats: RefStats::default(),
        }
    }

    fn translate(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
        level: PrivilegeLevel,
    ) -> LookupOutcome {
        let vpn = va.vpn();
        // Same MRU fast path as the production TLB.
        if let Some(slot) = self.slots.get_mut(self.mru).and_then(|s| s.as_mut()) {
            if slot.entry.covers(vpn) {
                if !slot.entry.prot().permits(kind, level) {
                    self.stats.hits += 1;
                    return LookupOutcome::Fault(Fault::Protection { va, kind });
                }
                slot.used = true;
                self.stats.hits += 1;
                return LookupOutcome::Hit(slot.entry.translate(va).expect("entry covers va"));
            }
        }
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(slot) = slot else { continue };
            if slot.entry.covers(vpn) {
                if !slot.entry.prot().permits(kind, level) {
                    self.stats.hits += 1;
                    return LookupOutcome::Fault(Fault::Protection { va, kind });
                }
                slot.used = true;
                self.mru = i;
                self.stats.hits += 1;
                return LookupOutcome::Hit(slot.entry.translate(va).expect("entry covers va"));
            }
        }
        self.stats.misses += 1;
        LookupOutcome::Miss
    }

    fn probe(&self, vpn: Vpn) -> Option<&TlbEntry> {
        self.slots
            .iter()
            .flatten()
            .find(|s| s.entry.covers(vpn))
            .map(|s| &s.entry)
    }

    fn insert(&mut self, entry: TlbEntry, locked: bool) {
        for slot in &mut self.slots {
            if let Some(s) = slot {
                if !s.locked
                    && s.entry
                        .overlaps(entry.vpn_base(), entry.size().base_pages())
                {
                    *slot = None;
                }
            }
        }
        let new = RefSlot {
            entry,
            used: true,
            locked,
        };
        if let Some(slot) = self.slots.iter_mut().find(|s| s.is_none()) {
            *slot = Some(new);
            return;
        }
        let victim = self.pick_victim();
        self.stats.replacements += 1;
        self.slots[victim] = Some(new);
        self.hand = (victim + 1) % self.capacity;
    }

    fn pick_victim(&mut self) -> usize {
        for round in 0..2 {
            for i in 0..self.capacity {
                let idx = (self.hand + i) % self.capacity;
                if let Some(s) = &self.slots[idx] {
                    if !s.locked && !s.used {
                        return idx;
                    }
                }
            }
            if round == 0 {
                self.stats.nru_resets += 1;
                for s in self.slots.iter_mut().flatten() {
                    if !s.locked {
                        s.used = false;
                    }
                }
            }
        }
        panic!("reference TLB has no unlocked entry to replace");
    }

    fn purge_range(&mut self, vpn: Vpn, pages: u64) -> usize {
        let mut removed = 0;
        for slot in &mut self.slots {
            if let Some(s) = slot {
                if !s.locked && s.entry.overlaps(vpn, pages) {
                    *slot = None;
                    removed += 1;
                }
            }
        }
        self.stats.purges += removed as u64;
        removed
    }

    fn purge_all(&mut self) -> usize {
        let mut removed = 0;
        for slot in &mut self.slots {
            if let Some(s) = slot {
                if !s.locked {
                    *slot = None;
                    removed += 1;
                }
            }
        }
        self.stats.purges += removed as u64;
        removed
    }
}

// ---------------------------------------------------------------------
// Operation stream
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Translate {
        va: u64,
        kind: u8,
        level: u8,
        resident: bool,
    },
    Insert {
        vpn: u64,
        ppn: u64,
        size: u8,
        prot: u8,
    },
    PurgeRange {
        vpn: u64,
        pages: u64,
    },
    PurgeAll,
}

/// Base pages per 16 MB region, the unit of the page map.
const REGION_PAGES: u64 = 4096;
/// Regions the modelled VPN space spans, so several page-map arrays are
/// live, freed and reused.
const REGIONS: u64 = 3;
const VPN_SPACE: u64 = REGIONS * REGION_PAGES;
/// Pages at the start of each region that three in four draws land in,
/// so inserts collide and overlap often (a 1 MB or larger insert there
/// discards several smaller entries).
const HOT_PAGES: u64 = 512;

/// Maps a raw draw to a VPN: a region from the low byte, then an offset
/// from bits 10 up, inside the region's hot window unless bits 8–9 are
/// clear (one draw in four).
fn vpn_of(raw: u64) -> u64 {
    let span = if (raw >> 8).is_multiple_of(4) {
        REGION_PAGES
    } else {
        HOT_PAGES
    };
    (raw & 0xff) % REGIONS * REGION_PAGES + (raw >> 10) % span
}

fn kind_of(k: u8) -> AccessKind {
    match k % 3 {
        0 => AccessKind::Read,
        1 => AccessKind::Write,
        _ => AccessKind::IFetch,
    }
}

fn prot_of(p: u8) -> Prot {
    match p % 4 {
        0 => Prot::RW,
        1 => Prot::READ,
        2 => Prot::RX,
        _ => Prot::RW | Prot::SUPERVISOR_ONLY,
    }
}

fn entry_of(vpn: u64, ppn: u64, size: u8, prot: u8) -> TlbEntry {
    let size = PageSize::ALL[(size as usize) % PageSize::ALL.len()];
    let mask = !(size.base_pages() - 1);
    TlbEntry::new(
        Vpn::new(vpn_of(vpn) & mask),
        mtlb_types::Ppn::new((ppn % (1 << 20)) & mask),
        size,
        prot_of(prot),
    )
    .expect("both bases are size-aligned")
}

/// The translate address for `va`: inside a resident entry when
/// `resident` (and one exists), so hits stay common across the wide VPN
/// space; anywhere in the modelled space otherwise.
fn address_of(model: &RefTlb, va: u64, resident: bool) -> VirtAddr {
    let entries: Vec<&TlbEntry> = model.slots.iter().flatten().map(|s| &s.entry).collect();
    let addr = match entries.get((va % 64) as usize % entries.len().max(1)) {
        Some(e) if resident => e.vpn_base().base_addr().get() + (va >> 6) % e.size().bytes(),
        _ => vpn_of(va) * 4096 + (va >> 32) % 4096,
    };
    VirtAddr::new(addr & !0x3)
}

fn check_equal(tlb: &CpuTlb, model: &RefTlb, step: usize) {
    let stats = tlb.stats();
    let model_stats = RefStats {
        hits: stats.hits,
        misses: stats.misses,
        replacements: stats.replacements,
        purges: stats.purges,
        nru_resets: stats.nru_resets,
    };
    assert_eq!(model.stats, model_stats, "statistics diverged");
    assert_eq!(
        tlb.occupancy(),
        model.slots.iter().flatten().count(),
        "occupancy diverged"
    );
    // Entry-level equality in slot order (victim choice shows up here).
    let real: Vec<&TlbEntry> = tlb.iter().collect();
    let want: Vec<&TlbEntry> = model.slots.iter().flatten().map(|s| &s.entry).collect();
    assert_eq!(real, want, "entries or their slot order diverged");
    // Probe parity at both edges of every resident entry and its
    // neighbours, plus a stride over the whole VPN space that shifts
    // from step to step.
    let edges = want.iter().flat_map(|e| {
        let base = e.vpn_base().index();
        let end = base + e.size().base_pages();
        [
            base.wrapping_sub(1),
            base,
            base + e.size().base_pages() / 2,
            end - 1,
            end,
        ]
    });
    let stride = (step as u64 % 37..VPN_SPACE).step_by(37);
    for vpn in edges.chain(stride) {
        assert_eq!(
            tlb.entry_for(Vpn::new(vpn)).as_ref(),
            model.probe(Vpn::new(vpn)),
            "probe({vpn}) diverged"
        );
    }
}

/// Installs the `locked` entries, then replays `ops`, against the
/// production TLB and the reference model, demanding identical
/// observable state after every step; returns the production TLB.
fn run(capacity: usize, locked: &[(u64, u64, u8, u8)], ops: Vec<Op>) -> CpuTlb {
    let mut tlb = CpuTlb::new(capacity);
    let mut model = RefTlb::new(capacity);
    // Never let locked entries fill the TLB: a replaceable insert into
    // an all-locked TLB panics (identically in both implementations,
    // but it would abort the case).
    for &(vpn, ppn, size, prot) in locked.iter().take(capacity - 1) {
        let entry = entry_of(vpn, ppn, size, prot);
        tlb.insert_locked(entry);
        model.insert(entry, true);
        check_equal(&tlb, &model, 0);
    }
    for (step, op) in ops.into_iter().enumerate() {
        match op {
            Op::Translate {
                va,
                kind,
                level,
                resident,
            } => {
                let va = address_of(&model, va, resident);
                let kind = kind_of(kind);
                let level = if level % 4 == 0 {
                    PrivilegeLevel::Supervisor
                } else {
                    PrivilegeLevel::User
                };
                let out = tlb.translate(va, kind, level);
                assert_eq!(out, model.translate(va, kind, level), "translate({va:?})");
                if matches!(out, LookupOutcome::Hit(_)) {
                    assert_eq!(tlb.last_hit_slot(), model.mru, "MRU slot after a hit");
                }
            }
            Op::Insert {
                vpn,
                ppn,
                size,
                prot,
            } => {
                let entry = entry_of(vpn, ppn, size, prot);
                tlb.insert(entry);
                model.insert(entry, false);
            }
            Op::PurgeRange { vpn, pages } => {
                let vpn = Vpn::new(vpn_of(vpn));
                assert_eq!(tlb.purge_range(vpn, pages), model.purge_range(vpn, pages));
            }
            Op::PurgeAll => {
                assert_eq!(tlb.purge_all(), model.purge_all());
            }
        }
        check_equal(&tlb, &model, step);
    }
    tlb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_tlb_matches_linear_scan_reference(
        capacity in 1usize..24,
        locked in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u8>(), any::<u8>()),
            0..4,
        ),
        ops in proptest::collection::vec(prop_oneof![
            6 => (any::<u64>(), any::<u8>(), any::<u8>(), any::<u8>())
                .prop_map(|(va, kind, level, resident)| Op::Translate {
                    va,
                    kind,
                    level,
                    resident: resident % 4 != 0,
                }),
            4 => (any::<u64>(), any::<u64>(), any::<u8>())
                .prop_map(|(vpn, ppn, size_prot)| Op::Insert {
                    vpn,
                    ppn,
                    size: size_prot & 0x0f,
                    prot: size_prot >> 4,
                }),
            1 => (any::<u64>(), 1u64..64)
                .prop_map(|(vpn, pages)| Op::PurgeRange { vpn, pages }),
            1 => Just(Op::PurgeAll),
        ], 1..200),
    ) {
        run(capacity, &locked, ops);
    }
}

/// The raw draw `vpn_of` maps to page `offset` of `region`'s hot window.
fn hot(region: u64, offset: u64) -> u64 {
    region | 1 << 8 | offset << 10
}

#[test]
fn superpage_inserts_outside_region_zero_discard_several_entries() {
    let insert = |vpn, size: PageSize| Op::Insert {
        vpn,
        ppn: vpn,
        size: PageSize::ALL.iter().position(|&s| s == size).unwrap() as u8,
        prot: 0,
    };
    let read = |raw: u64| Op::Translate {
        va: raw,
        kind: 0,
        level: 1,
        resident: false,
    };
    let mut ops = Vec::new();
    for region in 1..REGIONS {
        // Four base pages and a 16 KB entry, then a 1 MB entry over all
        // five and a 16 MB entry over the whole region.
        for page in [0, 1, 7, 200] {
            ops.push(insert(hot(region, page), PageSize::Base4K));
            ops.push(read(hot(region, page)));
        }
        ops.push(insert(hot(region, 8), PageSize::Size16K));
        ops.push(insert(hot(region, 0), PageSize::Size1M));
        ops.push(read(hot(region, 9)));
        ops.push(insert(hot(region, 300), PageSize::Base4K));
        ops.push(insert(hot(region, 0), PageSize::Size16M));
        ops.push(read(hot(region, 300)));
    }
    ops.push(Op::PurgeAll);
    ops.push(insert(hot(2, 3), PageSize::Base4K));
    // Without the discards the sixteen inserts would overflow the eight
    // slots and force replacements.
    let tlb = run(8, &[], ops);
    let stats = tlb.stats();
    assert_eq!((stats.hits, stats.misses, stats.replacements), (12, 0, 0));
    assert_eq!(tlb.occupancy(), 1);
}
