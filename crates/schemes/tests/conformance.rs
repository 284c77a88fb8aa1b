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
        let g0 = scheme.generation();
        fill4k(scheme.as_mut(), 0x11, 0x210);
        let g1 = scheme.generation();
        assert_ne!(g0, g1, "{}: fill bumps the generation", scheme.name());

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
            g1,
            "{}: lookups, replays, and stats resets leave the generation alone",
            scheme.name()
        );

        // Every content mutation bumps it, even a purge that removes
        // nothing — the memo layer treats any purge as invalidating.
        let block = TlbEntry::new(
            Vpn::new(0x4000),
            Ppn::new(0x4000),
            PageSize::Size16M,
            Prot::RW | Prot::SUPERVISOR_ONLY,
        )
        .expect("aligned");
        scheme.insert_locked(block);
        let g2 = scheme.generation();
        assert_ne!(g2, g1, "{}: insert_locked bumps", scheme.name());
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
