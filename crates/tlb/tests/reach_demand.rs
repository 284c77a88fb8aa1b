//! Property test for [`CpuTlb::reach_demand`], the witness that lets
//! one simulation stand for every CPU-TLB capacity at or above its
//! peak occupancy.
//!
//! Random streams of inserts (base pages and superpages that discard
//! the entries they overlap), translates, range purges and full purges,
//! after an optional locked block entry, run first on a TLB too large
//! to fill. Its `reach_demand()` is the stream's peak. Re-run at the
//! peak, one above it and four times it, the stream must produce the
//! same outcome and `last_hit_slot` after every translate, the same
//! `TlbStats` and the same `reach_bytes`. One entry fewer than the
//! peak forces a victim, and the witness must then be `None`.

use mtlb_tlb::{CpuTlb, LookupOutcome, TlbEntry, TlbStats, TranslationScheme};
use mtlb_types::{AccessKind, PageSize, Ppn, PrivilegeLevel, Prot, VirtAddr, Vpn};
use proptest::prelude::*;

/// Base pages the stream's entries fall in: 256 pages (1 MB) in each of
/// two 16 MB regions.
const SPAN: u64 = 256;
const REGION_PAGES: u64 = 4096;

#[derive(Clone, Debug)]
enum Op {
    Insert { vpn: u64, size: usize },
    Translate { vpn: u64 },
    PurgeRange { vpn: u64, pages: u64 },
    PurgeAll,
}

fn vpn_strategy() -> impl Strategy<Value = u64> {
    (0u64..2, 0..SPAN).prop_map(|(region, page)| region * REGION_PAGES + page)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (vpn_strategy(), 0usize..4).prop_map(|(vpn, size)| Op::Insert { vpn, size }),
        6 => vpn_strategy().prop_map(|vpn| Op::Translate { vpn }),
        1 => (vpn_strategy(), 1u64..64).prop_map(|(vpn, pages)| Op::PurgeRange { vpn, pages }),
        1 => Just(Op::PurgeAll),
    ]
}

/// What a run shows the machine: every translate's outcome and slot,
/// then the counters, the reach and the witness.
#[derive(Debug, PartialEq, Eq)]
struct Run {
    lookups: Vec<(LookupOutcome, usize)>,
    stats: TlbStats,
    reach_bytes: u64,
    demand: Option<usize>,
}

fn run(capacity: usize, locked: bool, ops: &[Op]) -> Run {
    let mut tlb = CpuTlb::new(capacity);
    if locked {
        let base = Vpn::new(8 * REGION_PAGES);
        let entry =
            TlbEntry::new(base, Ppn::new(0), PageSize::Size16M, Prot::RW).expect("16 MB aligned");
        tlb.insert_locked(entry);
    }
    let mut lookups = Vec::new();
    for op in ops {
        match *op {
            Op::Insert { vpn, size } => {
                let size = PageSize::ALL[size];
                let base = Vpn::new(vpn).align_down_to(size);
                let frame = Ppn::new(base.index() + 0x10_0000);
                let entry = TlbEntry::new(base, frame, size, Prot::RW).expect("aligned");
                tlb.insert(entry);
            }
            Op::Translate { vpn } => {
                let va = VirtAddr::new(vpn * 4096 + 0x10);
                let outcome = tlb.translate(va, AccessKind::Read, PrivilegeLevel::User);
                lookups.push((outcome, tlb.last_hit_slot()));
            }
            Op::PurgeRange { vpn, pages } => {
                tlb.purge_range(Vpn::new(vpn), pages);
            }
            Op::PurgeAll => {
                tlb.purge_all();
            }
        }
    }
    Run {
        lookups,
        stats: tlb.stats(),
        reach_bytes: TranslationScheme::reach_bytes(&tlb),
        demand: tlb.reach_demand(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_tlb_that_never_evicts_runs_the_same_at_any_capacity_above_its_peak(
        locked in (0u8..2).prop_map(|b| b == 1),
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        // More slots than the stream has inserts: nothing can evict.
        let unbounded = run(256, locked, &ops);
        let peak = unbounded.demand.expect("a TLB larger than the stream never evicts");
        prop_assert_eq!(unbounded.stats.replacements, 0);
        for capacity in [peak, peak + 1, 4 * peak] {
            if capacity == 0 {
                continue;
            }
            prop_assert_eq!(&run(capacity, locked, &ops), &unbounded, "capacity {}", capacity);
        }
        // One slot short of the peak the TLB must choose a victim (it
        // needs an unlocked entry to choose).
        if peak > usize::from(locked) + 1 {
            let short = run(peak - 1, locked, &ops);
            prop_assert!(short.stats.replacements > 0);
            prop_assert_eq!(short.demand, None);
        }
    }
}

/// The witness counts the locked block entry, and a single victim is
/// enough to withdraw it for good.
#[test]
fn one_victim_withdraws_the_witness() {
    let entry = |vpn: u64| {
        TlbEntry::new(Vpn::new(vpn), Ppn::new(vpn), PageSize::Base4K, Prot::RW).expect("aligned")
    };
    let mut tlb = CpuTlb::new(3);
    assert_eq!(tlb.reach_demand(), Some(0));
    tlb.insert_locked(entry(100));
    tlb.insert(entry(1));
    tlb.insert(entry(2));
    assert_eq!(tlb.reach_demand(), Some(3));
    tlb.purge_all();
    tlb.insert(entry(3));
    assert_eq!(tlb.reach_demand(), Some(3), "the peak is a high-water mark");
    tlb.insert(entry(4));
    tlb.insert(entry(5));
    assert_eq!(tlb.stats().replacements, 1);
    assert_eq!(tlb.reach_demand(), None);
    tlb.reset_stats();
    tlb.purge_all();
    assert_eq!(
        tlb.reach_demand(),
        None,
        "resetting counters does not restore it"
    );
}
