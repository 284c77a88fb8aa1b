//! End-to-end integration: the five workloads across machine
//! configurations, checking functional equivalence, determinism, and the
//! paper's qualitative claims at test scale.

use mtlb_sim::{Machine, MachineConfig};
use mtlb_workloads::{paper_suite, run_on, AccessExt, Radix, Scale};

/// Every workload must compute the identical answer on every machine —
/// the machine changes *when*, never *what*.
#[test]
fn workloads_are_machine_invariant() {
    for name_fn in [0usize, 1, 2, 3, 4] {
        let outcome = |cfg: MachineConfig| {
            let mut suite = paper_suite(Scale::Test);
            let w = &mut suite[name_fn];
            let mut machine = Machine::new(cfg);
            w.run(&mut machine)
        };
        let a = outcome(MachineConfig::paper_base(64));
        let b = outcome(MachineConfig::paper_mtlb(64));
        let c = outcome(MachineConfig::paper_mtlb(96).with_mtlb_geometry(64, 1));
        let d = outcome(MachineConfig::paper_base(256));
        assert!(a.verified && b.verified && c.verified && d.verified);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.checksum, c.checksum);
        assert_eq!(a.checksum, d.checksum);
    }
}

/// Same configuration, same workload ⇒ identical cycle counts (the
/// simulator is fully deterministic; no wall-clock anywhere).
#[test]
fn simulation_is_deterministic() {
    let run = || run_on(Radix::new(Scale::Test), MachineConfig::paper_mtlb(64));
    let (o1, r1) = run();
    let (o2, r2) = run();
    assert_eq!(o1, o2);
    assert_eq!(r1.total_cycles, r2.total_cycles);
    assert_eq!(r1.buckets.tlb_miss, r2.buckets.tlb_miss);
    assert_eq!(r1.cache.misses, r2.cache.misses);
    assert_eq!(r1.mmc.mtlb_misses, r2.mmc.mtlb_misses);
}

/// The MTLB machine must slash the TLB-miss fraction for every workload
/// (the paper's "below 5% in all configurations").
#[test]
fn mtlb_cuts_tlb_time_below_five_percent() {
    for mut w in paper_suite(Scale::Test) {
        let mut machine = Machine::new(MachineConfig::paper_mtlb(64));
        w.run(&mut machine);
        let frac = machine.report().tlb_miss_fraction();
        assert!(
            frac < 0.05,
            "{}: MTLB machine spends {:.1}% in TLB misses",
            w.name(),
            frac * 100.0
        );
    }
}

/// Larger TLBs monotonically help on the baseline machine — Figure 3's
/// no-MTLB trend — measured with a random walk whose 192-page working
/// set straddles the swept TLB sizes (the Test-scale benchmarks are too
/// small to discriminate).
#[test]
fn baseline_runtime_improves_with_tlb_size() {
    use mtlb_types::{Prot, VirtAddr, PAGE_SIZE};
    let pages = 192u64;
    let mut prev = u64::MAX;
    for entries in [32usize, 64, 128, 256] {
        let mut m = Machine::new(MachineConfig::paper_base(entries));
        let base = VirtAddr::new(0x1000_0000);
        m.map_region(base, pages * PAGE_SIZE, Prot::RW);
        m.reset_stats();
        let mut x = 1u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            m.read::<u32>(base + ((x >> 33) % pages) * PAGE_SIZE);
        }
        let total = m.cycles().get();
        assert!(
            total < prev,
            "walk at {entries} TLB entries did not improve: {total} vs {prev}"
        );
        prev = total;
    }
}

/// The MTLB machine's runtime barely moves as the CPU TLB grows — §3.4's
/// "results for the cases with the MTLB change very little".
#[test]
fn mtlb_runtime_insensitive_to_cpu_tlb_size() {
    let totals: Vec<u64> = [64usize, 96, 128]
        .iter()
        .map(|&entries| {
            let (_, report) = run_on(Radix::new(Scale::Test), MachineConfig::paper_mtlb(entries));
            report.total_cycles.get()
        })
        .collect();
    let spread =
        (*totals.iter().max().unwrap() - *totals.iter().min().unwrap()) as f64 / totals[0] as f64;
    assert!(
        spread < 0.02,
        "MTLB runtimes vary {:.2}% across CPU TLB sizes: {totals:?}",
        spread * 100.0
    );
}

/// Kernel-time accounting: every bucket is populated on a working run
/// and the buckets sum to the total.
#[test]
fn time_buckets_are_complete() {
    let (_, report) = run_on(Radix::new(Scale::Test), MachineConfig::paper_mtlb(64));
    let b = report.buckets;
    assert_eq!(b.total(), report.total_cycles);
    assert!(b.user.get() > 0);
    assert!(b.kernel.get() > 0);
    assert!(b.mem_stall.get() > 0);
}
