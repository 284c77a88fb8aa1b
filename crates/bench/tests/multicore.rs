//! Multi-core determinism gates: the fig6 co-scheduling experiment must
//! be byte-identical at every `--jobs` level, and every fig6 row of a
//! workload must share one baseline however many instance counts are
//! swept. (That the baseline runs once per workload is the runner's
//! accounting test.)

use mtlb_bench::experiments;
use mtlb_bench::runner::Runner;
use mtlb_workloads::Scale;

/// A small but representative fig6 slice: two real workloads, two
/// instance counts.
fn fig6_slice(runner: &Runner) -> Vec<experiments::Fig6Row> {
    experiments::fig6(runner, Scale::Test, &[2, 4], &["em3d", "radix"])
}

#[test]
fn fig6_is_byte_identical_across_jobs_levels() {
    let serial = fig6_slice(&Runner::serial());
    let parallel = fig6_slice(&Runner::with_jobs(4));
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!((s.workload, s.instances), (p.workload, p.instances));
        assert_eq!(
            s.report.to_json(),
            p.report.to_json(),
            "fig6 {}x{} diverged between --jobs 1 and --jobs 4",
            s.workload,
            s.instances
        );
        assert_eq!(s.baseline_cycles, p.baseline_cycles);
    }
}

#[test]
fn fig6_baseline_is_shared_across_instance_counts() {
    let rows = fig6_slice(&Runner::serial());
    // Two workloads × two instance counts.
    assert_eq!(rows.len(), 4);
    for w in ["em3d", "radix"] {
        let baselines: Vec<u64> = rows
            .iter()
            .filter(|r| r.workload == w)
            .map(|r| r.baseline_cycles)
            .collect();
        assert_eq!(baselines.len(), 2);
        assert_eq!(
            baselines[0], baselines[1],
            "{w}: the C1 baseline must be shared across instance counts, not re-derived"
        );
    }
}

#[test]
fn fig6_corun_exercises_the_multicore_machinery() {
    let rows = fig6_slice(&Runner::serial());
    for r in &rows {
        // Setup alone context-switches each extra core into its own
        // process, so shootdowns must have been delivered...
        assert!(
            r.shootdowns > 0,
            "{}x{}: no shootdowns delivered",
            r.workload,
            r.instances
        );
        assert_eq!(r.shootdown_cycles % 400, 0, "shootdown_ipi is 400 cycles");
        // ...and interleaved bus traffic must have paid arbitration.
        assert!(
            r.contention_events > 0,
            "{}x{}: no bus contention observed",
            r.workload,
            r.instances
        );
        // The co-run does n instances' worth of work: it cannot beat
        // perfect scaling.
        assert!(
            r.corun_cycles >= r.baseline_cycles,
            "{}x{}: co-run faster than one instance",
            r.workload,
            r.instances
        );
        assert!(r.efficiency <= 1.0 + 1e-9);
    }
}
