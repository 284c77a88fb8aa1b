//! Replay-parity regression gate: the runner's trace record/replay
//! cache must be invisible in simulated results.
//!
//! Runs the real Figure 3 and Figure 5 drivers (every workload, test
//! scale) twice — once on a runner with the replay cache enabled (the
//! first run of each workload records, every other configuration
//! replays, the four fig5 front ends included) and once fully live (the
//! default) — comparing the serialized `RunReport` JSON byte-for-byte
//! on every row, fig3's self-check verdicts, and every workload's
//! outcome (checksum and verdict) on a replayed cell. Any divergence
//! means replay is not cycle-faithful and fails the build.

use mtlb_bench::experiments::{fig3, fig5, WORKLOADS};
use mtlb_bench::runner::{JobSpec, Runner};
use mtlb_sim::MachineConfig;
use mtlb_workloads::Scale;

const SIZES: [usize; 3] = [64, 96, 128];

#[test]
fn replayed_fig3_and_fig5_rows_are_byte_identical_to_live() {
    let replaying = Runner::serial().with_replay(true);
    let default = Runner::serial();
    let (replayed, live) = (
        fig3(&replaying, Scale::Test, &SIZES, &WORKLOADS),
        fig3(&default, Scale::Test, &SIZES, &WORKLOADS),
    );
    assert_eq!(replayed.len(), live.len());
    for (r, l) in replayed.iter().zip(&live) {
        let cell = (r.workload, r.tlb_entries, r.mtlb);
        assert_eq!(cell, (l.workload, l.tlb_entries, l.mtlb));
        assert_eq!(
            r.report.to_json(),
            l.report.to_json(),
            "replayed RunReport diverged from live for fig3 {cell:?}"
        );
        assert_eq!(r.verified, l.verified, "self-check diverged for {cell:?}");
    }

    let (replayed, live) = (
        fig5(&replaying, Scale::Test, &SIZES, &WORKLOADS),
        fig5(&default, Scale::Test, &SIZES, &WORKLOADS),
    );
    assert_eq!(replayed.len(), live.len());
    for (r, l) in replayed.iter().zip(&live) {
        let cell = (r.workload, r.scheme, r.tlb_entries);
        assert_eq!(cell, (l.workload, l.scheme, l.tlb_entries));
        assert_eq!(
            r.report.to_json(),
            l.report.to_json(),
            "replayed RunReport diverged from live for fig5 {cell:?}"
        );
    }
    // Rows carry no checksum, so ask both runners for one replayed cell
    // per workload (the first cell, base96, records): each answers it
    // from its result cache, and a replayed outcome comes from the
    // trace header.
    let replayed_cells: Vec<JobSpec> = WORKLOADS
        .iter()
        .map(|&name| {
            JobSpec::new(
                format!("parity/{name}/tlb64+mtlb"),
                name,
                Scale::Test,
                MachineConfig::paper_mtlb(64),
            )
        })
        .collect();
    let (replayed, live) = (replaying.run(&replayed_cells), default.run(&replayed_cells));
    for (r, l) in replayed.iter().zip(&live) {
        assert_eq!(r.outcome, l.outcome, "outcome diverged for {}", r.label);
        assert_eq!(r.report.to_json(), l.report.to_json(), "{}", r.label);
    }
    // Replay is opt-in: a default runner records nothing, an opted-in
    // one records exactly once per (workload, scale).
    assert!(default.recorded_traces().is_empty());
    assert_eq!(replaying.recorded_traces().len(), WORKLOADS.len());
}
