//! Replay-parity regression gate: the runner's trace record/replay
//! cache must be invisible in simulated results.
//!
//! Builds the exact Figure 3 job grid (every workload × TLB size ×
//! MTLB on/off, test scale) and runs it twice — once with the replay
//! cache enabled (first run of each workload records, every other
//! configuration replays) and once fully live (the default) — comparing the
//! serialized `RunReport` JSON byte-for-byte on every row, plus the
//! workload outcomes. Any divergence means replay is not
//! cycle-faithful and fails the build.

use mtlb_bench::runner::{JobSpec, Runner};
use mtlb_sim::MachineConfig;
use mtlb_workloads::Scale;

/// The Figure 3 grid at test scale: per workload, the base-96 job plus
/// one job per (size, mtlb) cell — the same specs `experiments::fig3`
/// submits.
fn fig3_specs() -> Vec<JobSpec> {
    let workloads: [&'static str; 5] = ["compress95", "em3d", "radix", "vortex", "cc1"];
    let mut specs = Vec::new();
    for name in workloads {
        specs.push(JobSpec::new(
            format!("fig3/{name}/base96"),
            name,
            Scale::Test,
            MachineConfig::paper_base(96),
        ));
        for entries in [64usize, 96, 128] {
            for mtlb in [false, true] {
                if !mtlb && entries == 96 {
                    continue;
                }
                let (cfg, tag) = if mtlb {
                    (MachineConfig::paper_mtlb(entries), "+mtlb")
                } else {
                    (MachineConfig::paper_base(entries), "")
                };
                specs.push(JobSpec::new(
                    format!("fig3/{name}/tlb{entries}{tag}"),
                    name,
                    Scale::Test,
                    cfg,
                ));
            }
        }
    }
    specs
}

#[test]
fn replayed_fig3_rows_are_byte_identical_to_live() {
    let specs = fig3_specs();
    let replaying = Runner::serial().with_replay(true);
    let replayed = replaying.run(&specs);
    let default = Runner::serial();
    let live = default.run(&specs);
    // Replay is opt-in: a default runner records nothing, an opted-in
    // one records exactly once per (workload, scale).
    assert!(default.recorded_traces().is_empty());
    assert_eq!(replaying.recorded_traces().len(), 5);
    assert_eq!(replayed.len(), live.len());
    for (r, l) in replayed.iter().zip(&live) {
        assert_eq!(r.label, l.label);
        assert_eq!(
            r.report.to_json(),
            l.report.to_json(),
            "replayed RunReport diverged from live for {}",
            r.label
        );
        assert_eq!(r.outcome, l.outcome, "outcome diverged for {}", r.label);
    }
}
