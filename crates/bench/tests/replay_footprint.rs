//! Replay-footprint regression gate: a replayed trace writes only
//! zeros, and a zero store to an untouched guest page backs no host
//! page, so a replay must hold far less guest memory than the live run
//! it was recorded from. This is what keeps fig6's co-runs, whose
//! mirrored cores apply instance 0's ops with zeroed data, from growing
//! by a live run's footprint per core.

use mtlb_bench::experiments::workload_by_name;
use mtlb_sim::{Machine, MachineConfig};
use mtlb_trace::{replay, TraceWriter};
use mtlb_workloads::Scale;

/// Guest pages resident after the live run of `name` and after
/// replaying its recording into a fresh machine.
fn live_and_replayed_pages(name: &str) -> (usize, usize) {
    let cfg = MachineConfig::paper_mtlb(96);
    let mut live = Machine::new(cfg.clone());
    live.set_op_sink(Box::new(TraceWriter::new()));
    let outcome = workload_by_name(name, Scale::Test).run(&mut live);
    assert!(outcome.verified, "{name} failed its self-check");
    let trace = live
        .take_op_sink()
        .expect("recording sink attached")
        .into_any()
        .downcast::<TraceWriter>()
        .expect("the sink is a TraceWriter")
        .finish(name, 0, outcome.checksum, outcome.verified);

    let mut replayed = Machine::new(cfg);
    replay(&mut replayed, &trace).expect("trace replays on the machine it was recorded on");
    assert_eq!(live.report().to_json(), replayed.report().to_json());
    (
        live.guest_memory().resident_pages(),
        replayed.guest_memory().resident_pages(),
    )
}

#[test]
fn replay_holds_a_fraction_of_the_live_footprint() {
    let mut live_total = 0;
    let mut replayed_total = 0;
    for name in ["compress95", "em3d", "radix", "vortex", "cc1"] {
        let (live, replayed) = live_and_replayed_pages(name);
        assert!(
            replayed < live,
            "{name}: replay holds {replayed} guest pages, the live run {live}"
        );
        live_total += live;
        replayed_total += replayed;
    }
    assert!(
        replayed_total * 4 <= live_total,
        "replays hold {replayed_total} guest pages against {live_total} live; want at most a quarter"
    );
}
