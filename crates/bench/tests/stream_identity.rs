//! The premise fig5 stands on: a workload's op stream does not depend
//! on the machine configuration it runs on.
//!
//! fig5 compares rival translation front ends "on identical address
//! streams" by running each cell live, so the comparison is only a
//! head-to-head if every front end really is handed the same ops. Here
//! each paper workload is recorded on every fig5 front-end
//! configuration and the recordings must be equal op for op. A future
//! workload that branches on timing, frame numbers or anything else the
//! configuration can influence fails here, not in a table.

use mtlb_bench::experiments::{workload_by_name, WORKLOADS};
use mtlb_mem::FrameOrder;
use mtlb_schemes::SchemeConfig;
use mtlb_sim::{Machine, MachineConfig, MachineOp, VecOpSink};
use mtlb_workloads::Scale;

/// The op stream `name` issues at test scale on a machine built from
/// `cfg`.
fn record(name: &str, cfg: MachineConfig) -> Vec<MachineOp> {
    let mut m = Machine::new(cfg);
    m.set_op_sink(Box::new(VecOpSink::default()));
    let outcome = workload_by_name(name, Scale::Test).run(&mut m);
    assert!(outcome.verified, "{name} failed self-check");
    m.take_op_sink()
        .expect("sink still attached")
        .into_any()
        .downcast::<VecOpSink>()
        .expect("VecOpSink was attached")
        .ops
}

/// The four fig5 front ends (built the way `experiments::fig5_cells`
/// builds them) at 64 and 128 entries, and the complete-subblock TLB of
/// the §5 table (`experiments::subblock`).
fn fig5_configs() -> Vec<(String, MachineConfig)> {
    let mut cfgs = Vec::new();
    for e in [64, 128] {
        cfgs.push((format!("cpu{e}"), MachineConfig::paper_base(e)));
        cfgs.push((format!("mtlb{e}"), MachineConfig::paper_mtlb(e)));
        let mut coalesced = MachineConfig::paper_base(e).with_scheme(SchemeConfig::Coalesced);
        coalesced.kernel.frame_order = FrameOrder::Sequential;
        cfgs.push((format!("coalesced{e}"), coalesced));
    }
    cfgs.push((
        "split".to_string(),
        MachineConfig::paper_mtlb(96).with_scheme(SchemeConfig::Split),
    ));
    cfgs.push((
        "subblock64".to_string(),
        MachineConfig::paper_base(64).with_scheme(SchemeConfig::Subblock),
    ));
    cfgs
}

#[test]
fn op_streams_do_not_depend_on_the_machine_configuration() {
    for name in WORKLOADS {
        // fig5's reference run.
        let reference = record(name, MachineConfig::paper_mtlb(96));
        assert!(!reference.is_empty(), "{name} recorded nothing");
        for (label, cfg) in fig5_configs() {
            let ops = record(name, cfg);
            assert_eq!(ops.len(), reference.len(), "{name} on {label}: op count");
            if let Some(i) = (0..ops.len()).find(|&i| ops[i] != reference[i]) {
                panic!(
                    "{name} on {label}: op {i} is {:?}, the reference run issued {:?}",
                    ops[i], reference[i]
                );
            }
        }
    }
}
