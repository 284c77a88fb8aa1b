//! The co-run mirror ([`mtlb_trace::corun_with`]): fig6 runs instance 0
//! of each co-run live and mirrors its ops onto the other cores, so a
//! co-run needs no recorded trace. Mirroring a live run must be
//! indistinguishable from mirroring the run's recording, and both from
//! the round-robin interleaving of that recording spelled out here;
//! instance 0 must compute exactly its solo answer; every instance's
//! TLB must count what instance 0's counts; and a mirrored op
//! that fails comes back as a typed error once instance 0 is done.

use mtlb_bench::experiments::{workload_by_name, WORKLOADS};
use mtlb_sim::{Machine, MachineConfig, MachineOp, VecOpSink};
use mtlb_trace::{apply_op, corun_with, replay, TraceError, TraceWriter};
use mtlb_types::{Prot, PAGE_SIZE};
use mtlb_workloads::{Outcome, Scale};

/// fig6's machine.
fn cfg() -> MachineConfig {
    MachineConfig::paper_mtlb(96)
}

/// `name`'s solo live run at test scale: its outcome and op stream.
fn solo(name: &str) -> (Outcome, Vec<MachineOp>) {
    let mut m = Machine::new(cfg());
    m.set_op_sink(Box::new(VecOpSink::default()));
    let outcome = workload_by_name(name, Scale::Test).run(&mut m);
    let sink = m.take_op_sink().expect("sink still attached");
    let ops = sink
        .into_any()
        .downcast::<VecOpSink>()
        .expect("a VecOpSink");
    (outcome, ops.ops)
}

/// The reference interleaving of `n` copies of `ops`: op *i* on core
/// 0, then its relocated copies on cores 1.. in order, then op *i + 1*
/// on core 0.
fn round_robin(ops: &[MachineOp], n: usize) -> Machine {
    let mut m = Machine::new(cfg().with_cores(n));
    let mut deltas = Vec::new();
    for core in 1..n {
        let pid = m.spawn_process();
        deltas.push(Machine::process_heap_base(pid).get() - Machine::process_heap_base(0).get());
        m.set_active_core(core);
        m.try_switch_process(pid).expect("a spawned process");
    }
    for (i, op) in ops.iter().enumerate() {
        m.set_active_core(0);
        apply_op(&mut m, op, i as u64).expect("core 0 replays");
        for (core, &delta) in (1..).zip(&deltas) {
            if let Some(op) = op.relocated(delta) {
                m.set_active_core(core);
                apply_op(&mut m, &op, i as u64).expect("a copy replays");
            }
        }
    }
    m
}

#[test]
fn mirroring_a_live_run_equals_mirroring_its_trace() {
    for name in WORKLOADS {
        let (outcome, ops) = solo(name);
        assert!(outcome.verified, "{name} failed its self-check");
        let mut writer = TraceWriter::new();
        for op in &ops {
            writer.push(op);
        }
        let bytes = writer.finish(name, 0, outcome.checksum, outcome.verified);
        for n in [2, 4] {
            let mut live = Machine::new(cfg().with_cores(n));
            let got = corun_with(&mut live, n, |m| workload_by_name(name, Scale::Test).run(m))
                .expect("the live co-run mirrors");
            assert_eq!(got, outcome, "{name} x{n}: instance 0 is not the solo run");

            let mut replayed = Machine::new(cfg().with_cores(n));
            corun_with(&mut replayed, n, |m| {
                replay(m, &bytes).expect("the trace replays on core 0")
            })
            .expect("the trace mirrors");
            let live = live.report().to_json();
            assert_eq!(
                live,
                replayed.report().to_json(),
                "{name} x{n}: live vs trace"
            );
            let reference = round_robin(&ops, n).report().to_json();
            assert_eq!(
                live, reference,
                "{name} x{n}: not the round-robin interleaving"
            );
        }
    }
}

/// Each mirrored instance replays core 0's ops relocated into its own
/// window, so its translations are instance 0's: every core's TLB
/// counters equal core 0's. The test above cannot see a relocation bug,
/// because its three paths all share `MachineOp::relocated`; this one
/// compares each copy with the original. L1 counters are not compared:
/// they differ between instances.
#[test]
fn mirroring_preserves_each_instances_translations() {
    for name in WORKLOADS {
        for n in [2, 4] {
            let mut m = Machine::new(cfg().with_cores(n));
            corun_with(&mut m, n, |m| workload_by_name(name, Scale::Test).run(m))
                .expect("the live co-run mirrors");
            let cores = m.per_core_stats();
            for (core, stats) in cores.iter().enumerate() {
                assert_eq!(stats.tlb, cores[0].tlb, "{name} x{n}: core {core}");
            }
        }
    }
}

#[test]
fn a_failing_mirrored_op_is_returned_after_instance_0_finishes() {
    let mut m = Machine::new(cfg().with_cores(2));
    let mut blocked = None;
    let mut finished = None;
    let result = corun_with(&mut m, 2, |m| {
        // Out of the mirror's sight, map a page where instance 1 will
        // load its program.
        let mirror = m.take_op_sink().expect("the mirror is attached");
        m.set_active_core(1);
        let base = m.program_base();
        m.map_region(base, PAGE_SIZE, Prot::RX);
        m.set_active_core(0);
        m.set_op_sink(mirror);
        blocked = Some(base);
        finished = Some(workload_by_name("radix", Scale::Test).run(m));
    });
    let Err(TraceError::Unmappable { start, .. }) = result else {
        panic!("want instance 1's LoadProgram to be unmappable, got {result:?}");
    };
    assert_eq!(Some(start), blocked);
    let finished = finished.expect("instance 0 ran to the end");
    assert!(finished.verified, "instance 0 verified its own output");
    assert_eq!(finished, solo("radix").0);
}
