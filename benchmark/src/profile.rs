//! The traced pass: every per-layer metric, from outside the program.
//!
//! One traced run does the same work whatever workload it is named for
//! (only the three `bench.rep_*` / `bench.units` run-quality metrics
//! describe the named workload): one untraced rep of each unit list for
//! the `bench.*` cell costs and the model-facing counts, a second rep
//! of the named workload, the `live_paper5` cells re-driven by hand
//! under spans, `kernel_churn` with every phase timed, and the layer
//! probes of [`crate::probes`].

use std::collections::BTreeMap;

use mtlb_bench::experiments::{workload_by_name, Fig3Row};
use mtlb_bench::runner::JobResult;
use mtlb_sim::{Machine, MachineConfig, RunReport};
use mtlb_workloads::Scale;

use crate::churn::{self, Mutation, Phase, PhaseTimes};
use crate::json::Value;
use crate::measure::{self, Pins};
use crate::probes::{self, ColumnPass, MachinePass};
use crate::spans::Tracer;
use crate::stats::median;
use crate::units::{self, sim_instructions, SweepRows, Unit, UnitKind};

/// Every per-layer metric: name, unit, which direction is better. The
/// order is the order `BENCHMARK.json` lists them in.
pub const PER_LAYER: [(&str, &str, &str); 65] = [
    ("bench.live_cell_ns_per_instr", "ns", "lower"),
    ("bench.record_cell_ns_per_instr", "ns", "lower"),
    ("bench.replay_cell_ns_per_instr", "ns", "lower"),
    ("bench.fig5_cell_ns_per_instr", "ns", "lower"),
    ("bench.fig6_cell_ns_per_instr", "ns", "lower"),
    ("bench.fig56_record_s", "s", "lower"),
    ("bench.rep_median_s", "s", "lower"),
    ("bench.rep_spread", "ratio", "lower"),
    ("bench.units", "count", "higher"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.fail_share", "ratio", "lower"),
    ("bench.mtlb_speedup", "ratio", "higher"),
    ("bench.paper_claims_held", "count", "higher"),
    ("bench.paper_err_pp", "pp", "lower"),
    ("bench.corun_efficiency", "ratio", "higher"),
    ("workloads.run_ns_per_instr", "ns", "lower"),
    ("workloads.self_ns_per_op", "ns", "lower"),
    ("trace.ops", "count", "lower"),
    ("trace.bytes_per_op", "B", "lower"),
    ("trace.record_ns_per_op", "ns", "lower"),
    ("trace.decode_ns_per_op", "ns", "lower"),
    ("trace.replay_ns_per_op", "ns", "lower"),
    ("sim.apply_ns_per_op", "ns", "lower"),
    ("sim.apply_base64_ns_per_op", "ns", "lower"),
    ("sim.miss_marginal_ns", "ns", "lower"),
    ("sim.new_ms", "ms", "lower"),
    ("sim.report_us", "us", "lower"),
    ("sim.core_switch_ns", "ns", "lower"),
    ("sim.cycles_user", "cycles", "lower"),
    ("sim.cycles_tlb_miss", "cycles", "lower"),
    ("sim.cycles_mem_stall", "cycles", "lower"),
    ("sim.cycles_kernel", "cycles", "lower"),
    ("sim.cycles_fault", "cycles", "lower"),
    ("sim.contention_events", "count", "lower"),
    ("tlb.translate_ns", "ns", "lower"),
    ("tlb.hit_ratio", "ratio", "higher"),
    ("tlb.hpt_lookup_ns", "ns", "lower"),
    ("tlb.sim_misses_base64", "count", "lower"),
    ("tlb.sim_misses_mtlb64", "count", "lower"),
    ("schemes.coalesced_translate_ns", "ns", "lower"),
    ("schemes.split_translate_ns", "ns", "lower"),
    ("schemes.coalesced_hit_ratio", "ratio", "higher"),
    ("schemes.split_hit_ratio", "ratio", "higher"),
    ("cache.access_ns", "ns", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.flush_page_ns", "ns", "lower"),
    ("cache.sim_misses", "count", "lower"),
    ("mmc.bus_access_ns", "ns", "lower"),
    ("mmc.mtlb_hit_ratio", "ratio", "higher"),
    ("mmc.set_mapping_ns", "ns", "lower"),
    ("mmc.sim_mtlb_hit_rate", "ratio", "higher"),
    ("mem.rw_ns", "ns", "lower"),
    ("os.remap_us", "us", "lower"),
    ("os.swap_out_us", "us", "lower"),
    ("os.demote_us", "us", "lower"),
    ("os.recolor_us", "us", "lower"),
    ("os.switch_us", "us", "lower"),
    ("os.sbrk_us", "us", "lower"),
    ("os.page_bits_us", "us", "lower"),
    ("os.touch_ns", "ns", "lower"),
    ("os.service_share", "ratio", "lower"),
    ("os.sim_tlb_miss_handler_calls", "count", "lower"),
    ("os.sim_shadow_faults", "count", "lower"),
    ("os.sim_pages_swapped_out", "count", "lower"),
    ("os.sim_shootdowns", "count", "lower"),
];

/// What one traced run found.
pub struct Profile {
    /// Values in [`PER_LAYER`] order.
    pub values: Vec<f64>,
    pub tracer: Tracer,
    /// Per-stream probe values and the run's exact counts, for
    /// `trace.json`.
    pub detail: Value,
    pub attempted: usize,
    pub failures: BTreeMap<String, String>,
}

fn ns_per_instr(units: &[Unit], kind: UnitKind) -> f64 {
    let (wall_s, instructions) = units
        .iter()
        .filter(|u| u.kind == kind)
        .fold((0.0, 0u64), |(w, i), u| (w + u.wall_s, i + u.instructions));
    wall_s * 1e9 / instructions as f64
}

/// The `live_paper5` cells driven by hand, each call into a layer under
/// its own span. Returns the reports in cell order.
fn traced_live_cells(scale: Scale, tracer: &mut Tracer) -> Vec<RunReport> {
    units::live_specs(scale)
        .into_iter()
        .map(|spec| {
            let (report, _) = tracer.span("bench.cell", &spec.label, |tracer| {
                let (mut machine, _) =
                    tracer.span("sim.new", &spec.label, |_| Machine::new(spec.cfg.clone()));
                let (outcome, _) = tracer.span("workloads.run", &spec.label, |_| {
                    workload_by_name(spec.workload, spec.scale).run(&mut machine)
                });
                assert!(outcome.verified, "{} failed its self-check", spec.label);
                tracer
                    .span("sim.report", &spec.label, |_| machine.report())
                    .0
            });
            report
        })
        .collect()
}

/// How many of the paper's six §3 claims about Figure 3 and §3.4 hold
/// on the cells this benchmark runs (`live_paper5` for the five
/// workloads at 64 entries, `sweep_fig3` for radix and vortex across
/// sizes). EXPERIMENTS.md checks the same claims on the full sweep.
fn paper_claims_held(live: &[JobResult], sweep: &SweepRows) -> u32 {
    let fraction = |rows: &[Fig3Row], workload: &str, entries: usize, mtlb: bool| {
        rows.iter()
            .find(|r| r.workload == workload && r.tlb_entries == entries && r.mtlb == mtlb)
            .map(|r| (r.tlb_fraction, r.normalized))
    };
    let base64: Vec<f64> = live
        .iter()
        .step_by(2)
        .map(|r| r.report.tlb_miss_fraction())
        .collect();
    // 1. Four of the five programs spend over 20 % in TLB misses at 64.
    let claim1 = base64.iter().filter(|f| **f > 0.20).count() == 4;
    // 2. Miss time is still significant at 128 entries (radix, vortex).
    let claim2 = units::SWEEP_WORKLOADS
        .iter()
        .all(|w| fraction(&sweep.fig3, w, 128, false).is_some_and(|(f, _)| f > 0.10));
    // 3. With the MTLB, TLB miss time is below 5 % in every cell.
    let claim3 = live
        .iter()
        .skip(1)
        .step_by(2)
        .all(|r| r.report.tlb_miss_fraction() < 0.05)
        && sweep
            .fig3
            .iter()
            .chain(&sweep.fig3_4)
            .filter(|r| r.mtlb)
            .all(|r| r.tlb_fraction < 0.05);
    // 4. Runtime improves monotonically with TLB size (64 → 96 → 128;
    //    the 96-entry base is the normalisation, 1.0).
    let claim4 = units::SWEEP_WORKLOADS.iter().all(|w| {
        let at = |e| fraction(&sweep.fig3, w, e, false).map_or(f64::NAN, |(_, n)| n);
        at(64) > 1.0 && 1.0 > at(128)
    });
    // 5. With the MTLB, runtime changes little as the CPU TLB grows.
    let claim5 = units::SWEEP_WORKLOADS.iter().all(|w| {
        let at = |e| fraction(&sweep.fig3, w, e, true).map_or(f64::NAN, |(_, n)| n);
        (at(64) / at(128) - 1.0).abs() < 0.01
    });
    // 6. §3.4: 64 entries plus the MTLB match or beat 128 without.
    let claim6 = units::SWEEP_WORKLOADS.iter().all(|w| {
        let with = fraction(&sweep.fig3, w, 64, true).map_or(f64::NAN, |(_, n)| n);
        let without = fraction(&sweep.fig3, w, 128, false).map_or(f64::NAN, |(_, n)| n);
        with / without < 1.02
    });
    [claim1, claim2, claim3, claim4, claim5, claim6]
        .into_iter()
        .map(u32::from)
        .sum()
}

/// Mean absolute error, in percentage points, against the paper's two
/// numeric references: radix still spends 13.5 % in TLB misses at 256
/// entries (§3.4), and the default MTLB hits 91 % of the time on em3d
/// (§3.5).
fn paper_err_pp(sweep: &SweepRows, em3d_mtlb_hit_rate: f64) -> f64 {
    let radix_at_256 = sweep
        .fig3_4
        .iter()
        .find(|r| !r.mtlb)
        .map_or(f64::NAN, |r| r.tlb_fraction);
    ((radix_at_256 * 100.0 - 13.5).abs() + (em3d_mtlb_hit_rate * 100.0 - 91.0).abs()) / 2.0
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole as f64
}

/// Runs the traced pass for `workload`.
pub fn run(workload: &str, scale: Scale, seed: u64) -> Result<Profile, String> {
    let pins = Pins::load()?;
    let mut tracer = Tracer::default();
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();

    // One untraced rep of every unit list, two of the named workload.
    let (live_units, live_results) = units::live_paper5(scale);
    let (sweep_units, sweep_rows) = units::sweep_fig3(scale);
    let (perop_units, fig6) = units::perop_fig5_fig6(scale);
    let churn_units = units::kernel_churn(scale, seed);
    let mut reps: BTreeMap<&str, Vec<Vec<Unit>>> = BTreeMap::new();
    reps.insert("live_paper5", vec![live_units]);
    reps.insert("sweep_fig3", vec![sweep_units]);
    reps.insert("perop_fig5_fig6", vec![perop_units]);
    reps.insert("kernel_churn", vec![churn_units]);
    let second = units::run_rep(workload, scale, seed);
    reps.get_mut(workload)
        .ok_or(format!("unknown workload {workload:?}"))?
        .push(second);

    let mut failures = BTreeMap::new();
    let mut attempted = 0;
    for (name, reps) in &reps {
        let workload_pins = measure::pins_apply(name, scale, seed, pins.seed)
            .then(|| pins.workloads.get(*name))
            .flatten();
        failures.extend(measure::check(reps, workload_pins));
        attempted += reps[0].len();
    }

    let live = &reps["live_paper5"][0];
    let sweep = &reps["sweep_fig3"][0];
    let perop = &reps["perop_fig5_fig6"][0];
    values.insert(
        "bench.live_cell_ns_per_instr",
        ns_per_instr(live, UnitKind::Live),
    );
    values.insert(
        "bench.record_cell_ns_per_instr",
        ns_per_instr(sweep, UnitKind::Record),
    );
    values.insert(
        "bench.replay_cell_ns_per_instr",
        ns_per_instr(sweep, UnitKind::Replay),
    );
    values.insert(
        "bench.fig5_cell_ns_per_instr",
        ns_per_instr(perop, UnitKind::Fig5),
    );
    values.insert(
        "bench.fig6_cell_ns_per_instr",
        ns_per_instr(perop, UnitKind::Fig6),
    );
    values.insert(
        "bench.fig56_record_s",
        perop
            .iter()
            .filter(|u| u.kind == UnitKind::PeropRecord)
            .map(|u| u.wall_s)
            .sum(),
    );
    let rep_totals: Vec<f64> = reps[workload]
        .iter()
        .map(|rep| rep.iter().map(|u| u.wall_s).sum())
        .collect();
    let fastest = rep_totals.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = rep_totals.iter().copied().fold(0.0, f64::max);
    values.insert("bench.rep_median_s", median(&rep_totals));
    values.insert("bench.rep_spread", slowest / fastest);
    values.insert("bench.units", reps[workload][0].len() as f64);
    values.insert("bench.fail_share", failures.len() as f64 / attempted as f64);

    // The live cells again, by hand, under spans; plus the em3d cell on
    // the 128-entry machine that the paper quotes an MTLB hit rate for.
    let traced_reports = traced_live_cells(scale, &mut tracer);
    let traced_cells_s: f64 = tracer.durations_ns("bench.cell").iter().sum::<f64>() / 1e9;
    let untraced_cells_s: f64 = live.iter().map(|u| u.wall_s).sum();
    values.insert(
        "bench.trace_overhead_frac",
        traced_cells_s / untraced_cells_s - 1.0,
    );
    let run_ns: f64 = tracer.durations_ns("workloads.run").iter().sum();
    let live_instructions: u64 = traced_reports.iter().map(sim_instructions).sum();
    values.insert(
        "workloads.run_ns_per_instr",
        run_ns / live_instructions as f64,
    );
    values.insert("sim.new_ms", median(&tracer.durations_ns("sim.new")) / 1e6);
    values.insert(
        "sim.report_us",
        median(&tracer.durations_ns("sim.report")) / 1e3,
    );
    let (em3d_report, _) = tracer.span("bench.cell", "fig4/em3d/tlb128+mtlb", |_| {
        let mut machine = Machine::new(MachineConfig::paper_mtlb(128));
        workload_by_name("em3d", scale).run(&mut machine);
        machine.report()
    });

    // Exact, model-facing counts: identical under any host-side change.
    let sum = |pick: fn(&RunReport) -> u64| -> f64 {
        live_results.iter().map(|r| pick(&r.report)).sum::<u64>() as f64
    };
    values.insert("sim.cycles_user", sum(|r| r.buckets.user.get()));
    values.insert("sim.cycles_tlb_miss", sum(|r| r.buckets.tlb_miss.get()));
    values.insert("sim.cycles_mem_stall", sum(|r| r.buckets.mem_stall.get()));
    values.insert("sim.cycles_kernel", sum(|r| r.buckets.kernel.get()));
    values.insert("sim.cycles_fault", sum(|r| r.buckets.fault.get()));
    values.insert("cache.sim_misses", sum(|r| r.cache.misses));
    values.insert(
        "os.sim_tlb_miss_handler_calls",
        sum(|r| r.kernel.tlb_miss_handler_calls),
    );
    // `live_specs` alternates the base and the MTLB machine.
    let base_cells: Vec<&JobResult> = live_results.iter().step_by(2).collect();
    let mtlb_cells: Vec<&JobResult> = live_results.iter().skip(1).step_by(2).collect();
    values.insert(
        "tlb.sim_misses_base64",
        base_cells.iter().map(|r| r.report.tlb.misses).sum::<u64>() as f64,
    );
    values.insert(
        "tlb.sim_misses_mtlb64",
        mtlb_cells.iter().map(|r| r.report.tlb.misses).sum::<u64>() as f64,
    );
    let mtlb_hits: u64 = mtlb_cells.iter().map(|r| r.report.mmc.mtlb_hits).sum();
    let mtlb_misses: u64 = mtlb_cells.iter().map(|r| r.report.mmc.mtlb_misses).sum();
    values.insert(
        "mmc.sim_mtlb_hit_rate",
        ratio(mtlb_hits, mtlb_hits + mtlb_misses),
    );
    let log_speedup: f64 = live_results
        .chunks(2)
        .map(|pair| {
            (pair[0].report.total_cycles.get() as f64 / pair[1].report.total_cycles.get() as f64)
                .ln()
        })
        .sum();
    values.insert(
        "bench.mtlb_speedup",
        (log_speedup / (live_results.len() / 2) as f64).exp(),
    );
    values.insert(
        "bench.paper_claims_held",
        f64::from(paper_claims_held(&live_results, &sweep_rows)),
    );
    values.insert(
        "bench.paper_err_pp",
        paper_err_pp(&sweep_rows, em3d_report.mmc.mtlb_hit_rate()),
    );
    values.insert("bench.corun_efficiency", fig6[0].efficiency);
    values.insert("sim.contention_events", fig6[0].contention_events as f64);
    values.insert("os.sim_shootdowns", fig6[0].shootdowns as f64);

    // kernel_churn with every phase timed.
    let params = churn::Params::for_scale(scale);
    let script = churn::generate(seed, params.rounds);
    let mut phases = PhaseTimes::default();
    let ((traced_churn, mut churn), _) = tracer.span("bench.cell", "kernel_churn", |_| {
        churn::rep(&script, params, &mut phases)
    });
    for (phase, total_ns) in Phase::ALL
        .iter()
        .map(|p| (p, phases.samples[p.index()].iter().sum::<f64>()))
    {
        let name = match phase {
            Phase::Switch => "os.switch",
            Phase::Burst => "os.touch",
            Phase::Service(Mutation::Remap) => "os.remap",
            Phase::Service(Mutation::SwapOut) => "os.swap_out",
            Phase::Service(Mutation::Demote) => "os.demote",
            Phase::Service(Mutation::Recolor) => "os.recolor",
            Phase::Service(Mutation::PageBits) => "os.page_bits",
            Phase::Service(Mutation::Sbrk) => "os.sbrk",
        };
        tracer.record(name, "kernel_churn", total_ns as u64);
    }
    if traced_churn
        .iter()
        .zip(&reps["kernel_churn"][0])
        .any(|(traced, plain)| (traced.cycles, traced.checksum) != (plain.cycles, plain.checksum))
    {
        failures.insert(
            "churn/traced".to_string(),
            "the traced pass simulated something else than the untraced one".to_string(),
        );
    }
    let phase_median_us = |phase: Phase| median(&phases.samples[phase.index()]) / 1e3;
    values.insert(
        "os.remap_us",
        phase_median_us(Phase::Service(Mutation::Remap)),
    );
    values.insert(
        "os.swap_out_us",
        phase_median_us(Phase::Service(Mutation::SwapOut)),
    );
    values.insert(
        "os.demote_us",
        phase_median_us(Phase::Service(Mutation::Demote)),
    );
    values.insert(
        "os.recolor_us",
        phase_median_us(Phase::Service(Mutation::Recolor)),
    );
    values.insert(
        "os.page_bits_us",
        phase_median_us(Phase::Service(Mutation::PageBits)),
    );
    values.insert(
        "os.sbrk_us",
        phase_median_us(Phase::Service(Mutation::Sbrk)),
    );
    values.insert("os.switch_us", phase_median_us(Phase::Switch));
    let burst_ns: f64 = phases.samples[Phase::Burst.index()].iter().sum();
    let all_ns: f64 = phases.samples.iter().flatten().sum();
    let switch_ns: f64 = phases.samples[Phase::Switch.index()].iter().sum();
    values.insert(
        "os.touch_ns",
        burst_ns / (params.rounds as u64 * churn::BURST) as f64,
    );
    values.insert("os.service_share", (all_ns - burst_ns - switch_ns) / all_ns);
    let churn_report = churn.report();
    values.insert(
        "os.sim_shadow_faults",
        churn_report.kernel.shadow_faults_serviced as f64,
    );
    values.insert(
        "os.sim_pages_swapped_out",
        churn_report.kernel.pages_swapped_out as f64,
    );

    // The layer probes, PASSES times over each stream.
    let mut machine_passes: Vec<Vec<MachinePass>> = Vec::new();
    let mut column_passes: Vec<Vec<ColumnPass>> = Vec::new();
    let mut stream_facts = Vec::new();
    for name in probes::STREAMS {
        let mut stream = probes::record(name, scale, &mut tracer);
        machine_passes.push(
            (0..probes::PASSES)
                .map(|_| probes::machine_pass(&mut stream, scale, &mut tracer))
                .collect(),
        );
        column_passes.push(
            (0..probes::PASSES)
                .map(|_| probes::column_pass(&stream, &mut tracer))
                .collect(),
        );
        stream_facts.push((
            name,
            stream.ops.len() as u64,
            stream.bytes.len() as u64,
            stream.instructions,
        ));
    }
    let total_ops: u64 = stream_facts.iter().map(|f| f.1).sum();
    let total_bytes: u64 = stream_facts.iter().map(|f| f.2).sum();
    values.insert("trace.ops", total_ops as f64);
    values.insert("trace.bytes_per_op", ratio(total_bytes, total_ops));
    // Per pass: the streams' times summed over the streams' counts;
    // then the median over passes.
    let over_machine = |time: fn(&MachinePass) -> f64| -> f64 {
        median(
            &(0..probes::PASSES)
                .map(|p| machine_passes.iter().map(|s| time(&s[p])).sum::<f64>())
                .collect::<Vec<_>>(),
        )
    };
    let ops = total_ops as f64;
    values.insert(
        "workloads.self_ns_per_op",
        over_machine(|m| m.run_plain_ns - m.apply_mtlb64_ns) / ops,
    );
    values.insert(
        "trace.record_ns_per_op",
        over_machine(|m| m.run_recording_ns - m.run_plain_ns) / ops,
    );
    values.insert(
        "trace.decode_ns_per_op",
        over_machine(|m| m.decode_ns) / ops,
    );
    values.insert(
        "trace.replay_ns_per_op",
        over_machine(|m| m.replay_ns) / ops,
    );
    values.insert(
        "sim.apply_ns_per_op",
        over_machine(|m| m.apply_mtlb64_ns) / ops,
    );
    values.insert(
        "sim.apply_base64_ns_per_op",
        over_machine(|m| m.apply_base64_ns) / ops,
    );
    let extra_misses: u64 = machine_passes
        .iter()
        .map(|s| s[0].misses_base64 - s[0].misses_base128)
        .sum();
    values.insert(
        "sim.miss_marginal_ns",
        over_machine(|m| m.apply_base64_ns - m.apply_base128_ns) / extra_misses as f64,
    );
    values.insert("sim.core_switch_ns", probes::core_switch_ns(&mut tracer));

    let over_columns = |time: fn(&ColumnPass) -> f64, count: fn(&ColumnPass) -> u64| -> f64 {
        let total: u64 = column_passes.iter().map(|s| count(&s[0])).sum();
        median(
            &(0..probes::PASSES)
                .map(|p| column_passes.iter().map(|s| time(&s[p])).sum::<f64>())
                .collect::<Vec<_>>(),
        ) / total as f64
    };
    let count_ratio = |part: fn(&ColumnPass) -> u64, whole: fn(&ColumnPass) -> u64| -> f64 {
        ratio(
            column_passes.iter().map(|s| part(&s[0])).sum(),
            column_passes.iter().map(|s| whole(&s[0])).sum(),
        )
    };
    values.insert(
        "tlb.translate_ns",
        over_columns(|c| c.tlb_translate_ns, |c| c.accesses),
    );
    values.insert("tlb.hit_ratio", count_ratio(|c| c.tlb_hits, |c| c.accesses));
    values.insert(
        "tlb.hpt_lookup_ns",
        over_columns(|c| c.hpt_lookup_ns, |c| c.hpt_lookups),
    );
    values.insert(
        "schemes.coalesced_translate_ns",
        over_columns(|c| c.coalesced_translate_ns, |c| c.accesses),
    );
    values.insert(
        "schemes.split_translate_ns",
        over_columns(|c| c.split_translate_ns, |c| c.accesses),
    );
    values.insert(
        "schemes.coalesced_hit_ratio",
        count_ratio(|c| c.coalesced_hits, |c| c.accesses),
    );
    values.insert(
        "schemes.split_hit_ratio",
        count_ratio(|c| c.split_hits, |c| c.accesses),
    );
    values.insert(
        "cache.access_ns",
        over_columns(|c| c.cache_access_ns, |c| c.accesses),
    );
    values.insert(
        "cache.hit_ratio",
        count_ratio(|c| c.cache_hits, |c| c.accesses),
    );
    values.insert(
        "cache.flush_page_ns",
        over_columns(|c| c.cache_flush_ns, |c| c.cache_flushes),
    );
    values.insert(
        "mmc.bus_access_ns",
        over_columns(|c| c.mmc_bus_access_ns, |c| c.mmc_accesses),
    );
    values.insert(
        "mmc.mtlb_hit_ratio",
        count_ratio(|c| c.mmc_mtlb_hits, |c| c.mmc_accesses),
    );
    values.insert(
        "mmc.set_mapping_ns",
        over_columns(|c| c.mmc_set_mapping_ns, |c| c.mmc_mappings),
    );
    values.insert("mem.rw_ns", over_columns(|c| c.mem_rw_ns, |c| c.accesses));

    let detail = Value::obj([
        ("probe_passes", Value::Num(probes::PASSES as f64)),
        (
            "probe_streams",
            Value::Arr(
                stream_facts
                    .iter()
                    .zip(&machine_passes)
                    .zip(&column_passes)
                    .map(|((&(name, ops, bytes, instructions), machine), columns)| {
                        let m = |time: fn(&MachinePass) -> f64| {
                            Value::Num(
                                median(&machine.iter().map(time).collect::<Vec<_>>()) / ops as f64,
                            )
                        };
                        let c = |time: fn(&ColumnPass) -> f64, count: u64| {
                            Value::Num(
                                median(&columns.iter().map(time).collect::<Vec<_>>())
                                    / count as f64,
                            )
                        };
                        let first = &columns[0];
                        Value::obj([
                            ("stream", Value::Str(name.to_string())),
                            ("ops", Value::Num(ops as f64)),
                            ("bytes", Value::Num(bytes as f64)),
                            ("instructions", Value::Num(instructions as f64)),
                            ("data_accesses", Value::Num(first.accesses as f64)),
                            ("workloads.run_ns_per_op", m(|p| p.run_plain_ns)),
                            ("trace.record_run_ns_per_op", m(|p| p.run_recording_ns)),
                            ("trace.decode_ns_per_op", m(|p| p.decode_ns)),
                            ("trace.replay_ns_per_op", m(|p| p.replay_ns)),
                            ("sim.apply_ns_per_op", m(|p| p.apply_mtlb64_ns)),
                            ("sim.apply_base64_ns_per_op", m(|p| p.apply_base64_ns)),
                            ("sim.apply_base128_ns_per_op", m(|p| p.apply_base128_ns)),
                            (
                                "tlb.sim_misses_base64",
                                Value::Num(machine[0].misses_base64 as f64),
                            ),
                            (
                                "tlb.sim_misses_base128",
                                Value::Num(machine[0].misses_base128 as f64),
                            ),
                            (
                                "tlb.translate_ns",
                                c(|p| p.tlb_translate_ns, first.accesses),
                            ),
                            (
                                "tlb.hit_ratio",
                                Value::Num(ratio(first.tlb_hits, first.accesses)),
                            ),
                            (
                                "tlb.hpt_lookup_ns",
                                c(|p| p.hpt_lookup_ns, first.hpt_lookups),
                            ),
                            (
                                "schemes.coalesced_translate_ns",
                                c(|p| p.coalesced_translate_ns, first.accesses),
                            ),
                            (
                                "schemes.split_translate_ns",
                                c(|p| p.split_translate_ns, first.accesses),
                            ),
                            ("cache.access_ns", c(|p| p.cache_access_ns, first.accesses)),
                            (
                                "cache.hit_ratio",
                                Value::Num(ratio(first.cache_hits, first.accesses)),
                            ),
                            (
                                "mmc.bus_access_ns",
                                c(|p| p.mmc_bus_access_ns, first.mmc_accesses),
                            ),
                            ("mem.rw_ns", c(|p| p.mem_rw_ns, first.accesses)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "churn_phase_calls",
            Value::Obj(
                Phase::ALL
                    .iter()
                    .map(|p| {
                        (
                            format!("{p:?}"),
                            Value::Num(phases.samples[p.index()].len() as f64),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "churn_script_hash",
            Value::Str(format!("{:#018x}", script.hash)),
        ),
    ]);

    let values = PER_LAYER
        .iter()
        .map(|(name, _, _)| {
            values
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("the traced pass did not measure {name}"))
        })
        .collect();
    Ok(Profile {
        values,
        tracer,
        detail,
        attempted,
        failures,
    })
}
