//! The four workloads as unit lists.
//!
//! A *unit* is one cell or task: one workload on one machine
//! configuration. A *rep* is one pass over a workload's whole unit list
//! with fresh state (a new `Runner`, a new machine). Modelled TLBs,
//! caches and the MTLB start empty in every cell, as in the paper, and
//! statistics cover the whole run. There is no host warm-up rep:
//! `repro` users pay cold costs on every run.
//!
//! The paper-scale lists are cut to what 92 driver runs can afford (see
//! `README.md`, "What was cut"): `sweep_fig3` is the `repro fig3` sweep
//! restricted to two workloads and the TLB sizes 64 and 128, and
//! `perop_fig5_fig6` co-runs one workload instead of two.

use std::collections::BTreeMap;

use mtlb_bench::experiments::{self, Fig3Row, Fig5Row, Fig6Row};
use mtlb_bench::runner::{JobRecord, JobResult, JobSpec, Runner};
use mtlb_sim::{MachineConfig, RunReport};
use mtlb_workloads::Scale;

use crate::churn::{self, NoHook};
use crate::contention::{self, lay_end_to_end};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "live_paper5",
    "sweep_fig3",
    "perop_fig5_fig6",
    "kernel_churn",
];

/// The seed `expected.json` pins `kernel_churn` at. The paper workloads
/// keep their internal seeds, so their pins hold under every seed.
pub const DEFAULT_SEED: u64 = 1;

/// Host seconds one rep of each workload takes on the reference
/// container when it is quiet; `--seconds` divided by this, rounded
/// down (at least [`MIN_REPS`]), is the rep count. A count, not a
/// deadline, so that best-of-R is over the same R in every run that is
/// not cut short (see [`OVERRUN`]).
pub fn nominal_rep_seconds(workload: &str) -> f64 {
    match workload {
        "live_paper5" => 5.0,
        "sweep_fig3" => 9.5,
        "perop_fig5_fig6" => 5.0,
        _ => 3.0,
    }
}

pub const MIN_REPS: usize = 3;

/// Beside a busy neighbour a rep takes up to twice its nominal time,
/// and the driver's 92 runs have 57 minutes between them: once a run
/// has its [`MIN_REPS`] and has measured for `--seconds` times this,
/// it starts no further rep.
pub const OVERRUN: f64 = 1.1;

pub fn reps_for(workload: &str, seconds: f64) -> usize {
    ((seconds / nominal_rep_seconds(workload)) as usize).max(MIN_REPS)
}

/// How much of the contention probe's slowdown each workload suffers
/// (see `contention`): the value that made rep totals of identical code
/// agree best between quiet and contended stretches of the reference
/// container (`README.md`, "Measured noise"). The paper workloads and
/// the replay engines are throughput-bound like the probe;
/// `kernel_churn` touches 32 MB at random and waits for the host's
/// memory more than for its issue slots.
pub fn sensitivity(workload: &str) -> f64 {
    match workload {
        "kernel_churn" => 0.8,
        _ => 1.0,
    }
}

/// Which engine a unit exercises; the traced pass reports host time
/// per simulated instruction for each kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitKind {
    /// A workload run live on the machine (`live_paper5`).
    Live,
    /// The first cell of a workload in a replaying sweep: runs live and
    /// records the op stream.
    Record,
    /// A cell served by the Runner's batched replay.
    Replay,
    /// A cell the Runner answered from its result cache.
    Dedup,
    /// A fig5 / fig6 task recording a `Vec<MachineOp>`.
    PeropRecord,
    /// A fig5 cell: per-op replay through a rival scheme.
    Fig5,
    /// A fig6 cell: per-op replay interleaved over four cores.
    Fig6,
    /// A segment of the `kernel_churn` script.
    Churn,
}

/// One finished unit.
#[derive(Clone, Debug)]
pub struct Unit {
    pub label: String,
    pub kind: UnitKind,
    /// Host wall time.
    pub wall_s: f64,
    /// When the unit ran, on [`contention::now_s`]'s clock.
    pub span_s: (f64, f64),
    /// The probe's mean slowdown over that span, and the wall time
    /// corrected for it (see `contention`). `measure` fills both in once
    /// the run's samples are in; until then they read 1 and `wall_s`.
    pub slowdown: f64,
    pub host_s: f64,
    /// Simulated cycles (zero where the experiment driver does not
    /// expose the unit's report).
    pub cycles: u64,
    /// Digest of the unit's outputs.
    pub checksum: u64,
    /// Simulated instructions, memory operations included.
    pub instructions: u64,
    /// The workload's self-check passed / replay did not diverge / the
    /// oracle agreed.
    pub verified: bool,
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// A digest of the counters a host-side change must leave alone. Built
/// from named fields, not from `RunReport::to_json`, so that adding a
/// field to the report does not move every pin.
pub fn counters_digest(report: &RunReport) -> u64 {
    let counters = [
        report.total_cycles.get(),
        report.buckets.user.get(),
        report.buckets.tlb_miss.get(),
        report.buckets.mem_stall.get(),
        report.buckets.kernel.get(),
        report.buckets.fault.get(),
        report.instructions,
        report.loads,
        report.stores,
        report.tlb.hits,
        report.tlb.misses,
        report.cache.hits,
        report.cache.misses,
        report.mmc.mtlb_hits,
        report.mmc.mtlb_misses,
        report.mmc.shadow_faults,
        report.kernel.tlb_miss_handler_calls,
        report.kernel.pages_swapped_out,
        report.kernel.shootdowns,
    ];
    let bytes: Vec<u8> = counters.iter().flat_map(|c| c.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// Simulated instructions including loads and stores: the model counts
/// memory operations apart from `instructions`, and `kernel_churn`
/// issues nothing else.
pub fn sim_instructions(report: &RunReport) -> u64 {
    report.instructions + report.loads + report.stores
}

/// The ten `live_paper5` cells: the five paper workloads on the
/// 64-entry machine without and with the MTLB.
pub fn live_specs(scale: Scale) -> Vec<JobSpec> {
    experiments::WORKLOADS
        .iter()
        .flat_map(|&name| {
            [
                JobSpec::new(
                    format!("live/{name}/tlb64"),
                    name,
                    scale,
                    MachineConfig::paper_base(64),
                ),
                JobSpec::new(
                    format!("live/{name}/tlb64+mtlb"),
                    name,
                    scale,
                    MachineConfig::paper_mtlb(64),
                ),
            ]
        })
        .collect()
}

fn live_unit(result: &JobResult, span_s: (f64, f64)) -> Unit {
    let wall_s = result.wall.as_secs_f64();
    Unit {
        label: result.label.clone(),
        kind: UnitKind::Live,
        wall_s,
        span_s,
        slowdown: 1.0,
        host_s: wall_s,
        cycles: result.report.total_cycles.get(),
        checksum: result.outcome.checksum ^ counters_digest(&result.report),
        instructions: sim_instructions(&result.report),
        verified: result.outcome.verified,
    }
}

/// One rep of `live_paper5`, with the full results for the traced pass.
pub fn live_paper5(scale: Scale) -> (Vec<Unit>, Vec<JobResult>) {
    // One spec per call, so that each cell's span is known.
    let runner = Runner::serial().with_replay(false);
    let mut units = Vec::new();
    let mut results = Vec::new();
    for spec in live_specs(scale) {
        let start_s = contention::now_s();
        let result = runner
            .run(std::slice::from_ref(&spec))
            .pop()
            .expect("one result per spec");
        units.push(live_unit(&result, (start_s, contention::now_s())));
        results.push(result);
    }
    (units, results)
}

/// The experiment drivers report each job's duration, not when it ran;
/// a serial Runner runs them back to back in record order.
fn spans_of(call_start_s: f64, call_end_s: f64, records: &[JobRecord]) -> Vec<(f64, f64)> {
    let walls_s: Vec<f64> = records.iter().map(|r| r.wall.as_secs_f64()).collect();
    lay_end_to_end(call_start_s, call_end_s, &walls_s)
}

pub const SWEEP_SIZES: [usize; 2] = [64, 128];
pub const SWEEP_WORKLOADS: [&str; 2] = ["radix", "vortex"];

/// What one rep of `sweep_fig3` produced besides its units.
pub struct SweepRows {
    pub fig3: Vec<Fig3Row>,
    pub fig3_4: Vec<Fig3Row>,
}

fn fig3_label(prefix: &str, row: &Fig3Row) -> String {
    let tag = if row.mtlb { "+mtlb" } else { "" };
    format!("{prefix}/{}/tlb{}{tag}", row.workload, row.tlb_entries)
}

/// One rep of `sweep_fig3`: what `repro fig3` runs — the Figure 3 sweep
/// and the §3.4 radix-at-256 rows on one replaying Runner — for the
/// workloads and sizes above.
pub fn sweep_fig3(scale: Scale) -> (Vec<Unit>, SweepRows) {
    let runner = Runner::serial();
    let call_start_s = contention::now_s();
    let fig3 = experiments::fig3(&runner, scale, &SWEEP_SIZES, &SWEEP_WORKLOADS);
    let fig3_4 = experiments::fig3_labelled(&runner, scale, &[256], &["radix"], "fig3.4", 1);
    let call_end_s = contention::now_s();
    let rows: BTreeMap<String, &Fig3Row> = fig3
        .iter()
        .map(|row| (fig3_label("fig3", row), row))
        .chain(fig3_4.iter().map(|row| (fig3_label("fig3.4", row), row)))
        .collect();
    // Simulated instructions do not depend on the machine, so a cell
    // whose report the sweep keeps to itself (the base96 normalisation
    // run) borrows its workload's count.
    let per_workload: BTreeMap<&str, &Fig3Row> =
        fig3.iter().map(|row| (row.workload, row)).collect();
    let mut recorded: Vec<&str> = Vec::new();
    let records = runner.take_records();
    let spans = spans_of(call_start_s, call_end_s, &records);
    let units = records
        .into_iter()
        .zip(spans)
        .map(
            |(
                JobRecord {
                    label,
                    wall,
                    sim_cycles,
                },
                span_s,
            )| {
                let workload = label.split('/').nth(1).unwrap_or_default();
                let sibling = per_workload[workload];
                let kind = if !recorded.contains(&sibling.workload) {
                    recorded.push(sibling.workload);
                    UnitKind::Record
                } else if label.starts_with("fig3.4/") && label.ends_with("/base96") {
                    UnitKind::Dedup
                } else {
                    UnitKind::Replay
                };
                let row = rows.get(&label);
                Unit {
                    kind,
                    wall_s: wall.as_secs_f64(),
                    span_s,
                    slowdown: 1.0,
                    host_s: wall.as_secs_f64(),
                    cycles: sim_cycles.unwrap_or_default(),
                    checksum: row.map_or(0, |row| counters_digest(&row.report)),
                    instructions: sim_instructions(&sibling.report),
                    verified: row.map_or(sibling.verified, |row| row.verified),
                    label,
                }
            },
        )
        .collect();
    (units, SweepRows { fig3, fig3_4 })
}

pub const FIG5_WORKLOADS: [&str; 2] = ["vortex", "cc1"];
pub const FIG6_WORKLOADS: [&str; 1] = ["vortex"];
pub const FIG6_INSTANCES: usize = 4;

/// One rep of `perop_fig5_fig6`: the rival-scheme shoot-out at 64
/// entries and a four-core co-run, both replaying a `Vec<MachineOp>`
/// op by op. The drivers panic on a diverging replay, so a unit that
/// returns is a verified one.
pub fn perop_fig5_fig6(scale: Scale) -> (Vec<Unit>, Vec<Fig6Row>) {
    let runner = Runner::serial();
    let call_start_s = contention::now_s();
    let fig5 = experiments::fig5(&runner, scale, &[64], &FIG5_WORKLOADS);
    let fig6 = experiments::fig6(&runner, scale, &[FIG6_INSTANCES], &FIG6_WORKLOADS);
    let call_end_s = contention::now_s();
    let fig5_rows: BTreeMap<String, &Fig5Row> = fig5
        .iter()
        .map(|row| {
            (
                format!("fig5/{}/{}{}", row.workload, row.scheme, row.tlb_entries),
                row,
            )
        })
        .collect();
    let fig6_rows: BTreeMap<String, &Fig6Row> = fig6
        .iter()
        .map(|row| (format!("fig6/{}/x{}", row.workload, row.instances), row))
        .collect();
    let records = runner.take_records();
    let spans = spans_of(call_start_s, call_end_s, &records);
    let units = records
        .into_iter()
        .zip(spans)
        .map(|(JobRecord { label, wall, .. }, span_s)| {
            let workload = label.split('/').nth(1).unwrap_or_default();
            let (kind, cycles, checksum, instructions) = if let Some(row) = fig5_rows.get(&label) {
                (
                    UnitKind::Fig5,
                    row.total_cycles,
                    counters_digest(&row.report),
                    sim_instructions(&row.report),
                )
            } else if let Some(row) = fig6_rows.get(&label) {
                (
                    UnitKind::Fig6,
                    row.corun_cycles,
                    counters_digest(&row.report),
                    sim_instructions(&row.report),
                )
            } else {
                // A record task. fig6 reports its recording run's
                // cycles as the co-run baseline; fig5 keeps them.
                let baseline = fig6
                    .iter()
                    .find(|row| label.starts_with("fig6/") && row.workload == workload)
                    .map_or(0, |row| row.baseline_cycles);
                let single_run = fig5
                    .iter()
                    .find(|row| row.workload == workload)
                    .map_or(0, |row| sim_instructions(&row.report));
                (UnitKind::PeropRecord, baseline, 0, single_run)
            };
            Unit {
                label,
                kind,
                wall_s: wall.as_secs_f64(),
                span_s,
                slowdown: 1.0,
                host_s: wall.as_secs_f64(),
                cycles,
                checksum,
                instructions,
                verified: true,
            }
        })
        .collect();
    (units, fig6)
}

/// One rep of `kernel_churn` on a freshly built machine.
pub fn kernel_churn(scale: Scale, seed: u64) -> Vec<Unit> {
    let params = churn::Params::for_scale(scale);
    let script = churn::generate(seed, params.rounds);
    churn::rep(&script, params, &mut NoHook).0
}

/// One rep of the named workload.
///
/// # Panics
///
/// Panics on a name outside [`WORKLOADS`]; the command line is checked
/// before this is reached.
pub fn run_rep(workload: &str, scale: Scale, seed: u64) -> Vec<Unit> {
    match workload {
        "live_paper5" => live_paper5(scale).0,
        "sweep_fig3" => sweep_fig3(scale).0,
        "perop_fig5_fig6" => perop_fig5_fig6(scale).0,
        "kernel_churn" => kernel_churn(scale, seed),
        other => panic!("unknown workload {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_counts_follow_the_seconds_budget() {
        assert_eq!(reps_for("live_paper5", 20.0), 4);
        assert_eq!(reps_for("sweep_fig3", 20.0), 3);
        assert_eq!(reps_for("perop_fig5_fig6", 20.0), 4);
        assert_eq!(reps_for("kernel_churn", 20.0), 6);
        assert_eq!(reps_for("kernel_churn", 1.0), MIN_REPS);
    }

    #[test]
    fn sweep_units_are_classified_by_engine() {
        let (units, rows) = sweep_fig3(Scale::Test);
        let kinds: Vec<UnitKind> = units.iter().map(|u| u.kind).collect();
        // radix: base96 records, four cells replay; vortex likewise;
        // then fig3.4: a cached base96 and two more radix replays.
        use UnitKind::{Dedup, Record, Replay};
        assert_eq!(
            kinds,
            [
                Record, Replay, Replay, Replay, Replay, Record, Replay, Replay, Replay, Replay,
                Dedup, Replay, Replay
            ]
        );
        assert_eq!(units[0].label, "fig3/radix/base96");
        assert_eq!(units[10].label, "fig3.4/radix/base96");
        assert_eq!(units[10].cycles, units[0].cycles);
        assert!(units
            .iter()
            .all(|u| u.verified && u.cycles > 0 && u.instructions > 0));
        assert_eq!(rows.fig3.len(), 8);
        assert_eq!(rows.fig3_4.len(), 2);
    }

    #[test]
    fn perop_units_cover_records_fig5_and_fig6() {
        let (units, fig6) = perop_fig5_fig6(Scale::Test);
        let count = |kind| units.iter().filter(|u| u.kind == kind).count();
        assert_eq!(count(UnitKind::PeropRecord), 3);
        assert_eq!(count(UnitKind::Fig5), 8);
        assert_eq!(count(UnitKind::Fig6), 1);
        assert!(units.iter().all(|u| u.instructions > 0));
        let corun = units.iter().find(|u| u.kind == UnitKind::Fig6).unwrap();
        assert_eq!(corun.cycles, fig6[0].corun_cycles);
    }

    #[test]
    fn live_units_carry_the_workload_outcome() {
        let (units, results) = live_paper5(Scale::Test);
        assert_eq!(units.len(), 10);
        assert_eq!(units[0].label, "live/compress95/tlb64");
        assert_eq!(units[9].label, "live/cc1/tlb64+mtlb");
        for (unit, result) in units.iter().zip(&results) {
            assert!(unit.verified);
            assert_eq!(unit.cycles, result.report.total_cycles.get());
        }
    }
}
