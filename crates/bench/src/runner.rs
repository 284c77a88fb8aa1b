//! Parallel sweep execution.
//!
//! Every sweep in [`experiments`](crate::experiments) is a set of
//! *independent* simulations — one workload on one [`MachineConfig`],
//! or `n` copies of it co-running on an `n`-core one — so the drivers
//! describe their work as [`JobSpec`] lists and hand them to a
//! [`Runner`]. The runner groups a batch into *classes*, the specs that
//! differ only in CPU-TLB size, and hands each class to one of its OS
//! threads ([`std::thread::scope`]; no job queue crate, no channels),
//! which runs the class's jobs in spec order. A co-run runs its workload
//! live on core 0 and [`mtlb_trace::corun_with`] mirrors each op onto
//! the other cores, so no job records a trace unless replay is on
//! ([`Runner::with_replay`]).
//!
//! Three properties the rest of the crate relies on:
//!
//! * **Determinism.** Results come back in job order, so tables and
//!   CSVs built from them are byte-identical between `--jobs 1` and
//!   `--jobs N`. Each simulation is single-threaded and seeded, and one
//!   thread runs a whole class, so neither a run's simulated cycles nor
//!   which job simulates it depend on scheduling.
//! * **One simulation per run.** A job is served by a finished run of
//!   its class that provably is its own run: an exact repeat, or a run
//!   whose CPU TLBs never evicted and never held more entries than the
//!   job's TLB has ([`Machine::tlb_reach_demand`]). On the MTLB machine
//!   one run answers every CPU-TLB size of a workload. A served row is the
//!   simulated row, bit for bit; `--trace` simulates every job.
//! * **Attribution.** The runner records per-job host wall time and
//!   simulated cycles ([`JobRecord`]). `repro` prints them as `[job]`
//!   progress lines on stderr, naming the job whose run served a
//!   served one; the repo benchmark (`benchmark/`) drains them with
//!   [`Runner::take_records`] as its per-unit host times.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use mtlb_sim::{Bucket, Machine, MachineConfig, RingTrace, RunReport};
use mtlb_trace::{corun_with, TraceError, TraceWriter};
use mtlb_workloads::{Outcome, Scale};

use crate::experiments::workload_by_name;

/// The scale discriminant stored in a trace header ([`mtlb_trace`]
/// keeps it a raw byte so it does not depend on the workloads crate).
#[must_use]
pub fn scale_byte(scale: Scale) -> u8 {
    match scale {
        Scale::Test => 0,
        Scale::Paper => 1,
    }
}

/// Inverts [`scale_byte`].
#[must_use]
pub fn scale_from_byte(byte: u8) -> Option<Scale> {
    match byte {
        0 => Some(Scale::Test),
        1 => Some(Scale::Paper),
        _ => None,
    }
}

/// Runs `spec`'s workload live on `machine` — as instance 0 of a
/// [`corun_live`] when `spec` is a co-run — returning its outcome and,
/// when `record` is set, its op stream as MTR1 bytes (else none). A
/// co-run is never recorded.
fn run_live(spec: &JobSpec, machine: &mut Machine, record: bool) -> (Outcome, Vec<u8>) {
    let mut workload = workload_by_name(spec.workload, spec.scale);
    if spec.instances > 1 {
        let outcome = corun_live(&spec.label, machine, spec.instances, |m| workload.run(m));
        return (outcome, Vec::new());
    }
    if record {
        machine.set_op_sink(Box::new(TraceWriter::new()));
    }
    let outcome = workload.run(machine);
    let writer = machine
        .take_op_sink()
        .and_then(|s| s.into_any().downcast::<TraceWriter>().ok());
    let bytes = writer.map_or_else(Vec::new, |w| {
        w.finish(
            spec.workload,
            scale_byte(spec.scale),
            outcome.checksum,
            outcome.verified,
        )
    });
    (outcome, bytes)
}

/// `run` as instance 0 of an `instances`-way [`corun_with`] on
/// `machine`, returning its live outcome. A mirrored op that fails
/// costs one warning and an unverified outcome.
fn corun_live(
    label: &str,
    machine: &mut Machine,
    instances: usize,
    run: impl FnOnce(&mut Machine) -> Outcome,
) -> Outcome {
    corun_with(machine, instances, |m| Ok(run(m))).unwrap_or_else(|e| {
        eprintln!("warning: {label}: co-run mirror failed ({e}); the row is unverified");
        Outcome::default()
    })
}

/// One independent simulation: a workload on a machine configuration.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Display label, e.g. `fig3/em3d/tlb64+mtlb`.
    pub label: String,
    /// Workload name (see [`crate::experiments::WORKLOADS`]).
    pub workload: &'static str,
    /// Workload scale.
    pub scale: Scale,
    /// The machine to run it on.
    pub cfg: MachineConfig,
    /// Copies of the workload co-running on `cfg`, one per core
    /// ([`JobSpec::corun`]); 1 for an ordinary run.
    pub instances: usize,
}

impl JobSpec {
    /// Convenience constructor.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        workload: &'static str,
        scale: Scale,
        cfg: MachineConfig,
    ) -> Self {
        JobSpec {
            label: label.into(),
            workload,
            scale,
            cfg,
            instances: 1,
        }
    }

    /// Makes this job a co-run of `n` instances on an `n`-core copy of
    /// its machine: the workload runs on core 0 and
    /// [`mtlb_trace::corun_with`] mirrors its ops, relocated, onto the
    /// other cores. Panics as [`MachineConfig::with_cores`] does.
    #[must_use]
    pub fn corun(mut self, n: usize) -> Self {
        self.cfg = self.cfg.with_cores(n);
        self.instances = n;
        self
    }
}

/// The outcome of one completed [`JobSpec`].
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The spec's label.
    pub label: String,
    /// Workload outcome (checksum + self-check).
    pub outcome: Outcome,
    /// Full statistics snapshot of the run.
    pub report: RunReport,
    /// Host wall time the job took.
    pub wall: Duration,
}

/// A host-time record of one finished job: what a `[job]` progress
/// line prints, and the per-unit timing `benchmark/src/units.rs` reads
/// through [`Runner::take_records`].
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// The job's label.
    pub label: String,
    /// Host wall time.
    pub wall: Duration,
    /// Simulated cycles. Every job is a machine simulation, so every
    /// record fills this; it stays an `Option` for the readers that
    /// destructure it.
    pub sim_cycles: Option<u64>,
}

/// Recorded op traces, one per `(workload, scale)` pair, used only
/// with replay on: the pair's first single-instance job records its
/// entry (unless one was preloaded), and every later job of the pair
/// replays it — a single-instance job waiting for a recording in
/// progress, a co-run never: with no trace cached yet it runs live.
type TraceCache = BTreeMap<(&'static str, Scale), Arc<OnceLock<Arc<Vec<u8>>>>>;

/// Every finished simulation of a runner, grouped by class
/// ([`ClassKey`]). Simulations are deterministic, so a job is served by
/// a run of its class that provably is the job's run:
///
/// * its *twin*, the run at the job's own capacity — the sweeps'
///   exact-repeat dedup (fig3's 96-entry no-MTLB cell is its base96 run;
///   fig3.4, fig5 and the §5 subblock table share cells with fig3; fig5's
///   `mtlb`/96 cell is its reference run and fig6's baseline);
/// * or a run whose [`Machine::tlb_reach_demand`] is at most the job's
///   capacity: its CPU TLBs never evicted and never held more entries
///   than the job's TLB has, so the job's run would go the same way bit
///   for bit (the proof is at [`mtlb_tlb::CpuTlb::reach_demand`]). The
///   MTLB machine's CPU TLB never fills, so one run answers fig3's
///   `tlb64+mtlb` to `tlb128+mtlb` cells, fig3.4's 256 and fig5's `mtlb`
///   cells.
///
/// Otherwise the job simulates and its run joins the class. So a class
/// whose runs need `D` entries simulates once per distinct capacity
/// below `D` and once for all capacities at or above it, and which jobs
/// simulate is fixed by the spec list and what the cache held before.
type ResultCache = BTreeMap<ClassKey, Vec<Run>>;

/// `(workload, scale, instances, config)`, the config by its exhaustive
/// `Debug` rendering with `cpu_tlb_entries` erased. The instance count
/// keeps a co-run apart from a single instance on its machine (`repro
/// all --cores 4` runs fig3 on fig6's 4-core machine).
type ClassKey = (&'static str, Scale, usize, String);

fn class_key(spec: &JobSpec) -> ClassKey {
    let cfg = MachineConfig {
        cpu_tlb_entries: 0,
        ..spec.cfg.clone()
    };
    let cfg = format!("{cfg:?}");
    (spec.workload, spec.scale, spec.instances, cfg)
}

/// One finished simulation: the job that ran it, at what CPU-TLB
/// capacity, and its result.
#[derive(Debug)]
struct Run {
    label: String,
    capacity: usize,
    outcome: Outcome,
    report: RunReport,
    /// The run's [`Machine::tlb_reach_demand`].
    demand: Option<usize>,
}

impl Run {
    /// Whether this run is the run at CPU-TLB `capacity`: it ran at that
    /// capacity, or its TLBs never needed more.
    fn serves(&self, capacity: usize) -> bool {
        self.capacity == capacity || self.demand.is_some_and(|n| n <= capacity)
    }
}

/// Executes independent jobs across OS threads, returning results in
/// deterministic job order.
#[derive(Debug)]
pub struct Runner {
    jobs: usize,
    live: bool,
    trace: bool,
    replay: bool,
    traces: Mutex<TraceCache>,
    results: Mutex<ResultCache>,
    records: Mutex<Vec<JobRecord>>,
    /// Each finished job's label and the job whose run served it (`None`:
    /// simulated), in the order they finished.
    #[cfg(test)]
    sources: Mutex<Vec<(String, Option<String>)>>,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::with_jobs(0)
    }
}

impl Runner {
    /// A runner executing jobs one at a time, class by class, on the
    /// calling thread.
    #[must_use]
    pub fn serial() -> Self {
        Runner::with_jobs(1)
    }

    /// A runner using `jobs` worker threads; `0` means the host's
    /// available parallelism.
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            jobs
        };
        Runner {
            jobs,
            live: false,
            trace: false,
            replay: false,
            traces: Mutex::new(BTreeMap::new()),
            results: Mutex::new(BTreeMap::new()),
            records: Mutex::new(Vec::new()),
            #[cfg(test)]
            sources: Mutex::new(Vec::new()),
        }
    }

    /// Enables a per-job completion line on stderr (label, wall time,
    /// simulated cycles). Stdout stays untouched so rendered tables and
    /// CSVs remain byte-identical across jobs levels.
    #[must_use]
    pub fn live_progress(mut self, on: bool) -> Self {
        self.live = on;
        self
    }

    /// Attaches a [`RingTrace`] sink to every simulated machine and
    /// prints a per-job cycle-attribution summary (events seen, cycles
    /// per bucket) on stderr when the job completes. Stdout — and the
    /// simulated cycle counts themselves — are unaffected.
    #[must_use]
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enables or disables the trace record/replay cache (**off** by
    /// default — sweeps run every job live, which measures faster than
    /// replaying; see DESIGN.md §9). When on, the first single-instance
    /// run of each `(workload, scale)` pair is recorded through a
    /// [`TraceWriter`], and every later run of the same pair — whatever
    /// its machine configuration — replays the recorded op stream
    /// through [`mtlb_trace::replay`] instead of re-executing the
    /// workload's host logic; a co-run replays it only if it is already
    /// cached. When off, nothing is recorded. Simulated cycles are
    /// byte-identical either way (the op stream fully determines them).
    /// `repro` turns this on exactly when given a trace directory
    /// (`--record-traces` / `--replay-traces`).
    #[must_use]
    pub fn with_replay(mut self, on: bool) -> Self {
        self.replay = on;
        self
    }

    /// The worker-thread count this runner uses.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Seeds the replay cache with an externally recorded trace (see
    /// `repro --replay-traces`). Ignored when the cache already holds
    /// this key.
    pub fn preload_trace(&self, workload: &'static str, scale: Scale, bytes: Vec<u8>) {
        let _ = self.trace_cell((workload, scale)).set(Arc::new(bytes));
    }

    /// The pair's trace-cache entry, created empty on first use.
    fn trace_cell(&self, key: (&'static str, Scale)) -> Arc<OnceLock<Arc<Vec<u8>>>> {
        Arc::clone(self.traces.lock().expect("traces").entry(key).or_default())
    }

    /// Snapshots the recorded traces accumulated so far (see
    /// `repro --record-traces`).
    #[must_use]
    pub fn recorded_traces(&self) -> Vec<(&'static str, Scale, Arc<Vec<u8>>)> {
        let traces = self.traces.lock().expect("traces");
        let mut out: Vec<_> = traces
            .iter()
            .filter_map(|(&(name, scale), cell)| Some((name, scale, Arc::clone(cell.get()?))))
            .collect();
        out.sort_by_key(|&(name, scale, _)| (name, scale_byte(scale)));
        out
    }

    /// Runs every spec and returns their results in spec order. Each
    /// class of the batch is one unit of work for a job thread, which
    /// runs the class's jobs in spec order. One thread takes the classes
    /// in order of first appearance, so its `[job]` records come class
    /// by class; more take the classes with the most jobs first, so that
    /// no long class starts last while the other threads idle.
    pub fn run(&self, specs: &[JobSpec]) -> Vec<JobResult> {
        let mut by_class: BTreeMap<ClassKey, Vec<usize>> = BTreeMap::new();
        for (i, spec) in specs.iter().enumerate() {
            by_class.entry(class_key(spec)).or_default().push(i);
        }
        let mut classes: Vec<Vec<usize>> = by_class.into_values().collect();
        classes.sort_unstable_by_key(|class| class[0]);
        if self.jobs > 1 {
            classes.sort_by_key(|class| Reverse(class.len()));
        }
        let done = self.execute(classes.len(), |c| {
            let jobs = classes[c].iter();
            jobs.map(|&i| (i, self.job(&specs[i]))).collect::<Vec<_>>()
        });
        let mut placed: Vec<(usize, JobResult)> = done.into_iter().flatten().collect();
        placed.sort_unstable_by_key(|&(i, _)| i);
        placed.into_iter().map(|(_, r)| r).collect()
    }

    /// Runs one job and records it.
    fn job(&self, spec: &JobSpec) -> JobResult {
        #[expect(
            clippy::disallowed_methods,
            reason = "Bench wall-clock perimeter: per-job host wall time feeds the [job] stderr progress lines and the JobRecords benchmark/src/units.rs drains, never simulated cycles or rendered tables."
        )]
        let start = Instant::now();
        let (outcome, report, source) = self.simulate(spec);
        let wall = start.elapsed();
        self.note(&spec.label, wall, report.total_cycles.get(), source);
        JobResult {
            label: spec.label.clone(),
            outcome,
            report,
            wall,
        }
    }

    /// One job: served by a run of its class when one is the job's run,
    /// simulated otherwise ([`ResultCache`]). The label is the serving
    /// run's job, when that is another job.
    fn simulate(&self, spec: &JobSpec) -> (Outcome, RunReport, Option<String>) {
        // Trace mode bypasses the cache so every job still prints its
        // own cycle-attribution summary.
        if self.trace {
            let run = self.simulate_uncached(spec);
            return (run.outcome, run.report, None);
        }
        let key = class_key(spec);
        let capacity = spec.cfg.cpu_tlb_entries;
        if let Some(run) = self
            .results
            .lock()
            .expect("results")
            .get(&key)
            .and_then(|runs| runs.iter().find(|r| r.serves(capacity)))
        {
            let label = Some(run.label.clone());
            return (run.outcome.clone(), run.report.clone(), label);
        }
        let run = self.simulate_uncached(spec);
        let result = (run.outcome.clone(), run.report.clone(), None);
        let mut results = self.results.lock().expect("results");
        results.entry(key).or_default().push(run);
        result
    }

    /// Runs the simulation for real: live, or with replay on through
    /// the pair's trace. A trace that fails to replay is evicted and
    /// the job tries once more — a single-instance job then records the
    /// pair afresh — and runs live if that finds no trace to use.
    fn simulate_uncached(&self, spec: &JobSpec) -> Run {
        if self.replay {
            let traced = self.through_trace(spec);
            if let Some(run) = traced.or_else(|| self.through_trace(spec)) {
                return run;
            }
        }
        self.live(spec, false).0
    }

    /// `spec` through the pair's trace: a single-instance job records
    /// it if no job has (waiting for a recording in progress) and
    /// otherwise replays it; a co-run replays it if it is cached. `None`
    /// when a co-run found no trace, or a cached trace failed to replay
    /// and was evicted.
    fn through_trace(&self, spec: &JobSpec) -> Option<Run> {
        let cell = self.trace_cell((spec.workload, spec.scale));
        let mut recorded = None;
        let bytes = if spec.instances == 1 {
            Arc::clone(cell.get_or_init(|| {
                let (run, bytes) = self.live(spec, true);
                recorded = Some(run);
                Arc::new(bytes)
            }))
        } else {
            Arc::clone(cell.get()?)
        };
        if recorded.is_some() {
            return recorded;
        }
        self.replay(spec, &bytes)
            .map_err(|e| self.evict_bad_trace(spec, &bytes, &e))
            .ok()
    }

    /// Runs a job live, returning its result and, when `record` is set
    /// (single-instance jobs only), its op stream as MTR1 bytes.
    fn live(&self, spec: &JobSpec, record: bool) -> (Run, Vec<u8>) {
        let mut machine = self.machine(spec);
        let (outcome, bytes) = run_live(spec, &mut machine, record);
        (self.finish(spec, &mut machine, outcome), bytes)
    }

    /// Replays `bytes` as `spec` — mirrored onto its instances by
    /// [`corun_with`] on a machine built only now — returning the
    /// recorded outcome and the run's report.
    fn replay(&self, spec: &JobSpec, bytes: &[u8]) -> Result<Run, TraceError> {
        let mut machine = self.machine(spec);
        let header = corun_with(&mut machine, spec.instances, |m| {
            mtlb_trace::replay(m, bytes)
        })?;
        let (checksum, verified) = (header.checksum, header.verified);
        let outcome = Outcome { checksum, verified };
        Ok(self.finish(spec, &mut machine, outcome))
    }

    /// `spec`'s finished run of `outcome` on `machine`, printing its
    /// cycle-attribution summary when `--trace` is on.
    fn finish(&self, spec: &JobSpec, machine: &mut Machine, outcome: Outcome) -> Run {
        let report = machine.report();
        self.trace_summary(&spec.label, machine);
        Run {
            label: spec.label.clone(),
            capacity: spec.cfg.cpu_tlb_entries,
            outcome,
            report,
            demand: machine.tlb_reach_demand(),
        }
    }

    /// A fresh machine for `spec`, with a [`RingTrace`] attached when
    /// `--trace` is on.
    fn machine(&self, spec: &JobSpec) -> Machine {
        let mut machine = Machine::new(spec.cfg.clone());
        if self.trace {
            machine.set_trace_sink(Box::new(RingTrace::new(1024)));
        }
        machine
    }

    /// Evicts the cached trace `bad`, which failed to replay for `spec`,
    /// so the next single-instance run of the pair records a fresh one
    /// for its later cells. Whichever cell evicts warns: once per bad
    /// trace at any jobs level.
    #[cold]
    fn evict_bad_trace(&self, spec: &JobSpec, bad: &Arc<Vec<u8>>, e: &TraceError) {
        let key = (spec.workload, spec.scale);
        let mut traces = self.traces.lock().expect("traces");
        let cached = traces.get(&key).and_then(|cell| cell.get());
        if cached.is_some_and(|t| Arc::ptr_eq(t, bad)) {
            traces.remove(&key);
            eprintln!(
                "warning: {}: cached {} trace failed to replay ({e}); \
                 dropping it",
                spec.label, spec.workload
            );
        }
    }

    /// Prints the per-job cycle-attribution summary when `--trace` is
    /// on. Identical for live and replayed runs — the charge stream is.
    fn trace_summary(&self, label: &str, machine: &mut Machine) {
        if let Some(sink) = machine.take_trace_sink() {
            if let Some(ring) = sink.as_any().downcast_ref::<RingTrace>() {
                let per_bucket: Vec<String> = Bucket::ALL
                    .iter()
                    .map(|&b| format!("{} {}", b.name(), ring.bucket_cycles(b).get()))
                    .collect();
                eprintln!(
                    "[trace] {label}: {} events ({} retained), cycles by bucket: {}",
                    ring.events(),
                    ring.records().count(),
                    per_bucket.join(", ")
                );
            }
        }
    }

    /// Drains the per-job records accumulated so far.
    pub fn take_records(&self) -> Vec<JobRecord> {
        std::mem::take(&mut *self.records.lock().expect("records"))
    }

    /// Records a finished job; `source` names the job whose run served
    /// it, when it was served.
    fn note(&self, label: &str, wall: Duration, sim_cycles: u64, source: Option<String>) {
        if self.live {
            let served = source
                .as_ref()
                .map_or_else(String::new, |s| format!(", served by {s}"));
            eprintln!("[job] {label}: {wall:>9.2?} wall, {sim_cycles} simulated cycles{served}");
        }
        #[cfg(test)]
        self.sources
            .lock()
            .expect("sources")
            .push((label.to_string(), source));
        self.records.lock().expect("records").push(JobRecord {
            label: label.to_string(),
            wall,
            sim_cycles: Some(sim_cycles),
        });
    }

    /// Runs `worker(0..n)` across the configured threads; `out[i]` is
    /// `worker(i)`. With one job (or one item) this degenerates to a
    /// plain in-order loop on the calling thread.
    fn execute<T: Send>(&self, n: usize, worker: impl Fn(usize) -> T + Sync) -> Vec<T> {
        if self.jobs <= 1 || n <= 1 {
            return (0..n).map(worker).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..self.jobs.min(n) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = worker(i);
                    *slots[i].lock().expect("result slot") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("every job completed")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Finished jobs that simulated rather than being served.
    impl Runner {
        fn simulations(&self) -> usize {
            let sources = self.sources.lock().expect("sources");
            sources
                .iter()
                .filter(|(_, source)| source.is_none())
                .count()
        }
    }

    /// `w` at test scale on the base (`mtlb` false) or MTLB machine.
    fn spec(label: &str, w: &'static str, mtlb: bool, entries: usize) -> JobSpec {
        let cfg = if mtlb {
            MachineConfig::paper_mtlb(entries)
        } else {
            MachineConfig::paper_base(entries)
        };
        JobSpec::new(format!("{w}/{label}"), w, Scale::Test, cfg)
    }

    /// Twelve jobs in six classes, interleaved so that no class's jobs
    /// are adjacent: the runner runs them class by class, on 1, 2 or 7
    /// threads, and must still return them in spec order.
    #[test]
    fn results_come_back_in_job_order() {
        let mut specs = Vec::new();
        for (label, mtlb, entries) in [
            ("base8", false, 8),
            ("mtlb64", true, 64),
            ("base24", false, 24),
            ("mtlb16", true, 16),
        ] {
            for w in ["em3d", "radix", "compress95"] {
                specs.push(spec(label, w, mtlb, entries));
            }
        }
        assert_eq!(specs.len(), 12);
        let rendered = |results: &[JobResult]| -> Vec<(String, String)> {
            results
                .iter()
                .map(|r| (r.label.clone(), r.report.to_json()))
                .collect()
        };
        let serial = rendered(&Runner::serial().run(&specs));
        let labels: Vec<&str> = serial.iter().map(|(l, _)| l.as_str()).collect();
        let want: Vec<&str> = specs.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, want);
        for jobs in [2, 7] {
            let got = rendered(&Runner::with_jobs(jobs).run(&specs));
            assert_eq!(got, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn zero_means_available_parallelism() {
        assert!(Runner::with_jobs(0).jobs() >= 1);
        assert_eq!(Runner::serial().jobs(), 1);
    }

    /// Pins the record API the repo benchmark consumes
    /// (`benchmark/src/units.rs` drains one [`JobRecord`] per unit).
    #[test]
    fn records_carry_labels_and_wall_times() {
        let runner = Runner::with_jobs(2);
        let results = runner.run(&[spec("a", "radix", false, 16), spec("b", "em3d", true, 64)]);
        let mut records = runner.take_records();
        records.sort_by(|x, y| x.label.cmp(&y.label));
        let labels: Vec<&str> = records.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["em3d/b", "radix/a"]);
        for record in &records {
            let result = results.iter().find(|r| r.label == record.label);
            let cycles = result.expect("a result per record").report.total_cycles;
            assert_eq!(record.sim_cycles, Some(cycles.get()));
        }
        assert!(runner.take_records().is_empty(), "drained");
    }

    /// Which job simulates a run, and which run serves each other job,
    /// is a function of the spec list: a batch with base and MTLB
    /// classes of three workloads, an exact twin (`base96` beside
    /// `tlb96`) and a 2-core co-run class gets the `--jobs 1` answer at
    /// 2 and 4 threads, every time.
    #[test]
    fn which_job_simulates_does_not_depend_on_the_jobs_level() {
        let mut specs = Vec::new();
        for w in ["em3d", "radix", "vortex"] {
            specs.push(spec("base96", w, false, 96));
            for e in [16, 64, 96] {
                specs.push(spec(&format!("tlb{e}"), w, false, e));
                specs.push(spec(&format!("tlb{e}+mtlb"), w, true, e));
            }
        }
        for e in [16, 64, 96] {
            specs.push(spec(&format!("x2/tlb{e}+mtlb"), "em3d", true, e).corun(2));
        }
        let answer = |jobs: usize| -> Vec<(String, String)> {
            let runner = Runner::with_jobs(jobs);
            let results = runner.run(&specs);
            let labels: Vec<&str> = results.iter().map(|r| r.label.as_str()).collect();
            let want: Vec<&str> = specs.iter().map(|s| s.label.as_str()).collect();
            assert_eq!(labels, want, "jobs={jobs}");
            let sources = runner.sources.lock().expect("sources");
            let mut served: Vec<(String, String)> = sources
                .iter()
                .map(|(label, source)| {
                    let by = source.clone().unwrap_or_else(|| "simulated".into());
                    (label.clone(), by)
                })
                .collect();
            served.sort();
            served
        };
        let serial = answer(1);
        assert_eq!(serial.len(), specs.len());
        let by = |label: &str| &serial.iter().find(|(l, _)| l == label).expect("ran").1;
        assert_eq!(by("radix/tlb96"), "radix/base96");
        assert_eq!(by("em3d/x2/tlb96+mtlb"), "em3d/x2/tlb16+mtlb");
        for jobs in [2, 4] {
            for round in 0..5 {
                assert_eq!(answer(jobs), serial, "jobs={jobs} round={round}");
            }
        }
    }

    /// Replay on, every job after the first replays radix's trace on a
    /// machine of its own: the CPU TLBs of all three evict, so no run
    /// serves another and each replay must equal its live run.
    #[test]
    fn replayed_jobs_match_live_runs_across_configs() {
        use mtlb_sim::MachineConfig;
        let specs: Vec<JobSpec> = [
            ("mtlb16", MachineConfig::paper_mtlb(16)),
            ("base16", MachineConfig::paper_base(16)),
            ("base24", MachineConfig::paper_base(24)),
        ]
        .into_iter()
        .map(|(label, cfg)| JobSpec::new(label, "radix", Scale::Test, cfg))
        .collect();
        // Replay on: first job records, the rest replay.
        let replaying = Runner::serial().with_replay(true);
        let replayed = replaying.run(&specs);
        // The default: every job runs the workload live, recording
        // nothing.
        let default = Runner::serial();
        let live = default.run(&specs);
        assert!(default.recorded_traces().is_empty());
        for runner in [&replaying, &default] {
            assert_eq!(runner.simulations(), specs.len());
        }
        for (a, b) in replayed.iter().zip(&live) {
            assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
            assert_eq!(a.outcome, b.outcome);
        }
    }

    /// A cell served by a run at another CPU-TLB size is the cell a run
    /// of its own would produce, whatever order or jobs level the
    /// batch has: for each paper workload, one MTLB run answers all
    /// four sizes (its CPU TLB never evicts), base machines that evict
    /// simulate every size, and a 2-core co-run class is one run too.
    #[test]
    fn a_served_row_equals_a_simulated_one() {
        use crate::experiments::WORKLOADS;
        use mtlb_sim::MachineConfig;
        let mut specs = Vec::new();
        for &w in &WORKLOADS {
            for e in [16, 64, 96, 256] {
                let cfg = MachineConfig::paper_mtlb(e);
                specs.push(JobSpec::new(format!("{w}/mtlb{e}"), w, Scale::Test, cfg));
            }
            // Test-scale radix needs 26 entries on the base machine.
            for e in [8, 12, 16, 24] {
                let cfg = MachineConfig::paper_base(e);
                specs.push(JobSpec::new(format!("{w}/base{e}"), w, Scale::Test, cfg));
            }
        }
        for e in [16, 64, 96, 256] {
            let cfg = MachineConfig::paper_mtlb(e);
            specs.push(JobSpec::new(format!("x2/mtlb{e}"), "em3d", Scale::Test, cfg).corun(2));
        }
        let rendered = |r: &JobResult| (r.label.clone(), r.report.to_json(), r.outcome.clone());
        let fresh: Vec<_> = specs
            .iter()
            .map(|spec| rendered(&Runner::serial().run(std::slice::from_ref(spec))[0]))
            .collect();
        // Each workload's four sizes, ascending, descending and 96 first.
        let orders: [fn(usize) -> usize; 3] = [|i| i, |i| 3 - i, |i| [2, 0, 1, 3][i]];
        for jobs in [1, 2] {
            for order in orders {
                let runner = Runner::with_jobs(jobs);
                let shuffled: Vec<usize> =
                    (0..specs.len()).map(|i| i / 4 * 4 + order(i % 4)).collect();
                let batch: Vec<JobSpec> = shuffled.iter().map(|&i| specs[i].clone()).collect();
                let got = runner.run(&batch);
                for (&i, r) in shuffled.iter().zip(&got) {
                    assert_eq!(rendered(r), fresh[i], "jobs={jobs}");
                }
                assert_eq!(
                    runner.simulations(),
                    WORKLOADS.len() * (1 + 4) + 1,
                    "jobs={jobs} order={shuffled:?}"
                );
            }
        }
    }

    #[test]
    fn recorded_traces_can_seed_another_runner() {
        use mtlb_sim::MachineConfig;
        let spec = JobSpec::new("a", "radix", Scale::Test, MachineConfig::paper_mtlb(64));
        let recorder = Runner::serial().with_replay(true);
        let first = recorder.run(std::slice::from_ref(&spec));
        let traces = recorder.recorded_traces();
        assert_eq!(traces.len(), 1);
        let (name, scale, bytes) = &traces[0];
        assert_eq!((*name, *scale), ("radix", Scale::Test));

        let seeded = Runner::serial().with_replay(true);
        seeded.preload_trace(name, *scale, bytes.to_vec());
        let second = seeded.run(std::slice::from_ref(&spec));
        assert_eq!(
            format!("{:?}", first[0].report),
            format!("{:?}", second[0].report)
        );
        assert_eq!(first[0].outcome, second[0].outcome);
    }

    /// fig5 after fig3 on one runner: the cache serves fig5's reference
    /// runs and its cpu / mtlb cells, so only the rival front ends
    /// simulate — and the re-served rows are fig3's, bit for bit.
    #[test]
    fn fig5_after_fig3_simulates_only_the_rival_front_ends() {
        use crate::experiments::{fig3, fig5};
        let runner = Runner::with_jobs(2);
        let (sizes, workloads) = ([64, 96, 128], ["radix", "vortex"]);
        // Each simulated run: its class and its capacity.
        let simulated = |runner: &Runner| -> BTreeSet<(ClassKey, usize)> {
            let results = runner.results.lock().expect("results");
            results
                .iter()
                .flat_map(|(key, runs)| runs.iter().map(|run| (key.clone(), run.capacity)))
                .collect()
        };
        let fig3_rows = fig3(&runner, Scale::Test, &sizes, &workloads);
        let (before, simulations) = (simulated(&runner), runner.simulations());
        let fig5_rows = fig5(&runner, Scale::Test, &sizes, &workloads);
        assert_eq!(
            runner.simulations() - simulations,
            workloads.len() * (sizes.len() + 1)
        );
        let added: Vec<String> = simulated(&runner)
            .difference(&before)
            .map(|((.., cfg), _)| cfg.clone())
            .collect();
        // Per workload: coalesced at each size, and split.
        assert_eq!(
            added.len(),
            workloads.len() * (sizes.len() + 1),
            "{added:#?}"
        );
        for cfg in &added {
            assert!(
                cfg.contains("scheme: Coalesced") || cfg.contains("scheme: Split"),
                "fig5 re-simulated a fig3 configuration: {cfg}"
            );
        }
        let mut shared = 0;
        for row in fig5_rows
            .iter()
            .filter(|r| matches!(r.scheme, "cpu" | "mtlb"))
        {
            let twin = fig3_rows
                .iter()
                .find(|f| {
                    (f.workload, f.tlb_entries, f.mtlb)
                        == (row.workload, row.tlb_entries, row.scheme == "mtlb")
                })
                .expect("fig3 ran the same cell");
            assert_eq!(row.report.to_json(), twin.report.to_json(), "{row:?}");
            shared += 1;
        }
        assert_eq!(shared, workloads.len() * sizes.len() * 2);
    }

    /// Identical specs in one batch simulate once at any jobs level, and
    /// every spec still gets its result, in spec order.
    #[test]
    fn a_batch_simulates_each_key_once() {
        use mtlb_sim::MachineConfig;
        let spec = |label: &str, mtlb| {
            JobSpec::new(
                label,
                "radix",
                Scale::Test,
                if mtlb {
                    MachineConfig::paper_mtlb(64)
                } else {
                    MachineConfig::paper_base(64)
                },
            )
        };
        let twins = [spec("a", true), spec("b", true)];
        let mixed = [
            spec("a", true),
            spec("b", true),
            spec("c", false),
            spec("d", true),
        ];
        for jobs in [1, 2] {
            let runner = Runner::with_jobs(jobs);
            let got = runner.run(&twins);
            assert_eq!(runner.simulations(), 1, "jobs={jobs}");
            assert_eq!(got[0].report.to_json(), got[1].report.to_json());

            let runner = Runner::with_jobs(jobs);
            let got = runner.run(&mixed);
            assert_eq!(runner.simulations(), 2, "jobs={jobs}");
            let labels: Vec<&str> = got.iter().map(|r| r.label.as_str()).collect();
            assert_eq!(labels, ["a", "b", "c", "d"], "jobs={jobs}");
            assert_ne!(got[2].report.to_json(), got[3].report.to_json());
            assert_eq!(got[0].report.to_json(), got[3].report.to_json());
        }
    }

    /// What `repro all --cores 4` runs: fig3 on 4-core machines, then
    /// fig6's x4 co-run, whose machine is fig3's 4-core `tlb96+mtlb`
    /// cell. The result cache must keep the single instance and the
    /// co-run apart: fig6's rows equal a fresh runner's.
    #[test]
    fn a_corun_is_not_served_a_single_instance_on_its_machine() {
        use crate::experiments::{fig3_labelled, fig6};
        let workloads = ["radix"];
        let runner = Runner::with_jobs(2);
        let _ = fig3_labelled(&runner, Scale::Test, &[96], &workloads, "fig3", 4);
        let after_fig3 = fig6(&runner, Scale::Test, &[4], &workloads);
        let fresh = fig6(&Runner::with_jobs(2), Scale::Test, &[4], &workloads);
        assert_eq!(after_fig3.len(), fresh.len());
        for (a, b) in after_fig3.iter().zip(&fresh) {
            assert_eq!(a.baseline_cycles, b.baseline_cycles);
            assert_eq!(a.report.to_json(), b.report.to_json(), "{a:?}");
        }
    }

    /// A fig6 batch simulates each record run and each co-run once.
    /// With replay off it records no trace and holds none — the co-runs
    /// mirror live runs; with it on, each workload's `record` job
    /// records its one trace.
    #[test]
    fn a_fig6_batch_simulates_once_per_job_and_records_once_per_workload() {
        use crate::experiments::fig6;
        use mtlb_sim::MachineConfig;
        let (counts, workloads) = ([2, 4], ["em3d", "radix"]);
        // What each workload's `record` job records, run on its own.
        let solo: Vec<_> = workloads
            .iter()
            .map(|&w| {
                let spec = JobSpec::new("record", w, Scale::Test, MachineConfig::paper_mtlb(96));
                (
                    w,
                    run_live(&spec, &mut Machine::new(spec.cfg.clone()), true).1,
                )
            })
            .collect();
        for jobs in [1, 2] {
            for replay in [false, true] {
                let runner = Runner::with_jobs(jobs).with_replay(replay);
                let rows = fig6(&runner, Scale::Test, &counts, &workloads);
                assert_eq!(rows.len(), workloads.len() * counts.len());
                assert_eq!(
                    runner.simulations(),
                    workloads.len() * (1 + counts.len()),
                    "jobs={jobs} replay={replay}"
                );
                let traces: Vec<_> = runner
                    .recorded_traces()
                    .into_iter()
                    .map(|(name, _, bytes)| (name, bytes.to_vec()))
                    .collect();
                if replay {
                    assert_eq!(traces, solo, "jobs={jobs}");
                } else {
                    assert!(traces.is_empty(), "jobs={jobs}");
                    assert!(runner.traces.lock().expect("traces").is_empty());
                }
            }
        }
    }

    /// A co-run whose mirror fails still runs instance 0 to the end,
    /// and its row comes back unverified instead of panicking.
    #[test]
    fn a_failing_mirror_makes_an_unverified_row() {
        use mtlb_sim::MachineConfig;
        use mtlb_types::{Prot, PAGE_SIZE};
        let mut machine = Machine::new(MachineConfig::paper_mtlb(96).with_cores(2));
        let mut finished = false;
        let outcome = corun_live("fig6/radix/x2", &mut machine, 2, |m| {
            // Block instance 1's program window behind the mirror's back.
            let mirror = m.take_op_sink().expect("the mirror is attached");
            m.set_active_core(1);
            let base = m.program_base();
            m.map_region(base, PAGE_SIZE, Prot::RX);
            m.set_active_core(0);
            m.set_op_sink(mirror);
            let outcome = workload_by_name("radix", Scale::Test).run(m);
            finished = outcome.verified;
            outcome
        });
        assert!(finished, "instance 0 ran to the end and verified");
        assert_eq!(outcome, Outcome::default());
        assert!(!outcome.verified);
    }

    #[test]
    fn identical_simulations_on_any_jobs_level() {
        use mtlb_sim::MachineConfig;
        let spec =
            |label: &str| JobSpec::new(label, "radix", Scale::Test, MachineConfig::paper_base(64));
        let serial = Runner::serial().run(&[spec("s0"), spec("s1")]);
        let threaded = Runner::with_jobs(4).run(&[spec("p0"), spec("p1")]);
        for (a, b) in serial.iter().zip(&threaded) {
            // RunReport carries no PartialEq; its Debug output covers
            // every field, so this is full-report equality.
            assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
            assert_eq!(a.outcome.checksum, b.outcome.checksum);
        }
    }
}
