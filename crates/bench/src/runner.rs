//! Parallel sweep execution.
//!
//! Every sweep in [`experiments`](crate::experiments) is a set of
//! *independent* simulations — one workload on one [`MachineConfig`],
//! or `n` copies of it co-running on an `n`-core one — so the drivers
//! describe their work as [`JobSpec`] lists and hand them to a
//! [`Runner`]. The runner groups a batch into *classes*, the specs that
//! differ only in CPU-TLB size, and hands each class to one of its OS
//! threads ([`std::thread::scope`]; no job queue crate, no channels),
//! which runs the class's jobs in spec order. Classes share nothing but
//! the result cache. Every job runs its workload live: the workloads are
//! deterministic programs, so a live run *is* the op stream, and nothing
//! is recorded or replayed. A co-run runs its workload on core 0 and
//! [`mtlb_trace::corun_with`] mirrors each op onto the other cores.
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
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mtlb_sim::{Machine, MachineConfig, RunReport};
use mtlb_trace::corun_with;
use mtlb_workloads::{Outcome, Scale};

use crate::experiments::workload_by_name;

/// `run` as instance 0 of an `instances`-way [`corun_with`] on
/// `machine`, returning its live outcome. A mirrored op that fails
/// costs one warning and an unverified outcome.
fn corun_live(
    label: &str,
    machine: &mut Machine,
    instances: usize,
    run: impl FnOnce(&mut Machine) -> Outcome,
) -> Outcome {
    corun_with(machine, instances, run).unwrap_or_else(|e| {
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
///   for bit (the proof is at the slot store's `reach_demand`,
///   [`mtlb_tlb::SlotTlb`], for the paper TLB and the rivals alike). The
///   MTLB machine's CPU TLB never fills, so one run answers fig3's
///   `tlb64+mtlb` to `tlb128+mtlb` cells, fig3.4's 256 and fig5's `mtlb`
///   cells; compress95's `coalesced96` run answers `coalesced128`.
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

    /// Simulates every job, bypassing the result cache, and prints each
    /// job's own [`RunReport`] buckets on stderr when it completes; they
    /// sum to the job's simulated cycles. Stdout — and the simulated
    /// cycle counts themselves — are unaffected.
    #[must_use]
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Does nothing: every job runs live. Kept because the repo
    /// benchmark (`benchmark/src/units.rs`) still calls
    /// `with_replay(false)`; it goes once that call does.
    #[must_use]
    pub fn with_replay(self, _on: bool) -> Self {
        self
    }

    /// The worker-thread count this runner uses.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
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
        // Trace mode bypasses the cache so every job prints the
        // buckets of its own run.
        if self.trace {
            let run = self.live(spec);
            let b = run.report.buckets;
            eprintln!(
                "[trace] {}: cycles by bucket: user {}, tlb-miss {}, mem-stall {}, kernel {}, fault {}",
                spec.label,
                b.user.get(),
                b.tlb_miss.get(),
                b.mem_stall.get(),
                b.kernel.get(),
                b.fault.get()
            );
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
        let run = self.live(spec);
        let result = (run.outcome.clone(), run.report.clone(), None);
        let mut results = self.results.lock().expect("results");
        results.entry(key).or_default().push(run);
        result
    }

    /// Runs `spec` live on a fresh machine — as instance 0 of a
    /// [`corun_live`] when `spec` is a co-run.
    fn live(&self, spec: &JobSpec) -> Run {
        let mut machine = Machine::new(spec.cfg.clone());
        let mut workload = workload_by_name(spec.workload, spec.scale);
        let outcome = if spec.instances > 1 {
            corun_live(&spec.label, &mut machine, spec.instances, |m| {
                workload.run(m)
            })
        } else {
            workload.run(&mut machine)
        };
        let report = machine.report();
        Run {
            label: spec.label.clone(),
            capacity: spec.cfg.cpu_tlb_entries,
            outcome,
            report,
            demand: machine.tlb_reach_demand(),
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

    /// A cell served by a run at another CPU-TLB size is the cell a run
    /// of its own would produce, whatever order or jobs level the
    /// batch has: for each paper workload, one MTLB run answers all
    /// four sizes (its CPU TLB never evicts), base machines that evict
    /// simulate every size, one coalesced run answers all four sizes
    /// (em3d, radix, cc1) or the three above 16, where it evicts
    /// (compress95 and vortex peak at 19 and 23 entries), and a 2-core
    /// co-run class is one run too.
    #[test]
    fn a_served_row_equals_a_simulated_one() {
        use crate::experiments::WORKLOADS;
        use mtlb_mem::FrameOrder;
        use mtlb_schemes::SchemeConfig;
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
            // fig5's coalesced cells.
            for e in [16, 64, 96, 256] {
                let mut cfg = MachineConfig::paper_base(e).with_scheme(SchemeConfig::Coalesced);
                cfg.kernel.frame_order = FrameOrder::Sequential;
                specs.push(JobSpec::new(
                    format!("{w}/coalesced{e}"),
                    w,
                    Scale::Test,
                    cfg,
                ));
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
                    WORKLOADS.len() * (1 + 4 + 1) + 2 + 1,
                    "jobs={jobs} order={shuffled:?}"
                );
            }
        }
    }

    /// fig5 after fig3 on one runner: the cache serves fig5's reference
    /// runs and its cpu / mtlb cells, so only the rival front ends
    /// simulate — and the re-served rows are fig3's, bit for bit. At
    /// test scale no coalesced TLB fills at 64 entries, so one coalesced
    /// run per workload serves all three sizes.
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
        assert_eq!(runner.simulations() - simulations, workloads.len() * 2);
        let added: Vec<String> = simulated(&runner)
            .difference(&before)
            .map(|((.., cfg), _)| cfg.clone())
            .collect();
        // Per workload: coalesced once, and split.
        assert_eq!(added.len(), workloads.len() * 2, "{added:#?}");
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

    /// A fig6 batch simulates each `record` job and each co-run once,
    /// at any jobs level. Despite the label, nothing is recorded: the
    /// Runner holds no trace, and every co-run mirrors a live run.
    #[test]
    fn a_fig6_batch_simulates_once_per_job() {
        use crate::experiments::fig6;
        let (counts, workloads) = ([2, 4], ["em3d", "radix"]);
        for jobs in [1, 2] {
            let runner = Runner::with_jobs(jobs);
            let rows = fig6(&runner, Scale::Test, &counts, &workloads);
            assert_eq!(rows.len(), workloads.len() * counts.len());
            assert_eq!(
                runner.simulations(),
                workloads.len() * (1 + counts.len()),
                "jobs={jobs}"
            );
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
