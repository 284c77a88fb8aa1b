//! `repro` — regenerates every table and figure of the paper's
//! evaluation section.
//!
//! ```text
//! repro [all|fig2|fig3|fig4a|fig4b|fig5|fig6|costs|paging|ablations|extensions] \
//!       [--test-scale] [--csv-dir DIR] [--json-dir DIR] [--jobs N] \
//!       [--cores N] [--trace]
//! ```
//!
//! With `--test-scale` the workloads run at reduced sizes (seconds);
//! without it they run at the paper's §3.1 sizes (two to three minutes
//! in total at `--jobs 1`; EXPERIMENTS.md has the measured split).
//! `--csv-dir` additionally writes each table as a CSV file.
//! `--json-dir` writes one machine-readable JSON report per simulated
//! experiment row (Figures 3, 4, 5 and 6) — the full [`RunReport`]
//! including time buckets, every component's counters, the front ends'
//! reach and the log-bucketed fill-latency and TLB-miss-interval
//! histograms. `--trace` attaches a ring-buffer event trace to every
//! `JobSpec` sweep's simulation (fig3, fig4, fig5, fig6, the ablations
//! and the §5 subblock table) and prints a per-job cycle-attribution
//! summary on stderr; the hand-driven experiments are not traced.
//!
//! The sweeps are sets of independent simulations; `--jobs N` runs them
//! on N OS threads (default: the host's available parallelism; `--jobs
//! 1` restores the old serial order). Tables, CSVs and JSON reports are
//! assembled in deterministic job order, so their bytes are identical at
//! every jobs level. Each finished job prints its host wall time and
//! simulated cycles as a `[job]` line on stderr.
//!
//! Sweeps run every job live; a fig6 co-run runs its workload on core
//! 0 and mirrors each op onto the other cores
//! (`mtlb_trace::corun_with`). Nothing is recorded or replayed.
//!
//! Unknown experiment names and unknown flags print the usage line to
//! stderr and exit with status 2 before any experiment output, as does
//! an output directory (`--csv-dir`, `--json-dir`) that cannot be
//! created. A file that cannot be written later prints
//! `error:` and exits with status 1.

use std::env;
use std::fs;
use std::path::{Path, PathBuf};

use mtlb_bench::experiments::{self, WORKLOADS};
use mtlb_bench::runner::Runner;
use mtlb_bench::table::Table;
use mtlb_os::PagingPolicy;
use mtlb_sim::{MachineConfig, RunReport};
use mtlb_types::Histogram;
use mtlb_workloads::Scale;

/// Every experiment name `repro` accepts, in display order.
const EXPERIMENTS: [&str; 11] = [
    "all",
    "fig2",
    "fig3",
    "fig4a",
    "fig4b",
    "fig5",
    "fig6",
    "costs",
    "paging",
    "ablations",
    "extensions",
];

fn usage() -> String {
    format!(
        "usage: repro [{}] [--test-scale] [--csv-dir DIR] [--json-dir DIR] \
         [--jobs N] [--cores N] [--trace]",
        EXPERIMENTS.join("|")
    )
}

struct Options {
    what: String,
    scale: Scale,
    csv_dir: Option<PathBuf>,
    json_dir: Option<PathBuf>,
    runner: Runner,
    /// Simulated core count (`--cores N`; 0 = unset). When set, fig3
    /// runs on an N-core machine (N=1 is bit-identical to the legacy
    /// single-core sweep) and fig6 co-runs exactly N instances instead
    /// of its default 2/4/8 sweep.
    cores: usize,
}

/// Exits with status 2 after `error: <msg>` on stderr, followed by the
/// usage line when `show_usage`.
fn bad_invocation(msg: &str, show_usage: bool) -> ! {
    eprintln!("error: {msg}");
    if show_usage {
        eprintln!("{}", usage());
    }
    std::process::exit(2);
}

/// The value following `flag`, or exit 2 saying what it requires.
fn value_of(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
    show_usage: bool,
) -> String {
    args.next()
        .unwrap_or_else(|| bad_invocation(&format!("{flag} requires a {what}"), show_usage))
}

/// The count following `flag`, or exit 2 naming the offending token.
fn count_of(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> usize {
    let raw = value_of(args, flag, what, true);
    raw.parse()
        .unwrap_or_else(|_| bad_invocation(&format!("{flag}: invalid {what} {raw:?}"), true))
}

fn parse_args() -> Options {
    let mut what = "all".to_string();
    let mut scale = Scale::Paper;
    let mut csv_dir = None;
    let mut json_dir = None;
    let mut jobs = 0usize; // 0 = available parallelism
    let mut cores = 0usize; // 0 = unset
    let mut trace = false;
    let mut args = env::args().skip(1);
    while let Some(a) = args.next() {
        let mut dir = |flag| Some(PathBuf::from(value_of(&mut args, flag, "directory", false)));
        match a.as_str() {
            "--test-scale" => scale = Scale::Test,
            "--csv-dir" => csv_dir = dir("--csv-dir"),
            "--json-dir" => json_dir = dir("--json-dir"),
            "--jobs" => jobs = count_of(&mut args, "--jobs", "thread count"),
            "--cores" => {
                cores = count_of(&mut args, "--cores", "core count");
                if cores == 0 {
                    bad_invocation("--cores must be at least 1", true);
                }
                let max = MachineConfig::default().max_cores();
                if cores > max {
                    bad_invocation(
                        &format!(
                            "--cores {cores}: at most {max} cores fit the kernel's page-table reservation"
                        ),
                        true,
                    );
                }
            }
            "--trace" => trace = true,
            "--help" | "-h" => {
                eprintln!("{}", usage());
                std::process::exit(0);
            }
            other if !other.starts_with('-') => {
                if !EXPERIMENTS.contains(&other) {
                    bad_invocation(&format!("unknown experiment {other:?}"), true);
                }
                what = other.to_string();
            }
            other => bad_invocation(&format!("unknown flag {other:?}"), true),
        }
    }
    for (flag, dir) in [("--csv-dir", &csv_dir), ("--json-dir", &json_dir)] {
        if let Some(dir) = dir {
            if let Err(e) = fs::create_dir_all(dir) {
                bad_invocation(&format!("{flag} {}: {e}", dir.display()), false);
            }
        }
    }
    let runner = Runner::with_jobs(jobs)
        .live_progress(true)
        .with_trace(trace);
    Options {
        what,
        scale,
        csv_dir,
        json_dir,
        runner,
        cores,
    }
}

/// Writes `contents` to `path`, or exits 1 after `error:` on stderr.
fn write_or_exit(path: &Path, contents: impl AsRef<[u8]>) {
    if let Err(e) = fs::write(path, contents) {
        eprintln!("error: write {}: {e}", path.display());
        std::process::exit(1);
    }
}

fn emit(opts: &Options, name: &str, title: &str, table: &Table) {
    println!("\n=== {title} ===\n");
    print!("{}", table.render());
    if let Some(dir) = &opts.csv_dir {
        let path = dir.join(format!("{name}.csv"));
        write_or_exit(&path, table.to_csv());
        println!("[written {}]", path.display());
    }
}

/// Writes one experiment row's full [`RunReport`] as `NAME.json` under
/// `--json-dir` (no-op when the flag is absent).
fn emit_json_row(opts: &Options, name: &str, report: &RunReport) {
    let Some(dir) = &opts.json_dir else { return };
    let path = dir.join(format!("{name}.json"));
    write_or_exit(&path, report.to_json());
    println!("[written {}]", path.display());
}

/// Prints a log-bucketed histogram as an indented ASCII bar chart.
fn print_histogram(title: &str, h: &Histogram) {
    println!("  {title}:");
    if h.is_empty() {
        println!("    (no samples)");
        return;
    }
    let max = h.nonempty_buckets().map(|(_, _, c)| c).max().unwrap_or(1);
    for (lo, hi, count) in h.nonempty_buckets() {
        let width = ((count as f64 / max as f64) * 40.0).ceil() as usize;
        println!("    [{lo:>6}, {hi:>6}] {count:>10}  {}", "#".repeat(width));
    }
}

fn fig2(opts: &Options) {
    let mut t = Table::new(vec!["Superpage Size", "Count", "Address Space Extent"]);
    for row in experiments::fig2() {
        t.row(vec![
            row.size.to_string(),
            row.count.to_string(),
            format!("{}MB", row.extent_bytes >> 20),
        ]);
    }
    emit(
        opts,
        "fig2",
        "Figure 2: Example Partitioning of a 512 MB Pseudo-Physical Address Space",
        &t,
    );
}

fn fig3(opts: &Options) {
    let sizes = [64, 96, 128];
    let cores = opts.cores.max(1);
    let rows =
        experiments::fig3_labelled(&opts.runner, opts.scale, &sizes, &WORKLOADS, "fig3", cores);
    let mut t = Table::new(vec![
        "workload",
        "TLB",
        "MTLB",
        "cycles",
        "normalized",
        "TLB-miss %",
        "verified",
    ]);
    for r in &rows {
        t.row(vec![
            r.workload.to_string(),
            r.tlb_entries.to_string(),
            if r.mtlb { "128/2way" } else { "none" }.to_string(),
            r.total_cycles.to_string(),
            format!("{:.3}", r.normalized),
            format!("{:.1}%", r.tlb_fraction * 100.0),
            r.verified.to_string(),
        ]);
    }
    emit(
        opts,
        "fig3",
        "Figure 3: Normalized Runtimes for Three TLB Sizes with and without a 128 Entry MTLB",
        &t,
    );
    for r in &rows {
        let kind = if r.mtlb { "mtlb" } else { "base" };
        emit_json_row(
            opts,
            &format!("fig3_{}_tlb{}_{kind}", r.workload, r.tlb_entries),
            &r.report,
        );
    }

    // Radix at 256 entries (§3.4: "even at 256 TLB entries, it still
    // spends 13.5% of total runtime in TLB miss handling"). The sweep
    // re-runs the radix base-96 normalization job, so it gets its own
    // label prefix to keep job labels unique.
    let radix256 = experiments::fig3_labelled(
        &opts.runner,
        opts.scale,
        &[256],
        &["radix"],
        "fig3.4",
        cores,
    );
    let mut t = Table::new(vec!["workload", "TLB", "MTLB", "cycles", "TLB-miss %"]);
    for r in &radix256 {
        t.row(vec![
            r.workload.to_string(),
            "256".to_string(),
            if r.mtlb { "128/2way" } else { "none" }.to_string(),
            r.total_cycles.to_string(),
            format!("{:.1}%", r.tlb_fraction * 100.0),
        ]);
    }
    emit(opts, "fig3_radix256", "§3.4: radix at 256 TLB entries", &t);
    for r in &radix256 {
        let kind = if r.mtlb { "mtlb" } else { "base" };
        emit_json_row(
            opts,
            &format!("fig3_{}_tlb{}_{kind}", r.workload, r.tlb_entries),
            &r.report,
        );
    }

    // The §3.4 headline: 64-entry TLB + MTLB vs 128-entry TLB without.
    let mut t = Table::new(vec![
        "workload",
        "64+MTLB cycles",
        "128 no-MTLB cycles",
        "ratio",
        "MTLB improvement over 64 base",
    ]);
    for name in WORKLOADS {
        let m64 = rows
            .iter()
            .find(|r| r.workload == name && r.tlb_entries == 64 && r.mtlb)
            .expect("present");
        let b64 = rows
            .iter()
            .find(|r| r.workload == name && r.tlb_entries == 64 && !r.mtlb)
            .expect("present");
        let b128 = rows
            .iter()
            .find(|r| r.workload == name && r.tlb_entries == 128 && !r.mtlb)
            .expect("present");
        t.row(vec![
            name.to_string(),
            m64.total_cycles.to_string(),
            b128.total_cycles.to_string(),
            format!("{:.3}", m64.total_cycles as f64 / b128.total_cycles as f64),
            format!(
                "{:.1}%",
                (1.0 - m64.total_cycles as f64 / b64.total_cycles as f64) * 100.0
            ),
        ]);
    }
    emit(
        opts,
        "headline",
        "§3.4 headline: a 64-entry TLB + MTLB performs like a 128-entry TLB without one",
        &t,
    );
}

fn fig4(opts: &Options, which: &str) {
    let rows = experiments::fig4(
        &opts.runner,
        opts.scale,
        &[32, 64, 128, 256, 512],
        &[1, 2, 4],
    );
    if which != "fig4b" {
        let mut t = Table::new(vec![
            "MTLB config",
            "cycles",
            "normalized vs no-MTLB",
            "MTLB hit %",
        ]);
        for r in &rows {
            t.row(vec![
                match r.geometry {
                    None => "no MTLB".to_string(),
                    Some((e, a)) => format!("{e} entries / {a}-way"),
                },
                r.total_cycles.to_string(),
                format!("{:.3}", r.normalized),
                format!("{:.1}%", r.mtlb_hit_rate * 100.0),
            ]);
        }
        emit(
            opts,
            "fig4a",
            "Figure 4(A): em3d runtime sensitivity to MTLB sizes and associativities",
            &t,
        );
    }
    if which != "fig4a" {
        let mut t = Table::new(vec![
            "MTLB config",
            "avg MMC cycles/fill",
            "added delay vs standard",
        ]);
        for r in &rows {
            t.row(vec![
                match r.geometry {
                    None => "no MTLB".to_string(),
                    Some((e, a)) => format!("{e} entries / {a}-way"),
                },
                format!("{:.2}", r.avg_fill_mmc_cycles),
                format!("{:+.2}", r.added_delay),
            ]);
        }
        emit(
            opts,
            "fig4b",
            "Figure 4(B): average time per cache fill (MMC cycles)",
            &t,
        );
        // The distribution behind the averages: log-bucketed fill
        // latencies for the reference and the paper's 128/2-way MTLB.
        println!("\nFill-latency distribution (MMC cycles per demand fill):");
        for r in rows
            .iter()
            .filter(|r| r.geometry.is_none() || r.geometry == Some((128, 2)))
        {
            let label = match r.geometry {
                None => "no MTLB".to_string(),
                Some((e, a)) => format!("{e} entries / {a}-way"),
            };
            print_histogram(&label, &r.report.mmc.fill_hist);
        }
    }
    for r in &rows {
        let name = match r.geometry {
            None => "fig4_em3d_no_mtlb".to_string(),
            Some((e, a)) => format!("fig4_em3d_mtlb{e}x{a}"),
        };
        emit_json_row(opts, &name, &r.report);
    }
}

fn fig5(opts: &Options) {
    let sizes = [64, 96, 128];
    let rows = experiments::fig5(&opts.runner, opts.scale, &sizes, &WORKLOADS);
    let mut t = Table::new(vec![
        "workload",
        "scheme",
        "entries",
        "cycles",
        "normalized",
        "TLB-miss %",
        "miss rate",
        "reach",
    ]);
    for r in &rows {
        t.row(vec![
            r.workload.to_string(),
            r.scheme.to_string(),
            r.tlb_entries.to_string(),
            r.total_cycles.to_string(),
            format!("{:.3}", r.normalized),
            format!("{:.1}%", r.tlb_fraction * 100.0),
            format!("{:.4}%", r.miss_rate * 100.0),
            format!("{}KB", r.report.tlb_reach_bytes >> 10),
        ]);
    }
    emit(
        opts,
        "fig5",
        "Figure 5: rival TLB-reach designs head-to-head on identical recorded address streams",
        &t,
    );
    for r in &rows {
        emit_json_row(
            opts,
            &format!("fig5_{}_{}{}", r.workload, r.scheme, r.tlb_entries),
            &r.report,
        );
    }
}

fn fig6(opts: &Options) {
    // `--cores N` pins the sweep to exactly N co-running instances;
    // the default sweeps the paper machine's plausible core counts.
    let counts: Vec<usize> = if opts.cores > 0 {
        vec![opts.cores]
    } else {
        vec![2, 4, 8]
    };
    let rows = experiments::fig6(&opts.runner, opts.scale, &counts, &WORKLOADS);
    let mut t = Table::new(vec![
        "workload",
        "instances",
        "1-core cycles",
        "co-run cycles",
        "efficiency",
        "shootdowns",
        "shootdown cyc",
        "bus stalls",
        "MTLB hit %",
        "TLB-miss %",
    ]);
    for r in &rows {
        t.row(vec![
            r.workload.to_string(),
            r.instances.to_string(),
            r.baseline_cycles.to_string(),
            r.corun_cycles.to_string(),
            format!("{:.3}", r.efficiency),
            r.shootdowns.to_string(),
            r.shootdown_cycles.to_string(),
            r.contention_events.to_string(),
            format!("{:.1}%", r.mtlb_hit_rate * 100.0),
            format!("{:.1}%", r.tlb_fraction * 100.0),
        ]);
    }
    emit(
        opts,
        "fig6",
        "Figure 6 (extension): co-scheduled instances sharing one bus, MMC and MTLB",
        &t,
    );
    for r in &rows {
        emit_json_row(
            opts,
            &format!("fig6_{}_x{}", r.workload, r.instances),
            &r.report,
        );
    }
}

fn costs(opts: &Options) {
    // The paper's em3d remapped 1120 pages of initialised dynamic memory.
    let c = experiments::init_costs(1120);
    let mut t = Table::new(vec!["quantity", "measured", "paper"]);
    t.row(vec![
        "pages remapped".to_string(),
        c.remap_pages.to_string(),
        "1120".to_string(),
    ]);
    t.row(vec![
        "remap total cycles".to_string(),
        c.remap_total_cycles.to_string(),
        "1,659,154".to_string(),
    ]);
    t.row(vec![
        "  cache flushing".to_string(),
        c.remap_flush_cycles.to_string(),
        "1,497,067".to_string(),
    ]);
    t.row(vec![
        "  remaining overhead".to_string(),
        c.remap_other_cycles.to_string(),
        "162,087".to_string(),
    ]);
    t.row(vec![
        "flush cycles per 4KB page".to_string(),
        format!("{:.0}", c.flush_cycles_per_page),
        "~1400".to_string(),
    ]);
    t.row(vec![
        "warm 4KB page copy cycles".to_string(),
        c.copy_warm_page_cycles.to_string(),
        "11,400".to_string(),
    ]);
    emit(
        opts,
        "costs",
        "§3.3: Initialization costs (remap vs copy)",
        &t,
    );
}

fn paging(opts: &Options) {
    let rows = experiments::paging(&[0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0]);
    let mut t = Table::new(vec![
        "policy",
        "dirty fraction",
        "pages written / total",
        "swap reads for 32 touches",
        "faults",
    ]);
    for r in &rows {
        t.row(vec![
            match r.policy {
                PagingPolicy::PerBasePage => "shadow (per base page)",
                PagingPolicy::WholeSuperpage => "conventional (whole superpage)",
            }
            .to_string(),
            format!("{:.2}", r.dirty_fraction),
            format!("{} / {}", r.pages_written, r.pages_total),
            r.pages_read_back.to_string(),
            r.faults.to_string(),
        ]);
    }
    emit(
        opts,
        "paging",
        "§2.5: Swap traffic — per-base-page dirty bits vs conventional superpages (1 MB superpage)",
        &t,
    );
}

fn ablations(opts: &Options) {
    let a = experiments::allocator_ablation();
    let mut t = Table::new(vec!["allocator", "4MB regions after 16KB churn"]);
    t.row(vec![
        "bucket (paper Fig. 2)".to_string(),
        format!(
            "{} (static class size {})",
            a.bucket_4m_after_churn, a.bucket_4m_static
        ),
    ]);
    t.row(vec![
        "buddy (split/recombine)".to_string(),
        a.buddy_4m_after_churn.to_string(),
    ]);
    emit(
        opts,
        "allocators",
        "§2.4: shadow-space allocators — buckets cannot move freed space between classes",
        &t,
    );

    let (off, on) = experiments::bit_writeback_ablation(&opts.runner, opts.scale);
    let mut t = Table::new(vec!["ref/dirty write-back", "em3d cycles", "relative"]);
    t.row(vec![
        "uncharged (paper's sim)".to_string(),
        off.to_string(),
        "1.000".to_string(),
    ]);
    t.row(vec![
        "charged".to_string(),
        on.to_string(),
        format!("{:.4}", on as f64 / off as f64),
    ]);
    emit(
        opts,
        "bit_writeback",
        "§3.4: cost of writing updated reference/dirty bits back (paper: negligible)",
        &t,
    );

    let (seq, scrambled) = experiments::fragmentation_ablation(&opts.runner, opts.scale);
    let mut t = Table::new(vec!["frame allocation order", "radix cycles", "relative"]);
    t.row(vec![
        "sequential (fresh boot)".to_string(),
        seq.to_string(),
        "1.000".to_string(),
    ]);
    t.row(vec![
        "scrambled (fragmented)".to_string(),
        scrambled.to_string(),
        format!("{:.4}", scrambled as f64 / seq as f64),
    ]);
    emit(
        opts,
        "fragmentation",
        "§1 premise: discontiguous physical frames are free under shadow superpages",
        &t,
    );
}

fn extensions(opts: &Options) {
    let r = experiments::recoloring();
    let mut t = Table::new(vec!["phase", "cycles", "cache miss rate"]);
    t.row(vec![
        "two hot pages, same color (PIPT)".to_string(),
        r.conflict_cycles.to_string(),
        format!("{:.1}%", r.conflict_miss_rate * 100.0),
    ]);
    t.row(vec![
        "after no-copy recolor".to_string(),
        r.recolored_cycles.to_string(),
        format!("{:.1}%", r.recolored_miss_rate * 100.0),
    ]);
    emit(
        opts,
        "recoloring",
        "§6 extension: no-copy page recoloring via shadow memory (physically-indexed cache)",
        &t,
    );

    let rows = experiments::all_shadow_sensitivity(&opts.runner, opts.scale);
    let mut t = Table::new(vec![
        "configuration",
        "em3d cycles",
        "normalized",
        "MTLB hit %",
    ]);
    for r in &rows {
        t.row(vec![
            r.label.clone(),
            r.cycles.to_string(),
            format!("{:.3}", r.normalized),
            format!("{:.1}%", r.mtlb_hit_rate * 100.0),
        ]);
    }
    emit(
        opts,
        "all_shadow",
        "§4 extension: routing ALL virtual accesses through shadow memory",
        &t,
    );

    let rows = experiments::multiprogramming(&[500, 2_000, 20_000]);
    let mut t = Table::new(vec![
        "machine",
        "quantum (accesses)",
        "cycles",
        "TLB-miss %",
    ]);
    for r in &rows {
        t.row(vec![
            r.machine.to_string(),
            r.quantum.to_string(),
            r.cycles.to_string(),
            format!("{:.1}%", r.tlb_fraction * 100.0),
        ]);
    }
    emit(
        opts,
        "multiprogramming",
        "Extension: two time-sliced processes — superpages refill the TLB after a switch in a few misses",
        &t,
    );

    let rows = experiments::promotion();
    let mut t = Table::new(vec!["policy", "cycles", "superpages", "auto-promoted"]);
    for r in &rows {
        t.row(vec![
            r.policy.to_string(),
            r.cycles.to_string(),
            r.superpages.to_string(),
            r.auto_promotions.to_string(),
        ]);
    }
    emit(
        opts,
        "promotion",
        "§5 extension: online superpage promotion (Romer-style) vs explicit remap()",
        &t,
    );

    let c = experiments::commercial(&opts.runner, opts.scale);
    let mut t = Table::new(vec![
        "machine (64-entry TLB)",
        "oltp cycles",
        "TLB-miss %",
        "speedup",
    ]);
    t.row(vec![
        "conventional".to_string(),
        c.base_cycles.to_string(),
        format!("{:.1}%", c.base_tlb_fraction * 100.0),
        "1.00x".to_string(),
    ]);
    t.row(vec![
        "with MTLB".to_string(),
        c.mtlb_cycles.to_string(),
        "~0%".to_string(),
        format!("{:.2}x", c.speedup),
    ]);
    emit(
        opts,
        "commercial",
        "§1 prediction: a ~26 MB commercial (OLTP) working set still benefits",
        &t,
    );

    let rows = experiments::subblock(&opts.runner, opts.scale, &WORKLOADS);
    let machines = rows.len() / WORKLOADS.len();
    let mut header = vec!["workload"];
    header.extend(rows[..machines].iter().map(|r| r.machine));
    let mut t = Table::new(header);
    for cells in rows.chunks(machines) {
        let mut row = vec![cells[0].workload.to_string()];
        row.extend(
            cells
                .iter()
                .map(|r| format!("{:.3} ({:.1}%)", r.normalized, r.tlb_fraction * 100.0)),
        );
        t.row(row);
    }
    emit(
        opts,
        "subblock",
        "§5 related work: complete-subblock TLB (Talluri & Hill) — runtime normalized to the 96-entry base (TLB-miss %)",
        &t,
    );

    let sr = experiments::stream_buffers();
    let mut t = Table::new(vec![
        "traffic",
        "no buffers",
        "4x4 stream buffers",
        "stream hit rate",
    ]);
    t.row(vec![
        "sequential sweep (4 MB shadow superpage)".to_string(),
        sr.sweep_without.to_string(),
        sr.sweep_with.to_string(),
        format!("{:.1}%", sr.sweep_hit_rate * 100.0),
    ]);
    t.row(vec![
        "random walk".to_string(),
        sr.random_without.to_string(),
        sr.random_with.to_string(),
        "-".to_string(),
    ]);
    emit(
        opts,
        "stream_buffers",
        "§6 extension: MMC-provided stream buffers over discontiguous shadow superpages",
        &t,
    );
}

fn main() {
    let opts = parse_args();
    let what = opts.what.as_str();
    // The jobs level goes to stderr: stdout (tables, CSV notices) must
    // be byte-identical whatever the parallelism.
    eprintln!("[repro] running with {} job thread(s)", opts.runner.jobs());
    println!(
        "shadow-superpages repro — scale: {:?}{}",
        opts.scale,
        if matches!(opts.scale, Scale::Paper) {
            " (full paper-scale runs; use --test-scale for a quick pass)"
        } else {
            ""
        }
    );
    if matches!(what, "all" | "fig2") {
        fig2(&opts);
    }
    if matches!(what, "all" | "fig3") {
        fig3(&opts);
    }
    if matches!(what, "all" | "fig4a" | "fig4b") {
        fig4(&opts, what);
    }
    if matches!(what, "all" | "fig5") {
        fig5(&opts);
    }
    if matches!(what, "all" | "fig6") {
        fig6(&opts);
    }
    if matches!(what, "all" | "costs") {
        costs(&opts);
    }
    if matches!(what, "all" | "paging") {
        paging(&opts);
    }
    if matches!(what, "all" | "ablations") {
        ablations(&opts);
    }
    if matches!(what, "all" | "extensions") {
        extensions(&opts);
    }
}
