//! The repo benchmark. See `README.md` beside this crate.
//!
//! Two ways in, both through `benchmark/run.sh`, which builds first:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload
//!   in this process and prints one JSON object as the last line of
//!   standard output (the contract `BENCHMARK.json` is written to).
//! * without `--workload`, runs every workload untraced, each in its
//!   own child process, one at a time, then the traced pass; prints
//!   every metric by name with its unit and writes
//!   `benchmark/out/results.json`. `--repeat 2` does that twice and
//!   compares the sets (from four sets on it also prints the quartile
//!   spreads); `--bless` rewrites `expected.json`.

mod churn;
mod contention;
mod json;
mod measure;
mod probes;
mod profile;
mod spans;
mod stats;
mod units;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use mtlb_workloads::Scale;

use json::Value;
use measure::{Measurement, Pin, Pins};

const OUT_DIR: &str = "benchmark/out";
const MANIFEST_PATH: &str = "BENCHMARK.json";

#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    reps: Option<usize>,
    bless: bool,
    repeat: usize,
    no_trace: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: units::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        scale: Scale::Paper,
        reps: None,
        bless: false,
        repeat: 1,
        no_trace: false,
    };
    let mut it = argv;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !units::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "--workload: {name:?} is not one of {:?}",
                        units::WORKLOADS
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
                }
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "test" => Scale::Test,
                    "paper" => Scale::Paper,
                    other => return Err(format!("--scale: {other:?} is neither test nor paper")),
                }
            }
            "--reps" => {
                let reps: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if reps == 0 {
                    return Err("--reps must be at least 1".to_string());
                }
                args.reps = Some(reps);
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--bless" => args.bless = true,
            "--no-trace" => args.no_trace = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Paper => "paper",
    }
}

fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, &'a str, f64)>) -> Value {
    Value::Obj(
        metrics
            .map(|(name, unit, value)| {
                (
                    name.to_string(),
                    Value::obj([
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn result_line(attempted: usize, failed: usize, metrics: Value) -> Value {
    Value::obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics),
    ])
}

fn write_out(name: &str, value: &Value, flat_below: usize) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{name}");
    std::fs::write(&path, value.to_pretty(flat_below)).map_err(|e| format!("{path}: {e}"))
}

fn failures_json(failures: &BTreeMap<String, String>) -> Value {
    Value::Obj(
        failures
            .iter()
            .map(|(label, why)| (label.clone(), Value::Str(why.clone())))
            .collect(),
    )
}

/// Per-unit detail of an untraced run, for `results.json` and `--bless`.
fn units_json(m: &Measurement) -> Value {
    Value::obj([
        ("workload", Value::Str(m.workload.clone())),
        ("reps", Value::Num(m.reps.len() as f64)),
        ("pins_checked", Value::Bool(m.pins_checked)),
        ("host_s", Value::Num(m.host_s())),
        (
            "contention",
            m.timeline.as_ref().map_or(Value::Null, |t| {
                Value::obj([
                    ("samples", Value::Num(t.len() as f64)),
                    ("quiet_probe_us", Value::Num(t.quiet_probe_s * 1e6)),
                    ("mean_slowdown", Value::Num(t.mean_slowdown())),
                    ("sensitivity", Value::Num(units::sensitivity(&m.workload))),
                ])
            }),
        ),
        (
            "rep_totals_s",
            Value::Arr(m.rep_totals_s().into_iter().map(Value::Num).collect()),
        ),
        (
            "setup_samples_s",
            Value::Arr(m.setup_samples_s.iter().copied().map(Value::Num).collect()),
        ),
        ("failures", failures_json(&m.failures)),
        (
            "units",
            Value::Arr(
                m.units()
                    .iter()
                    .enumerate()
                    .map(|(u, unit)| {
                        let [cycles, checksum] = Pin {
                            cycles: unit.cycles,
                            checksum: unit.checksum,
                        }
                        .to_json();
                        let per_rep = |field: &dyn Fn(&units::Unit) -> f64| {
                            Value::Arr(
                                m.reps
                                    .iter()
                                    .map(|rep| Value::Num(field(&rep[u])))
                                    .collect(),
                            )
                        };
                        Value::obj([
                            ("label", Value::Str(unit.label.clone())),
                            ("kind", Value::Str(format!("{:?}", unit.kind))),
                            cycles,
                            checksum,
                            ("sim_instructions", Value::Num(unit.instructions as f64)),
                            ("wall_s", per_rep(&|unit| unit.wall_s)),
                            ("slowdown", per_rep(&|unit| unit.slowdown)),
                            ("host_s", per_rep(&|unit| unit.host_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One workload in this process: the contract mode.
fn run_single(args: &Args, workload: &str) -> Result<(), String> {
    // Name, unit and value of every metric of the pass, then the units
    // attempted and the failures.
    let metrics: Vec<(&str, &str, f64)>;
    let (attempted, failures) = if args.trace {
        let profile = profile::run(workload, args.scale, args.seed)?;
        let trace = Value::obj([
            ("workload", Value::Str(workload.to_string())),
            ("scale", Value::Str(scale_name(args.scale).to_string())),
            ("seed", Value::Num(args.seed as f64)),
            ("failures", failures_json(&profile.failures)),
            ("detail", profile.detail),
            ("spans", profile.tracer.to_json()),
        ]);
        write_out("trace.json", &trace, 3)?;
        metrics = profile::PER_LAYER
            .iter()
            .zip(profile.values)
            .map(|((name, unit, _), value)| (*name, *unit, value))
            .collect();
        (profile.attempted, profile.failures)
    } else {
        // An explicit `--reps` is a fixed count; the count derived from
        // `--seconds` is cut short when the run overruns.
        let (reps, budget_s) = match args.reps {
            Some(reps) => (reps, None),
            None => (
                units::reps_for(workload, args.seconds),
                Some(args.seconds * units::OVERRUN),
            ),
        };
        let m = measure::measure(workload, args.scale, args.seed, reps, budget_s, args.bless)?;
        write_out(&format!("{workload}.units.json"), &units_json(&m), 3)?;
        metrics = measure::END_TO_END
            .iter()
            .zip(m.end_to_end())
            .map(|((name, unit), value)| (*name, *unit, value))
            .collect();
        (m.attempted(), m.failures)
    };
    for (label, why) in &failures {
        eprintln!("FAIL {label}: {why}");
    }
    for (name, unit, value) in &metrics {
        println!("{name:<34} {value:>18.6} {unit}");
    }
    let line = result_line(attempted, failures.len(), metrics_json(metrics.into_iter()));
    println!("{}", line.to_line());
    Ok(())
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
struct Declared {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` this program checks itself against.
#[derive(Clone, Debug, PartialEq)]
struct Manifest {
    workloads: Vec<String>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn parse_manifest(text: &str) -> Result<Manifest, String> {
    let doc = json::parse(text)?;
    let declared = |key: &str| -> Result<Vec<Declared>, String> {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("{MANIFEST_PATH}: no {key}"))?
            .iter()
            .map(|entry| {
                let field = |f: &str| {
                    entry
                        .get(f)
                        .and_then(Value::as_str)
                        .ok_or(format!("{MANIFEST_PATH}: {key} entry without {f}"))
                };
                let name = field("name")?.to_string();
                if !valid_name(&name) {
                    return Err(format!("{MANIFEST_PATH}: bad metric name {name:?}"));
                }
                Ok(Declared {
                    name,
                    unit: field("unit")?.to_string(),
                    higher_is_better: field("better")? == "higher",
                    bound: entry.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or(format!("{MANIFEST_PATH}: no workloads"))?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .filter(|name| valid_name(name))
                .map(str::to_string)
                .ok_or(format!("{MANIFEST_PATH}: workload without a valid name"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Manifest {
        workloads,
        end_to_end: declared("end_to_end")?,
        per_layer: declared("per_layer")?,
    })
}

/// A child's result line, checked against the declared metric list:
/// exactly the four keys, exactly the declared metrics with their
/// units, every value a finite number.
fn parse_result(line: &str, declared: &[Declared]) -> Result<(bool, u64, u64, Vec<f64>), String> {
    let doc = json::parse(line)?;
    let keys: Vec<&str> = doc
        .as_obj()
        .ok_or("result is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result has keys {keys:?}"));
    }
    let correct = doc
        .get("correct")
        .and_then(Value::as_bool)
        .ok_or("correct")?;
    let attempted = doc
        .get("attempted")
        .and_then(Value::as_u64)
        .ok_or("attempted")?;
    let failed = doc.get("failed").and_then(Value::as_u64).ok_or("failed")?;
    if attempted == 0 || correct != (failed == 0) {
        return Err(format!(
            "correct {correct}, attempted {attempted}, failed {failed} do not fit together"
        ));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("metrics")?;
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
    if names != expected {
        return Err(format!("metrics are {names:?}, declared {expected:?}"));
    }
    let values = metrics
        .iter()
        .zip(declared)
        .map(|((name, metric), d)| {
            let unit = metric.get("unit").and_then(Value::as_str);
            if unit != Some(d.unit.as_str()) {
                return Err(format!("{name}: unit {unit:?}, declared {:?}", d.unit));
            }
            metric
                .get("value")
                .and_then(Value::as_f64)
                .filter(|v| v.is_finite())
                .ok_or(format!("{name}: value is not a finite number"))
        })
        .collect::<Result<_, _>>()?;
    Ok((correct, attempted, failed, values))
}

/// Runs this executable again for one workload and returns its result
/// line. The child inherits standard error, so its progress and
/// failures show as they happen.
fn run_child(args: &Args, workload: &str, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", scale_name(args.scale)]);
    if let Some(reps) = args.reps {
        command.args(["--reps", &reps.to_string()]);
    }
    if args.bless {
        command.arg("--bless");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start: {e}"))?;
    if !output.status.success() {
        // `panic = "abort"`: a child that dies takes its remaining
        // units with it.
        return Err(format!("{workload}: child ended with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .map(str::to_string)
        .ok_or(format!("{workload}: child printed nothing"))
}

/// One full set: every workload untraced, then the traced pass.
#[derive(Default)]
struct Set {
    /// Per workload: end-to-end values in declared order, or why the
    /// workload has none.
    end_to_end: Vec<(String, Result<Vec<f64>, String>)>,
    /// Per workload: the per-unit detail its child left behind.
    runs: Vec<Value>,
    per_layer: Option<Result<Vec<f64>, String>>,
    failed_units: u64,
    attempted_units: u64,
}

impl Set {
    /// Checks a child's result line and books its units. A child with
    /// no usable result counts as one failed unit.
    fn book(
        &mut self,
        what: &str,
        line: Result<String, String>,
        declared: &[Declared],
    ) -> Result<Vec<f64>, String> {
        let result = line.and_then(|line| parse_result(&line, declared));
        match &result {
            Ok((_, attempted, failed, _)) => {
                self.attempted_units += attempted;
                self.failed_units += failed;
            }
            Err(why) => {
                eprintln!("FAIL {what}: {why}");
                self.attempted_units += 1;
                self.failed_units += 1;
            }
        }
        result.map(|(_, _, _, values)| values)
    }
}

fn run_set(args: &Args, manifest: &Manifest) -> Result<Set, String> {
    let mut set = Set::default();
    for workload in &manifest.workloads {
        eprintln!("== {workload}: untraced");
        let line = run_child(args, workload, false);
        let values = set.book(workload, line, &manifest.end_to_end);
        set.end_to_end.push((workload.clone(), values));
        set.runs.push(
            std::fs::read_to_string(format!("{OUT_DIR}/{workload}.units.json"))
                .ok()
                .and_then(|text| json::parse(&text).ok())
                .unwrap_or(Value::Null),
        );
    }
    // Blessing sits between the passes: the untraced children skipped
    // the pin check, the traced pass then runs against the new pins.
    let mut args = args.clone();
    if args.bless {
        bless(&args, manifest, &set.runs)?;
        args.bless = false;
    }
    if !args.no_trace {
        eprintln!("== traced pass");
        let line = run_child(&args, "live_paper5", true);
        set.per_layer = Some(set.book("traced pass", line, &manifest.per_layer));
    }
    Ok(set)
}

fn print_set(set: &Set, manifest: &Manifest) {
    for (workload, result) in &set.end_to_end {
        println!("{workload}");
        match result {
            Ok(values) => {
                for (d, value) in manifest.end_to_end.iter().zip(values) {
                    println!("  {:<32} {value:>18.6} {}", d.name, d.unit);
                }
            }
            Err(why) => println!("  no result: {why}"),
        }
    }
    match &set.per_layer {
        Some(Ok(values)) => {
            println!("per layer (traced pass)");
            for (d, value) in manifest.per_layer.iter().zip(values) {
                println!("  {:<32} {value:>18.6} {}", d.name, d.unit);
            }
        }
        Some(Err(why)) => println!("per layer: no result: {why}"),
        None => {}
    }
    println!(
        "fail_share {} / {} units",
        set.failed_units, set.attempted_units
    );
}

fn set_json(set: &Set, manifest: &Manifest) -> Value {
    let values_json = |declared: &[Declared], result: &Result<Vec<f64>, String>| match result {
        Ok(values) => metrics_json(
            declared
                .iter()
                .zip(values)
                .map(|(d, value)| (d.name.as_str(), d.unit.as_str(), *value)),
        ),
        Err(why) => Value::obj([("error", Value::Str(why.clone()))]),
    };
    Value::obj([
        ("failed_units", Value::Num(set.failed_units as f64)),
        ("attempted_units", Value::Num(set.attempted_units as f64)),
        (
            "end_to_end",
            Value::Obj(
                set.end_to_end
                    .iter()
                    .zip(&set.runs)
                    .map(|((workload, result), run)| {
                        (
                            workload.clone(),
                            Value::obj([
                                ("metrics", values_json(&manifest.end_to_end, result)),
                                ("run", run.clone()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            set.per_layer.as_ref().map_or(Value::Null, |result| {
                values_json(&manifest.per_layer, result)
            }),
        ),
    ])
}

/// How much worse `second` is than `first`, as a share of `first`;
/// negative when it is better.
fn worsening(d: &Declared, first: f64, second: f64) -> f64 {
    let change = (second - first) / first.abs();
    if d.higher_is_better {
        -change
    } else {
        change
    }
}

/// Whether a per-layer metric is a count taken from the model, which
/// repeats exactly, and not a host time or a ratio of host times.
fn is_exact(d: &Declared) -> bool {
    const HOST_TIME_RATIOS: [&str; 3] = [
        "bench.rep_spread",
        "bench.trace_overhead_frac",
        "os.service_share",
    ];
    !matches!(d.unit.as_str(), "ns" | "us" | "ms" | "s")
        && !HOST_TIME_RATIOS.contains(&d.name.as_str())
}

/// Compares two sets metric by metric against the declared bounds.
/// Returns how many comparisons exceeded their bound.
fn compare_sets(first: &Set, second: &Set, manifest: &Manifest) -> usize {
    let mut exceeded = 0;
    println!("set 2 against set 1 (positive = worse)");
    for ((workload, a), (_, b)) in first.end_to_end.iter().zip(&second.end_to_end) {
        let (Ok(a), Ok(b)) = (a, b) else {
            println!("  {workload}: a set has no result");
            exceeded += 1;
            continue;
        };
        for (d, (a, b)) in manifest.end_to_end.iter().zip(a.iter().zip(b)) {
            let bound = d.bound.unwrap_or(0.0);
            let worse = worsening(d, *a, *b);
            let verdict = if worse > bound { "EXCEEDED" } else { "ok" };
            if worse > bound {
                exceeded += 1;
            }
            println!(
                "  {workload:<16} {:<12} {:>+8.2} % (bound {:.0} %) {verdict}",
                d.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    // Counts and ratios the traced pass takes from the model must not
    // move at all between two runs of one program.
    if let (Some(Ok(a)), Some(Ok(b))) = (&first.per_layer, &second.per_layer) {
        for (d, (a, b)) in manifest.per_layer.iter().zip(a.iter().zip(b)) {
            if is_exact(d) && a != b {
                println!(
                    "  per layer {}: {a} then {b} EXCEEDED (must be identical)",
                    d.name
                );
                exceeded += 1;
            }
        }
    }
    exceeded
}

/// With four sets or more: each end-to-end metric's quartile spread
/// over the sets, the statistic the benchmark is accepted on, beside the
/// third of its bound a steady benchmark stays under.
fn print_spreads(sets: &[Set], manifest: &Manifest) {
    println!("quartile spread over {} sets", sets.len());
    for (w, workload) in manifest.workloads.iter().enumerate() {
        for (m, d) in manifest.end_to_end.iter().enumerate() {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|set| set.end_to_end[w].1.as_ref().ok().map(|values| values[m]))
                .collect();
            if values.len() >= 4 {
                println!(
                    "  {workload:<16} {:<12} {:>7.2} % (a third of the bound: {:.2} %)",
                    d.name,
                    stats::quartile_spread(&values) * 100.0,
                    d.bound.unwrap_or(0.0) * 100.0 / 3.0
                );
            }
        }
    }
}

/// Rewrites `expected.json` from the unit detail the untraced
/// children just left.
fn bless(args: &Args, manifest: &Manifest, runs: &[Value]) -> Result<(), String> {
    if args.scale != Scale::Paper {
        return Err("--bless pins paper scale only".to_string());
    }
    let mut pins = Pins {
        seed: args.seed,
        workloads: BTreeMap::new(),
    };
    for (workload, run) in manifest.workloads.iter().zip(runs) {
        let workload_pins = run
            .get("units")
            .and_then(Value::as_arr)
            .ok_or(format!("{workload}: no unit detail to bless"))?
            .iter()
            .map(|unit| {
                let label = unit.get("label").and_then(Value::as_str)?;
                Some((label.to_string(), Pin::from_json(unit)?))
            })
            .collect::<Option<BTreeMap<_, _>>>()
            .ok_or(format!("{workload}: bad unit detail"))?;
        pins.workloads.insert(workload.clone(), workload_pins);
    }
    std::fs::write(measure::EXPECTED_PATH, pins.to_json().to_pretty(3))
        .map_err(|e| format!("{}: {e}", measure::EXPECTED_PATH))?;
    eprintln!("wrote {}", measure::EXPECTED_PATH);
    Ok(())
}

/// Every workload, each in its own child, one at a time.
fn run_all(args: &Args) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(MANIFEST_PATH).map_err(|e| format!("{MANIFEST_PATH}: {e}"))?;
    let manifest = parse_manifest(&text)?;
    let sets: Vec<Set> = (0..args.repeat)
        .map(|i| {
            if args.repeat > 1 {
                eprintln!("==== set {} of {}", i + 1, args.repeat);
            }
            let set = run_set(args, &manifest)?;
            print_set(&set, &manifest);
            Ok(set)
        })
        .collect::<Result<_, String>>()?;
    let results = Value::obj([
        ("scale", Value::Str(scale_name(args.scale).to_string())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        (
            "sets",
            Value::Arr(sets.iter().map(|set| set_json(set, &manifest)).collect()),
        ),
    ]);
    write_out("results.json", &results, 6)?;
    let mut ok = sets.iter().all(|set| set.failed_units == 0);
    for pair in sets.windows(2) {
        ok &= compare_sets(&pair[0], &pair[1], &manifest) == 0;
    }
    if sets.len() >= 4 {
        print_spreads(&sets, &manifest);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}");
            eprintln!(
                "usage: run.sh [--workload W --trace 0|1] [--seed N] [--seconds S] \
                 [--scale test|paper] [--reps R] [--repeat K] [--no-trace] [--bless]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        // A failed check is reported in the result line, not the exit
        // code: the run itself worked.
        Some(workload) => run_single(&args, workload).map(|()| true),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(name: &str, unit: &str, higher: bool, bound: Option<f64>) -> Declared {
        Declared {
            name: name.to_string(),
            unit: unit.to_string(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn names_follow_the_contract() {
        for good in [
            "host_s",
            "bench.live_cell_ns_per_instr",
            "a-b.c_9",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".hidden", "has space", "ünï", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn the_manifest_declares_what_the_program_measures() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        let manifest = parse_manifest(&text).unwrap();
        assert_eq!(manifest.workloads, units::WORKLOADS);
        let end_to_end: Vec<(&str, &str)> = manifest
            .end_to_end
            .iter()
            .map(|d| (d.name.as_str(), d.unit.as_str()))
            .collect();
        assert_eq!(end_to_end, measure::END_TO_END);
        for d in &manifest.end_to_end {
            let bound = d.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", d.name);
        }
        let setup = &manifest.end_to_end[0];
        assert_eq!(
            (setup.name.as_str(), setup.higher_is_better),
            ("setup_s", false)
        );
        let per_layer: Vec<(&str, &str, &str)> = manifest
            .per_layer
            .iter()
            .map(|d| {
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (d.name.as_str(), d.unit.as_str(), better)
            })
            .collect();
        assert_eq!(per_layer, profile::PER_LAYER);
        let named = |name: &str| manifest.per_layer.iter().find(|d| d.name == name).unwrap();
        for exact in [
            "tlb.sim_misses_base64",
            "cache.hit_ratio",
            "bench.units",
            "trace.bytes_per_op",
        ] {
            assert!(is_exact(named(exact)), "{exact}");
        }
        for timed in [
            "os.touch_ns",
            "bench.rep_spread",
            "sim.new_ms",
            "os.service_share",
        ] {
            assert!(!is_exact(named(timed)), "{timed}");
        }
        // Layers are the crate names.
        for d in &manifest.per_layer {
            let layer = d.name.split('.').next().unwrap();
            assert!(
                [
                    "bench",
                    "workloads",
                    "trace",
                    "sim",
                    "tlb",
                    "schemes",
                    "cache",
                    "mmc",
                    "mem",
                    "os"
                ]
                .contains(&layer),
                "{}",
                d.name
            );
        }
    }

    #[test]
    fn result_lines_are_checked_against_the_declaration() {
        let decl = [
            declared("setup_s", "s", false, Some(0.25)),
            declared("host_s", "s", false, Some(0.25)),
        ];
        let good = result_line(
            3,
            0,
            metrics_json([("setup_s", "s", 0.5), ("host_s", "s", 2.25)].into_iter()),
        )
        .to_line();
        assert_eq!(
            parse_result(&good, &decl).unwrap(),
            (true, 3, 0, vec![0.5, 2.25])
        );
        let missing = result_line(3, 0, metrics_json([("setup_s", "s", 0.5)].into_iter()));
        assert!(parse_result(&missing.to_line(), &decl).is_err());
        let wrong_unit = result_line(
            3,
            1,
            metrics_json([("setup_s", "ms", 0.5), ("host_s", "s", 2.25)].into_iter()),
        );
        assert!(parse_result(&wrong_unit.to_line(), &decl).is_err());
        assert!(parse_result("{\"correct\": true}", &decl).is_err());
        let none_attempted = result_line(
            0,
            0,
            metrics_json([("setup_s", "s", 0.5), ("host_s", "s", 2.25)].into_iter()),
        );
        assert!(parse_result(&none_attempted.to_line(), &decl).is_err());
    }

    #[test]
    fn worsening_follows_the_better_direction() {
        let lower = declared("host_s", "s", false, Some(0.1));
        let higher = declared("sim_mips", "Minstr/s", true, Some(0.1));
        assert!((worsening(&lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(&higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&higher, 10.0, 12.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn sets_are_compared_against_their_bounds() {
        let manifest = Manifest {
            workloads: vec!["w".to_string()],
            end_to_end: vec![
                declared("host_s", "s", false, Some(0.10)),
                declared("sim_cycles", "cycles", false, Some(0.01)),
            ],
            per_layer: vec![declared("tlb.sim_misses_base64", "count", false, None)],
        };
        let set = |host_s: f64, cycles: f64, misses: f64| Set {
            end_to_end: vec![("w".to_string(), Ok(vec![host_s, cycles]))],
            per_layer: Some(Ok(vec![misses])),
            attempted_units: 1,
            ..Set::default()
        };
        assert_eq!(
            compare_sets(&set(10.0, 5.0, 7.0), &set(10.9, 5.0, 7.0), &manifest),
            0
        );
        assert_eq!(
            compare_sets(&set(10.0, 5.0, 7.0), &set(11.1, 5.0, 7.0), &manifest),
            1
        );
        assert_eq!(
            compare_sets(&set(10.0, 5.0, 7.0), &set(9.0, 5.2, 8.0), &manifest),
            2
        );
    }

    #[test]
    fn flags_are_validated() {
        let parse = |argv: &[&str]| parse_args(argv.iter().map(|s| s.to_string()));
        let args = parse(&[
            "--workload",
            "sweep_fig3",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("sweep_fig3"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 20.0, true));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--reps", "0"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }
}
