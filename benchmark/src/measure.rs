//! The untraced pass: set-up, reps, output checks and the end-to-end
//! metrics of one workload.

use std::collections::BTreeMap;
use std::time::Instant;

use mtlb_bench::experiments::{self, workload_by_name};
use mtlb_workloads::Scale;

use crate::churn;
use crate::contention::{self, Contention, Sampler, Timeline};
use crate::json::{self, Value};
use crate::stats;
use crate::units::{self, Unit};

pub const EXPECTED_PATH: &str = "benchmark/expected.json";

/// Set-up is repeated this often before every rep and after the last;
/// `setup_s` is the median of all repetitions. Spreading them over the
/// run samples the container's fast and slow stretches like the units
/// do, where a block at the start would sample one instant.
const SETUP_REPEATS: usize = 25;

/// The end-to-end metrics, in `BENCHMARK.json` order, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("host_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
];

/// A unit's pinned outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pin {
    pub cycles: u64,
    pub checksum: u64,
}

impl Pin {
    /// Reads the `cycles` and `checksum` members of a JSON object, the
    /// form both `expected.json` and a run's unit file use.
    pub fn from_json(value: &Value) -> Option<Pin> {
        let checksum = value.get("checksum")?.as_str()?;
        Some(Pin {
            cycles: value.get("cycles")?.as_u64()?,
            checksum: u64::from_str_radix(checksum.trim_start_matches("0x"), 16).ok()?,
        })
    }

    pub fn to_json(self) -> [(&'static str, Value); 2] {
        [
            ("cycles", Value::Num(self.cycles as f64)),
            ("checksum", Value::Str(format!("0x{:016x}", self.checksum))),
        ]
    }
}

/// `expected.json`: per-unit simulated cycles and output digests at
/// paper scale, written by `run.sh --bless`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Pins {
    pub seed: u64,
    pub workloads: BTreeMap<String, BTreeMap<String, Pin>>,
}

impl Pins {
    pub fn parse(text: &str) -> Result<Pins, String> {
        let doc = json::parse(text)?;
        let seed = doc
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or("expected.json: no seed")?;
        let mut workloads = BTreeMap::new();
        for (workload, units) in doc
            .get("units")
            .and_then(Value::as_obj)
            .ok_or("expected.json: no units")?
        {
            let mut pins = BTreeMap::new();
            for (label, pin) in units.as_obj().ok_or("expected.json: units of a workload")? {
                let pin =
                    Pin::from_json(pin).ok_or(format!("expected.json: bad pin for {label}"))?;
                pins.insert(label.clone(), pin);
            }
            workloads.insert(workload.clone(), pins);
        }
        Ok(Pins { seed, workloads })
    }

    pub fn load() -> Result<Pins, String> {
        let text =
            std::fs::read_to_string(EXPECTED_PATH).map_err(|e| format!("{EXPECTED_PATH}: {e}"))?;
        Pins::parse(&text)
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("schema", Value::Num(1.0)),
            ("scale", Value::Str("paper".to_string())),
            ("seed", Value::Num(self.seed as f64)),
            (
                "units",
                Value::Obj(
                    units::WORKLOADS
                        .iter()
                        .filter_map(|&w| self.workloads.get(w).map(|pins| (w, pins)))
                        .map(|(workload, pins)| {
                            (
                                workload.to_string(),
                                Value::Obj(
                                    pins.iter()
                                        .map(|(label, pin)| {
                                            (label.clone(), Value::obj(pin.to_json()))
                                        })
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn read_expected() -> Result<String, String> {
    std::fs::read_to_string(EXPECTED_PATH).map_err(|e| format!("{EXPECTED_PATH}: {e}"))
}

/// Whether `workload`'s pins apply to a run at `scale` with `seed`:
/// pins are paper-scale, and only `kernel_churn`'s script follows the
/// seed.
pub fn pins_apply(workload: &str, scale: Scale, seed: u64, pinned_seed: u64) -> bool {
    scale == Scale::Paper && (workload != "kernel_churn" || seed == pinned_seed)
}

/// What the run computes before its first timed unit: the pins parsed
/// from `expected.json`'s text and the inputs (the churn script, or the
/// five workload programs). Machines are built inside the units, and the
/// file is read once outside: on this container a file read takes
/// either 20 or 40 µs for minutes at a time, which would be all this
/// timing shows.
fn set_up(expected: &str, workload: &str, scale: Scale, seed: u64) -> Result<Pins, String> {
    let pins = Pins::parse(expected);
    if workload == "kernel_churn" {
        std::hint::black_box(churn::generate(
            seed,
            churn::Params::for_scale(scale).rounds,
        ));
    } else {
        for name in experiments::WORKLOADS {
            std::hint::black_box(workload_by_name(name, scale));
        }
    }
    pins
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The outcome of one untraced run of one workload.
pub struct Measurement {
    pub workload: String,
    /// `reps[r][u]`.
    pub reps: Vec<Vec<Unit>>,
    /// Set-up times, corrected for contention like the units.
    pub setup_samples_s: Vec<f64>,
    /// What the contention sampler saw over the whole run; `None` when
    /// the process could not be pinned, and nothing was corrected.
    pub timeline: Option<Timeline>,
    pub peak_rss_mb: f64,
    /// One line per failed unit, naming the check it failed.
    pub failures: BTreeMap<String, String>,
    pub pins_checked: bool,
}

impl Measurement {
    pub fn units(&self) -> &[Unit] {
        &self.reps[0]
    }

    pub fn attempted(&self) -> usize {
        self.units().len()
    }

    /// Wall seconds of every rep, one total per rep, as the clock read.
    pub fn rep_totals_s(&self) -> Vec<f64> {
        self.reps
            .iter()
            .map(|rep| rep.iter().map(|u| u.wall_s).sum())
            .collect()
    }

    /// Best-of-R host seconds for the unit list, each unit's time
    /// corrected for the contention it ran under.
    pub fn host_s(&self) -> f64 {
        let corrected: Vec<Vec<f64>> = self
            .reps
            .iter()
            .map(|rep| rep.iter().map(|u| u.host_s).collect())
            .collect();
        stats::best_of(&corrected)
    }

    pub fn sim_cycles(&self) -> u64 {
        self.units().iter().map(|u| u.cycles).sum()
    }

    pub fn sim_instructions(&self) -> u64 {
        self.units().iter().map(|u| u.instructions).sum()
    }

    /// The end-to-end metrics in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<f64> {
        let host_s = self.host_s();
        vec![
            stats::median(&self.setup_samples_s),
            host_s,
            self.sim_instructions() as f64 / host_s / 1e6,
            self.peak_rss_mb,
            self.sim_cycles() as f64,
        ]
    }
}

/// Checks one workload's reps: every unit verified, identical between
/// reps, and equal to its pin where pins apply.
pub fn check(reps: &[Vec<Unit>], pins: Option<&BTreeMap<String, Pin>>) -> BTreeMap<String, String> {
    let mut failures = BTreeMap::new();
    let first = &reps[0];
    for (u, unit) in first.iter().enumerate() {
        let mut fail = |why: String| {
            failures.entry(unit.label.clone()).or_insert(why);
        };
        for (r, rep) in reps.iter().enumerate() {
            match rep.get(u) {
                Some(other) if other.label == unit.label => {
                    if !other.verified {
                        fail(format!("rep {r}: output check failed"));
                    }
                    if (other.cycles, other.checksum) != (unit.cycles, unit.checksum) {
                        fail(format!(
                            "rep {r}: {} cycles, rep 0: {} (simulation is not deterministic)",
                            other.cycles, unit.cycles
                        ));
                    }
                }
                _ => fail(format!("rep {r}: unit list differs")),
            }
        }
        if let Some(pins) = pins {
            match pins.get(&unit.label) {
                Some(pin) if pin.cycles != unit.cycles => fail(format!(
                    "{} simulated cycles, pinned {}",
                    unit.cycles, pin.cycles
                )),
                Some(pin) if pin.checksum != unit.checksum => fail(format!(
                    "output digest {:#x}, pinned {:#x}",
                    unit.checksum, pin.checksum
                )),
                Some(_) => {}
                None => fail("no pin in expected.json".to_string()),
            }
        }
    }
    if let Some(pins) = pins {
        for label in pins.keys() {
            if !first.iter().any(|u| &u.label == label) {
                failures.insert(label.clone(), "pinned unit did not run".to_string());
            }
        }
    }
    failures
}

/// Runs `workload` untraced: set-up (repeated, timed), then `reps`
/// whole passes over the unit list, then the checks. With a `budget_s`,
/// reps beyond [`units::MIN_REPS`] start only while the run has
/// measured for less than that. `bless` skips the pin comparison (the
/// caller is about to rewrite the pins).
pub fn measure(
    workload: &str,
    scale: Scale,
    seed: u64,
    reps: usize,
    budget_s: Option<f64>,
    bless: bool,
) -> Result<Measurement, String> {
    // The first bless has no pins to read yet; it times the parse of an
    // empty document.
    let expected = match read_expected() {
        Ok(text) => text,
        Err(_) if bless => Pins::default().to_json().to_line(),
        Err(why) => return Err(why),
    };
    // Pinned first, so that the sampler inherits the CPU.
    let sampler = if contention::pin_to_current_cpu() {
        Some(Sampler::start())
    } else {
        eprintln!("cannot pin to a CPU: host times are not corrected for contention");
        None
    };
    // Start and duration of every set-up.
    let mut setups: Vec<(f64, f64)> = Vec::with_capacity(SETUP_REPEATS * (reps + 1));
    let mut pins = Pins::default();
    let mut timed_set_up = || -> Result<(), String> {
        for _ in 0..SETUP_REPEATS {
            let start_s = contention::now_s();
            let start = Instant::now();
            let parsed = set_up(&expected, workload, scale, seed);
            setups.push((start_s, start.elapsed().as_secs_f64()));
            pins = parsed?;
        }
        Ok(())
    };
    let mut unit_reps = Vec::with_capacity(reps);
    let measuring_since_s = contention::now_s();
    for rep in 0..reps {
        let over_budget =
            budget_s.is_some_and(|budget_s| contention::now_s() - measuring_since_s > budget_s);
        if rep >= units::MIN_REPS && over_budget {
            break;
        }
        timed_set_up()?;
        unit_reps.push(units::run_rep(workload, scale, seed));
    }
    timed_set_up()?;
    let mut reps = unit_reps;
    let timeline = sampler.map(Sampler::finish);
    let sensitivity = units::sensitivity(workload);
    let over = |start_s: f64, end_s: f64| {
        timeline
            .as_ref()
            .map_or(Contention::NONE, |t| t.over(start_s, end_s))
    };
    for unit in reps.iter_mut().flatten() {
        let contention = over(unit.span_s.0, unit.span_s.1);
        unit.slowdown = contention.slowdown;
        unit.host_s = contention.quiet_seconds(unit.wall_s, sensitivity);
    }
    let setup_samples_s = setups
        .iter()
        .map(|&(start_s, wall_s)| {
            over(start_s, start_s + wall_s).quiet_seconds(wall_s, sensitivity)
        })
        .collect();
    let pins_checked = !bless && pins_apply(workload, scale, seed, pins.seed);
    let empty = BTreeMap::new();
    let workload_pins = pins_checked.then(|| pins.workloads.get(workload).unwrap_or(&empty));
    let failures = check(&reps, workload_pins);
    Ok(Measurement {
        workload: workload.to_string(),
        reps,
        setup_samples_s,
        timeline,
        peak_rss_mb: peak_rss_mb(),
        failures,
        pins_checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::UnitKind;

    fn unit(label: &str, cycles: u64, verified: bool) -> Unit {
        Unit {
            label: label.to_string(),
            kind: UnitKind::Live,
            wall_s: 1.0,
            span_s: (0.0, 1.0),
            slowdown: 1.0,
            host_s: 1.0,
            cycles,
            checksum: cycles ^ 0xabc,
            instructions: 10,
            verified,
        }
    }

    #[test]
    fn check_flags_each_kind_of_failure() {
        let good = vec![unit("a", 5, true), unit("b", 6, true)];
        assert!(check(&[good.clone(), good.clone()], None).is_empty());

        let unverified = vec![unit("a", 5, false), unit("b", 6, true)];
        let failures = check(&[good.clone(), unverified], None);
        assert_eq!(failures.keys().collect::<Vec<_>>(), ["a"]);

        let drifted = vec![unit("a", 5, true), unit("b", 7, true)];
        let failures = check(&[good.clone(), drifted], None);
        assert!(failures["b"].contains("not deterministic"));

        let mut pins: BTreeMap<String, Pin> = [("a", 5u64), ("b", 9), ("c", 1)]
            .into_iter()
            .map(|(label, cycles)| {
                (
                    label.to_string(),
                    Pin {
                        cycles,
                        checksum: cycles ^ 0xabc,
                    },
                )
            })
            .collect();
        let failures = check(std::slice::from_ref(&good), Some(&pins));
        assert!(failures["b"].contains("pinned 9"));
        assert!(failures["c"].contains("did not run"));
        assert!(!failures.contains_key("a"));

        pins.remove("c");
        pins.get_mut("b").unwrap().cycles = 6;
        pins.get_mut("b").unwrap().checksum = 0;
        let failures = check(&[good], Some(&pins));
        assert!(failures["b"].contains("digest"));
    }

    #[test]
    fn pins_round_trip_through_json() {
        let mut pins = Pins {
            seed: 1,
            workloads: BTreeMap::new(),
        };
        pins.workloads.insert(
            "kernel_churn".to_string(),
            [(
                "churn/seg00".to_string(),
                Pin {
                    cycles: 123_456_789_012,
                    checksum: u64::MAX - 5,
                },
            )]
            .into(),
        );
        let text = pins.to_json().to_pretty(3);
        assert_eq!(Pins::parse(&text).unwrap(), pins);
    }

    /// The sweep cells this benchmark pins are cells `repro fig3` runs:
    /// their simulated cycles must be the ones the last full paper-scale
    /// run recorded in `BENCH_pr10.json`. `live_paper5`'s cells are the
    /// same simulations as that file's `fig3/<workload>/tlb64[+mtlb]`.
    #[test]
    fn fig3_pins_equal_the_checked_in_paper_scale_run() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        let pins = Pins::parse(
            &std::fs::read_to_string(format!("{root}/{EXPECTED_PATH}")).expect("expected.json"),
        )
        .unwrap();
        let report = json::parse(
            &std::fs::read_to_string(format!("{root}/BENCH_pr10.json")).expect("BENCH_pr10.json"),
        )
        .unwrap();
        let recorded: BTreeMap<&str, u64> = report
            .get("jobs_detail")
            .and_then(Value::as_arr)
            .expect("jobs_detail")
            .iter()
            .filter_map(|job| {
                Some((
                    job.get("label")?.as_str()?,
                    job.get("sim_cycles")?.as_u64()?,
                ))
            })
            .collect();
        let sweep = &pins.workloads["sweep_fig3"];
        assert_eq!(sweep.len(), 13);
        for (label, pin) in sweep {
            assert_eq!(recorded.get(label.as_str()), Some(&pin.cycles), "{label}");
        }
        let live = &pins.workloads["live_paper5"];
        assert_eq!(live.len(), 10);
        for (label, pin) in live {
            let as_fig3 = label.replacen("live/", "fig3/", 1);
            assert_eq!(recorded.get(as_fig3.as_str()), Some(&pin.cycles), "{label}");
        }
        assert_eq!(pins.seed, units::DEFAULT_SEED);
        assert_eq!(pins.workloads["perop_fig5_fig6"].len(), 12);
        assert_eq!(pins.workloads["kernel_churn"].len(), 17);
    }

    #[test]
    fn pins_follow_scale_and_seed() {
        assert!(pins_apply("live_paper5", Scale::Paper, 99, 1));
        assert!(pins_apply("kernel_churn", Scale::Paper, 1, 1));
        assert!(!pins_apply("kernel_churn", Scale::Paper, 2, 1));
        assert!(!pins_apply("sweep_fig3", Scale::Test, 1, 1));
    }

    #[test]
    fn best_of_r_and_totals_come_from_unit_walls() {
        let mut slow = vec![unit("a", 5, true), unit("b", 6, true)];
        slow[0].wall_s = 4.0;
        slow[0].host_s = 3.0;
        let fast = vec![unit("a", 5, true), unit("b", 6, true)];
        let m = Measurement {
            workload: "w".to_string(),
            reps: vec![slow, fast],
            setup_samples_s: vec![0.3, 0.1, 0.2],
            timeline: None,
            peak_rss_mb: 10.0,
            failures: BTreeMap::new(),
            pins_checked: false,
        };
        assert_eq!(m.rep_totals_s(), [5.0, 2.0]);
        assert_eq!(m.host_s(), 2.0);
        assert_eq!(m.end_to_end(), [0.2, 2.0, 20.0 / 2.0 / 1e6, 10.0, 11.0]);
    }
}
