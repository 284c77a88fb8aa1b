//! Host time corrected for what the neighbours on this core are doing.
//!
//! The container's two CPUs are hyperthreads of a shared host. Whenever
//! another guest runs on the sibling thread of the core this process is
//! on, throughput-bound code (the simulator) runs 1.3–2× slower, for
//! seconds to minutes at a time, while nothing inside the container
//! shows it: the other CPU is idle, `steal` stays near zero. Best-of-R
//! cannot remove a slow stretch that covers a whole run, so raw wall
//! times of identical code spread by 30 % and more between runs.
//!
//! What does show it is a fixed piece of register-only arithmetic with
//! eight independent multiply chains: it takes 26 µs alone and 52 µs
//! with a busy sibling, and nothing else moves it (no memory, no
//! branches, no system calls). A sampler thread pinned to the same CPU
//! as the benchmark wakes every 4 ms, preempts it, and times that probe
//! three times, keeping the fastest (the first pass pays for cold
//! instruction caches). The probe's *slowdown* — its time over its
//! quiet time, the fastest sample of the run — averaged
//! over a unit's interval says how contended the core was while the
//! unit ran, and
//!
//! ```text
//! host seconds = (wall − sampler time) / (1 + sensitivity × (slowdown − 1))
//! ```
//!
//! is the time the unit would have taken on a quiet core. On a quiet
//! core the slowdown is 1 and the formula returns the wall time less
//! the sampler's own share. `sensitivity` is how much of the probe's
//! slowdown the workload suffers (a property of its instruction mix,
//! measured once per workload, see `units::sensitivity`).
//!
//! One busy thread at a time: the sampler runs on the benchmark's own
//! CPU for 2 % of the time and sleeps for the rest.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The sampler sleeps this long between probes.
const PERIOD: Duration = Duration::from_millis(4);
/// Iterations of the probe's inner loop; 26 µs on the reference host.
const PROBE_ITERATIONS: usize = 8_000;
/// Timed passes per sample; the fastest counts.
const PASSES: usize = 3;
/// A sample cut short by the host's scheduler can read any length; no
/// sibling slows the probe by more than 2×.
const MAX_SLOWDOWN: f64 = 3.0;

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Seconds since the first call in this process: the one clock unit
/// intervals and probe samples are both read from.
pub fn now_s() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Pins the calling thread, and every thread it spawns afterwards, to
/// the CPU it is running on, so that the sampler probes the core the
/// benchmark runs on. Returns whether that worked.
pub fn pin_to_current_cpu() -> bool {
    // SAFETY: `sched_getcpu` takes nothing; `sched_setaffinity` reads
    // the eight bytes of `mask`, which outlives the call.
    unsafe {
        let cpu = sched_getcpu();
        if !(0..64).contains(&cpu) {
            return false;
        }
        let mask: u64 = 1 << cpu;
        sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0
    }
}

/// Eight independent multiply-xorshift chains held in registers: as
/// throughput-bound as code gets, so a busy sibling hyperthread halves
/// its speed, and blind to everything else.
#[inline(never)]
fn probe(state: &mut [u64; 8]) -> u64 {
    let mut lanes = *state;
    for i in 0..PROBE_ITERATIONS {
        for lane in &mut lanes {
            *lane = lane
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407 ^ (i as u64));
            *lane ^= *lane >> 29;
        }
    }
    *state = lanes;
    lanes.iter().fold(0, |acc, lane| acc ^ lane)
}

/// One wake-up of the sampler.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// When the sampler woke.
    pub at_s: f64,
    /// The fastest of its probe passes.
    pub probe_s: f64,
    /// How long it kept the CPU from the benchmark.
    pub busy_s: f64,
}

/// The thread that probes the core while the benchmark runs.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<Sample>>,
}

impl Sampler {
    /// Starts sampling. Call [`pin_to_current_cpu`] first.
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        now_s();
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            let mut state = [1u64, 2, 3, 4, 5, 6, 7, 8];
            let mut sink = 0;
            while !stopped.load(Ordering::Relaxed) {
                std::thread::sleep(PERIOD);
                let at_s = now_s();
                let mut probe_s = f64::INFINITY;
                for _ in 0..PASSES {
                    let start = Instant::now();
                    sink ^= probe(&mut state);
                    probe_s = probe_s.min(start.elapsed().as_secs_f64());
                }
                samples.push(Sample {
                    at_s,
                    probe_s,
                    busy_s: now_s() - at_s,
                });
            }
            std::hint::black_box(sink);
            samples
        });
        Sampler { stop, handle }
    }

    /// Stops the sampler, waits for it, and returns what it saw.
    pub fn finish(self) -> Timeline {
        self.stop.store(true, Ordering::Relaxed);
        Timeline::new(self.handle.join().expect("the sampler does not panic"))
    }
}

/// How contended an interval was.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Contention {
    /// Mean probe slowdown over the interval; 1 on a quiet core.
    pub slowdown: f64,
    /// Seconds of the interval the sampler itself held the CPU.
    pub sampler_s: f64,
}

impl Contention {
    /// What an unpinned or unsampled run assumes.
    pub const NONE: Contention = Contention {
        slowdown: 1.0,
        sampler_s: 0.0,
    };

    /// The quiet-core equivalent of `wall_s` seconds spent under this
    /// contention by code that suffers `sensitivity` of the probe's
    /// slowdown.
    pub fn quiet_seconds(&self, wall_s: f64, sensitivity: f64) -> f64 {
        (wall_s - self.sampler_s).max(0.0) / (1.0 + sensitivity * (self.slowdown - 1.0))
    }
}

/// A run's probe samples in time order.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    samples: Vec<Sample>,
    /// The probe's time on a quiet core: the fastest sample of the run.
    /// Nothing makes the probe faster than the core allows, and a run
    /// spent almost wholly beside a busy sibling has few quiet moments
    /// to find, so no percentile is taken.
    pub quiet_probe_s: f64,
}

impl Timeline {
    pub fn new(samples: Vec<Sample>) -> Timeline {
        let quiet_probe_s = samples
            .iter()
            .map(|s| s.probe_s)
            .min_by(f64::total_cmp)
            .unwrap_or(0.0);
        Timeline {
            samples,
            quiet_probe_s,
        }
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Mean slowdown over all samples.
    pub fn mean_slowdown(&self) -> f64 {
        self.over(f64::NEG_INFINITY, f64::INFINITY).slowdown
    }

    fn slowdown_of(&self, sample: &Sample) -> f64 {
        (sample.probe_s / self.quiet_probe_s).clamp(1.0, MAX_SLOWDOWN)
    }

    /// The contention over `[start_s, end_s]`: the mean over the samples
    /// taken inside, or the sample nearest to the interval when it is
    /// shorter than the sampling period.
    pub fn over(&self, start_s: f64, end_s: f64) -> Contention {
        if self.samples.is_empty() || self.quiet_probe_s <= 0.0 {
            return Contention::NONE;
        }
        let first = self.samples.partition_point(|s| s.at_s < start_s);
        let end = self.samples.partition_point(|s| s.at_s <= end_s);
        let inside = &self.samples[first..end];
        if inside.is_empty() {
            let mid = (start_s + end_s) / 2.0;
            let nearest = self.samples
                [first.saturating_sub(1)..(first + 1).min(self.samples.len())]
                .iter()
                .min_by(|a, b| (a.at_s - mid).abs().total_cmp(&(b.at_s - mid).abs()))
                .expect("the timeline is not empty");
            return Contention {
                slowdown: self.slowdown_of(nearest),
                sampler_s: 0.0,
            };
        }
        Contention {
            slowdown: inside.iter().map(|s| self.slowdown_of(s)).sum::<f64>() / inside.len() as f64,
            sampler_s: inside.iter().map(|s| s.busy_s).sum(),
        }
    }
}

/// Intervals for units that ran back to back inside one call that
/// reports only their durations: the units laid end to end and
/// stretched to fill `[call_start_s, call_end_s]`, so the time the call
/// spent between units is spread over them.
pub fn lay_end_to_end(call_start_s: f64, call_end_s: f64, walls_s: &[f64]) -> Vec<(f64, f64)> {
    let total: f64 = walls_s.iter().sum();
    let stretch = if total > 0.0 {
        (call_end_s - call_start_s) / total
    } else {
        0.0
    };
    let mut at = call_start_s;
    walls_s
        .iter()
        .map(|wall_s| {
            let start = at;
            at += wall_s * stretch;
            (start, at)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(points: &[(f64, f64)]) -> Timeline {
        Timeline::new(
            points
                .iter()
                .map(|&(at_s, probe_s)| Sample {
                    at_s,
                    probe_s,
                    busy_s: 0.001,
                })
                .collect(),
        )
    }

    #[test]
    fn a_quiet_core_leaves_wall_time_alone() {
        let quiet: Vec<(f64, f64)> = (0..100).map(|i| (f64::from(i) * 0.01, 26e-6)).collect();
        let t = timeline(&quiet);
        assert_eq!(t.quiet_probe_s, 26e-6);
        let c = t.over(0.095, 0.305);
        // Samples at 0.10, 0.11, …, 0.30.
        assert_eq!(c.slowdown, 1.0);
        assert!((c.sampler_s - 0.021).abs() < 1e-12);
        assert!((c.quiet_seconds(0.21, 0.8) - (0.21 - 0.021)).abs() < 1e-12);
        assert_eq!(Contention::NONE.quiet_seconds(2.0, 0.8), 2.0);
    }

    #[test]
    fn a_busy_sibling_is_divided_out() {
        // First half quiet, second half with the probe at 2×.
        let points: Vec<(f64, f64)> = (0..100)
            .map(|i| (f64::from(i) * 0.01, if i < 50 { 26e-6 } else { 52e-6 }))
            .collect();
        let t = timeline(&points);
        assert_eq!(t.over(0.495, 0.995).slowdown, 2.0);
        assert_eq!(t.over(0.0, 0.495).slowdown, 1.0);
        assert!((t.mean_slowdown() - 1.5).abs() < 1e-12);
        let c = Contention {
            slowdown: 2.0,
            sampler_s: 0.0,
        };
        // Code as sensitive as the probe took twice its quiet time,
        // code half as sensitive one and a half times.
        assert_eq!(c.quiet_seconds(3.0, 1.0), 1.5);
        assert_eq!(c.quiet_seconds(3.0, 0.5), 2.0);
        assert_eq!(c.quiet_seconds(3.0, 0.0), 3.0);
    }

    #[test]
    fn short_intervals_borrow_the_nearest_sample() {
        let t = timeline(&[(0.0, 26e-6), (1.0, 26e-6), (2.0, 39e-6), (3.0, 26e-6)]);
        assert_eq!(t.over(1.8, 1.9).slowdown, 1.5);
        assert_eq!(t.over(1.1, 1.2).slowdown, 1.0);
        assert_eq!(t.over(2.05, 2.1).slowdown, 1.5);
        assert_eq!(t.over(-2.0, -1.0).slowdown, 1.0);
        assert_eq!(t.over(9.0, 9.5).slowdown, 1.0);
        assert_eq!(t.over(1.8, 1.9).sampler_s, 0.0);
        assert_eq!(Timeline::default().over(0.0, 1.0), Contention::NONE);
    }

    #[test]
    fn interrupted_samples_are_capped() {
        let mut points: Vec<(f64, f64)> = (0..60).map(|i| (f64::from(i), 26e-6)).collect();
        points[30].1 = 5e-3;
        let t = timeline(&points);
        assert_eq!(t.over(29.5, 30.5).slowdown, MAX_SLOWDOWN);
    }

    #[test]
    fn units_are_laid_end_to_end_over_the_call() {
        let spans = lay_end_to_end(10.0, 16.0, &[1.0, 0.0, 2.0]);
        assert_eq!(spans, [(10.0, 12.0), (12.0, 12.0), (12.0, 16.0)]);
        assert_eq!(lay_end_to_end(1.0, 2.0, &[]), Vec::new());
        assert_eq!(lay_end_to_end(1.0, 2.0, &[0.0]), [(1.0, 1.0)]);
    }

    #[test]
    fn the_sampler_samples_and_stops() {
        // Not pinned here: tests share the process.
        let sampler = Sampler::start();
        let start = now_s();
        while now_s() - start < 0.05 {
            std::hint::spin_loop();
        }
        let t = sampler.finish();
        assert!(t.len() >= 3, "{} samples in 50 ms", t.len());
        assert!(t.quiet_probe_s > 0.0);
        assert!(t.mean_slowdown() >= 1.0);
    }
}
