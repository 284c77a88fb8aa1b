//! `synth_*` — parameterised synthetic address-stream workloads.
//!
//! The paper's five benchmarks fix five specific locality profiles;
//! the synthetic family spans the space between them with three
//! deterministic generators over one heap-allocated, superpage-remapped
//! array:
//!
//! * [`Pattern::Seq`] (`synth_seq`) — a sequential read/write sweep,
//!   the superpage- and cache-friendliest possible stream (an upper
//!   bound on what fast-forwarding and a large-reach TLB can deliver);
//! * [`Pattern::Stride`] (`synth_stride`) — a page-crossing strided
//!   walk (stride = one page + one line), the classic TLB-thrash
//!   pattern Figure 3's `radix` approximates;
//! * [`Pattern::Rand`] (`synth_rand`) — uniformly random word
//!   touches, the no-locality floor the paper's §1 cites for large
//!   commercial workloads.
//!
//! Beyond coverage, the family exists as the canonical record/replay
//! fixture: each generator is seeded and value-independent, so a
//! recorded `mtlb-trace` of one run replays against any machine
//! configuration — exactly the one-pass-sweep property the trace
//! format guarantees.

use mtlb_sim::Machine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::access::AccessExt;
use crate::common::{fnv1a, Heap, FNV_SEED};
use crate::{Outcome, Scale, Workload};

/// Which address-stream generator a [`SyntheticTrace`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Sequential word sweep (best-case locality).
    Seq,
    /// Page-plus-a-line strided walk (TLB-thrash).
    Stride,
    /// Uniformly random word touches (no locality).
    Rand,
}

impl Pattern {
    /// The workload name this pattern registers under.
    #[must_use]
    pub fn workload_name(self) -> &'static str {
        match self {
            Pattern::Seq => "synth_seq",
            Pattern::Stride => "synth_stride",
            Pattern::Rand => "synth_rand",
        }
    }
}

/// A synthetic address-stream workload. See the module docs for the
/// three patterns.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticTrace {
    pattern: Pattern,
    /// Array footprint in bytes.
    footprint: u64,
    /// Total word touches across all passes.
    touches: u64,
    seed: u64,
}

impl SyntheticTrace {
    /// Creates the workload. Paper scale walks a 16 MB array — four
    /// times the 4 MB maximum TLB reach of the paper's 128-entry
    /// base-page TLB — with several million touches; test scale keeps
    /// the same shape over 256 KB.
    #[must_use]
    pub fn new(pattern: Pattern, scale: Scale) -> Self {
        let (footprint, touches) = match scale {
            Scale::Paper => (16 * 1024 * 1024, 4_000_000),
            Scale::Test => (256 * 1024, 40_000),
        };
        SyntheticTrace {
            pattern,
            footprint,
            touches,
            seed: 0x5e_ed ^ pattern.workload_name().len() as u64,
        }
    }

    /// Constructs the pattern a registered name refers to, if `name`
    /// is one of the `synth_*` names.
    #[must_use]
    pub fn by_name(name: &str, scale: Scale) -> Option<SyntheticTrace> {
        for pattern in [Pattern::Seq, Pattern::Stride, Pattern::Rand] {
            if pattern.workload_name() == name {
                return Some(SyntheticTrace::new(pattern, scale));
            }
        }
        None
    }

    /// Array footprint in bytes.
    #[must_use]
    pub fn footprint(&self) -> u64 {
        self.footprint
    }
}

impl Workload for SyntheticTrace {
    fn name(&self) -> &'static str {
        self.pattern.workload_name()
    }

    fn run(&mut self, m: &mut Machine) -> Outcome {
        m.load_program(16 * 1024, true);
        let words = self.footprint / 4;
        let base = Heap::malloc(m, self.footprint);
        // Initialise sequentially (streamed, value = index hash) and
        // promote the whole array to shadow superpages, vortex-style.
        m.stream_write_u32(base, words, 2, |j| (j as u32).wrapping_mul(0x9e37_79b9));
        m.remap(base, self.footprint);

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut checksum = FNV_SEED;
        let mut verified = true;
        let mut touched = 0u64;
        while touched < self.touches {
            let batch = (self.touches - touched).min(words);
            for j in 0..batch {
                let index = match self.pattern {
                    Pattern::Seq => (touched + j) % words,
                    // One page plus one line, in words: co-prime with
                    // any power-of-two array, so the walk visits every
                    // word before repeating.
                    Pattern::Stride => ((touched + j).wrapping_mul(1024 + 8)) % words,
                    Pattern::Rand => rng.gen_range(0..words),
                };
                let va = base + index * 4;
                let v = m.read_u32(va);
                // Every 16th touch is a read-modify-write.
                if index % 16 == 0 {
                    m.write_u32(va, v.wrapping_add(1));
                }
                m.execute(2);
                checksum = fnv1a(checksum, u64::from(v) ^ index);
            }
            touched += batch;
        }
        // The array still holds a derivable function of the indices
        // (initial hash plus per-slot increment count), so spot-check a
        // deterministic sample of slots that were never incremented.
        for probe in [1u64, 3, 5, 7, 9].map(|p| (p * (words / 11)) | 1) {
            let expect = (probe as u32).wrapping_mul(0x9e37_79b9);
            verified &= m.read_u32(base + probe * 4) == expect;
        }
        Outcome { checksum, verified }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_sim::MachineConfig;

    #[test]
    fn all_patterns_run_verified_and_deterministic() {
        for pattern in [Pattern::Seq, Pattern::Stride, Pattern::Rand] {
            let run = |_| {
                let mut m = Machine::new(MachineConfig::paper_mtlb(64));
                let outcome = SyntheticTrace::new(pattern, Scale::Test).run(&mut m);
                (outcome, m.report().to_json())
            };
            let (a, ja) = run(());
            let (b, jb) = run(());
            assert!(a.verified, "{pattern:?} failed verification");
            assert_eq!(a, b, "{pattern:?} outcome not deterministic");
            assert_eq!(ja, jb, "{pattern:?} cycles not deterministic");
        }
    }

    #[test]
    fn by_name_round_trips_registered_names() {
        for pattern in [Pattern::Seq, Pattern::Stride, Pattern::Rand] {
            let w = SyntheticTrace::by_name(pattern.workload_name(), Scale::Test)
                .expect("registered name");
            assert_eq!(w.name(), pattern.workload_name());
        }
        assert!(SyntheticTrace::by_name("em3d", Scale::Test).is_none());
    }

    #[test]
    fn patterns_produce_distinct_streams() {
        let report = |pattern| {
            let mut m = Machine::new(MachineConfig::paper_mtlb(64));
            SyntheticTrace::new(pattern, Scale::Test).run(&mut m);
            m.report().total_cycles
        };
        let seq = report(Pattern::Seq);
        let stride = report(Pattern::Stride);
        // The strided walk must cost strictly more than the sequential
        // sweep — otherwise the patterns are not doing their job.
        assert!(stride > seq, "stride {stride:?} !> seq {seq:?}");
    }
}
