//! `radix` — the SPLASH-2 LSD radix sort (§3.1).
//!
//! All primary data structures (two key arrays for the double-buffered
//! permutation plus the histogram) are dynamically allocated up front;
//! the whole allocation is `remap()`ed **after allocation and before the
//! large structures are initialised**, exactly as the paper describes.
//! The permutation phase writes each key to a position determined by its
//! digit — scattered stores across megabytes, which is why the paper
//! finds radix has "particularly poor TLB locality".

use mtlb_sim::Machine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::access::AccessExt;
use crate::common::{fnv1a, Heap, FNV_SEED};
use crate::{Outcome, Scale, Workload};

/// The SPLASH-2 default radix (10 bits per pass).
const RADIX: u64 = 1024;

/// The radix-sort workload. See the module-level documentation for the modelled behaviour.
#[derive(Debug, Clone)]
pub struct Radix {
    keys: u64,
    max_key: u32,
    seed: u64,
}

impl Radix {
    /// Creates the workload (paper: 2²⁰ keys; two 10-bit passes cover
    /// the 2²⁰ key range).
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Radix {
                keys: 1 << 20,
                max_key: (1 << 20) - 1,
                seed: 0x7a_d1c5,
            },
            Scale::Test => Radix {
                keys: 1 << 12,
                max_key: (1 << 20) - 1,
                seed: 0x7a_d1c5,
            },
        }
    }

    fn passes(&self) -> u32 {
        let bits = 32 - self.max_key.leading_zeros();
        bits.div_ceil(RADIX.trailing_zeros())
    }
}

impl Workload for Radix {
    fn name(&self) -> &'static str {
        "radix"
    }

    fn run(&mut self, m: &mut Machine) -> Outcome {
        m.load_program(64 * 1024, true);
        // Allocate everything up front (as the benchmark does), then the
        // instrumented program remaps the whole dynamic space.
        let heap_start = m.sbrk(0);
        let a = Heap::malloc(m, self.keys * 4);
        let b = Heap::malloc(m, self.keys * 4);
        let hist = Heap::malloc(m, RADIX * 4);
        let heap_end = m.sbrk(0);
        m.remap(heap_start, heap_end.offset_from(heap_start));

        // Initialise keys *after* the remap (paper §3.1). A sequential
        // fill with a fixed instruction budget per key: ideal for the
        // machine's streaming store fast path.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let max_key = self.max_key;
        m.stream_write_u32(a, self.keys, 8, |_| rng.gen_range(0..=max_key));

        let (mut src, mut dst) = (a, b);
        for pass in 0..self.passes() {
            let shift = pass * RADIX.trailing_zeros();
            // Histogram (streamed clear).
            m.stream_write_u32(hist, RADIX, 1, |_| 0);
            for i in 0..self.keys {
                let k = m.read::<u32>(src + i * 4);
                let d = (k >> shift) as u64 & (RADIX - 1);
                let c = m.read::<u32>(hist + d * 4);
                m.write::<u32>(hist + d * 4, c + 1);
                m.execute(9);
            }
            // Exclusive prefix sum.
            let mut acc = 0u32;
            for r in 0..RADIX {
                let c = m.read::<u32>(hist + r * 4);
                m.write::<u32>(hist + r * 4, acc);
                acc += c;
                m.execute(3);
            }
            // Permute: the scattered-store phase.
            for i in 0..self.keys {
                let k = m.read::<u32>(src + i * 4);
                let d = (k >> shift) as u64 & (RADIX - 1);
                let pos = m.read::<u32>(hist + d * 4);
                m.write::<u32>(hist + d * 4, pos + 1);
                m.write::<u32>(dst + u64::from(pos) * 4, k);
                m.execute(12);
            }
            std::mem::swap(&mut src, &mut dst);
        }

        // Verify sortedness and checksum the result (streamed scan).
        let mut verified = true;
        let mut checksum = FNV_SEED;
        let mut prev = 0u32;
        m.stream_read_u32(src, self.keys, 6, |_, k| {
            verified &= k >= prev;
            prev = k;
            checksum = fnv1a(checksum, u64::from(k));
        });
        Outcome { checksum, verified }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_sim::MachineConfig;

    #[test]
    fn sorts_correctly() {
        let (out, _) = crate::run_on(Radix::new(Scale::Test), MachineConfig::paper_mtlb(64));
        assert!(out.verified, "output must be sorted");
    }

    #[test]
    fn paper_scale_footprint_matches() {
        let w = Radix::new(Scale::Paper);
        // 2 key arrays + histogram ≈ the paper's 8 437 760 bytes of
        // mapped space (ours is slightly tighter: 8 MB + 4 KB).
        let bytes = w.keys * 4 * 2 + RADIX * 4;
        assert!((8 << 20..9 << 20).contains(&bytes));
        assert_eq!(w.passes(), 2);
    }

    #[test]
    fn same_answer_on_both_machines() {
        let a = crate::run_on(Radix::new(Scale::Test), MachineConfig::paper_mtlb(64));
        let b = crate::run_on(Radix::new(Scale::Test), MachineConfig::paper_base(96));
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn remap_happens_before_initialisation() {
        let mut m = Machine::new(MachineConfig::paper_mtlb(64));
        let mut w = Radix::new(Scale::Test);
        w.run(&mut m);
        // The whole dynamic space was promoted: superpages exist and the
        // remap flushed almost nothing (tables were cold).
        assert!(m.kernel().stats().superpages_created > 0);
    }
}
