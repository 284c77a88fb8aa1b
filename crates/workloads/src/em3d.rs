//! `em3d` — electromagnetic wave propagation on a bipartite graph
//! (§3.1).
//!
//! The graph alternates between electric (E) and magnetic (H) nodes;
//! each time step updates every E value from a weighted sum of random H
//! neighbours and vice versa. As in the original (linked, heap-allocated)
//! benchmark, every node is a self-contained heap record holding its
//! value and adjacency, and E/H allocation is interleaved — so a
//! neighbour dereference lands on an essentially random page of a
//! multi-megabyte heap. That indirection gives em3d the worst cache
//! behaviour of the five benchmarks (the paper measures an 84 % hit
//! rate), which is why §3.5 uses it for the MTLB sensitivity study.
//!
//! Paper scale allocates ~4.5 MB (≈1120 pages), initialises it, and then
//! explicitly `remap()`s the initialised dynamic memory before the time
//! steps — reproducing the §3.3 remap-cost measurement.

use mtlb_sim::Machine;
use mtlb_types::VirtAddr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::access::AccessExt;
use crate::common::{fnv1a, Heap, FNV_SEED};
use crate::{Outcome, Scale, Workload};

/// Node record layout: value (f64), degree (u32, padded to 8), then
/// `degree` neighbour addresses (u32) followed by `degree` coefficients
/// (f64).
const NODE_VALUE: u64 = 0;
const NODE_HDR_BYTES: u64 = 16;

/// The em3d workload. See the module-level documentation for the modelled behaviour.
#[derive(Debug, Clone)]
pub struct Em3d {
    nodes_per_side: u64,
    degree: u64,
    iterations: u32,
    seed: u64,
}

impl Em3d {
    /// Creates the workload (paper: 6000 nodes and ~4.5 MB / ~1120 pages
    /// of dynamic data; 3000 nodes per side at degree 61 lands there).
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Em3d {
                nodes_per_side: 3000,
                degree: 61,
                iterations: 12,
                seed: 0xe3d,
            },
            Scale::Test => Em3d {
                nodes_per_side: 200,
                degree: 8,
                iterations: 3,
                seed: 0xe3d,
            },
        }
    }

    /// Bytes of one node record (the neighbour array is padded to an
    /// 8-byte boundary so the coefficients stay naturally aligned).
    fn node_bytes(&self) -> u64 {
        NODE_HDR_BYTES + self.neighbors_bytes() + self.degree * 8
    }

    fn neighbors_bytes(&self) -> u64 {
        (self.degree * 4).div_ceil(8) * 8
    }

    /// Bytes of dynamic memory the run allocates (records + the two
    /// node-pointer tables).
    #[must_use]
    pub fn footprint(&self) -> u64 {
        2 * self.nodes_per_side * (self.node_bytes() + 4)
    }

    fn neighbors_base(&self, node: VirtAddr) -> VirtAddr {
        node + NODE_HDR_BYTES
    }

    fn coeffs_base(&self, node: VirtAddr) -> VirtAddr {
        node + NODE_HDR_BYTES + self.neighbors_bytes()
    }
}

impl Workload for Em3d {
    fn name(&self) -> &'static str {
        "em3d"
    }

    fn run(&mut self, m: &mut Machine) -> Outcome {
        m.load_program(48 * 1024, true);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = self.nodes_per_side;

        let heap_start = m.sbrk(0);
        // Node-pointer tables (the traversal lists of the linked
        // original).
        let e_table = Heap::malloc(m, n * 4);
        let h_table = Heap::malloc(m, n * 4);
        // Interleaved allocation of E and H records: records of either
        // side end up spread across the heap.
        let mut e_nodes = Vec::with_capacity(n as usize);
        let mut h_nodes = Vec::with_capacity(n as usize);
        for i in 0..n {
            let e = Heap::malloc(m, self.node_bytes());
            let h = Heap::malloc(m, self.node_bytes());
            m.write::<u32>(e_table + i * 4, e.get() as u32);
            m.write::<u32>(h_table + i * 4, h.get() as u32);
            e_nodes.push(e);
            h_nodes.push(h);
            m.execute(6);
        }
        // Initialise values and adjacency. As in the Berkeley em3d
        // generator, most neighbours are "local" (nearby in allocation
        // order) and a fraction are uniformly random remote nodes; the
        // remote dereferences are the locality killer.
        let remote_fraction = 0.2;
        let local_window = 64i64;
        for i in 0..n {
            for (side, other) in [
                (e_nodes[i as usize], &h_nodes),
                (h_nodes[i as usize], &e_nodes),
            ] {
                m.write::<f64>(side + NODE_VALUE, rng.gen_range(-1.0..1.0));
                m.write::<u32>(side + 8, self.degree as u32);
                m.execute(3);
                // The neighbour (u32) and coefficient (f64) arrays fill
                // in lock-step: a two-lane mixed-width streamed store.
                m.stream_write_u32_f64(
                    self.neighbors_base(side),
                    self.coeffs_base(side),
                    self.degree,
                    4,
                    |_| {
                        let pick: f64 = rng.gen();
                        let idx = if pick < remote_fraction {
                            rng.gen_range(0..n)
                        } else {
                            let delta = rng.gen_range(-local_window..=local_window);
                            (i as i64 + delta).rem_euclid(n as i64) as u64
                        };
                        let nbr = other[idx as usize];
                        (nbr.get() as u32, rng.gen_range(0.0..0.1))
                    },
                );
            }
        }
        let heap_end = m.sbrk(0);

        // Remap the initialised dynamic memory before the time-step
        // iterations (the paper's em3d remaps 1120 initialised pages,
        // §3.3, making its remap flush phase the expensive part).
        m.remap(heap_start, heap_end.offset_from(heap_start));

        for _ in 0..self.iterations {
            for table in [e_table, h_table] {
                for i in 0..n {
                    let node = VirtAddr::new(u64::from(m.read::<u32>(table + i * 4)));
                    let mut v = m.read::<f64>(node + NODE_VALUE);
                    m.execute(4);
                    for j in 0..self.degree {
                        let nbr = u64::from(m.read::<u32>(self.neighbors_base(node) + j * 4));
                        let coeff = m.read::<f64>(self.coeffs_base(node) + j * 8);
                        let other = m.read::<f64>(VirtAddr::new(nbr) + NODE_VALUE);
                        v -= coeff * other;
                        m.execute(7); // pointer/index arithmetic + FP multiply-subtract
                    }
                    m.write::<f64>(node + NODE_VALUE, v);
                    m.execute(2);
                }
            }
        }

        // Checksum the field values; verify they stayed finite (the
        // coefficients are small, so divergence indicates a bug).
        let mut checksum = FNV_SEED;
        let mut verified = true;
        for i in 0..n {
            let e = m.read::<f64>(e_nodes[i as usize] + NODE_VALUE);
            let h = m.read::<f64>(h_nodes[i as usize] + NODE_VALUE);
            verified &= e.is_finite() && h.is_finite();
            checksum = fnv1a(checksum, e.to_bits());
            checksum = fnv1a(checksum, h.to_bits());
            m.execute(4);
        }
        Outcome { checksum, verified }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_sim::MachineConfig;

    #[test]
    fn runs_and_stays_finite() {
        let (out, report) = crate::run_on(Em3d::new(Scale::Test), MachineConfig::paper_mtlb(64));
        assert!(out.verified);
        assert!(report.loads > 0 && report.stores > 0);
    }

    #[test]
    fn paper_footprint_is_about_1120_pages() {
        let w = Em3d::new(Scale::Paper);
        let pages = w.footprint() / 4096;
        assert!(
            (1050..1200).contains(&pages),
            "paper em3d remaps ~1120 pages, got {pages}"
        );
    }

    #[test]
    fn same_answer_on_both_machines() {
        let a = crate::run_on(Em3d::new(Scale::Test), MachineConfig::paper_mtlb(64));
        let b = crate::run_on(Em3d::new(Scale::Test), MachineConfig::paper_base(128));
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn remap_flushes_initialised_pages() {
        let mut m = Machine::new(MachineConfig::paper_mtlb(128));
        Em3d::new(Scale::Test).run(&mut m);
        let k = m.kernel().stats();
        assert!(k.pages_remapped > 0);
    }
}
