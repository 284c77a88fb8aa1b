//! `oltp` — a synthetic transaction-processing workload beyond the
//! paper's five benchmarks.
//!
//! The paper closes its introduction predicting the mechanism "is likely
//! to be even more effective on applications with significantly larger
//! working sets and worse spatial locality, such as is often found in
//! large databases and other commercially important applications" (§1,
//! citing Perl & Sites' Windows NT studies). This workload tests that
//! prediction: a B+-tree index over tens of megabytes of records, probed
//! by Zipf-skewed lookup/update/insert transactions — several times the
//! footprint of any of the five SPEC/SPLASH programs.
//!
//! Everything is heap-allocated through the modified `sbrk()`, so
//! superpage creation follows the vortex pattern.

use mtlb_sim::Machine;
use mtlb_types::VirtAddr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::access::AccessExt;
use crate::common::{fnv1a, Heap, FNV_SEED};
use crate::{Outcome, Scale, Workload};

/// B+-tree order: keys per node.
const ORDER: usize = 28;

/// Node layout: kind (0 = internal, 1 = leaf) u32, count u32, then
/// ORDER keys (u32) and ORDER+1 children/record pointers (u32).
const NODE_KIND: u64 = 0;
const NODE_COUNT: u64 = 4;
const NODE_KEYS: u64 = 8;
const NODE_PTRS: u64 = NODE_KEYS + (ORDER as u64) * 4;
const NODE_BYTES: u64 = NODE_PTRS + (ORDER as u64 + 1) * 4;

/// Record layout: key u32, generation u32, payload words.
const REC_KEY: u64 = 0;
const REC_GEN: u64 = 4;
const REC_BYTES: u64 = 8 + 240; // 248-byte records

/// The OLTP workload. See the module-level documentation for the modelled behaviour.
#[derive(Debug, Clone)]
pub struct Oltp {
    records: u64,
    transactions: u64,
    seed: u64,
}

impl Oltp {
    /// Creates the workload. Paper scale builds a ~25 MB database
    /// (records + index), far beyond the five benchmarks' footprints.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Oltp {
                records: 100_000,
                transactions: 600_000,
                seed: 0x01_7b,
            },
            Scale::Test => Oltp {
                records: 2_000,
                transactions: 1_500,
                seed: 0x01_7b,
            },
        }
    }

    /// Approximate database bytes (records plus index).
    #[must_use]
    pub fn footprint(&self) -> u64 {
        let leaves = self.records.div_ceil(ORDER as u64);
        self.records * REC_BYTES + (leaves + leaves / ORDER as u64 + 2) * NODE_BYTES
    }
}

/// Simulated-memory B+-tree operations.
struct Tree {
    root: VirtAddr,
}

impl Tree {
    fn new_node(m: &mut Machine, kind: u32) -> VirtAddr {
        let n = Heap::malloc(m, NODE_BYTES);
        m.write::<u32>(n + NODE_KIND, kind);
        m.write::<u32>(n + NODE_COUNT, 0);
        m.execute(6);
        n
    }

    fn key_at(m: &mut Machine, node: VirtAddr, i: u64) -> u32 {
        m.read::<u32>(node + NODE_KEYS + i * 4)
    }

    fn ptr_at(m: &mut Machine, node: VirtAddr, i: u64) -> u32 {
        m.read::<u32>(node + NODE_PTRS + i * 4)
    }

    /// Bulk-loads a tree over `records` sequential keys; `record_of`
    /// yields the record address for a key.
    fn bulk_load(m: &mut Machine, keys: &[u32], recs: &[VirtAddr]) -> Tree {
        // Build the leaf level.
        let mut level: Vec<(u32, VirtAddr)> = Vec::new(); // (first key, node)
        let mut i = 0usize;
        while i < keys.len() {
            let leaf = Self::new_node(m, 1);
            let count = ORDER.min(keys.len() - i);
            // Key and pointer arrays fill in lock-step: a two-lane
            // streamed store.
            m.stream_write_u32_pair(leaf + NODE_KEYS, leaf + NODE_PTRS, count as u64, 3, |j| {
                (keys[i + j as usize], recs[i + j as usize].get() as u32)
            });
            m.write::<u32>(leaf + NODE_COUNT, count as u32);
            level.push((keys[i], leaf));
            i += count;
        }
        // Build internal levels until one root remains.
        while level.len() > 1 {
            let mut next: Vec<(u32, VirtAddr)> = Vec::new();
            let mut i = 0usize;
            while i < level.len() {
                let node = Self::new_node(m, 0);
                let count = (ORDER + 1).min(level.len() - i);
                // Child 0 has no separator key; the rest fill the key and
                // pointer arrays in lock-step, so stream the tail as a
                // two-lane store offset by one child.
                m.write::<u32>(node + NODE_PTRS, level[i].1.get() as u32);
                m.execute(3);
                m.stream_write_u32_pair(
                    node + NODE_KEYS,
                    node + NODE_PTRS + 4,
                    count as u64 - 1,
                    3,
                    |j| {
                        let (first_key, child) = level[i + 1 + j as usize];
                        (first_key, child.get() as u32)
                    },
                );
                m.write::<u32>(node + NODE_COUNT, count as u32 - 1);
                next.push((level[i].0, node));
                i += count;
            }
            level = next;
        }
        Tree { root: level[0].1 }
    }

    /// Descends to the record for `key`, if present.
    fn lookup(&self, m: &mut Machine, key: u32) -> Option<VirtAddr> {
        let mut node = self.root;
        loop {
            let kind = m.read::<u32>(node + NODE_KIND);
            let count = u64::from(m.read::<u32>(node + NODE_COUNT));
            m.execute(6);
            if kind == 0 {
                // Internal: binary-search-ish scan for the child.
                let mut child = 0u64;
                for i in 0..count {
                    if key >= Self::key_at(m, node, i) {
                        child = i + 1;
                    } else {
                        break;
                    }
                    m.execute(3);
                }
                node = VirtAddr::new(u64::from(Self::ptr_at(m, node, child)));
            } else {
                for i in 0..count {
                    if Self::key_at(m, node, i) == key {
                        m.execute(3);
                        return Some(VirtAddr::new(u64::from(Self::ptr_at(m, node, i))));
                    }
                    m.execute(3);
                }
                return None;
            }
        }
    }
}

impl Workload for Oltp {
    fn name(&self) -> &'static str {
        "oltp"
    }

    fn run(&mut self, m: &mut Machine) -> Outcome {
        m.load_program(256 * 1024, true);
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Build the record heap (keys are even numbers so inserts can
        // use odd ones).
        let keys: Vec<u32> = (0..self.records as u32).map(|i| i * 2).collect();
        let mut recs = Vec::with_capacity(keys.len());
        for &k in &keys {
            let r = Heap::malloc(m, REC_BYTES);
            m.write::<u32>(r + REC_KEY, k);
            m.write::<u32>(r + REC_GEN, 0);
            // Touch a few payload words as initialisation.
            for w in 0..4u64 {
                m.write::<u32>(r + 8 + w * 60, k.wrapping_add(w as u32));
            }
            m.execute(8);
            recs.push(r);
        }
        let tree = Tree::bulk_load(m, &keys, &recs);

        // Transactions: 70 % lookups, 25 % updates, 5 % "inserts"
        // (append-only records reachable via a side log, as real OLTP
        // systems defer index maintenance to batch jobs).
        let log = Heap::malloc(m, self.transactions.div_ceil(8) * 8 * 4);
        let mut log_len = 0u64;
        let mut checksum = FNV_SEED;
        let mut verified = true;
        for _ in 0..self.transactions {
            let op: f64 = rng.gen();
            // Zipf-ish key choice: cubing skews sharply toward low keys
            // (real OLTP key popularity is heavily skewed).
            let r: f64 = rng.gen();
            let key = (((r * r * r) * self.records as f64) as u32) * 2;
            m.execute(12);
            if op < 0.70 {
                match tree.lookup(m, key) {
                    Some(rec) => {
                        let g = m.read::<u32>(rec + REC_GEN);
                        checksum = fnv1a(checksum, u64::from(g));
                    }
                    None => verified = false,
                }
            } else if op < 0.95 {
                match tree.lookup(m, key) {
                    Some(rec) => {
                        let g = m.read::<u32>(rec + REC_GEN);
                        m.write::<u32>(rec + REC_GEN, g + 1);
                        let w = u64::from(key % 4);
                        m.write::<u32>(rec + 8 + w * 60, g);
                        m.execute(6);
                    }
                    None => verified = false,
                }
            } else {
                let rec = Heap::malloc(m, REC_BYTES);
                m.write::<u32>(rec + REC_KEY, key + 1);
                m.write::<u32>(log + log_len * 4, rec.get() as u32);
                log_len += 1;
                checksum = fnv1a(checksum, rec.get());
            }
        }

        checksum = fnv1a(checksum, log_len);
        verified &= log_len > 0;
        Outcome { checksum, verified }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_sim::MachineConfig;

    #[test]
    fn lookups_always_find_their_records() {
        let (out, _) = crate::run_on(Oltp::new(Scale::Test), MachineConfig::paper_mtlb(64));
        assert!(out.verified);
    }

    #[test]
    fn paper_footprint_dwarfs_the_five_benchmarks() {
        let w = Oltp::new(Scale::Paper);
        assert!(w.footprint() > 24 << 20, "got {} bytes", w.footprint());
    }

    #[test]
    fn same_answer_on_both_machines() {
        let a = crate::run_on(Oltp::new(Scale::Test), MachineConfig::paper_mtlb(64));
        let b = crate::run_on(Oltp::new(Scale::Test), MachineConfig::paper_base(128));
        assert_eq!(a.0, b.0);
    }
}
