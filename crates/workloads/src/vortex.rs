//! `vortex` — the SPECint95 object-oriented database (§3.1).
//!
//! Builds several in-core databases of variable-sized objects reached
//! through hash indexes and chained headers, then runs a transaction mix
//! (lookups, updates, inserts) against them. Everything is allocated
//! from the heap, so — exactly as in the paper — *all* superpage creation
//! happens through the modified `sbrk()`, with its 8 MB initial
//! pre-allocation and 2 MB follow-on chunks.

use mtlb_sim::Machine;
use mtlb_types::VirtAddr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::access::AccessExt;
use crate::common::{fnv1a, Heap, FNV_SEED};
use crate::{Outcome, Scale, Workload};

/// Object header: id, kind, payload length (words), next-in-chain.
const HDR_ID: u64 = 0;
const HDR_KIND: u64 = 4;
const HDR_LEN: u64 = 8;
const HDR_NEXT: u64 = 12;
const HDR_BYTES: u64 = 16;

/// Hash buckets per database index.
const BUCKETS: u64 = 16 * 1024;

/// Number of in-core databases built.
const DATABASES: usize = 3;

/// The vortex workload. See the module-level documentation for the modelled behaviour.
#[derive(Debug, Clone)]
pub struct Vortex {
    objects_per_db: u64,
    transactions: u64,
    seed: u64,
}

impl Vortex {
    /// Creates the workload. Paper scale approximates the §3.1 reduced
    /// training run: ~9 MB of basic datasets built first, then roughly
    /// ten further megabytes allocated by transaction processing.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Vortex {
                objects_per_db: 10_000,
                transactions: 360_000,
                seed: 0x09_0e_47,
            },
            Scale::Test => Vortex {
                objects_per_db: 300,
                transactions: 2_000,
                seed: 0x09_0e_47,
            },
        }
    }

    /// Payload length in words for an object id (64–508 bytes, id-varied).
    fn payload_words(id: u32) -> u64 {
        16 + u64::from(id % 112)
    }

    fn bucket_of(id: u32) -> u64 {
        let h = (u64::from(id)).wrapping_mul(0x9E37_79B9) >> 7;
        h % BUCKETS
    }
}

struct Db {
    index: VirtAddr,
}

impl Db {
    fn insert(&self, m: &mut Machine, id: u32, kind: u32) -> VirtAddr {
        let words = Vortex::payload_words(id);
        let obj = Heap::malloc(m, HDR_BYTES + words * 4);
        m.write::<u32>(obj + HDR_ID, id);
        m.write::<u32>(obj + HDR_KIND, kind);
        m.write::<u32>(obj + HDR_LEN, words as u32);
        // Initialise the payload (id-derived so lookups can verify);
        // a streamed sequential fill.
        m.stream_write_u32(obj + HDR_BYTES, words, 1, |w| id.wrapping_add(w as u32));
        // Chain into the bucket.
        let slot = self.index + Vortex::bucket_of(id) * 4;
        let head = m.read::<u32>(slot);
        m.write::<u32>(obj + HDR_NEXT, head);
        m.write::<u32>(slot, obj.get() as u32);
        m.execute(12);
        obj
    }

    /// Walks the chain for `id`; returns the object address if present.
    fn lookup(&self, m: &mut Machine, id: u32) -> Option<VirtAddr> {
        let slot = self.index + Vortex::bucket_of(id) * 4;
        let mut cur = m.read::<u32>(slot);
        m.execute(6);
        while cur != 0 {
            let obj = VirtAddr::new(u64::from(cur));
            let oid = m.read::<u32>(obj + HDR_ID);
            m.execute(4);
            if oid == id {
                return Some(obj);
            }
            cur = m.read::<u32>(obj + HDR_NEXT);
        }
        None
    }
}

impl Workload for Vortex {
    fn name(&self) -> &'static str {
        "vortex"
    }

    fn run(&mut self, m: &mut Machine) -> Outcome {
        m.load_program(192 * 1024, true); // vortex has a large text segment
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Build the basic datasets: DATABASES indexes plus their objects,
        // all through sbrk-backed malloc.
        let dbs: Vec<Db> = (0..DATABASES)
            .map(|_| {
                let index = Heap::malloc(m, BUCKETS * 4);
                // Fresh pages are zeroed, so chains start empty; touch the
                // index sparsely as real initialisation would.
                Db { index }
            })
            .collect();
        for (d, db) in dbs.iter().enumerate() {
            for i in 0..self.objects_per_db {
                let id = (d as u32) << 24 | i as u32;
                db.insert(m, id, d as u32);
            }
        }

        // Transaction mix: 62 % lookups, 28 % updates, 10 % inserts
        // (the inserts allocate the paper's ~10 MB of later mappings).
        let mut next_fresh: u64 = self.objects_per_db;
        let mut checksum = FNV_SEED;
        let mut verified = true;
        let mut found = 0u64;
        for _ in 0..self.transactions {
            let d = rng.gen_range(0..DATABASES);
            let op: f64 = rng.gen();
            m.execute(10); // transaction dispatch logic
                           // Real OODB traffic is skewed: most transactions touch a hot
                           // subset of objects (uniform traffic would be adversarially
                           // bad for every cache in the hierarchy).
            let pick_id = |rng: &mut StdRng| {
                let hot: f64 = rng.gen();
                let i = if hot < 0.95 {
                    rng.gen_range(0..self.objects_per_db / 30)
                } else {
                    rng.gen_range(0..self.objects_per_db)
                };
                (d as u32) << 24 | i as u32
            };
            if op < 0.62 {
                let id = pick_id(&mut rng);
                match dbs[d].lookup(m, id) {
                    Some(obj) => {
                        found += 1;
                        // Read a few payload fields and fold them in.
                        let len = u64::from(m.read::<u32>(obj + HDR_LEN));
                        let w = u64::from(id) % len;
                        let v = m.read::<u32>(obj + HDR_BYTES + w * 4);
                        checksum = fnv1a(checksum, u64::from(v));
                        m.execute(8);
                    }
                    None => verified = false,
                }
            } else if op < 0.90 {
                let id = pick_id(&mut rng);
                match dbs[d].lookup(m, id) {
                    Some(obj) => {
                        let len = u64::from(m.read::<u32>(obj + HDR_LEN));
                        for k in 0..4u64.min(len) {
                            let at = obj + HDR_BYTES + ((u64::from(id) + k) % len) * 4;
                            let v = m.read::<u32>(at);
                            m.write::<u32>(at, v.wrapping_add(1));
                            m.execute(4);
                        }
                    }
                    None => verified = false,
                }
            } else {
                let id = (d as u32) << 24 | next_fresh as u32;
                next_fresh += 1;
                let obj = dbs[d].insert(m, id, d as u32);
                checksum = fnv1a(checksum, obj.get());
            }
        }

        // Every looked-up id must have been found.
        verified &= found > 0;
        checksum = fnv1a(checksum, found);
        Outcome { checksum, verified }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_sim::MachineConfig;

    #[test]
    fn transactions_find_their_objects() {
        let (out, _) = crate::run_on(Vortex::new(Scale::Test), MachineConfig::paper_mtlb(64));
        assert!(out.verified, "all looked-up objects must exist");
    }

    #[test]
    fn all_superpages_come_from_sbrk() {
        let mut m = Machine::new(MachineConfig::paper_mtlb(64));
        Vortex::new(Scale::Test).run(&mut m);
        let stats = m.kernel().stats();
        // sbrk itself issued the remaps (plus one for program text).
        assert!(stats.superpages_created > 0);
        assert!(stats.sbrk_calls > 0);
    }

    #[test]
    fn paper_scale_builds_about_9_mb_of_datasets() {
        let w = Vortex::new(Scale::Paper);
        // Average object = header + (16 + 55.5) payload words ≈ 300 B.
        let avg = HDR_BYTES + (16 + 55) * 4;
        let bytes = DATABASES as u64 * (w.objects_per_db * avg + BUCKETS * 4);
        assert!(
            (8 << 20..11 << 20).contains(&bytes),
            "basic datasets ≈ 9 MB, computed {bytes}"
        );
    }

    #[test]
    fn same_answer_on_both_machines() {
        let a = crate::run_on(Vortex::new(Scale::Test), MachineConfig::paper_mtlb(64));
        let b = crate::run_on(Vortex::new(Scale::Test), MachineConfig::paper_base(96));
        assert_eq!(a.0, b.0);
    }
}
