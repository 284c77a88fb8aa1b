//! A cheap, deterministic hasher for host-side acceleration maps.
//!
//! The simulator's hot paths index small maps keyed by page numbers
//! (the CPU TLB's covering-entry index, promotion counters). `std`'s
//! default SipHash is DoS-resistant but costs tens of nanoseconds per
//! probe — noticeable when a probe runs on every simulated access.
//! These maps are internal (keys come from the simulation, not from
//! untrusted input), so a multiply-rotate hash in the fxhash family is
//! both safe and an order of magnitude cheaper. Host-side only: map
//! iteration order is never observable in simulated results.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the fxhash scheme (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A non-cryptographic multiply-rotate hasher (fxhash scheme).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// A `HashMap` using [`FxHasher`] — for host-side acceleration indexes
/// whose iteration order never reaches simulated results.
#[expect(
    clippy::disallowed_types,
    reason = "FastMap's own definition: the one sanctioned HashMap wrapper. Iteration order never escapes — crates/clippy.toml rejects hash-ordered traversal at every use site."
)]
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_distinctly() {
        let mut m: FastMap<(u8, u64), u32> = FastMap::default();
        for c in 0..8u8 {
            for p in 0..1000u64 {
                m.insert((c, p), u32::from(c) * 1000 + p as u32);
            }
        }
        assert_eq!(m.len(), 8000);
        assert_eq!(m.get(&(3, 500)), Some(&3500));
    }

    #[test]
    fn hashing_is_deterministic() {
        let h = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }
}
