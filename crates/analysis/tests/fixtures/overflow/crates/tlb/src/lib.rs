//! Seeded counter-overflow cases: an unchecked `+=` on a stats counter
//! (violation) and a clean saturating write.

pub struct FixtureStats {
    pub hits: u64,
    pub misses: u64,
}

pub struct Unit {
    stats: FixtureStats,
}

impl Unit {
    /// VIOLATION: unchecked accumulation on a `u64` stats counter.
    pub fn record_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// CLEAN: saturating accumulation.
    pub fn record_hits(&mut self, n: u64) {
        self.stats.hits = self.stats.hits.saturating_add(n);
    }
}
