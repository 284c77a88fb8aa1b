//! The direct-mapped VIPT write-back cache model.

use mtlb_types::{PhysAddr, Ppn, VirtAddr, Vpn, CACHE_LINE_SHIFT, CACHE_LINE_SIZE, PAGE_SIZE};

use crate::{CacheConfig, CacheIndexing, CacheStats};

/// Whether a fill request asks for a shared or exclusive copy of the line.
///
/// The distinction is what lets the memory controller maintain accurate
/// per-base-page *dirty* bits (paper §2.5): a load miss issues a `Shared`
/// fill, a store miss an `Exclusive` one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FillKind {
    /// Line requested for reading.
    Shared,
    /// Line requested for writing (will be dirtied).
    Exclusive,
}

/// Result of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was present; single-cycle access.
    Hit,
    /// The line was absent. The cache has installed the new line; the
    /// caller must charge a fill transaction (and a writeback first, if a
    /// dirty victim was displaced).
    Miss {
        /// Shared (load) or exclusive (store) fill request.
        fill: FillKind,
        /// Bus address of a dirty victim line that must be written back
        /// before the fill, if any.
        writeback: Option<PhysAddr>,
    },
}

/// Result of an explicit flush walk over part of the cache.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlushOutcome {
    /// Number of lines examined by the walk.
    pub lines_examined: u64,
    /// Bus addresses of dirty lines that must be written back.
    pub writebacks: Vec<PhysAddr>,
}

#[derive(Clone, Copy, Debug)]
struct Line {
    /// Bus physical address of the line (tag + index combined; line-aligned).
    pa_line: u64,
    dirty: bool,
}

/// The simulated data cache. See the [crate documentation](crate) for the
/// modelled organisation.
#[derive(Debug, Clone)]
pub struct DataCache {
    config: CacheConfig,
    lines: Vec<Option<Line>>,
    /// Host-side acceleration: `num_lines - 1` when the line count is a
    /// power of two, so the per-access index computation is a mask
    /// instead of a hardware division. `None` falls back to `%`.
    index_mask: Option<u64>,
    stats: CacheStats,
}

impl DataCache {
    /// Creates an empty (all-invalid) cache with the given geometry.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        DataCache {
            config,
            lines: vec![None; config.num_lines() as usize],
            index_mask: config
                .num_lines()
                .is_power_of_two()
                .then(|| config.num_lines() - 1),
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the counters (not the contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn index_of(&self, va: VirtAddr, pa: PhysAddr) -> usize {
        // Index bits come from immediately above the line offset of the
        // configured indexing address (virtual for the paper's VIPT
        // machine, bus-physical for the recoloring PIPT variant).
        let bits = match self.config.indexing() {
            CacheIndexing::Virtual => va.get(),
            CacheIndexing::Physical => pa.get(),
        };
        let line = bits >> CACHE_LINE_SHIFT;
        match self.index_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.config.num_lines()) as usize,
        }
    }

    /// Performs a load access.
    pub fn access_read(&mut self, va: VirtAddr, pa: PhysAddr) -> AccessResult {
        self.access(va, pa, FillKind::Shared)
    }

    /// Performs a store access.
    pub fn access_write(&mut self, va: VirtAddr, pa: PhysAddr) -> AccessResult {
        self.access(va, pa, FillKind::Exclusive)
    }

    fn access(&mut self, va: VirtAddr, pa: PhysAddr, kind: FillKind) -> AccessResult {
        let idx = self.index_of(va, pa);
        let pa_line = pa.get() >> CACHE_LINE_SHIFT;
        let write = matches!(kind, FillKind::Exclusive);

        if let Some(line) = &mut self.lines[idx] {
            if line.pa_line == pa_line {
                // Physically tagged: hit only when the bus address matches.
                line.dirty |= write;
                self.stats.hits = self.stats.hits.saturating_add(1);
                return AccessResult::Hit;
            }
        }

        // Miss: displace the victim (writeback if dirty), install new line.
        self.stats.misses = self.stats.misses.saturating_add(1);
        let writeback = self.lines[idx].and_then(|victim| {
            victim.dirty.then(|| {
                self.stats.replacement_writebacks =
                    self.stats.replacement_writebacks.saturating_add(1);
                PhysAddr::new(victim.pa_line << CACHE_LINE_SHIFT)
            })
        });
        self.lines[idx] = Some(Line {
            pa_line,
            dirty: write,
        });
        AccessResult::Miss {
            fill: kind,
            writeback,
        }
    }

    /// Returns `true` when the line containing `(va, pa)` is present.
    #[must_use]
    pub fn probe(&self, va: VirtAddr, pa: PhysAddr) -> bool {
        let idx = self.index_of(va, pa);
        matches!(&self.lines[idx], Some(l) if l.pa_line == pa.get() >> CACHE_LINE_SHIFT)
    }

    /// Replays `count` accesses that all hit the single resident line
    /// containing `(va, pa)`, without re-running the lookup.
    ///
    /// The fast-forward layer calls this after proving residency with
    /// [`probe`](Self::probe); the side effects are exactly those of
    /// `count` hitting `access` calls on one line — the hit counter and
    /// the dirty bit.
    pub fn note_fast_hits(&mut self, va: VirtAddr, pa: PhysAddr, count: u64, write: bool) {
        debug_assert!(self.probe(va, pa), "fast hits on a non-resident line");
        let idx = self.index_of(va, pa);
        if let Some(line) = &mut self.lines[idx] {
            line.dirty |= write;
        }
        self.stats.hits = self.stats.hits.saturating_add(count);
    }

    /// Flushes (writes back and invalidates) every cached line of the
    /// virtual 4 KB page `vpn`.
    ///
    /// This is the per-page cache purge the OS performs before changing a
    /// page's mapping between real and shadow addresses (paper §2.3). The
    /// walk always examines all 128 line slots of the page — the paper's
    /// implementation "does not try to optimize by determining which pages
    /// are dirty", and neither do we; per-line costs are charged by the
    /// caller from `lines_examined` and `writebacks`.
    ///
    /// `pfn` is the page's current bus-physical frame (real or shadow):
    /// it tags the lines being sought and, on physically-indexed
    /// configurations, determines which index slots the walk visits.
    pub fn flush_page(&mut self, vpn: Vpn, pfn: Ppn) -> FlushOutcome {
        let lines_per_page = PAGE_SIZE / CACHE_LINE_SIZE;
        self.stats.flush_walks = self.stats.flush_walks.saturating_add(1);
        self.stats.lines_flushed = self.stats.lines_flushed.saturating_add(lines_per_page);
        let writebacks = self.evict_page(vpn, pfn);
        self.stats.flush_writebacks = self
            .stats
            .flush_writebacks
            .saturating_add(writebacks.len() as u64);
        FlushOutcome {
            lines_examined: lines_per_page,
            writebacks,
        }
    }

    /// Drops every cached line of the page `vpn`/`pfn` (as
    /// [`flush_page`](Self::flush_page) names it) without a writeback and
    /// without counting anything: how another core's L1 loses a page the
    /// running core's kernel service flushed. The simulator moves data at
    /// access time, so a dropped dirty line loses no bytes, only the bus
    /// time of its writeback.
    pub fn invalidate_page(&mut self, vpn: Vpn, pfn: Ppn) {
        self.evict_page(vpn, pfn);
    }

    /// Empties every slot holding a line of the page, returning the bus
    /// addresses of the dirty ones.
    fn evict_page(&mut self, vpn: Vpn, pfn: Ppn) -> Vec<PhysAddr> {
        let base = vpn.base_addr();
        let pa_base = pfn.base_addr();
        let mut dirty = Vec::new();
        for i in 0..PAGE_SIZE / CACHE_LINE_SIZE {
            let va = base + i * CACHE_LINE_SIZE;
            let pa = pa_base + i * CACHE_LINE_SIZE;
            let idx = self.index_of(va, pa);
            let pa_line = pa.get() >> CACHE_LINE_SHIFT;
            // Only evict the line if it actually belongs to this page
            // (the slot may hold an unrelated line).
            if let Some(line) = self.lines[idx].filter(|l| l.pa_line == pa_line) {
                if line.dirty {
                    dirty.push(PhysAddr::new(pa_line << CACHE_LINE_SHIFT));
                }
                self.lines[idx] = None;
            }
        }
        dirty
    }

    /// Number of currently valid lines (for tests and reports).
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().flatten().count()
    }

    /// Number of currently dirty lines (for tests and reports).
    #[must_use]
    pub fn dirty_lines(&self) -> usize {
        self.lines.iter().flatten().filter(|l| l.dirty).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> DataCache {
        // 4 KB cache = 128 lines, so conflicts are easy to construct.
        DataCache::new(CacheConfig::new(4 * 1024))
    }

    fn va(x: u64) -> VirtAddr {
        VirtAddr::new(x)
    }

    fn pa(x: u64) -> PhysAddr {
        PhysAddr::new(x)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_cache();
        assert!(matches!(
            c.access_read(va(0x100), pa(0x5100)),
            AccessResult::Miss {
                fill: FillKind::Shared,
                writeback: None
            }
        ));
        assert_eq!(c.access_read(va(0x100), pa(0x5100)), AccessResult::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = small_cache();
        c.access_read(va(0x100), pa(0x5100));
        assert_eq!(c.access_read(va(0x11f), pa(0x511f)), AccessResult::Hit);
        // Next line misses.
        assert!(matches!(
            c.access_read(va(0x120), pa(0x5120)),
            AccessResult::Miss { .. }
        ));
    }

    #[test]
    fn write_miss_is_exclusive_fill() {
        let mut c = small_cache();
        assert!(matches!(
            c.access_write(va(0x200), pa(0x200)),
            AccessResult::Miss {
                fill: FillKind::Exclusive,
                ..
            }
        ));
        assert_eq!(c.dirty_lines(), 1);
    }

    #[test]
    fn conflict_eviction_writes_back_dirty_victim() {
        let mut c = small_cache();
        // Two addresses 4 KB apart share an index in a 4 KB cache.
        c.access_write(va(0x100), pa(0x100));
        let r = c.access_read(va(0x1100), pa(0x1100));
        assert_eq!(
            r,
            AccessResult::Miss {
                fill: FillKind::Shared,
                writeback: Some(pa(0x100)),
            }
        );
        assert_eq!(c.stats().replacement_writebacks, 1);
    }

    #[test]
    fn clean_victim_is_dropped_silently() {
        let mut c = small_cache();
        c.access_read(va(0x100), pa(0x100));
        let r = c.access_read(va(0x1100), pa(0x1100));
        assert_eq!(
            r,
            AccessResult::Miss {
                fill: FillKind::Shared,
                writeback: None,
            }
        );
    }

    #[test]
    fn physical_tag_mismatch_is_a_miss_even_with_same_index() {
        // Same virtual index, different physical tag: remap happened
        // without a flush — the cache must treat it as a miss.
        let mut c = small_cache();
        c.access_read(va(0x300), pa(0x4300));
        assert!(matches!(
            c.access_read(va(0x300), pa(0x8000_0300)),
            AccessResult::Miss { .. }
        ));
    }

    #[test]
    fn shadow_addresses_are_legal_tags() {
        let mut c = small_cache();
        c.access_write(va(0x4080), pa(0x8024_0080));
        assert!(c.probe(va(0x4080), pa(0x8024_0080)));
        assert_eq!(
            c.access_read(va(0x4080), pa(0x8024_0080)),
            AccessResult::Hit
        );
    }

    #[test]
    fn flush_page_examines_128_lines_and_collects_dirty() {
        let mut c = DataCache::new(CacheConfig::paper_default());
        // Dirty 4 lines and read 2 more in page vpn=3 (pfn 0x70003).
        for i in 0..4u64 {
            c.access_write(va(0x3000 + i * 32), pa(0x7000_3000 + i * 32));
        }
        for i in 4..6u64 {
            c.access_read(va(0x3000 + i * 32), pa(0x7000_3000 + i * 32));
        }
        let out = c.flush_page(Vpn::new(3), Ppn::new(0x70003));
        assert_eq!(out.lines_examined, 128);
        assert_eq!(out.writebacks.len(), 4);
        assert_eq!(c.valid_lines(), 0);
        // A second flush finds nothing dirty.
        let out2 = c.flush_page(Vpn::new(3), Ppn::new(0x70003));
        assert_eq!(out2.writebacks.len(), 0);
        assert_eq!(out2.lines_examined, 128);
    }

    #[test]
    fn flush_page_leaves_unrelated_conflicting_lines_alone() {
        let mut c = small_cache(); // 4 KB: page 0 and page 1 fully conflict
        c.access_write(va(0x1100), pa(0x1100)); // line of vpn 1 in slot shared with vpn 0
        let out = c.flush_page(Vpn::new(0), Ppn::new(0));
        assert!(
            out.writebacks.is_empty(),
            "vpn 1's line must survive a vpn 0 flush"
        );
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn invalidate_page_drops_lines_without_counting() {
        let mut c = DataCache::new(CacheConfig::paper_default());
        c.access_write(va(0x3000), pa(0x7000_3000));
        c.access_read(va(0x3040), pa(0x7000_3040));
        c.access_read(va(0x4000), pa(0x7000_4000)); // another page
        let before = c.stats();
        c.invalidate_page(Vpn::new(3), Ppn::new(0x70003));
        assert_eq!(c.valid_lines(), 1, "only vpn 4's line survives");
        assert_eq!(c.dirty_lines(), 0);
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn physically_indexed_cache_places_by_bus_address() {
        use crate::CacheIndexing;
        // 4 KB PIPT cache: two pages with the same VA index but
        // different physical colors do NOT conflict...
        let mut c =
            DataCache::new(CacheConfig::new(4 * 1024).with_indexing(CacheIndexing::Physical));
        c.access_write(va(0x100), pa(0x5100));
        assert!(
            matches!(
                c.access_read(va(0x100), pa(0x6180)),
                AccessResult::Miss {
                    writeback: None,
                    ..
                }
            ),
            "different index: no victim displaced"
        );
        assert!(c.probe(va(0x100), pa(0x5100)), "first line survives");
        // ...while two with the same physical index DO conflict.
        let r = c.access_read(va(0x2100), pa(0x6100));
        assert!(
            matches!(
                r,
                AccessResult::Miss {
                    writeback: Some(_),
                    ..
                }
            ),
            "same physical index evicts the dirty line"
        );
    }

    #[test]
    fn pipt_flush_page_walks_physical_slots() {
        use crate::CacheIndexing;
        let mut c =
            DataCache::new(CacheConfig::paper_default().with_indexing(CacheIndexing::Physical));
        c.access_write(va(0x3000), pa(0x7000_3000));
        let out = c.flush_page(Vpn::new(3), Ppn::new(0x70003));
        assert_eq!(out.writebacks.len(), 1);
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn write_hit_dirties_clean_line() {
        let mut c = small_cache();
        c.access_read(va(0x100), pa(0x100));
        assert_eq!(c.dirty_lines(), 0);
        assert_eq!(c.access_write(va(0x104), pa(0x104)), AccessResult::Hit);
        assert_eq!(c.dirty_lines(), 1);
        // Evicting it now produces a writeback even though the *fill* was shared.
        let r = c.access_read(va(0x1100), pa(0x1100));
        assert!(matches!(
            r,
            AccessResult::Miss {
                writeback: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn stats_reset() {
        let mut c = small_cache();
        c.access_read(va(0), pa(0));
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.valid_lines(), 1, "reset_stats must not drop contents");
    }
}
