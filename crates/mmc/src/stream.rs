//! MMC-resident stream buffers (paper §6 future work: "MMC-provided
//! stream buffers", after Jouppi).
//!
//! A small set of FIFO prefetch buffers living in the memory controller.
//! When a demand fill misses every buffer, a new stream is allocated
//! (LRU) and the next `STREAM_DEPTH` lines are prefetched into it; when
//! a fill hits the head of a buffer, the line is returned without a DRAM
//! access and the stream advances, prefetching one more line.
//!
//! Because the buffers sit *behind* the MTLB, they work on **real**
//! addresses: a stream through a shadow superpage keeps streaming even
//! though its base pages are physically discontiguous — the composition
//! of the two mechanisms the paper anticipates.

use mtlb_types::{PhysAddr, CACHE_LINE_SHIFT};

/// Independent stream buffers: Jouppi's classic four.
const STREAM_BUFFERS: usize = 4;

/// Lines each stream prefetches ahead (Jouppi's 4-deep buffers).
const STREAM_DEPTH: usize = 4;

/// Stream-buffer event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Demand fills served from a buffer head (no DRAM access).
    pub hits: u64,
    /// Demand fills that missed every buffer.
    pub misses: u64,
    /// Lines prefetched (background DRAM traffic).
    pub prefetches: u64,
    /// Streams (re)allocated.
    pub allocations: u64,
}

impl StreamStats {
    /// Hit rate over demand fills seen by the buffers.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Stream {
    /// Real line address at the buffer head.
    head_line: u64,
    /// Valid lines buffered ahead (≤ `STREAM_DEPTH`).
    valid: usize,
    /// LRU stamp.
    last_use: u64,
}

/// The stream-buffer array. Purely a hit/miss/advance model — the data
/// itself lives in [`GuestMemory`](mtlb_mem::GuestMemory) as everywhere
/// else in the simulator. [`Default`] builds them empty.
#[derive(Debug, Clone, Default)]
pub struct StreamBuffers {
    streams: [Option<Stream>; STREAM_BUFFERS],
    clock: u64,
    stats: StreamStats,
}

impl StreamBuffers {
    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Cache-line index of a bus address: line-granular stream
    /// bookkeeping, not an address-domain computation.
    fn line_of(pa: PhysAddr) -> u64 {
        let raw = pa.get();
        raw >> CACHE_LINE_SHIFT
    }

    /// Presents a demand fill for the *real* address `real_pa`.
    /// Returns `true` when served from a buffer head (skip the DRAM
    /// access); on a miss, allocates a stream and prefetches behind it.
    pub fn demand_fill(&mut self, real_pa: PhysAddr) -> bool {
        self.clock += 1;
        let line = Self::line_of(real_pa);
        // Head hit?
        for stream in self.streams.iter_mut().flatten() {
            if stream.valid > 0 && stream.head_line == line {
                stream.head_line += 1;
                // The consumed slot is refilled in the background.
                self.stats.prefetches = self.stats.prefetches.saturating_add(1);
                stream.last_use = self.clock;
                self.stats.hits = self.stats.hits.saturating_add(1);
                return true;
            }
        }
        self.stats.misses = self.stats.misses.saturating_add(1);
        // Allocate (or steal, LRU) a stream starting after this line.
        let slot = match self.streams.iter().position(Option::is_none) {
            Some(i) => i,
            #[expect(
                clippy::expect_used,
                reason = "Structure invariant: `min_by_key` runs over a non-empty, fixed-size buffer array."
            )]
            None => self
                .streams
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.map(|s| s.last_use).unwrap_or(0))
                .map(|(i, _)| i)
                .expect("buffers is non-empty"),
        };
        self.streams[slot] = Some(Stream {
            head_line: line + 1,
            valid: STREAM_DEPTH,
            last_use: self.clock,
        });
        self.stats.allocations = self.stats.allocations.saturating_add(1);
        self.stats.prefetches = self.stats.prefetches.saturating_add(STREAM_DEPTH as u64);
        false
    }

    /// Invalidates every buffer whose head falls within the real page
    /// `[page_base, page_base + 4 KB)` — the OS purges streams when it
    /// re-purposes a frame (swap-out, remap), exactly as it purges the
    /// MTLB.
    pub fn invalidate_page(&mut self, page_base: PhysAddr) {
        let first = Self::line_of(page_base);
        let last = first + (mtlb_types::PAGE_SIZE >> CACHE_LINE_SHIFT);
        for slot in &mut self.streams {
            if let Some(s) = slot {
                let end = s.head_line + s.valid as u64;
                if s.head_line < last && first < end {
                    *slot = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pa(line: u64) -> PhysAddr {
        PhysAddr::new(line << CACHE_LINE_SHIFT)
    }

    #[test]
    fn sequential_stream_hits_after_first_miss() {
        let mut sb = StreamBuffers::default();
        assert!(!sb.demand_fill(pa(100)), "cold miss allocates");
        for line in 101..120 {
            assert!(sb.demand_fill(pa(line)), "line {line} should stream");
        }
        assert_eq!(sb.stats().misses, 1);
        assert_eq!(sb.stats().hits, 19);
    }

    #[test]
    fn four_interleaved_streams_coexist() {
        let mut sb = StreamBuffers::default();
        let bases = [1000u64, 2000, 3000, 4000];
        for b in bases {
            sb.demand_fill(pa(b));
        }
        for i in 1..10u64 {
            for b in bases {
                assert!(sb.demand_fill(pa(b + i)), "stream {b} line {i}");
            }
        }
        assert_eq!(sb.stats().allocations, 4);
    }

    #[test]
    fn fifth_stream_steals_lru() {
        let mut sb = StreamBuffers::default();
        for b in [1000u64, 2000, 3000, 4000] {
            sb.demand_fill(pa(b));
        }
        // Touch 2000..4000 streams so 1000 is LRU, then start a fifth.
        for b in [2000u64, 3000, 4000] {
            sb.demand_fill(pa(b + 1));
        }
        sb.demand_fill(pa(5000));
        // The newer streams survive the steal...
        assert!(sb.demand_fill(pa(2002)));
        // ...but the LRU (1000) stream is gone; its next line misses
        // (and that miss in turn steals another slot).
        assert!(!sb.demand_fill(pa(1001)));
    }

    #[test]
    fn random_traffic_never_hits() {
        let mut sb = StreamBuffers::default();
        let mut x = 7u64;
        for _ in 0..100 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            assert!(!sb.demand_fill(pa((x >> 20) & 0xfffff)));
        }
        assert_eq!(sb.stats().hit_rate(), 0.0);
    }

    #[test]
    fn invalidate_page_kills_overlapping_streams() {
        let mut sb = StreamBuffers::default();
        sb.demand_fill(pa(128)); // stream heads at line 129 (page 1)
        sb.demand_fill(pa(100_000));
        sb.invalidate_page(PhysAddr::new(4096)); // lines 128..256
        assert!(!sb.demand_fill(pa(129)), "purged stream cannot hit");
        assert!(sb.demand_fill(pa(100_001)), "unrelated stream survives");
    }
}
