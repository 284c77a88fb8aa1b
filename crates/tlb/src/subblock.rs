//! The complete-subblock TLB of Talluri & Hill (ASPLOS 1994) — the
//! related-work alternative the paper compares its design against (§5).
//!
//! Each entry covers a 64 KB-aligned region (16 base pages) with an
//! **independent page frame number and valid bit per subblock**, so, like
//! shadow superpages, it maps discontiguous frames — but the per-subblock
//! frame storage lives *in the processor TLB*, which is what "will
//! severely limit the maximum superpage size for an on-processor TLB"
//! (§5). The paper's design moves those mappings to the memory
//! controller instead.
//!
//! This model is used trace-style (translate / fill / miss counting) by
//! the comparison experiment; it shares the NRU discipline of
//! [`CpuTlb`](crate::CpuTlb).

use mtlb_types::{PhysAddr, Ppn, VirtAddr, Vpn};

/// Base pages per subblock entry (Talluri & Hill's complete-subblock
/// design used 64 KB blocks of 4 KB pages).
pub const SUBBLOCK_FACTOR: u64 = 16;

/// Result of a subblock TLB lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubblockOutcome {
    /// Entry present, subblock valid.
    Hit(PhysAddr),
    /// Entry present but this subblock's mapping is absent: the handler
    /// loads one PTE and fills just the subblock (cheaper than a full
    /// miss — no entry allocation).
    SubblockMiss,
    /// No entry covers the region: full miss (allocate + fill one
    /// subblock).
    EntryMiss,
}

#[derive(Clone, Debug)]
struct Entry {
    /// First vpn of the 64 KB-aligned region.
    region_base: u64,
    /// Per-subblock frames (valid where `Some`), each independent — the
    /// "complete" in complete-subblock.
    frames: [Option<Ppn>; SUBBLOCK_FACTOR as usize],
    used: bool,
}

/// Counters for the subblock TLB.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubblockStats {
    /// Valid-subblock hits.
    pub hits: u64,
    /// Entry present, subblock invalid.
    pub subblock_misses: u64,
    /// No covering entry.
    pub entry_misses: u64,
    /// NRU replacements.
    pub replacements: u64,
}

impl SubblockStats {
    /// All misses (either kind).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.subblock_misses + self.entry_misses
    }

    /// Total lookups.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses()
    }
}

/// A fully-associative complete-subblock TLB with NRU replacement.
#[derive(Debug, Clone)]
pub struct SubblockTlb {
    capacity: usize,
    entries: Vec<Option<Entry>>,
    hand: usize,
    stats: SubblockStats,
}

impl SubblockTlb {
    /// Creates an empty TLB with `capacity` region entries.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB must have at least one entry");
        SubblockTlb {
            capacity,
            entries: vec![None; capacity],
            hand: 0,
            stats: SubblockStats::default(),
        }
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> SubblockStats {
        self.stats
    }

    fn region_of(vpn: Vpn) -> (u64, usize) {
        // Subblock-slot arithmetic on the raw page index, not an address
        // computation: the region base and slot are CAM-tag bookkeeping.
        let index = vpn.index();
        (
            index / SUBBLOCK_FACTOR * SUBBLOCK_FACTOR,
            (index % SUBBLOCK_FACTOR) as usize,
        )
    }

    /// Looks up `va`, updating statistics and NRU state.
    pub fn translate(&mut self, va: VirtAddr) -> SubblockOutcome {
        let (region, sub) = Self::region_of(va.vpn());
        for entry in self.entries.iter_mut().flatten() {
            if entry.region_base == region {
                entry.used = true;
                return match entry.frames[sub] {
                    Some(pfn) => {
                        self.stats.hits = self.stats.hits.saturating_add(1);
                        SubblockOutcome::Hit(pfn.base_addr() + va.page_offset())
                    }
                    None => {
                        self.stats.subblock_misses = self.stats.subblock_misses.saturating_add(1);
                        SubblockOutcome::SubblockMiss
                    }
                };
            }
        }
        self.stats.entry_misses = self.stats.entry_misses.saturating_add(1);
        SubblockOutcome::EntryMiss
    }

    /// Installs the mapping `vpn → pfn`, filling the subblock of an
    /// existing region entry or allocating a new entry (NRU victim) for
    /// it. Frames of sibling pages stay independent — this is what lets
    /// the design map discontiguous memory.
    pub fn fill(&mut self, vpn: Vpn, pfn: Ppn) {
        let (region, sub) = Self::region_of(vpn);
        if let Some(entry) = self
            .entries
            .iter_mut()
            .flatten()
            .find(|e| e.region_base == region)
        {
            entry.frames[sub] = Some(pfn);
            entry.used = true;
            return;
        }
        let mut entry = Entry {
            region_base: region,
            frames: [None; SUBBLOCK_FACTOR as usize],
            used: true,
        };
        entry.frames[sub] = Some(pfn);
        if let Some(slot) = self.entries.iter_mut().find(|e| e.is_none()) {
            *slot = Some(entry);
            return;
        }
        // NRU victim with a rotating hand, as in the conventional TLB.
        #[expect(
            clippy::unreachable,
            reason = "Structure invariant: the second NRU round runs right after clearing every use bit, so an unused entry must exist."
        )]
        let victim = 'found: {
            for round in 0..2 {
                for i in 0..self.capacity {
                    let idx = (self.hand + i) % self.capacity;
                    if let Some(e) = &self.entries[idx] {
                        if !e.used {
                            break 'found idx;
                        }
                    }
                }
                if round == 0 {
                    for e in self.entries.iter_mut().flatten() {
                        e.used = false;
                    }
                }
            }
            unreachable!("after an NRU reset some entry is unused");
        };
        self.stats.replacements = self.stats.replacements.saturating_add(1);
        self.entries[victim] = Some(entry);
        self.hand = (victim + 1) % self.capacity;
    }

    /// Removes all entries (process switch).
    pub fn purge_all(&mut self) {
        for e in &mut self.entries {
            *e = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_types::PAGE_SHIFT;

    fn va(page: u64) -> VirtAddr {
        VirtAddr::new(page << PAGE_SHIFT)
    }

    #[test]
    fn one_entry_maps_sixteen_discontiguous_frames() {
        let mut t = SubblockTlb::new(4);
        // Scattered frames for pages 0..16 — contiguity-free like shadow
        // superpages.
        for p in 0..16u64 {
            assert_ne!(t.translate(va(p)), SubblockOutcome::Hit(PhysAddr::new(0)));
            t.fill(Vpn::new(p), Ppn::new(1000 + p * 37));
        }
        for p in 0..16u64 {
            assert_eq!(
                t.translate(va(p)),
                SubblockOutcome::Hit(PhysAddr::new((1000 + p * 37) << PAGE_SHIFT))
            );
        }
        // One entry consumed, not sixteen.
        assert_eq!(t.stats().entry_misses, 1);
        assert_eq!(t.stats().subblock_misses, 15);
    }

    #[test]
    fn subblock_miss_vs_entry_miss_distinction() {
        let mut t = SubblockTlb::new(4);
        t.fill(Vpn::new(0), Ppn::new(5));
        assert_eq!(t.translate(va(1)), SubblockOutcome::SubblockMiss);
        assert_eq!(t.translate(va(16)), SubblockOutcome::EntryMiss);
    }

    #[test]
    fn replacement_evicts_whole_region() {
        let mut t = SubblockTlb::new(2);
        t.fill(Vpn::new(0), Ppn::new(1));
        t.fill(Vpn::new(16), Ppn::new(2));
        t.fill(Vpn::new(32), Ppn::new(3)); // evicts one region wholesale
        let present = [0u64, 16, 32]
            .iter()
            .filter(|p| matches!(t.translate(va(**p)), SubblockOutcome::Hit(_)))
            .count();
        assert_eq!(present, 2);
        assert_eq!(t.stats().replacements, 1);
    }

    #[test]
    fn purge_empties() {
        let mut t = SubblockTlb::new(2);
        t.fill(Vpn::new(0), Ppn::new(1));
        t.purge_all();
        assert_eq!(t.translate(va(0)), SubblockOutcome::EntryMiss);
    }
}
