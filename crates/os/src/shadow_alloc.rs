//! Shadow physical address space allocators (paper §2.4).
//!
//! Two implementations of [`ShadowAllocator`]:
//!
//! * [`BucketAllocator`] — the paper's scheme: the shadow space is
//!   statically pre-partitioned into buckets of each legal superpage size
//!   (Figure 2), and allocation pops any free region from the right
//!   bucket. Simple and fast, but a size class can run dry.
//! * [`BuddyAllocator`] — the buddy-system variant the paper suggests
//!   "experience may suggest" (§2.4): regions split and recombine on
//!   demand, so the space flexes between size classes at a small cost in
//!   bookkeeping.
//!
//! Both hand out **naturally aligned** regions, which is what lets the
//! CPU TLB map them as superpages.

use std::collections::{BTreeMap, BTreeSet};

use mtlb_mmc::ShadowRange;
use mtlb_types::{PageSize, ShadowAddr};

/// Allocates naturally-aligned superpage-sized regions of shadow space.
pub trait ShadowAllocator {
    /// Allocates one region of exactly `size`, or `None` when the
    /// allocator cannot satisfy the request.
    fn alloc(&mut self, size: PageSize) -> Option<ShadowAddr>;

    /// Returns a region previously obtained from [`alloc`](Self::alloc).
    ///
    /// # Panics
    ///
    /// Implementations panic on double frees or foreign regions.
    fn free(&mut self, addr: ShadowAddr, size: PageSize);

    /// Number of regions of exactly `size` that could be allocated right
    /// now (for buddies this counts carvable blocks).
    fn available(&self, size: PageSize) -> u64;
}

/// The static partition of shadow space into per-size buckets.
///
/// The paper's Figure 2 example partitions 512 MB as
/// 1024×16 KB + 256×64 KB + 128×256 KB + 64×1 MB + 32×4 MB + 16×16 MB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BucketPartition {
    counts: Vec<(PageSize, u64)>,
}

impl BucketPartition {
    /// Builds a partition from `(size, count)` pairs. Buckets are laid
    /// out in the given order from the base of the shadow range.
    ///
    /// # Panics
    ///
    /// Panics on duplicate sizes or a base-page entry.
    #[must_use]
    pub fn new(counts: Vec<(PageSize, u64)>) -> Self {
        let mut seen = BTreeSet::new();
        for (size, _) in &counts {
            assert!(size.is_superpage(), "buckets hold superpages only");
            assert!(seen.insert(*size), "duplicate bucket size {size}");
        }
        BucketPartition { counts }
    }

    /// The paper's Figure 2 partition of a 512 MB shadow space.
    #[must_use]
    pub fn paper_default() -> Self {
        BucketPartition::new(vec![
            (PageSize::Size16K, 1024),
            (PageSize::Size64K, 256),
            (PageSize::Size256K, 128),
            (PageSize::Size1M, 64),
            (PageSize::Size4M, 32),
            (PageSize::Size16M, 16),
        ])
    }

    /// The `(size, count)` pairs in layout order.
    #[must_use]
    pub fn counts(&self) -> &[(PageSize, u64)] {
        &self.counts
    }

    /// Total bytes of shadow space the partition consumes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.counts.iter().map(|(s, n)| s.bytes() * n).sum()
    }

    /// Address-space extent of one size class (the Figure 2
    /// "Address Space Extent" column).
    #[must_use]
    pub fn extent_of(&self, size: PageSize) -> u64 {
        self.counts
            .iter()
            .find(|(s, _)| *s == size)
            .map(|(s, n)| s.bytes() * n)
            .unwrap_or(0)
    }
}

/// The paper's bucket allocator over a [`BucketPartition`].
#[derive(Debug, Clone)]
pub struct BucketAllocator {
    /// Free regions per size, used LIFO.
    free: BTreeMap<PageSize, Vec<ShadowAddr>>,
    /// `[start, end)` of each size class, for free() validation.
    class_ranges: BTreeMap<PageSize, (u64, u64)>,
    allocated: BTreeSet<u64>,
}

impl BucketAllocator {
    /// Lays the partition out from the base of `range`.
    ///
    /// # Panics
    ///
    /// Panics when the partition exceeds the range, or a bucket would not
    /// be naturally aligned for its size (the paper's Figure 2 layout
    /// aligns naturally; exotic partitions may not).
    #[must_use]
    pub fn new(range: ShadowRange, partition: &BucketPartition) -> Self {
        assert!(
            partition.total_bytes() <= range.size_bytes(),
            "partition ({} bytes) exceeds shadow range ({} bytes)",
            partition.total_bytes(),
            range.size_bytes()
        );
        let mut free = BTreeMap::new();
        let mut class_ranges = BTreeMap::new();
        let mut cursor = range.shadow_base();
        for (size, count) in partition.counts() {
            let start = cursor.get();
            let regions: Vec<ShadowAddr> = (0..*count)
                .map(|i| {
                    let addr = cursor + i * size.bytes();
                    assert!(
                        addr.is_aligned(size.bytes()),
                        "bucket region {addr} not aligned to {size}"
                    );
                    addr
                })
                // LIFO pop order: reverse so the lowest region goes out first.
                .rev()
                .collect();
            cursor += size.bytes() * count;
            free.insert(*size, regions);
            class_ranges.insert(*size, (start, cursor.get()));
        }
        BucketAllocator {
            free,
            class_ranges,
            allocated: BTreeSet::new(),
        }
    }

    /// Convenience: the Figure 2 configuration over the paper's 512 MB
    /// shadow range.
    #[must_use]
    pub fn paper_default() -> Self {
        BucketAllocator::new(
            ShadowRange::paper_default(),
            &BucketPartition::paper_default(),
        )
    }
}

impl ShadowAllocator for BucketAllocator {
    fn alloc(&mut self, size: PageSize) -> Option<ShadowAddr> {
        let addr = self.free.get_mut(&size)?.pop()?;
        self.allocated.insert(addr.get());
        Some(addr)
    }

    fn free(&mut self, addr: ShadowAddr, size: PageSize) {
        // Documented API contract (# Panics): freeing into a class the
        // partition never defined is caller error.
        #[expect(
            clippy::panic,
            reason = "Documented contract: the bucket allocator is constructed with every PageSize class; freeing an unknown class is caller error."
        )]
        let (start, end) = *self
            .class_ranges
            .get(&size)
            .unwrap_or_else(|| panic!("no bucket class for {size}"));
        assert!(
            addr.get() >= start && addr.get() < end && addr.is_aligned(size.bytes()),
            "freed region {addr} does not belong to the {size} bucket"
        );
        assert!(
            self.allocated.remove(&addr.get()),
            "double free of shadow region {addr}"
        );
        // The class is known to exist: `class_ranges` and `free` share
        // their key set by construction.
        self.free.entry(size).or_default().push(addr);
    }

    fn available(&self, size: PageSize) -> u64 {
        self.free.get(&size).map_or(0, |v| v.len() as u64)
    }
}

/// Buddy-system shadow allocator: 16 KB minimum block, power-of-two
/// splitting with coalescing on free.
///
/// Superpage requests are powers of 4, but internal blocks may be any
/// power of two ≥ 16 KB, so a freed 64 KB region can later serve four
/// 16 KB requests and vice versa.
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    base: ShadowAddr,
    /// log2(managed bytes / MIN_BLOCK).
    max_order: u32,
    /// Free block offsets (from base) per order; BTreeSet for
    /// deterministic low-address-first allocation.
    free: Vec<BTreeSet<u64>>,
    allocated: BTreeMap<u64, u32>,
}

/// Smallest buddy block: one 16 KB superpage.
const MIN_BLOCK: u64 = 16 * 1024;

impl BuddyAllocator {
    /// Manages the whole of `range` (whose size must be a power of two
    /// multiple of 16 KB).
    ///
    /// # Panics
    ///
    /// Panics when the range size is not a power of two ≥ 16 KB or the
    /// base is not aligned to the range size.
    #[must_use]
    pub fn new(range: ShadowRange) -> Self {
        let size = range.size_bytes();
        assert!(
            size.is_power_of_two() && size >= MIN_BLOCK,
            "buddy-managed range must be a power of two of at least 16 KB"
        );
        assert!(
            range.base().is_aligned(size),
            "buddy base must be aligned to the managed size for natural alignment"
        );
        let max_order = (size / MIN_BLOCK).trailing_zeros();
        let mut free = vec![BTreeSet::new(); max_order as usize + 1];
        free[max_order as usize].insert(0);
        BuddyAllocator {
            base: range.shadow_base(),
            max_order,
            free,
            allocated: BTreeMap::new(),
        }
    }

    fn order_of(size: PageSize) -> u32 {
        (size.bytes() / MIN_BLOCK).trailing_zeros()
    }

    fn block_bytes(order: u32) -> u64 {
        MIN_BLOCK << order
    }
}

impl ShadowAllocator for BuddyAllocator {
    fn alloc(&mut self, size: PageSize) -> Option<ShadowAddr> {
        let want = Self::order_of(size);
        if want > self.max_order {
            return None;
        }
        // Find the smallest order with a free block.
        let from = (want..=self.max_order).find(|o| !self.free[*o as usize].is_empty())?;
        let offset = *self.free[from as usize].iter().next()?;
        self.free[from as usize].remove(&offset);
        // Split down to the wanted order, freeing the upper halves.
        let mut order = from;
        while order > want {
            order -= 1;
            let buddy = offset + Self::block_bytes(order);
            self.free[order as usize].insert(buddy);
        }
        self.allocated.insert(offset, want);
        // offset stays aligned to its block size by construction.
        Some(self.base + offset)
    }

    fn free(&mut self, addr: ShadowAddr, size: PageSize) {
        let mut offset = addr.offset_from(self.base);
        let want = Self::order_of(size);
        match self.allocated.remove(&offset) {
            Some(order) if order == want => {}
            #[expect(
                clippy::panic,
                reason = "Documented contract: buddy free must match the allocation size — the classic double-free/size-mismatch guard."
            )]
            Some(order) => {
                panic!("region at {addr} was allocated at order {order}, freed at {want}")
            }
            #[expect(
                clippy::panic,
                reason = "Documented contract: freeing shadow space that was never allocated is caller error, mirroring the order-mismatch case."
            )]
            None => panic!("free of unallocated shadow region {addr}"),
        }
        // Coalesce with free buddies.
        let mut order = want;
        while order < self.max_order {
            let buddy = offset ^ Self::block_bytes(order);
            if !self.free[order as usize].remove(&buddy) {
                break;
            }
            offset = offset.min(buddy);
            order += 1;
        }
        self.free[order as usize].insert(offset);
    }

    fn available(&self, size: PageSize) -> u64 {
        let want = Self::order_of(size);
        if want > self.max_order {
            return 0;
        }
        (want..=self.max_order)
            .map(|o| self.free[o as usize].len() as u64 * (1 << (o - want)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_types::{PhysAddr, PAGE_SIZE};

    #[test]
    fn figure2_partition_counts_and_extents() {
        let p = BucketPartition::paper_default();
        // Figure 2's exact rows.
        assert_eq!(p.extent_of(PageSize::Size16K), 16 << 20);
        assert_eq!(p.extent_of(PageSize::Size64K), 16 << 20);
        assert_eq!(p.extent_of(PageSize::Size256K), 32 << 20);
        assert_eq!(p.extent_of(PageSize::Size1M), 64 << 20);
        assert_eq!(p.extent_of(PageSize::Size4M), 128 << 20);
        assert_eq!(p.extent_of(PageSize::Size16M), 256 << 20);
        assert_eq!(p.total_bytes(), 512 << 20);
    }

    #[test]
    fn bucket_allocations_are_aligned_and_disjoint() {
        let mut a = BucketAllocator::paper_default();
        let mut seen = Vec::new();
        for size in PageSize::SUPERPAGES {
            for _ in 0..3 {
                let addr = a.alloc(size).expect("plenty available");
                assert!(addr.is_aligned(size.bytes()), "{addr} unaligned for {size}");
                seen.push((addr.get(), addr.get() + size.bytes()));
            }
        }
        seen.sort_unstable();
        for w in seen.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping regions {w:?}");
        }
    }

    #[test]
    fn bucket_exhaustion_returns_none() {
        let small = BucketPartition::new(vec![(PageSize::Size16K, 2)]);
        let range = ShadowRange::paper_default();
        let mut a = BucketAllocator::new(range, &small);
        assert_eq!(a.available(PageSize::Size16K), 2);
        assert!(a.alloc(PageSize::Size16K).is_some());
        assert!(a.alloc(PageSize::Size16K).is_some());
        assert!(a.alloc(PageSize::Size16K).is_none());
        assert!(
            a.alloc(PageSize::Size64K).is_none(),
            "no 64 KB class at all"
        );
    }

    #[test]
    fn bucket_free_recycles() {
        let mut a = BucketAllocator::paper_default();
        let x = a.alloc(PageSize::Size1M).unwrap();
        let before = a.available(PageSize::Size1M);
        a.free(x, PageSize::Size1M);
        assert_eq!(a.available(PageSize::Size1M), before + 1);
        assert_eq!(a.alloc(PageSize::Size1M), Some(x), "LIFO reuse");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn bucket_double_free_panics() {
        let mut a = BucketAllocator::paper_default();
        let x = a.alloc(PageSize::Size16K).unwrap();
        a.free(x, PageSize::Size16K);
        a.free(x, PageSize::Size16K);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn bucket_free_wrong_class_panics() {
        let mut a = BucketAllocator::paper_default();
        let x = a.alloc(PageSize::Size16K).unwrap();
        a.free(x, PageSize::Size64K);
    }

    #[test]
    fn first_bucket_allocation_is_range_base() {
        let mut a = BucketAllocator::paper_default();
        assert_eq!(
            a.alloc(PageSize::Size16K).unwrap().bus(),
            PhysAddr::new(0x8000_0000)
        );
    }

    fn buddy() -> BuddyAllocator {
        BuddyAllocator::new(ShadowRange::paper_default())
    }

    #[test]
    fn buddy_allocates_aligned_regions() {
        let mut b = buddy();
        for size in PageSize::SUPERPAGES {
            let addr = b.alloc(size).expect("space available");
            assert!(addr.is_aligned(size.bytes()));
        }
    }

    #[test]
    fn buddy_splits_and_recombines() {
        let mut b = buddy();
        let a1 = b.alloc(PageSize::Size16K).unwrap();
        let a2 = b.alloc(PageSize::Size16K).unwrap();
        assert_ne!(a1, a2);
        b.free(a1, PageSize::Size16K);
        b.free(a2, PageSize::Size16K);
        // Everything coalesced: one maximal block again.
        assert_eq!(
            b.available(PageSize::Size16M),
            (512 << 20) / (16 << 20),
            "full recombination"
        );
    }

    #[test]
    fn buddy_flexes_between_size_classes() {
        // Unlike buckets, a buddy can turn freed small regions back into
        // large ones.
        let range = ShadowRange::new(PhysAddr::new(0x8000_0000), 16 << 20);
        let mut b = BuddyAllocator::new(range);
        // Consume everything as 16 KB regions.
        let mut regions = Vec::new();
        while let Some(a) = b.alloc(PageSize::Size16K) {
            regions.push(a);
        }
        assert_eq!(regions.len(), 1024);
        assert_eq!(b.available(PageSize::Size16M), 0);
        for a in regions {
            b.free(a, PageSize::Size16K);
        }
        assert_eq!(b.available(PageSize::Size16M), 1);
        assert!(b.alloc(PageSize::Size16M).is_some());
    }

    #[test]
    fn buddy_counts_carvable_blocks() {
        let range = ShadowRange::new(PhysAddr::new(0x8000_0000), 16 << 20);
        let b = BuddyAllocator::new(range);
        assert_eq!(b.available(PageSize::Size16K), 1024);
        assert_eq!(b.available(PageSize::Size4M), 4);
        assert_eq!(b.available(PageSize::Size16M), 1);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn buddy_foreign_free_panics() {
        let mut b = buddy();
        b.free(
            ShadowAddr::from_bus(PhysAddr::new(0x8000_0000)),
            PageSize::Size16K,
        );
    }

    #[test]
    #[should_panic(expected = "order")]
    fn buddy_wrong_size_free_panics() {
        let mut b = buddy();
        let a = b.alloc(PageSize::Size64K).unwrap();
        b.free(a, PageSize::Size16K);
    }

    #[test]
    fn buddy_requests_larger_than_space_fail() {
        let range = ShadowRange::new(PhysAddr::new(0x8000_0000), MIN_BLOCK);
        let mut b = BuddyAllocator::new(range);
        assert!(b.alloc(PageSize::Size64K).is_none());
        assert!(b.alloc(PageSize::Size16K).is_some());
    }

    #[test]
    fn page_size_constants_consistent() {
        // MIN_BLOCK must equal the smallest superpage.
        assert_eq!(MIN_BLOCK, PageSize::Size16K.bytes());
        assert_eq!(MIN_BLOCK, 4 * PAGE_SIZE);
    }
}
