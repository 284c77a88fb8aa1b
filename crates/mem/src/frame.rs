//! The physical frame allocator.

use std::collections::BTreeSet;

use mtlb_types::Ppn;

/// The order in which free frames are handed out.
///
/// The paper's mechanism exists precisely because, under normal paging,
/// the frames backing a virtual region end up *dispersed* through
/// physical memory. `Scrambled` reproduces that dispersal
/// deterministically, so experiments exercise the discontiguous case;
/// `Sequential` models a freshly-booted machine and is the best case for
/// conventional (contiguity-requiring) superpages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrameOrder {
    /// Lowest-numbered free frame first.
    Sequential,
    /// A deterministic pseudo-random permutation of the frame range,
    /// parameterised by `seed`.
    Scrambled {
        /// Seed for the permutation; same seed ⇒ same order.
        seed: u64,
    },
}

/// Allocates 4 KB physical frames from a contiguous frame range.
///
/// ```
/// use mtlb_mem::{FrameAllocator, FrameOrder};
///
/// let mut a = FrameAllocator::new(0x100, 16, FrameOrder::Sequential);
/// let f0 = a.alloc().unwrap();
/// assert_eq!(f0.index(), 0x100);
/// a.free(f0);
/// assert_eq!(a.free_frames(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    first: u64,
    count: u64,
    /// Frames not yet handed out, in hand-out order (front = next).
    free_order: Vec<Ppn>,
    /// Set view of `free_order` for O(log n) double-free checks.
    free_set: BTreeSet<u64>,
}

impl FrameAllocator {
    /// Creates an allocator over frames `[first_frame, first_frame + count)`.
    ///
    /// # Panics
    ///
    /// Panics when `count` is zero or the range overflows.
    #[must_use]
    pub fn new(first_frame: u64, count: u64, order: FrameOrder) -> Self {
        assert!(count > 0, "frame range must be non-empty");
        #[expect(
            clippy::expect_used,
            reason = "Documented contract: constructor rejects a frame range that exceeds the address space at configuration time."
        )]
        first_frame
            .checked_add(count)
            .expect("frame range overflows");
        let mut frames: Vec<u64> = (first_frame..first_frame + count).collect();
        if let FrameOrder::Scrambled { seed } = order {
            // Fisher–Yates driven by a SplitMix64 stream: deterministic,
            // dependency-free, and full-period over the seed space.
            let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            for i in (1..frames.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                frames.swap(i, j);
            }
        }
        // Pop from the back; reverse so the configured order is preserved.
        frames.reverse();
        let free_set = frames.iter().copied().collect();
        FrameAllocator {
            first: first_frame,
            count,
            free_order: frames.into_iter().map(Ppn::new).collect(),
            free_set,
        }
    }

    /// Allocates one frame, or `None` when physical memory is exhausted.
    pub fn alloc(&mut self) -> Option<Ppn> {
        let f = self.free_order.pop()?;
        self.free_set.remove(&f.index());
        Some(f)
    }

    /// Returns a frame to the pool. Freed frames are reused LIFO.
    ///
    /// # Panics
    ///
    /// Panics on double-free or on a frame outside this allocator's range.
    pub fn free(&mut self, frame: Ppn) {
        let idx = frame.index();
        assert!(
            idx >= self.first && idx < self.first + self.count,
            "freed frame {frame} outside allocator range"
        );
        assert!(self.free_set.insert(idx), "double free of frame {frame}");
        self.free_order.push(frame);
    }

    /// Number of frames still available.
    #[must_use]
    pub fn free_frames(&self) -> u64 {
        self.free_order.len() as u64
    }

    /// Returns `true` when the given frame is currently free.
    #[must_use]
    pub fn is_free(&self, frame: Ppn) -> bool {
        self.free_set.contains(&frame.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_order_is_ascending() {
        let mut a = FrameAllocator::new(10, 5, FrameOrder::Sequential);
        let got: Vec<u64> = (0..5).map(|_| a.alloc().unwrap().index()).collect();
        assert_eq!(got, vec![10, 11, 12, 13, 14]);
        assert_eq!(a.alloc(), None);
    }

    #[test]
    fn scrambled_order_is_a_permutation_and_deterministic() {
        let drain = |seed| {
            let mut a = FrameAllocator::new(0, 64, FrameOrder::Scrambled { seed });
            let v: Vec<u64> = (0..64).map(|_| a.alloc().unwrap().index()).collect();
            v
        };
        let a = drain(7);
        let b = drain(7);
        let c = drain(8);
        assert_eq!(a, b, "same seed must give the same order");
        assert_ne!(a, c, "different seeds should differ");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>(), "must be a permutation");
        // The scramble must actually disperse: not the identity.
        assert_ne!(a, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn free_and_reuse() {
        let mut a = FrameAllocator::new(0, 2, FrameOrder::Sequential);
        let f0 = a.alloc().unwrap();
        let f1 = a.alloc().unwrap();
        assert_eq!(a.free_frames(), 0);
        a.free(f0);
        assert!(a.is_free(f0));
        assert!(!a.is_free(f1));
        assert_eq!(a.alloc().unwrap(), f0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = FrameAllocator::new(0, 2, FrameOrder::Sequential);
        let f = a.alloc().unwrap();
        a.free(f);
        a.free(f);
    }

    #[test]
    #[should_panic(expected = "outside allocator range")]
    fn foreign_frame_free_panics() {
        let mut a = FrameAllocator::new(0, 2, FrameOrder::Sequential);
        a.free(Ppn::new(99));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_rejected() {
        let _ = FrameAllocator::new(0, 0, FrameOrder::Sequential);
    }
}
