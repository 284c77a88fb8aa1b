//! Swap device model and paging policy.

use std::collections::BTreeMap;

use mtlb_types::PAGE_SIZE;

/// How superpages are paged to disk.
///
/// This is the paper's §2.5 comparison: conventional superpages force the
/// OS to swap the *entire* superpage because per-base-page dirty
/// information is lost, while shadow-backed superpages keep exact dirty
/// bits in the MMC table and can be paged one base page at a time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PagingPolicy {
    /// Shadow-superpage paging: evict/load individual base pages, write
    /// only dirty ones (the paper's mechanism).
    #[default]
    PerBasePage,
    /// Conventional-superpage paging: the whole superpage moves as a
    /// unit and every base page is written (no per-page dirty bits).
    WholeSuperpage,
}

/// A simple swap "disk": page-sized slots keyed by shadow page index,
/// with real contents (so swapped data genuinely round-trips) and
/// access counters for the traffic experiments.
#[derive(Debug, Clone, Default)]
pub struct SwapDevice {
    slots: BTreeMap<u64, Box<[u8]>>,
    writes: u64,
    reads: u64,
}

impl SwapDevice {
    /// An empty swap device.
    #[must_use]
    pub fn new() -> Self {
        SwapDevice::default()
    }

    /// Stores a page's contents under `key`.
    ///
    /// # Panics
    ///
    /// Panics unless `data` is exactly one page.
    pub fn write(&mut self, key: u64, data: Vec<u8>) {
        assert_eq!(data.len() as u64, PAGE_SIZE, "swap slots hold whole pages");
        self.slots.insert(key, data.into_boxed_slice());
        self.writes += 1;
    }

    /// Retrieves a copy of the page stored under `key`.
    pub fn read(&mut self, key: u64) -> Option<Vec<u8>> {
        let data = self.slots.get(&key)?.to_vec();
        self.reads += 1;
        Some(data)
    }

    /// Whether a current copy exists for `key` (clean evictions can skip
    /// the write).
    #[must_use]
    pub fn has_copy(&self, key: u64) -> bool {
        self.slots.contains_key(&key)
    }

    /// Drops the copy stored under `key`, if any. Slots are keyed by
    /// shadow page index, so a page whose shadow region is released
    /// must give up its slot: the index's next tenant would otherwise
    /// pass [`has_copy`](SwapDevice::has_copy) with someone else's data.
    pub fn discard(&mut self, key: u64) {
        self.slots.remove(&key);
    }

    /// Page writes performed so far.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Page reads performed so far.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_contents() {
        let mut s = SwapDevice::new();
        let data: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 256) as u8).collect();
        s.write(7, data.clone());
        assert!(s.has_copy(7));
        assert_eq!(s.read(7), Some(data));
        assert_eq!(s.writes(), 1);
        assert_eq!(s.reads(), 1);
    }

    #[test]
    fn missing_slot_reads_none() {
        let mut s = SwapDevice::new();
        assert_eq!(s.read(1), None);
        assert_eq!(s.reads(), 0, "failed reads are not counted");
    }

    #[test]
    fn rewrites_replace_and_count() {
        let mut s = SwapDevice::new();
        s.write(1, vec![0xaa; PAGE_SIZE as usize]);
        s.write(1, vec![0xbb; PAGE_SIZE as usize]);
        assert_eq!(s.writes(), 2);
        assert_eq!(s.read(1).unwrap()[0], 0xbb);
    }

    #[test]
    fn discard_drops_the_copy() {
        let mut s = SwapDevice::new();
        s.write(3, vec![0xcc; PAGE_SIZE as usize]);
        s.discard(3);
        assert!(!s.has_copy(3));
        assert_eq!(s.read(3), None);
        s.discard(3); // absent keys are fine
    }

    #[test]
    #[should_panic(expected = "whole pages")]
    fn partial_pages_rejected() {
        let mut s = SwapDevice::new();
        s.write(1, vec![0; 100]);
    }
}
