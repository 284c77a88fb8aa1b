//! The sparse guest DRAM byte store: a page is backed by host memory
//! only once a non-zero byte is written to it.

use std::cell::Cell;

use mtlb_types::{PhysAddr, Ppn, PAGE_SIZE};

const PAGE_BYTES: usize = PAGE_SIZE as usize;

/// Directory sentinel for "no backing page materialised".
const NO_SLOT: u32 = u32::MAX;

/// Installed DRAM: a sparse, page-granular store of real bytes.
///
/// Addresses must designate **real** physical memory — shadow addresses
/// are remapped by the memory controller (`mtlb-mmc`) *before* reaching
/// this store. Pages materialise zero-filled on their first non-zero
/// write; reads of untouched pages return zeros without allocating, and
/// so zero writes to them allocate nothing either.
///
/// Internally the store is a flat two-level structure rather than a hash
/// map: a page **directory** (`Vec<u32>`, one entry per installed page
/// frame) maps a page index to a slot in a page **arena**
/// (`Vec<Box<[u8; PAGE_BYTES]>>`), with a freelist recycling slots that
/// [`zero_page`](GuestMemory::zero_page) releases. A one-entry last-page
/// memo (a [`Cell`], so reads stay `&self`) short-circuits the directory
/// probe for the same-page runs that dominate workload access patterns.
/// This keeps every access hash-free: the host-side cost of a guest byte
/// access is an array index or two.
///
/// # Panics
///
/// All accessors panic when the access extends past the installed DRAM
/// size; the memory controller is responsible for range-checking bus
/// addresses first, so such a panic indicates a simulator bug rather than
/// guest misbehaviour.
#[derive(Debug, Clone, Default)]
pub struct GuestMemory {
    /// Page index → arena slot, or [`NO_SLOT`] when untouched.
    dir: Vec<u32>,
    /// Backing 4 KB pages; slots are recycled through `free`.
    arena: Vec<Box<[u8; PAGE_BYTES]>>,
    /// Arena slots released by `zero_page`, ready for reuse.
    free: Vec<u32>,
    /// Materialised page count (`dir` entries that are not `NO_SLOT`).
    resident: usize,
    /// Last-page memo: `(page index, slot + 1)`; `0` means invalid.
    last: Cell<(u64, u32)>,
    installed_bytes: u64,
}

impl GuestMemory {
    /// Creates a DRAM store of `installed_bytes` capacity.
    ///
    /// # Panics
    ///
    /// Panics unless `installed_bytes` is a non-zero multiple of the 4 KB
    /// page size.
    #[must_use]
    pub fn new(installed_bytes: u64) -> Self {
        assert!(
            installed_bytes > 0 && installed_bytes.is_multiple_of(PAGE_SIZE),
            "installed DRAM must be a non-zero multiple of the page size"
        );
        let num_pages = (installed_bytes / PAGE_SIZE) as usize;
        GuestMemory {
            dir: vec![NO_SLOT; num_pages],
            arena: Vec::new(),
            free: Vec::new(),
            resident: 0,
            last: Cell::new((0, 0)),
            installed_bytes,
        }
    }

    /// Installed DRAM capacity in bytes.
    #[must_use]
    pub fn installed_bytes(&self) -> u64 {
        self.installed_bytes
    }

    /// Number of pages that have actually been materialised (touched by a
    /// non-zero write). Useful for asserting footprint expectations in
    /// tests.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    fn check(&self, addr: PhysAddr, len: u64) {
        #[expect(
            clippy::expect_used,
            reason = "Documented contract: a wild physical access is a simulator bug; guest memory is not a fallible device model."
        )]
        let end = addr
            .get()
            .checked_add(len)
            .expect("physical access overflows the address space");
        assert!(
            end <= self.installed_bytes,
            "physical access {addr}+{len} beyond installed DRAM ({} bytes); \
             the MMC should have range-checked this",
            self.installed_bytes
        );
    }

    /// Arena slot backing `page`, or `None` while it is untouched.
    ///
    /// Pure apart from refreshing the last-page memo; callers must have
    /// range-checked `page` already.
    #[inline]
    fn page_slot(&self, page: u64) -> Option<usize> {
        let (memo_page, memo_slot) = self.last.get();
        if memo_slot != 0 && memo_page == page {
            return Some((memo_slot - 1) as usize);
        }
        let slot = self.dir[page as usize];
        if slot == NO_SLOT {
            return None;
        }
        self.last.set((page, slot + 1));
        Some(slot as usize)
    }

    /// Stores `src` at byte `off` of `page`, materialising a zero-filled
    /// arena page (recycled from the freelist when possible) on the first
    /// non-zero write. An untouched page already reads as zero, so an
    /// all-zero `src` leaves it untouched.
    #[inline]
    fn store(&mut self, page: u64, off: usize, src: &[u8]) {
        let slot = match self.dir[page as usize] {
            NO_SLOT if src.iter().all(|&b| b == 0) => return,
            NO_SLOT => self.materialise(page),
            slot => slot,
        };
        self.last.set((page, slot + 1));
        self.arena[slot as usize][off..off + src.len()].copy_from_slice(src);
    }

    /// Backs untouched `page` with a zero-filled arena slot.
    fn materialise(&mut self, page: u64) -> u32 {
        let slot = match self.free.pop() {
            Some(s) => {
                self.arena[s as usize].fill(0);
                s
            }
            None => {
                self.arena.push(Box::new([0u8; PAGE_BYTES]));
                (self.arena.len() - 1) as u32
            }
        };
        self.dir[page as usize] = slot;
        self.resident += 1;
        slot
    }

    /// Reads `buf.len()` bytes starting at `addr`, which may span pages.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        self.check(addr, buf.len() as u64);
        let mut a = addr.get();
        let mut filled = 0usize;
        while filled < buf.len() {
            let page = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            let n = usize::min(PAGE_BYTES - off, buf.len() - filled);
            match self.page_slot(page) {
                Some(slot) => {
                    buf[filled..filled + n].copy_from_slice(&self.arena[slot][off..off + n]);
                }
                None => buf[filled..filled + n].fill(0),
            }
            filled += n;
            a += n as u64;
        }
    }

    /// Writes `buf` starting at `addr`, which may span pages.
    pub fn write(&mut self, addr: PhysAddr, buf: &[u8]) {
        self.check(addr, buf.len() as u64);
        let mut a = addr.get();
        let mut consumed = 0usize;
        while consumed < buf.len() {
            let page = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            let n = usize::min(PAGE_BYTES - off, buf.len() - consumed);
            self.store(page, off, &buf[consumed..consumed + n]);
            consumed += n;
            a += n as u64;
        }
    }

    /// Reads a little-endian `u8`.
    #[must_use]
    #[inline]
    pub fn read_u8(&self, addr: PhysAddr) -> u8 {
        self.check(addr, 1);
        let a = addr.get();
        match self.page_slot(a / PAGE_SIZE) {
            Some(slot) => self.arena[slot][(a % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Writes a `u8`.
    #[inline]
    pub fn write_u8(&mut self, addr: PhysAddr, v: u8) {
        self.check(addr, 1);
        let a = addr.get();
        self.store(a / PAGE_SIZE, (a % PAGE_SIZE) as usize, &[v]);
    }

    /// Reads a little-endian `u16`.
    #[must_use]
    #[inline]
    pub fn read_u16(&self, addr: PhysAddr) -> u16 {
        let mut b = [0u8; 2];
        self.read_scalar(addr, &mut b);
        u16::from_le_bytes(b)
    }

    /// Writes a little-endian `u16`.
    #[inline]
    pub fn write_u16(&mut self, addr: PhysAddr, v: u16) {
        self.write_scalar(addr, &v.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    #[must_use]
    #[inline]
    pub fn read_u32(&self, addr: PhysAddr) -> u32 {
        let mut b = [0u8; 4];
        self.read_scalar(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn write_u32(&mut self, addr: PhysAddr, v: u32) {
        self.write_scalar(addr, &v.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    #[must_use]
    #[inline]
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read_scalar(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, addr: PhysAddr, v: u64) {
        self.write_scalar(addr, &v.to_le_bytes());
    }

    /// Scalar read helper: single page lookup when the access does not
    /// straddle a page boundary, falling back to the spanning loop.
    #[inline]
    fn read_scalar(&self, addr: PhysAddr, buf: &mut [u8]) {
        let a = addr.get();
        let off = (a % PAGE_SIZE) as usize;
        if off + buf.len() > PAGE_BYTES {
            self.read(addr, buf);
            return;
        }
        self.check(addr, buf.len() as u64);
        match self.page_slot(a / PAGE_SIZE) {
            Some(slot) => buf.copy_from_slice(&self.arena[slot][off..off + buf.len()]),
            None => buf.fill(0),
        }
    }

    /// Scalar write helper: single page lookup when the access does not
    /// straddle a page boundary, falling back to the spanning loop.
    #[inline]
    fn write_scalar(&mut self, addr: PhysAddr, buf: &[u8]) {
        let a = addr.get();
        let off = (a % PAGE_SIZE) as usize;
        if off + buf.len() > PAGE_BYTES {
            self.write(addr, buf);
            return;
        }
        self.check(addr, buf.len() as u64);
        self.store(a / PAGE_SIZE, off, buf);
    }

    /// Zero-fills one 4 KB page (the OS model uses this when handing fresh
    /// frames to a process).
    pub fn zero_page(&mut self, frame: Ppn) {
        self.check(frame.base_addr(), PAGE_SIZE);
        // Releasing the backing page to the freelist is equivalent to
        // zeroing it and keeps the store sparse.
        let page = frame.index();
        let slot = self.dir[page as usize];
        if slot != NO_SLOT {
            self.dir[page as usize] = NO_SLOT;
            self.free.push(slot);
            self.resident -= 1;
            self.last.set((0, 0));
        }
    }

    /// Copies a whole 4 KB page from `src` to `dst`.
    ///
    /// This is the conventional-superpage coalescing operation the shadow
    /// mechanism exists to avoid; the §3.3 cost benchmark exercises it.
    pub fn copy_page(&mut self, src: Ppn, dst: Ppn) {
        self.check(src.base_addr(), PAGE_SIZE);
        self.check(dst.base_addr(), PAGE_SIZE);
        match self.page_slot(src.index()) {
            Some(src_slot) => {
                let data = *self.arena[src_slot];
                self.store(dst.index(), 0, &data);
            }
            None => self.zero_page(dst),
        }
    }

    /// A deterministic digest of the full memory image (resident pages in
    /// page-index order). Two stores with the same installed size and the
    /// same byte contents digest equally; diagnostics only.
    #[must_use]
    pub fn content_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for (page, &slot) in self.dir.iter().enumerate() {
            if slot == NO_SLOT {
                continue;
            }
            let data = &self.arena[slot as usize];
            // Skip pages that were materialised but still hold only
            // zeros, so the digest depends on contents, not residency
            // history.
            if data.iter().all(|&b| b == 0) {
                continue;
            }
            h = (h ^ page as u64).wrapping_mul(FNV_PRIME);
            for &b in data.iter() {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> GuestMemory {
        GuestMemory::new(1 << 20)
    }

    #[test]
    fn reads_of_untouched_memory_are_zero() {
        let m = mem();
        assert_eq!(m.read_u64(PhysAddr::new(0x1234)), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn scalar_round_trips() {
        let mut m = mem();
        m.write_u8(PhysAddr::new(1), 0xab);
        m.write_u16(PhysAddr::new(2), 0xcdef);
        m.write_u32(PhysAddr::new(4), 0x0123_4567);
        m.write_u64(PhysAddr::new(8), 0x89ab_cdef_0123_4567);
        assert_eq!(m.read_u8(PhysAddr::new(1)), 0xab);
        assert_eq!(m.read_u16(PhysAddr::new(2)), 0xcdef);
        assert_eq!(m.read_u32(PhysAddr::new(4)), 0x0123_4567);
        assert_eq!(m.read_u64(PhysAddr::new(8)), 0x89ab_cdef_0123_4567);
    }

    #[test]
    fn cross_page_access_spans_correctly() {
        let mut m = mem();
        let addr = PhysAddr::new(PAGE_SIZE - 2);
        m.write_u32(addr, 0xaabb_ccdd);
        assert_eq!(m.read_u32(addr), 0xaabb_ccdd);
        assert_eq!(m.read_u16(PhysAddr::new(PAGE_SIZE)), 0xaabb);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn bulk_read_write() {
        let mut m = mem();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        m.write(PhysAddr::new(100), &data);
        let mut back = vec![0u8; data.len()];
        m.read(PhysAddr::new(100), &mut back);
        assert_eq!(back, data);
    }

    #[test]
    #[should_panic(expected = "beyond installed DRAM")]
    fn out_of_range_access_panics() {
        let m = mem();
        let _ = m.read_u8(PhysAddr::new(1 << 20));
    }

    #[test]
    #[should_panic(expected = "beyond installed DRAM")]
    fn straddling_end_of_dram_panics() {
        let mut m = mem();
        m.write_u32(PhysAddr::new((1 << 20) - 2), 1);
    }

    #[test]
    fn zero_page_clears_contents() {
        let mut m = mem();
        m.write_u64(PhysAddr::new(0x2000), 42);
        assert_eq!(m.resident_pages(), 1);
        m.zero_page(Ppn::new(2));
        assert_eq!(m.read_u64(PhysAddr::new(0x2000)), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn zeroed_pages_are_recycled_and_cleared() {
        let mut m = mem();
        m.write_u64(PhysAddr::new(0x2008), !0);
        m.zero_page(Ppn::new(2));
        // The recycled arena slot must come back zero-filled for a
        // different page.
        m.write_u8(PhysAddr::new(0x5000), 1);
        assert_eq!(m.read_u64(PhysAddr::new(0x5008)), 0);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn copy_page_duplicates_bytes() {
        let mut m = mem();
        m.write_u32(PhysAddr::new(0x1004), 7);
        m.copy_page(Ppn::new(1), Ppn::new(3));
        assert_eq!(m.read_u32(PhysAddr::new(0x3004)), 7);
        // Copying an untouched source zeroes the destination.
        m.copy_page(Ppn::new(5), Ppn::new(3));
        assert_eq!(m.read_u32(PhysAddr::new(0x3004)), 0);
    }

    #[test]
    fn content_digest_tracks_bytes_not_residency() {
        let mut a = mem();
        let mut b = mem();
        a.write_u32(PhysAddr::new(0x1004), 7);
        // Materialise an extra page in `b` only, then clear it again: a
        // zero write alone would materialise nothing.
        b.write_u32(PhysAddr::new(0x1004), 7);
        b.write_u8(PhysAddr::new(0x9000), 3);
        b.write_u8(PhysAddr::new(0x9000), 0);
        assert_eq!((a.resident_pages(), b.resident_pages()), (1, 2));
        assert_eq!(a.content_digest(), b.content_digest());
        b.write_u8(PhysAddr::new(0x9000), 3);
        assert_ne!(a.content_digest(), b.content_digest());
    }

    #[test]
    fn zero_writes_to_untouched_pages_materialise_nothing() {
        let mut m = mem();
        m.write_u8(PhysAddr::new(0x1000), 0);
        m.write_u16(PhysAddr::new(0x2000), 0);
        m.write_u32(PhysAddr::new(0x3000), 0);
        m.write_u64(PhysAddr::new(0x4ffc), 0);
        m.write(PhysAddr::new(0x6000), &[0u8; 3 * PAGE_BYTES]);
        m.copy_page(Ppn::new(1), Ppn::new(20));
        assert_eq!(m.resident_pages(), 0);
        // A resident all-zero source copies into an untouched page as
        // nothing, and a block write backs only the pages it makes
        // non-zero.
        m.write_u8(PhysAddr::new(0x1000), 1);
        m.write_u8(PhysAddr::new(0x1000), 0);
        m.copy_page(Ppn::new(1), Ppn::new(21));
        let mut block = [0u8; 2 * PAGE_BYTES];
        block[PAGE_BYTES + 5] = 9;
        m.write(PhysAddr::new(0x3_0000), &block);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read_u8(PhysAddr::new(0x3_1005)), 9);
        // A zero write to a resident page still clears its bytes.
        m.write_u8(PhysAddr::new(0x3_1005), 0);
        assert_eq!(m.read_u8(PhysAddr::new(0x3_1005)), 0);
    }

    /// The store against a flat byte model: random mixes of zero and
    /// non-zero scalar writes, block writes, `zero_page` and
    /// `copy_page`. After every op each byte reads as the model says,
    /// `content_digest` equals the model's, and a page is resident
    /// exactly when it has received a non-zero byte since it was last
    /// released — a page that has only ever received zeros never is.
    mod contract {
        use super::*;
        use proptest::prelude::*;

        const PAGES: u64 = 16;
        const BYTES: u64 = PAGES * PAGE_SIZE;

        #[derive(Clone, Debug)]
        enum Op {
            Scalar {
                addr: u64,
                size: u64,
                value: u64,
            },
            /// All-zero block except `byte` at `at`, when `at < len`.
            Block {
                addr: u64,
                len: usize,
                at: usize,
                byte: u8,
            },
            ZeroPage(u64),
            CopyPage(u64, u64),
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                4 => (0..BYTES, 0u32..4, any::<u64>(), 0u8..2).prop_map(
                    |(addr, log, value, zero)| {
                        let size = 1u64 << log;
                        Op::Scalar {
                            addr: addr.min(BYTES - size),
                            size,
                            value: if zero == 0 { 0 } else { value },
                        }
                    }
                ),
                2 => (0..BYTES, 1..2 * PAGE_BYTES, 0..3 * PAGE_BYTES, any::<u8>()).prop_map(
                    |(addr, len, at, byte)| Op::Block {
                        addr: addr.min(BYTES - len as u64),
                        len,
                        at,
                        byte,
                    }
                ),
                1 => (0..PAGES).prop_map(Op::ZeroPage),
                1 => (0..PAGES, 0..PAGES).prop_map(|(src, dst)| Op::CopyPage(src, dst)),
            ]
        }

        /// `content_digest` computed from the flat model.
        fn model_digest(model: &[u8]) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let prime: u64 = 0x0000_0100_0000_01b3;
            for (page, bytes) in model.chunks(PAGE_BYTES).enumerate() {
                if bytes.iter().all(|&b| b == 0) {
                    continue;
                }
                h = (h ^ page as u64).wrapping_mul(prime);
                for &b in bytes {
                    h = (h ^ u64::from(b)).wrapping_mul(prime);
                }
            }
            h
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn store_matches_flat_model(ops in proptest::collection::vec(op(), 1..80)) {
                let mut m = GuestMemory::new(BYTES);
                let mut model = vec![0u8; BYTES as usize];
                // Pages that received a non-zero byte since last released.
                let mut nonzero = [false; PAGES as usize];
                for op in &ops {
                    let mut mark = |at: u64, bytes: &[u8]| {
                        let start = at as usize;
                        model[start..start + bytes.len()].copy_from_slice(bytes);
                        for (i, &b) in bytes.iter().enumerate() {
                            if b != 0 {
                                nonzero[(start + i) / PAGE_BYTES] = true;
                            }
                        }
                    };
                    match *op {
                        Op::Scalar { addr, size, value } => {
                            let a = PhysAddr::new(addr);
                            match size {
                                1 => m.write_u8(a, value as u8),
                                2 => m.write_u16(a, value as u16),
                                4 => m.write_u32(a, value as u32),
                                _ => m.write_u64(a, value),
                            }
                            mark(addr, &value.to_le_bytes()[..size as usize]);
                            let read = match size {
                                1 => u64::from(m.read_u8(a)),
                                2 => u64::from(m.read_u16(a)),
                                4 => u64::from(m.read_u32(a)),
                                _ => m.read_u64(a),
                            };
                            prop_assert_eq!(read, value & (u64::MAX >> (64 - 8 * size)));
                        }
                        Op::Block { addr, len, at, byte } => {
                            let mut block = vec![0u8; len];
                            if at < len {
                                block[at] = byte;
                            }
                            m.write(PhysAddr::new(addr), &block);
                            mark(addr, &block);
                        }
                        Op::ZeroPage(page) => {
                            m.zero_page(Ppn::new(page));
                            let start = (page * PAGE_SIZE) as usize;
                            model[start..start + PAGE_BYTES].fill(0);
                            nonzero[page as usize] = false;
                        }
                        Op::CopyPage(src, dst) => {
                            m.copy_page(Ppn::new(src), Ppn::new(dst));
                            let (s, d) = ((src * PAGE_SIZE) as usize, (dst * PAGE_SIZE) as usize);
                            let data = model[s..s + PAGE_BYTES].to_vec();
                            model[d..d + PAGE_BYTES].copy_from_slice(&data);
                            if data.iter().any(|&b| b != 0) {
                                nonzero[dst as usize] = true;
                            } else if !nonzero[src as usize] {
                                // An untouched source releases the destination.
                                nonzero[dst as usize] = false;
                            }
                        }
                    }
                    let mut image = vec![0u8; BYTES as usize];
                    m.read(PhysAddr::new(0), &mut image);
                    prop_assert!(image == model, "store diverged from the model after {op:?}");
                    prop_assert_eq!(m.content_digest(), model_digest(&model));
                    for (page, &dirty) in nonzero.iter().enumerate() {
                        prop_assert_eq!(
                            m.dir[page] != NO_SLOT,
                            dirty,
                            "page {} residency after {:?}",
                            page,
                            op
                        );
                    }
                    prop_assert_eq!(
                        m.resident_pages(),
                        nonzero.iter().filter(|&&d| d).count()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple of the page size")]
    fn misaligned_capacity_rejected() {
        let _ = GuestMemory::new(1000);
    }
}
