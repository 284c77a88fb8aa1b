//! Real frames behind shadow pages: the frame allocator, the swap
//! device and the CLOCK ring of resident shadow pages, and demand paging
//! of shadow-backed superpages one base page at a time (§2.5, §4).

use std::ops::Range;

use mtlb_mem::{FrameAllocator, FrameOrder};
use mtlb_mmc::ShadowPte;
use mtlb_types::{Cycles, Fault, Ppn, ShadowAddr, Vpn, PAGE_SIZE};

use super::{Kernel, KernelCtx, ShootdownRequest, SwapOutReport};
use crate::aspace::SuperpageInfo;
use crate::paging::{PagingPolicy, SwapDevice};

/// CPU cycles charged per page written to swap: a deliberately moderate
/// disk (≈ 0.8 ms at 240 MHz), large enough that swap traffic dominates
/// when paging, small enough that paging experiments finish quickly.
const SWAP_PAGE_WRITE: Cycles = Cycles::new(200_000);

/// CPU cycles charged per page read from swap (the same disk).
const SWAP_PAGE_READ: Cycles = Cycles::new(200_000);

/// Shadow page indices per [`RingIndex`] chunk: one 4 KB page of `u32`s.
const RING_CHUNK: usize = 1024;

/// Shadow page index → position in the CLOCK ring plus one, `0` when
/// absent. The shadow range (128 K pages by default) is indexed in
/// zero-filled 4 KB chunks allocated on first use, so only the
/// stretches the kernel has mapped cost host memory; one flat zeroed
/// vector commits all of it (512 KB by default) whenever the allocator
/// hands it recycled memory, which it must then clear.
#[derive(Debug, Clone, Default)]
struct RingIndex {
    chunks: Vec<Option<Box<[u32; RING_CHUNK]>>>,
}

impl RingIndex {
    fn get(&self, index: u64) -> u32 {
        let (chunk, at) = (index as usize / RING_CHUNK, index as usize % RING_CHUNK);
        self.chunks
            .get(chunk)
            .and_then(Option::as_deref)
            .map_or(0, |c| c[at])
    }

    fn set(&mut self, index: u64, value: u32) {
        let (chunk, at) = (index as usize / RING_CHUNK, index as usize % RING_CHUNK);
        if chunk >= self.chunks.len() {
            self.chunks.resize_with(chunk + 1, || None);
        }
        self.chunks[chunk].get_or_insert_with(|| Box::new([0; RING_CHUNK]))[at] = value;
    }
}

/// The kernel's real memory and its residency bookkeeping. Only this
/// module touches the frame allocator, the swap device or the ring.
#[derive(Debug, Clone)]
pub(super) struct ResidentSet {
    frames: FrameAllocator,
    swap: SwapDevice,
    /// CLOCK ring of resident shadow page indices.
    ring: Vec<u64>,
    /// Each resident shadow page's position in `ring`.
    ring_pos: RingIndex,
    hand: usize,
    /// The pages of the region a whole-superpage fault is paging in,
    /// which CLOCK must leave alone until the fault is done.
    pinned: Range<u64>,
}

impl ResidentSet {
    pub(super) fn new(first_frame: u64, frames: u64, order: FrameOrder) -> Self {
        ResidentSet {
            frames: FrameAllocator::new(first_frame, frames, order),
            swap: SwapDevice::new(),
            ring: Vec::new(),
            ring_pos: RingIndex::default(),
            hand: 0,
            pinned: 0..0,
        }
    }

    pub(super) fn swap(&self) -> &SwapDevice {
        &self.swap
    }

    pub(super) fn free_frames(&self) -> u64 {
        self.frames.free_frames()
    }

    /// Appends shadow page `index` to the CLOCK ring.
    pub(super) fn push(&mut self, index: u64) {
        debug_assert_eq!(
            self.ring_pos.get(index),
            0,
            "shadow page {index} is already in the CLOCK ring"
        );
        self.ring.push(index);
        self.ring_pos.set(index, self.ring.len() as u32);
    }

    /// Drops shadow page `index` from the CLOCK ring, if there, and
    /// steps the hand back when the removed slot was behind it.
    fn forget(&mut self, index: u64) {
        let pos = self.ring_pos.get(index);
        if pos == 0 {
            return;
        }
        self.ring_pos.set(index, 0);
        let pos = pos as usize - 1;
        debug_assert_eq!(self.ring.get(pos), Some(&index));
        self.ring.swap_remove(pos);
        if let Some(&moved) = self.ring.get(pos) {
            self.ring_pos.set(moved, pos as u32 + 1);
        }
        if self.hand > pos {
            self.hand -= 1;
        }
        debug_assert!(
            (1..)
                .zip(&self.ring)
                .all(|(at, &r)| self.ring_pos.get(r) == at),
            "CLOCK ring position index out of step with the ring"
        );
    }

    /// Shadow page `index` is being released: drops it from the ring
    /// and discards its swap copy, which the index's next tenant must
    /// not inherit.
    pub(super) fn release(&mut self, index: u64) {
        self.swap.discard(index);
        self.forget(index);
    }

    /// One CLOCK sweep: clears referenced bits from the hand on until
    /// an unreferenced page turns up, passing over the pinned pages
    /// (evicting them would re-fault a whole-superpage fault forever).
    /// Returns that page and the control ops' cycles; each hand step
    /// counts in `sweeps`.
    fn sweep(&mut self, ctx: &mut KernelCtx<'_>, sweeps: &mut u64) -> (u64, Cycles) {
        assert!(
            self.ring.iter().any(|index| !self.pinned.contains(index)),
            "out of physical memory with nothing evictable"
        );
        let mut cycles = Cycles::ZERO;
        loop {
            *sweeps = sweeps.saturating_add(1);
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let index = self.ring[self.hand];
            if !self.pinned.contains(&index) {
                let (pte, c) = ctx.read_mapping(index);
                cycles += c;
                if !pte.referenced {
                    return (index, cycles);
                }
                cycles += ctx.clear_referenced(index);
            }
            self.hand = (self.hand + 1) % self.ring.len();
        }
    }

    /// Pages resident shadow page `index` out: writes it to swap when
    /// `force_write`, dirty or never yet copied (each write costing
    /// [`SWAP_PAGE_WRITE`]), marks its mapping swapped out, frees its
    /// frame and drops it from the ring. Returns the cycles and whether
    /// it wrote.
    fn page_out(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        index: u64,
        force_write: bool,
    ) -> (Cycles, bool) {
        let (pte, mut cycles) = ctx.read_mapping(index);
        assert!(pte.valid, "swapping out a non-resident page");
        let write = force_write || pte.dirty || !self.swap.has_copy(index);
        if write {
            let mut buf = vec![0u8; PAGE_SIZE as usize];
            ctx.mem.read(pte.rpfn.base_addr(), &mut buf);
            self.swap.write(index, buf);
            cycles += SWAP_PAGE_WRITE;
        }
        cycles += ctx.set_mapping(index, ShadowPte::swapped_out());
        self.frames.free(pte.rpfn);
        self.forget(index);
        (cycles, write)
    }
}

impl Kernel {
    /// A free frame, running the CLOCK hand until one frees up when
    /// physical memory is exhausted; returns it and the evictions'
    /// cycles.
    pub(super) fn alloc_frame(&mut self, ctx: &mut KernelCtx<'_>) -> (Ppn, Cycles) {
        let mut cycles = Cycles::ZERO;
        loop {
            if let Some(frame) = self.residency.frames.alloc() {
                return (frame, cycles);
            }
            cycles += self.clock_evict_one(ctx);
        }
    }

    /// Services a shadow page fault (§4): the MMC found an invalid
    /// mapping for a swapped-out base page. Pages it (or, under the
    /// conventional policy, its whole superpage) back in.
    ///
    /// # Errors
    ///
    /// Returns the fault unchanged when the shadow page belongs to no
    /// known superpage (a wild access).
    pub fn handle_shadow_fault(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        shadow_pa: ShadowAddr,
    ) -> Result<Cycles, Fault> {
        let index = self.shadow.index_of(shadow_pa);
        let Some(region) = self.shadow.region_of_index(index) else {
            return Err(Fault::ShadowPageFault { shadow: shadow_pa });
        };
        self.stats.shadow_faults_serviced = self.stats.shadow_faults_serviced.saturating_add(1);
        let mut cycles = self.config.costs.page_fault_overhead;
        match self.config.paging {
            PagingPolicy::PerBasePage => {
                cycles += self.swap_in_page(ctx, index);
            }
            PagingPolicy::WholeSuperpage => {
                // Conventional behaviour: the whole superpage comes back.
                let pages = self.shadow.indices(&region);
                self.residency.pinned = pages.clone();
                for index in pages {
                    let (pte, c) = ctx.read_mapping(index);
                    cycles += c;
                    if !pte.valid {
                        cycles += self.swap_in_page(ctx, index);
                    }
                }
                self.residency.pinned = 0..0;
            }
        }
        self.stats.fault_cycles += cycles;
        Ok(cycles)
    }

    /// Brings shadow page `index` back from swap (zeroes if it never
    /// left) into a fresh frame and re-enters it in the ring.
    pub(super) fn swap_in_page(&mut self, ctx: &mut KernelCtx<'_>, index: u64) -> Cycles {
        let (frame, mut cycles) = self.alloc_frame(ctx);
        let bytes = self
            .residency
            .swap
            .read(index)
            .unwrap_or_else(|| vec![0u8; PAGE_SIZE as usize]);
        ctx.mem.write(frame.base_addr(), &bytes);
        cycles += SWAP_PAGE_READ;
        cycles += self.back_shadow_page(ctx, index, frame);
        self.stats.pages_swapped_in = self.stats.pages_swapped_in.saturating_add(1);
        cycles
    }

    /// Swaps out a single shadow base page: flush its cache lines, write
    /// it to swap if dirty (or never yet copied), invalidate the mapping,
    /// free the frame. The CPU TLB superpage entry **stays in place** —
    /// that is the paper's key §2.5/§4 property. `vpn` is the virtual
    /// page shadow page `index` backs. Returns the cycles and whether
    /// the page was written.
    fn swap_out_page(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        index: u64,
        vpn: Vpn,
        force_write: bool,
    ) -> (Cycles, bool) {
        // Clean the page: flush lines so DRAM is current and the dirty
        // bit is final (§2.5's "cleaning process"). The lines are tagged
        // with the page's *shadow* address.
        let (flush, _) = self.flush_page(ctx, vpn, self.shadow.bus_frame(index));
        let (cycles, written) = self.residency.page_out(ctx, index, force_write);
        self.stats.pages_swapped_out = self.stats.pages_swapped_out.saturating_add(1);
        (flush + cycles, written)
    }

    /// One CLOCK eviction: sweep the resident ring for an unreferenced
    /// page, then swap it (or, under the conventional policy, its whole
    /// superpage) out.
    fn clock_evict_one(&mut self, ctx: &mut KernelCtx<'_>) -> Cycles {
        let (index, cycles) = self.residency.sweep(ctx, &mut self.stats.clock_sweeps);
        #[expect(
            clippy::expect_used,
            reason = "Structure invariant: pages enter the resident ring only when their region is registered."
        )]
        let sp = self
            .shadow
            .region_of_index(index)
            .expect("resident ring holds only region pages");
        match self.config.paging {
            PagingPolicy::PerBasePage => {
                let vpn = sp.vpn_base.offset(index - self.shadow.indices(&sp).start);
                cycles + self.swap_out_page(ctx, index, vpn, false).0
            }
            PagingPolicy::WholeSuperpage => cycles + self.swap_out_pages(ctx, sp, true).cycles,
        }
    }

    /// Explicitly swaps out the superpage containing `vpn`, honouring the
    /// configured [`PagingPolicy`]: per-base-page mode writes only dirty
    /// pages; whole-superpage mode writes everything and removes the TLB
    /// entry (the conventional superpage behaviour the paper contrasts).
    ///
    /// # Panics
    ///
    /// Panics when `vpn` is not inside a shadow-backed superpage.
    pub fn swap_out_superpage(&mut self, ctx: &mut KernelCtx<'_>, vpn: Vpn) -> SwapOutReport {
        let sp = self.superpage_at(vpn);
        let write_all = self.config.paging == PagingPolicy::WholeSuperpage;
        let report = self.swap_out_pages(ctx, sp, write_all);
        self.stats.service_cycles += report.cycles;
        report
    }

    /// Pages out every resident base page of `sp`. With `write_all`
    /// (conventional superpages, whose dirty information is unusable)
    /// each one is written to swap and the superpage loses its TLB
    /// mapping; otherwise only dirty pages and pages with no swap copy
    /// yet are written, and the TLB entry stays.
    fn swap_out_pages(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        sp: SuperpageInfo,
        write_all: bool,
    ) -> SwapOutReport {
        let mut report = SwapOutReport {
            pages_total: sp.size.base_pages(),
            ..SwapOutReport::default()
        };
        if write_all {
            self.invalidate(ctx, ShootdownRequest::covering(&sp));
        }
        for (i, index) in (0..).zip(self.shadow.indices(&sp)) {
            let (pte, c) = ctx.read_mapping(index);
            report.cycles += c;
            if !pte.valid {
                continue; // already out
            }
            let (c, written) = self.swap_out_page(ctx, index, sp.vpn_base.offset(i), write_all);
            report.cycles += c;
            report.pages_written += u64::from(written);
        }
        report
    }

    /// Reads the per-base-page referenced/dirty bits of a superpage — the
    /// OS-visible §2.5 accounting.
    ///
    /// # Panics
    ///
    /// Panics when `vpn` is not inside a shadow-backed superpage.
    pub fn page_bits(&mut self, ctx: &mut KernelCtx<'_>, vpn: Vpn) -> Vec<(Vpn, bool, bool)> {
        let sp = self.superpage_at(vpn);
        (0..)
            .zip(self.shadow.indices(&sp))
            .map(|(i, index)| {
                let (pte, _) = ctx.read_mapping(index);
                (sp.vpn_base.offset(i), pte.referenced, pte.dirty)
            })
            .collect()
    }
}
