//! Shadow address space: the Figure 2 bucket allocator (§2.4), the
//! single-page pool one-page regions come from, and the registry that
//! maps a shadow page back to its region; plus the services that make
//! and unmake shadow regions.

use std::collections::BTreeMap;
use std::ops::Range;

use mtlb_mmc::{ShadowPte, ShadowRange};
use mtlb_types::{Cycles, PageSize, Ppn, ShadowAddr, Spn, Vpn};

use super::{Kernel, KernelCtx, RemapReport, ShootdownRequest};
use crate::aspace::{Backing, PageInfo, SuperpageInfo};
use crate::shadow_alloc::{BucketAllocator, BucketPartition, ShadowAllocator};

/// The kernel's shadow address space. Only this module touches its
/// allocator, pool and registry.
#[derive(Debug, Clone)]
pub(super) struct ShadowSpace {
    range: ShadowRange,
    buckets: BucketAllocator,
    /// Single shadow pages for one-page shadow regions (all-shadow 4 KB
    /// mappings, recoloring), in the order they were pooled.
    pool: Vec<Spn>,
    /// Shadow regions by base shadow-page index, for reverse lookup.
    regions: BTreeMap<u64, SuperpageInfo>,
}

impl ShadowSpace {
    pub(super) fn new(range: ShadowRange, partition: &BucketPartition) -> Self {
        ShadowSpace {
            range,
            buckets: BucketAllocator::new(range, partition),
            pool: Vec::new(),
            regions: BTreeMap::new(),
        }
    }

    /// The MMC table index of the shadow page holding `addr`.
    pub(super) fn index_of(&self, addr: ShadowAddr) -> u64 {
        self.range.page_index(addr)
    }

    /// The MMC table indices of `sp`'s shadow pages.
    pub(super) fn indices(&self, sp: &SuperpageInfo) -> Range<u64> {
        let base = self.index_of(sp.shadow_base.base_addr());
        base..base + sp.size.base_pages()
    }

    /// The bus frame of shadow page `index`.
    pub(super) fn bus_frame(&self, index: u64) -> Ppn {
        self.range.page_addr(index).spn().bus()
    }

    /// The registered region holding shadow page `index`.
    pub(super) fn region_of_index(&self, index: u64) -> Option<SuperpageInfo> {
        self.regions
            .range(..=index)
            .next_back()
            .map(|(_, sp)| *sp)
            .filter(|sp| self.indices(sp).contains(&index))
    }

    /// Regions of `size` still available.
    pub(super) fn available(&self, size: PageSize) -> u64 {
        self.buckets.available(size)
    }

    /// A fresh region of `size`, if its class has one left.
    pub(super) fn alloc(&mut self, size: PageSize) -> Option<Spn> {
        Some(self.buckets.alloc(size)?.spn())
    }

    /// Takes the most recently pooled single shadow page that `fits`,
    /// carving fresh 16 KB shadow regions into the pool, their pages in
    /// address order, until one does. Returns the page and the number
    /// of regions carved.
    fn take_pool_page(&mut self, fits: impl Fn(Spn) -> bool) -> (Spn, u64) {
        let mut carved = 0;
        loop {
            if let Some(at) = self.pool.iter().rposition(|&p| fits(p)) {
                return (self.pool.remove(at), carved);
            }
            #[expect(
                clippy::expect_used,
                reason = "Documented contract: all-shadow and recoloring experiments size the shadow window to the pages they shadow; exhaustion is an experiment misconfiguration."
            )]
            let region = self
                .alloc(PageSize::Size16K)
                .expect("shadow space exhausted");
            let pages = PageSize::Size16K.base_pages();
            self.pool.extend((0..pages).map(|i| region.offset(i)));
            carved += 1;
        }
    }

    /// A pooled shadow page, registered as the one-page region backing
    /// `vpn` (a fresh 4 KB mapping in §4 all-shadow mode), and its index.
    pub(super) fn one_page_region(&mut self, vpn: Vpn) -> (Spn, u64) {
        let (shadow_base, _) = self.take_pool_page(|_| true);
        self.register(SuperpageInfo {
            vpn_base: vpn,
            size: PageSize::Base4K,
            shadow_base,
        });
        (shadow_base, self.index_of(shadow_base.base_addr()))
    }

    /// Enters `sp` in the registry.
    fn register(&mut self, sp: SuperpageInfo) {
        self.regions
            .insert(self.index_of(sp.shadow_base.base_addr()), sp);
    }

    /// Drops `sp` from the registry and returns its shadow pages: a
    /// one-page region's page, carved out of a 16 KB pool region, to the
    /// pool, any other region to the allocator.
    fn release(&mut self, sp: SuperpageInfo) {
        self.regions
            .remove(&self.index_of(sp.shadow_base.base_addr()));
        if sp.size == PageSize::Base4K {
            self.pool.push(sp.shadow_base);
        } else {
            self.buckets.free(sp.shadow_base.base_addr(), sp.size);
        }
    }
}

impl Kernel {
    /// Points shadow page `index` at real `frame` with an uncached MMC
    /// control-register write (§2.4) and enters it in the CLOCK ring;
    /// returns the write's CPU cycles.
    pub(super) fn back_shadow_page(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        index: u64,
        frame: Ppn,
    ) -> Cycles {
        let cycles = ctx.set_mapping(index, ShadowPte::present(frame));
        self.residency.push(index);
        cycles
    }

    /// Backs `sp`'s pages with its shadow pages (§2.3–2.4): shoots the
    /// range down, then per page flushes its lines (their tags change
    /// from real to shadow addresses), points its shadow page at its
    /// real frame in `frames` and re-points its PTE at the shadow page
    /// with `sp`'s size; then records the region. Flush cost lands in
    /// `report`'s flush fields, the rest in `other_cycles`.
    pub(super) fn shadow_region(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        sp: SuperpageInfo,
        frames: &[Ppn],
        report: &mut RemapReport,
    ) {
        self.invalidate(ctx, ShootdownRequest::covering(&sp));
        for ((i, &frame), index) in (0..).zip(frames).zip(self.shadow.indices(&sp)) {
            let vpn = sp.vpn_base.offset(i);
            let (flush, out) = self.flush_page(ctx, vpn, frame);
            report.lines_flushed = report.lines_flushed.saturating_add(out.lines_examined);
            let writebacks = out.writebacks.len() as u64;
            report.flush_writebacks = report.flush_writebacks.saturating_add(writebacks);
            report.flush_cycles += flush;
            let shadow_spn = sp.shadow_base.offset(i);
            report.other_cycles += self.back_shadow_page(ctx, index, frame)
                + self.repoint(ctx, vpn, Backing::Shadow { shadow_spn }, sp.size)
                + self.config.costs.remap_page_overhead;
            report.pages_remapped = report.pages_remapped.saturating_add(1);
        }
        self.proc_mut().aspace.add_superpage(sp);
        self.shadow.register(sp);
    }

    /// No-copy page recoloring (paper §6 / Bershad et al.): gives a
    /// real-backed 4 KB page a *shadow* bus address of the requested
    /// cache color, so a physically-indexed cache places it elsewhere —
    /// without copying a byte. The real frame is untouched; only the
    /// MMC mapping, the PTE and the (purged) TLB entry change.
    ///
    /// Returns the cycles consumed.
    ///
    /// # Panics
    ///
    /// Panics when the page is unmapped, not real-backed, the color is
    /// out of range, or shadow space for the pool is exhausted.
    pub fn recolor_page(&mut self, ctx: &mut KernelCtx<'_>, vpn: Vpn, color: u64) -> Cycles {
        let palette = ctx.cache.config();
        let colors = palette.page_colors();
        assert!(color < colors, "color {color} out of range 0..{colors}");
        #[expect(
            clippy::panic,
            reason = "Documented contract: recolor requires a mapped, real-backed page; recoloring a shadow page twice is caller error."
        )]
        let Some(&PageInfo {
            backing: Backing::Real(frame),
            ..
        }) = self.proc().aspace.page(vpn)
        else {
            panic!("recolor of unmapped or non-real-backed vpn {vpn}");
        };
        // Each 16 KB region carved contributes four consecutive colors,
        // so at most `colors / 4` carvings cover the whole palette.
        let (shadow_base, carved) = self
            .shadow
            .take_pool_page(|spn| palette.color_of(spn.bus().base_addr()) == color);
        let mut report = RemapReport {
            other_cycles: self.config.costs.syscall_overhead
                + self.config.costs.per_superpage_overhead * carved,
            ..RemapReport::default()
        };
        // A one-page shadow region, which faults, paging and demotion
        // treat like any other.
        let sp = SuperpageInfo {
            vpn_base: vpn,
            size: PageSize::Base4K,
            shadow_base,
        };
        self.shadow_region(ctx, sp, &[frame], &mut report);
        self.stats.pages_recolored = self.stats.pages_recolored.saturating_add(1);
        let cycles = report.total_cycles();
        self.stats.service_cycles += cycles;
        cycles
    }

    /// Demotes the superpage containing `vpn` back to ordinary 4 KB
    /// mappings (§2.3 notes mappings may change "from real to shadow
    /// addresses (or back)"): swapped-out base pages are brought in, the
    /// virtual region is flushed and shot down, PTEs are re-pointed at
    /// the real frames, and the shadow region returns to the allocator
    /// (a recolored page's shadow page returns to the single-page pool).
    ///
    /// # Panics
    ///
    /// Panics when `vpn` is not inside a shadow-backed superpage.
    pub fn demote_superpage(&mut self, ctx: &mut KernelCtx<'_>, vpn: Vpn) -> Cycles {
        let sp = self.superpage_at(vpn);
        let mut cycles =
            self.config.costs.syscall_overhead + self.config.costs.per_superpage_overhead;
        self.invalidate(ctx, ShootdownRequest::covering(&sp));
        for (i, index) in (0..).zip(self.shadow.indices(&sp)) {
            let page_vpn = sp.vpn_base.offset(i);
            // Shadow-tagged lines must go before the mapping does.
            cycles += self
                .flush_page(ctx, page_vpn, sp.shadow_base.offset(i).bus())
                .0;
            let (mut pte, c) = ctx.read_mapping(index);
            cycles += c;
            if !pte.valid {
                // Swapped out: bring it back so the 4 KB mapping is real.
                cycles += self.swap_in_page(ctx, index);
                let (resident, c) = ctx.read_mapping(index);
                (pte, cycles) = (resident, cycles + c);
            }
            cycles += self.repoint(ctx, page_vpn, Backing::Real(pte.rpfn), PageSize::Base4K);
            cycles += ctx.set_mapping(index, ShadowPte::invalid());
            // The shadow page is being released: its swap copy must not
            // outlive it, or the index's next tenant inherits it.
            self.residency.release(index);
            cycles += self.config.costs.remap_page_overhead;
        }
        self.proc_mut().aspace.remove_superpage(sp.vpn_base);
        self.shadow.release(sp);
        self.stats.service_cycles += cycles;
        cycles
    }
}
