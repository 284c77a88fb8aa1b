//! Virtual-to-bus mappings: the hashed page table, region mapping, the
//! `remap()` walk that builds superpages (§2.3–2.4), the modified
//! `sbrk()`, and the software TLB miss handler (§3.2) with §5's online
//! promotion.

use mtlb_tlb::{ContigInfo, Pte, TlbEntry};
use mtlb_types::{Cycles, Fault, PageSize, Ppn, Prot, VirtAddr, Vpn, PAGE_SIZE};

use super::{Kernel, KernelCtx, RemapReport};
use crate::aspace::{AddressSpace, Backing, PageInfo, SuperpageInfo};

/// Base pages in the aligned window the miss handler scans for
/// contiguous mappings when the translation scheme asks for
/// [`ContigInfo`] (one page-table cache line's worth of PTEs — the
/// neighbourhood a hardware coalescing TLB sees for free during the
/// walk).
pub(super) const CONTIG_SCAN_WINDOW: u64 = 8;

/// Bytes a process's first heap extension maps (§2.3: the modified
/// `sbrk` "pre-allocates a large region, from which it satisfies
/// subsequent small requests"; §3.1 gives vortex's 8 MB).
const SBRK_INITIAL_CHUNK: u64 = 8 << 20;

/// Bytes each later heap extension maps (vortex's 2 MB, §3.1).
const SBRK_LATER_CHUNK: u64 = 2 << 20;

impl Kernel {
    /// Writes `pte` into the hashed page table through the cache (a new
    /// entry, or an in-place update of the page's old one); returns the
    /// insert's cycles.
    fn install_pte(&mut self, ctx: &mut KernelCtx<'_>, pte: Pte) -> Cycles {
        let mut tm = ctx.timed();
        #[expect(
            clippy::expect_used,
            reason = "Documented contract: HPT capacity is an experiment parameter; overflowing it must abort the run, not skew its results."
        )]
        self.hpt
            .insert(pte, &mut tm)
            .expect("hashed page table exhausted");
        tm.take_cycles()
    }

    /// Re-points mapped page `vpn` at `backing` with mapping size
    /// `size`: the address-space record and the PTE, which keeps the
    /// page's protection. Returns the PTE write's cycles.
    pub(super) fn repoint(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        vpn: Vpn,
        backing: Backing,
        size: PageSize,
    ) -> Cycles {
        let prot = self.proc_mut().aspace.remap_page(vpn, backing, size);
        let pte = Pte {
            vpn,
            pfn: backing.frame(),
            size,
            prot,
        };
        self.install_pte(ctx, pte)
    }

    /// One walk of the hashed page table for `vpn` through the cache:
    /// the PTE, if any, and the walk's memory and per-probe handler
    /// cycles.
    fn walk(&mut self, ctx: &mut KernelCtx<'_>, vpn: Vpn) -> (Option<Pte>, Cycles) {
        let mut tm = ctx.timed();
        let lookup = self.hpt.lookup(vpn, &mut tm);
        let probes = self.config.costs.tlb_probe_instructions * u64::from(lookup.probes);
        (lookup.pte, tm.take_cycles() + probes)
    }

    /// Maps `[start, start+len)` with fresh zeroed frames at 4 KB
    /// granularity (the `mmap`-like primitive workloads use for text,
    /// data and explicit buffers).
    ///
    /// # Panics
    ///
    /// Panics when `start` is not page-aligned or the range intersects an
    /// existing mapping.
    pub fn map_region(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        start: VirtAddr,
        len: u64,
        prot: Prot,
    ) -> Cycles {
        assert!(
            start.is_aligned(PAGE_SIZE),
            "map_region start must be page-aligned"
        );
        assert!(len > 0, "map_region of zero bytes");
        assert!(
            start.get() >= self.layout.reserved_bytes,
            "user mappings must lie above the locked kernel block window (first {} bytes)",
            self.layout.reserved_bytes
        );
        let mut cycles = self.config.costs.syscall_overhead;
        for i in 0..len.div_ceil(PAGE_SIZE) {
            let vpn = start.vpn().offset(i);
            let (frame, c) = self.alloc_frame(ctx);
            cycles += c;
            ctx.mem.zero_page(frame);
            // §4 all-shadow mode: the CPU-visible frame is a shadow page
            // remapped by the MTLB even for ordinary 4 KB mappings.
            let backing = if self.config.all_shadow {
                let (shadow_spn, index) = self.shadow.one_page_region(vpn);
                cycles += self.back_shadow_page(ctx, index, frame);
                Backing::Shadow { shadow_spn }
            } else {
                Backing::Real(frame)
            };
            cycles += self.install_pte(
                ctx,
                Pte {
                    vpn,
                    pfn: backing.frame(),
                    size: PageSize::Base4K,
                    prot,
                },
            );
            self.proc_mut().aspace.map_page(
                vpn,
                PageInfo {
                    backing,
                    prot,
                    mapping_size: PageSize::Base4K,
                },
            );
            cycles += self.config.costs.map_page_overhead;
        }
        self.stats.service_cycles += cycles;
        cycles
    }

    /// The `remap()` syscall (§2.3–2.4): walks `[start, start+len)`
    /// creating maximally-sized shadow-backed superpages from the
    /// existing (discontiguous) 4 KB mappings.
    ///
    /// On a kernel configured with `use_superpages: false` this is a
    /// cheap no-op, which is how the baseline machine runs the identical
    /// workload binaries.
    pub fn remap(&mut self, ctx: &mut KernelCtx<'_>, start: VirtAddr, len: u64) -> RemapReport {
        let report = self.remap_inner(ctx, start, len);
        self.stats.service_cycles += report.total_cycles();
        report
    }

    /// [`remap`](Self::remap) without counting its cycles as a service:
    /// online promotion's, which the miss handler counts.
    fn remap_inner(&mut self, ctx: &mut KernelCtx<'_>, start: VirtAddr, len: u64) -> RemapReport {
        let mut report = RemapReport {
            other_cycles: self.config.costs.syscall_overhead,
            ..RemapReport::default()
        };
        self.stats.remaps = self.stats.remaps.saturating_add(1);
        if !self.config.use_superpages || len == 0 {
            return report;
        }
        let end = start + len;
        // Smallest superpage-aligned address at or above start (§2.4);
        // skipped head pages stay 4 KB.
        let aligned_start = start.align_up(PageSize::Size16K.bytes());
        report.pages_skipped += aligned_start.min(end).offset_from(start) / PAGE_SIZE;

        let mut va = aligned_start;
        while va + PageSize::Size16K.bytes() <= end {
            match self.pick_superpage(va, end.offset_from(va)) {
                Some((sp, frames)) => {
                    self.create_superpage(ctx, sp, &frames, &mut report);
                    va += sp.size.bytes();
                }
                None => {
                    // Hole, foreign backing, mixed protection or shadow
                    // exhaustion at even 16 KB: leave this page alone.
                    report.pages_skipped += 1;
                    va += PAGE_SIZE;
                }
            }
        }
        // Sub-16 KB tail.
        report.pages_skipped += (end.offset_from(va.min(end))) / PAGE_SIZE;
        report
    }

    /// Chooses the largest usable superpage size at `va` given
    /// `remaining` bytes, per the §2.4 walk: virtual alignment, fit,
    /// uniform 4 KB real mappings underneath, and shadow availability —
    /// allocating the shadow region it settles on. Returns the superpage
    /// and the real frame behind each of its base pages.
    fn pick_superpage(
        &mut self,
        va: VirtAddr,
        remaining: u64,
    ) -> Option<(SuperpageInfo, Vec<Ppn>)> {
        for size in PageSize::SUPERPAGES.iter().copied().rev() {
            if size.bytes() > remaining || !va.is_aligned(size.bytes()) {
                continue;
            }
            let Some(frames) = self.promotable_frames(va.vpn(), size) else {
                continue;
            };
            if let Some(shadow_base) = self.shadow.alloc(size) {
                let sp = SuperpageInfo {
                    vpn_base: va.vpn(),
                    size,
                    shadow_base,
                };
                return Some((sp, frames));
            }
        }
        None
    }

    /// The real frames of the `size` region at `vpn_base`, when all its
    /// pages are present, real-backed, and of uniform protection (the
    /// paper requires identical protection across a superpage, §2.1).
    fn promotable_frames(&self, vpn_base: Vpn, size: PageSize) -> Option<Vec<Ppn>> {
        let mut prot = None;
        let mut frames = Vec::new();
        for (_, info) in self.proc().aspace.pages_in(vpn_base, size.base_pages()) {
            let Backing::Real(frame) = info.backing else {
                return None;
            };
            if *prot.get_or_insert(info.prot) != info.prot {
                return None;
            }
            frames.push(frame);
        }
        (frames.len() as u64 == size.base_pages()).then_some(frames)
    }

    fn create_superpage(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        sp: SuperpageInfo,
        frames: &[Ppn],
        report: &mut RemapReport,
    ) {
        report.other_cycles += self.config.costs.per_superpage_overhead;
        self.shadow_region(ctx, sp, frames, report);
        report.superpages.push((sp.vpn_base.base_addr(), sp.size));
        self.stats.superpages_created = self.stats.superpages_created.saturating_add(1);
        self.stats.pages_remapped = self
            .stats
            .pages_remapped
            .saturating_add(sp.size.base_pages());
    }

    /// Whether [`sbrk`](Kernel::sbrk)`(increment)` keeps the break
    /// inside the heap already mapped. Such a call only moves the
    /// break: it changes no mapping, protection, residency or TLB
    /// entry.
    #[must_use]
    pub fn sbrk_fits(&self, increment: u64) -> bool {
        self.proc().heap_brk + increment <= self.proc().heap_mapped_end
    }

    /// The modified `sbrk()` (§2.3): extends the heap, pre-allocating
    /// large chunks and promoting them to shadow superpages.
    ///
    /// Returns the previous break (the address of the new allocation)
    /// and the cycles consumed, those of the `map_region` and `remap`
    /// it makes included.
    pub fn sbrk(&mut self, ctx: &mut KernelCtx<'_>, increment: u64) -> (VirtAddr, Cycles) {
        self.stats.sbrk_calls = self.stats.sbrk_calls.saturating_add(1);
        let old_brk = self.proc().heap_brk;
        let mut cycles = self.config.costs.syscall_overhead;
        self.stats.service_cycles += cycles;
        if !self.sbrk_fits(increment) {
            let base = self.proc().heap_mapped_end;
            let need = (old_brk + increment).offset_from(base);
            let min_chunk = if self.proc().heap_extended {
                SBRK_LATER_CHUNK
            } else {
                SBRK_INITIAL_CHUNK
            };
            let chunk = need.max(min_chunk).div_ceil(PAGE_SIZE) * PAGE_SIZE;
            cycles += self.map_region(ctx, base, chunk, Prot::RW);
            if self.config.use_superpages {
                cycles += self.remap(ctx, base, chunk).total_cycles();
            }
            let p = self.proc_mut();
            p.heap_mapped_end = base + chunk;
            p.heap_extended = true;
        }
        self.proc_mut().heap_brk = old_brk + increment;
        (old_brk, cycles)
    }

    /// The software TLB miss handler (§3.2): trap, probe the hashed page
    /// table through the cache, insert the (super)page entry. Returns
    /// the entry, or [`Fault::PageNotMapped`] when no PTE exists, and
    /// the cycles consumed either way: a walk that finds nothing still
    /// paid for its trap and probes.
    pub fn handle_tlb_miss(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        va: VirtAddr,
    ) -> (Result<TlbEntry, Fault>, Cycles) {
        self.stats.tlb_miss_handler_calls = self.stats.tlb_miss_handler_calls.saturating_add(1);
        let (pte, walk) = self.walk(ctx, va.vpn());
        let mut cycles = self.config.costs.tlb_trap_overhead + walk;
        let Some(pte) = pte else {
            self.stats.tlb_miss_cycles += cycles;
            return (Err(Fault::PageNotMapped { va }), cycles);
        };
        let (pte, promotion) = self.promote_on_miss(ctx, va, pte);
        #[expect(
            clippy::expect_used,
            reason = "Structure invariant: the kernel only installs size-aligned mappings, so the recovered base is aligned."
        )]
        let entry = TlbEntry::new(
            pte.mapping_vpn_base(),
            pte.mapping_pfn_base(),
            pte.size,
            pte.prot,
        )
        .expect("PTEs always describe aligned mappings");
        let contig = if ctx.tlb.wants_contiguity() {
            contiguity_of(&self.proc().aspace, &entry)
        } else {
            ContigInfo::for_entry(&entry)
        };
        ctx.tlb.fill(entry, &contig);
        cycles += promotion + self.config.costs.tlb_insert;
        self.stats.tlb_miss_cycles += cycles;
        (Ok(entry), cycles)
    }

    /// §5 extension: online promotion. A miss on a 4 KB page charges
    /// its aligned candidate region's counter; crossing the threshold
    /// promotes the region to a shadow superpage and re-walks the table.
    /// Returns the PTE to fill and the promotion's cycles.
    fn promote_on_miss(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        va: VirtAddr,
        pte: Pte,
    ) -> (Pte, Cycles) {
        let promo = match self.config.promotion {
            Some(promo) if self.config.use_superpages && pte.size == PageSize::Base4K => promo,
            _ => return (pte, Cycles::ZERO),
        };
        let region_base = va.vpn().align_down_to(promo.region).index();
        let count = self.promo_counters.entry(region_base).or_insert(0);
        *count += 1;
        if *count < promo.miss_threshold {
            return (pte, Cycles::ZERO);
        }
        self.promo_counters.remove(&region_base);
        let region = Vpn::new(region_base).base_addr();
        let report = self.remap_inner(ctx, region, promo.region.bytes());
        if report.superpages.is_empty() {
            return (pte, Cycles::ZERO);
        }
        let promoted = report.superpages.len() as u64;
        self.stats.auto_promotions = self.stats.auto_promotions.saturating_add(promoted);
        // Re-walk: the PTE now names a superpage.
        let (again, walk) = self.walk(ctx, va.vpn());
        #[expect(
            clippy::expect_used,
            reason = "Structure invariant: the PTE was inserted earlier in the same (single-threaded) kernel operation."
        )]
        let walked = again.expect("page was mapped a moment ago");
        (walked, report.total_cycles() + walk)
    }
}

/// Mapping-contiguity metadata for a miss-handler refill: the maximal
/// run of virtually- and physically-contiguous base pages with uniform
/// protection containing `entry`, bounded to the aligned
/// [`CONTIG_SCAN_WINDOW`]-page window around it.
///
/// Costs no simulated cycles: a hardware coalescing TLB reads the
/// neighbouring PTEs from the same cache line the walk already fetched
/// (Ban et al., arXiv:1908.08774), so the metadata is free at fill time;
/// only schemes that opt in via
/// [`TranslationScheme::wants_contiguity`](mtlb_tlb::TranslationScheme::wants_contiguity)
/// trigger the host-side scan at all, and it is one range walk of the
/// address space over the window.
pub(super) fn contiguity_of(aspace: &AddressSpace, entry: &TlbEntry) -> ContigInfo {
    if entry.size() != PageSize::Base4K {
        return ContigInfo::for_entry(entry);
    }
    let anchor = entry.vpn_base().index();
    let window_base = anchor & !(CONTIG_SCAN_WINDOW - 1);
    let window_end = window_base + CONTIG_SCAN_WINDOW;
    // The CPU-visible (bus) frame of each page of the window mapped with
    // the entry's protection at base-page granularity.
    let mut frames = [None; CONTIG_SCAN_WINDOW as usize];
    for (vpn, info) in aspace.pages_in(Vpn::new(window_base), CONTIG_SCAN_WINDOW) {
        if info.mapping_size == PageSize::Base4K && info.prot == entry.prot() {
            frames[(vpn.index() - window_base) as usize] = Some(info.backing.frame().index());
        }
    }
    let frame_of = |p: u64| frames[(p - window_base) as usize];
    let anchor_frame = entry.pfn_base().index();
    let mut lo = anchor;
    let mut lo_frame = anchor_frame;
    while lo > window_base {
        match frame_of(lo - 1) {
            Some(f) if f + 1 == lo_frame => {
                lo -= 1;
                lo_frame = f;
            }
            _ => break,
        }
    }
    let mut hi = anchor;
    let mut hi_frame = anchor_frame;
    while hi + 1 < window_end {
        match frame_of(hi + 1) {
            Some(f) if f == hi_frame + 1 => {
                hi += 1;
                hi_frame = f;
            }
            _ => break,
        }
    }
    ContigInfo {
        base: Vpn::new(lo),
        pfn: Ppn::new(lo_frame),
        pages: hi - lo + 1,
    }
}
