//! The simulated kernel: boot, region mapping, `remap()` superpage
//! creation, the modified `sbrk()`, software TLB miss handling, and
//! demand paging of shadow-backed superpages.
//!
//! Every service returns the CPU [`Cycles`] it consumed so the machine
//! model (`mtlb-sim`) can attribute kernel time, exactly as the paper's
//! simulations "include the execution time and memory accesses of these
//! kernel operations" (§3.2).

use mtlb_cache::DataCache;
use mtlb_mem::{FrameAllocator, FrameOrder, GuestMemory};
use mtlb_mmc::{BusOp, Mmc, MmcConfig, ShadowPte};
use mtlb_tlb::{ContigInfo, HashedPageTable, MicroItlb, Pte, TlbEntry, TranslationScheme};
use mtlb_types::{
    ClockRatio, Cycles, Fault, PageSize, Ppn, Prot, ShadowAddr, Spn, VirtAddr, Vpn, PAGE_SIZE,
};

use std::collections::BTreeMap;

use crate::access::TimedMem;
use crate::aspace::{AddressSpace, Backing, PageInfo, SuperpageInfo};
use crate::layout::{KernelLayout, UserLayout};
use crate::paging::{PagingPolicy, SwapCosts, SwapDevice};
use crate::shadow_alloc::{BucketAllocator, BucketPartition, ShadowAllocator};

/// Base pages in the aligned window the miss handler scans for
/// contiguous mappings when the translation scheme asks for
/// [`ContigInfo`] (one page-table cache line's worth of PTEs — the
/// neighbourhood a hardware coalescing TLB sees for free during the
/// walk).
pub const CONTIG_SCAN_WINDOW: u64 = 8;

/// Borrowed hardware state handed to kernel services.
#[derive(Debug)]
pub struct KernelCtx<'a> {
    /// The CPU's translation front end (the paper's unified TLB, or a
    /// rival [`TranslationScheme`]).
    pub tlb: &'a mut dyn TranslationScheme,
    /// The micro-ITLB.
    pub itlb: &'a mut MicroItlb,
    /// The data cache.
    pub cache: &'a mut DataCache,
    /// The memory controller.
    pub mmc: &'a mut Mmc,
    /// Installed DRAM.
    pub mem: &'a mut GuestMemory,
    /// CPU-per-bus clock ratio.
    pub ratio: ClockRatio,
}

/// A deferred inter-processor TLB shootdown: the invalidation a kernel
/// service applied to the local core's TLB and micro-ITLB that every
/// *other* core must replay before the mapping change is globally safe.
///
/// The uniprocessor paper never needed these; they are the cost the
/// multi-core extension measures. The kernel queues one request per
/// local invalidation and the machine drains the queue on every kernel
/// exit, applying it to the remote cores and charging
/// [`KernelCosts::shootdown_ipi`] per remote core notified.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShootdownRequest {
    /// Invalidate every replaceable entry (context switch).
    All,
    /// Invalidate entries overlapping `[vpn, vpn + pages)` (remap,
    /// demotion, recoloring, whole-superpage pageout).
    Range {
        /// First virtual page of the shot-down range.
        vpn: Vpn,
        /// Base pages in the range.
        pages: u64,
    },
}

impl ShootdownRequest {
    /// The purge this request means on one core: the TLB entries it
    /// names (every replaceable one, or those overlapping the range)
    /// and the whole micro-ITLB. The kernel applies it to the core that
    /// ran the service and the machine to every other core, so the
    /// local and the remote purge cannot differ.
    pub fn apply(self, tlb: &mut dyn TranslationScheme, itlb: &mut MicroItlb) {
        match self {
            ShootdownRequest::All => tlb.purge_all(),
            ShootdownRequest::Range { vpn, pages } => tlb.purge_range(vpn, pages),
        };
        itlb.purge();
    }
}

/// What one timed page flush did (see `Kernel::flush_page`).
struct PageFlush {
    /// Cache line slots examined.
    lines: u64,
    /// Dirty lines written back.
    writebacks: u64,
    /// [`KernelCosts::flush_line`] per slot plus the writebacks' bus
    /// time.
    cycles: Cycles,
}

/// A region `pick_superpage` proved promotable, with what it proved.
struct Promotion {
    size: PageSize,
    /// The shadow region allocated for it.
    shadow_base: ShadowAddr,
    /// The protection every page of the region shares.
    prot: Prot,
    /// The real frame behind each base page, in virtual order.
    frames: Vec<Ppn>,
}

/// Software cost constants (CPU cycles) for kernel services, calibrated
/// against the paper's §3.3 measurements — see each field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelCosts {
    /// Trap + syscall entry/exit for `remap`/`sbrk`/`mmap`-style calls.
    pub syscall_overhead: Cycles,
    /// Bookkeeping per page mapped (frame allocation, PTE setup beyond
    /// the charged memory writes).
    pub map_page_overhead: Cycles,
    /// Bookkeeping per page remapped (shadow index arithmetic, loop
    /// overhead). With the control-register write and HPT update this
    /// lands near the paper's ~145 non-flush cycles per page (§3.3).
    pub remap_page_overhead: Cycles,
    /// Per-superpage shootdown/allocation overhead.
    pub per_superpage_overhead: Cycles,
    /// The flush instruction issued for each line slot of a flushed page;
    /// 128 lines × 10 ≈ 1280 plus writeback traffic reproduces the
    /// paper's ~1400 cycles per 4 KB page (§3.3).
    pub flush_line: Cycles,
    /// TLB miss trap entry/exit (the handler's memory probes are charged
    /// separately, through the cache).
    pub tlb_trap_overhead: Cycles,
    /// Handler instructions per hashed-page-table probe.
    pub tlb_probe_instructions: Cycles,
    /// Instructions to build and insert the TLB entry.
    pub tlb_insert: Cycles,
    /// Software cost of fielding a shadow page fault (§4's parity-style
    /// delivery plus kernel dispatch).
    pub page_fault_overhead: Cycles,
    /// Per-word software overhead of the kernel page-copy loop (load,
    /// store, increment, branch) — with the memory traffic this lands on
    /// the paper's ≈11 400 cycles per warm 4 KB page copy (§3.3).
    pub copy_word_overhead: Cycles,
    /// Scheduler + state save/restore cost of a context switch (the TLB
    /// refill cost is what the multiprogramming experiment measures, on
    /// top of this).
    pub context_switch: Cycles,
    /// Inter-processor TLB shootdown, charged per remote core per
    /// request: the initiating core's IPI send, the remote trap
    /// entry/exit, and the invalidation itself. Calibrated near a
    /// cross-call round trip on §3-era hardware.
    pub shootdown_ipi: Cycles,
}

impl KernelCosts {
    /// The calibrated defaults.
    #[must_use]
    pub const fn paper_default() -> Self {
        KernelCosts {
            syscall_overhead: Cycles::new(150),
            map_page_overhead: Cycles::new(30),
            remap_page_overhead: Cycles::new(40),
            per_superpage_overhead: Cycles::new(60),
            flush_line: Cycles::new(10),
            tlb_trap_overhead: Cycles::new(30),
            tlb_probe_instructions: Cycles::new(8),
            tlb_insert: Cycles::new(8),
            page_fault_overhead: Cycles::new(400),
            copy_word_overhead: Cycles::new(2),
            context_switch: Cycles::new(800),
            shootdown_ipi: Cycles::new(400),
        }
    }
}

impl Default for KernelCosts {
    fn default() -> Self {
        KernelCosts::paper_default()
    }
}

/// `sbrk()` pre-allocation behaviour (§2.3: the modified `sbrk`
/// "pre-allocates a large region, from which it satisfies subsequent
/// small requests"; §3.1 gives vortex's 8 MB-then-2 MB settings).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SbrkConfig {
    /// Bytes mapped by the first extension.
    pub initial_chunk: u64,
    /// Bytes mapped by subsequent extensions.
    pub later_chunk: u64,
}

impl SbrkConfig {
    /// Vortex's configuration from §3.1.
    #[must_use]
    pub const fn paper_default() -> Self {
        SbrkConfig {
            initial_chunk: 8 << 20,
            later_chunk: 2 << 20,
        }
    }
}

impl Default for SbrkConfig {
    fn default() -> Self {
        SbrkConfig::paper_default()
    }
}

/// Online superpage promotion policy (§5's Romer et al., adapted: the
/// paper notes such a mechanism "would be useful in the kernel of a
/// machine exploiting shadow memory, although the specific parameters
/// would need to be tweaked to reflect the reduced cost" of shadow
/// promotion).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PromotionConfig {
    /// TLB misses on 4 KB pages of an aligned candidate region before
    /// the kernel promotes it. Shadow promotion is cheap (no copies), so
    /// the threshold can be far lower than Romer's copy-based one.
    pub miss_threshold: u64,
    /// Candidate region granularity (a superpage size).
    pub region: PageSize,
}

impl Default for PromotionConfig {
    fn default() -> Self {
        PromotionConfig {
            miss_threshold: 32,
            region: PageSize::Size256K,
        }
    }
}

/// Kernel configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelConfig {
    /// Whether `remap()` actually creates shadow superpages. `false`
    /// models the baseline OS: the syscall becomes a cheap no-op and all
    /// pages stay 4 KB.
    pub use_superpages: bool,
    /// Partition of shadow space into per-size buckets (§2.4, Figure 2).
    pub shadow_alloc: BucketPartition,
    /// `sbrk` pre-allocation.
    pub sbrk: SbrkConfig,
    /// Frame hand-out order (scrambled reproduces long-running-system
    /// fragmentation; the mechanism's whole point is tolerating it).
    pub frame_order: FrameOrder,
    /// Cost constants.
    pub costs: KernelCosts,
    /// Paging policy for superpages.
    pub paging: PagingPolicy,
    /// Swap I/O costs.
    pub swap_costs: SwapCosts,
    /// §5 extension: online superpage promotion — the kernel watches
    /// per-region TLB miss counts and promotes hot regions to shadow
    /// superpages automatically, without any `remap()` calls from the
    /// program. `None` (the paper's setup) promotes only on request.
    pub promotion: Option<PromotionConfig>,
    /// §4 extension: route *every* mapping through shadow memory (for
    /// machines where all addressable physical memory is installed, the
    /// paper suggests making all virtual accesses use shadow addresses).
    /// Ordinary 4 KB mappings then also translate through the MTLB;
    /// superpage promotion is disabled (every page is already shadowed).
    pub all_shadow: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            use_superpages: true,
            shadow_alloc: BucketPartition::paper_default(),
            sbrk: SbrkConfig::default(),
            frame_order: FrameOrder::Scrambled { seed: 0x5eed },
            costs: KernelCosts::default(),
            paging: PagingPolicy::default(),
            swap_costs: SwapCosts::default(),
            promotion: None,
            all_shadow: false,
        }
    }
}

/// Kernel event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Software TLB miss handler invocations.
    pub tlb_miss_handler_calls: u64,
    /// `remap` syscalls serviced.
    pub remaps: u64,
    /// Superpages created.
    pub superpages_created: u64,
    /// Base pages remapped into superpages.
    pub pages_remapped: u64,
    /// `sbrk` syscalls serviced.
    pub sbrk_calls: u64,
    /// Shadow page faults serviced (swap-ins).
    pub shadow_faults_serviced: u64,
    /// Base pages swapped out.
    pub pages_swapped_out: u64,
    /// Base pages swapped in.
    pub pages_swapped_in: u64,
    /// CLOCK hand advances.
    pub clock_sweeps: u64,
    /// Pages recolored via shadow remapping (§6 extension).
    pub pages_recolored: u64,
    /// Superpages created by the online promotion policy (§5 extension).
    pub auto_promotions: u64,
    /// Processes created beyond the initial one.
    pub processes_spawned: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// CPU cycles charged by successful TLB miss handler invocations.
    /// The cycle-attribution auditor reconciles this against the
    /// machine's `tlb_miss` time bucket.
    pub tlb_miss_cycles: Cycles,
    /// CPU cycles charged by successful shadow-fault service (audited
    /// against the `fault` time bucket).
    pub fault_cycles: Cycles,
    /// CPU cycles charged by explicit kernel services — boot, map,
    /// remap, sbrk, swap control, demote, recolor, context switch
    /// (audited against the `kernel` time bucket). Nested internal
    /// calls (e.g. `sbrk` → remap) are counted once, at the public
    /// entry point.
    pub service_cycles: Cycles,
    /// Remote-core invalidations delivered (one per shootdown request
    /// per remote core). Zero on a 1-core machine.
    pub shootdowns: u64,
    /// CPU cycles charged for those deliveries, separate from
    /// `service_cycles` (audited against the `kernel` time bucket as
    /// its own term).
    pub shootdown_cycles: Cycles,
}

/// Result of a `remap` syscall.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RemapReport {
    /// Each created superpage: virtual base and size.
    pub superpages: Vec<(VirtAddr, PageSize)>,
    /// Base pages moved behind shadow superpages.
    pub pages_remapped: u64,
    /// Pages left as 4 KB because they fell before the first aligned
    /// boundary or in the sub-16 KB tail (§2.4 skips them).
    pub pages_skipped: u64,
    /// Cache line slots examined by the per-page flushes.
    pub lines_flushed: u64,
    /// Dirty lines written back by those flushes.
    pub flush_writebacks: u64,
    /// Cycles spent flushing (the dominant §3.3 cost).
    pub flush_cycles: Cycles,
    /// All other cycles (allocation, mapping setup, shootdowns).
    pub other_cycles: Cycles,
}

impl RemapReport {
    /// Total cycles consumed by the syscall.
    #[must_use]
    pub fn total_cycles(&self) -> Cycles {
        self.flush_cycles + self.other_cycles
    }
}

/// Result of explicitly swapping a superpage out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwapOutReport {
    /// Base pages in the superpage.
    pub pages_total: u64,
    /// Pages actually written to swap.
    pub pages_written: u64,
    /// Cycles consumed.
    pub cycles: Cycles,
}

/// One simulated process: its address space and heap state. Processes
/// live in disjoint virtual windows (a single-address-space
/// organisation), so their translations compete for TLB capacity exactly
/// as multiprogrammed workloads do.
#[derive(Debug, Clone)]
struct Process {
    aspace: AddressSpace,
    heap_brk: VirtAddr,
    heap_mapped_end: VirtAddr,
    heap_extended: bool,
}

impl Process {
    /// Size of each process's private virtual window.
    const WINDOW: u64 = 1 << 32;

    fn new(pid: usize) -> Self {
        let heap = UserLayout::HEAP_BASE + pid as u64 * Self::WINDOW;
        Process {
            aspace: AddressSpace::new(),
            heap_brk: heap,
            heap_mapped_end: heap,
            heap_extended: false,
        }
    }
}

/// Shadow page indices per [`RingIndex`] chunk: one 4 KB page of `u32`s.
const RING_CHUNK: usize = 1024;

/// Shadow page index → position in the kernel's CLOCK ring plus one,
/// `0` when absent. The shadow range (128 K pages by default) is indexed
/// in zero-filled 4 KB chunks allocated on first use, so only the
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

/// The simulated kernel. See the module-level documentation for the modelled behaviour.
#[derive(Debug, Clone)]
pub struct Kernel {
    layout: KernelLayout,
    mmc_config: MmcConfig,
    config: KernelConfig,
    hpt: HashedPageTable,
    frames: FrameAllocator,
    shadow: BucketAllocator,
    processes: Vec<Process>,
    current: usize,
    /// Shadow regions by base shadow-page index, for reverse lookup.
    shadow_regions: BTreeMap<u64, SuperpageInfo>,
    swap: SwapDevice,
    /// Individual shadow base pages reserved for recoloring, by color.
    recolor_pool: BTreeMap<u64, Vec<Spn>>,
    /// Individual shadow base pages for all-shadow 4 KB mappings.
    shadow_page_pool: Vec<Spn>,
    /// Per-candidate-region TLB miss counters for online promotion.
    promo_counters: BTreeMap<u64, u64>,
    /// CLOCK ring of resident shadow page indices.
    resident: Vec<u64>,
    /// Each resident shadow page's position in `resident`.
    resident_pos: RingIndex,
    clock_hand: usize,
    /// Shootdowns queued by local invalidations, awaiting delivery to
    /// the other cores (drained by the machine on kernel exit).
    pending_shootdowns: Vec<ShootdownRequest>,
    /// Pages flushed from the running core's L1, awaiting invalidation
    /// in the other cores' (drained by the machine on kernel exit).
    flushed_pages: Vec<(Vpn, Ppn)>,
    stats: KernelStats,
}

impl Kernel {
    /// Creates a kernel for a machine with the given MMC geometry and
    /// `cores` CPUs. The shared hashed page table scales with the core
    /// count rounded up to a power of two, so that many co-resident
    /// working sets fit; one core keeps the paper's 16 K-bucket
    /// geometry.
    ///
    /// # Panics
    ///
    /// Panics when the scaled table does not fit the kernel's reserved
    /// region ([`KernelLayout::max_hpt_scale`]).
    #[must_use]
    pub fn new(mmc_config: MmcConfig, config: KernelConfig, cores: usize) -> Self {
        let hpt_scale = (cores as u64).next_power_of_two();
        let layout = KernelLayout::standard_scaled(&mmc_config, hpt_scale);
        let first = layout.first_user_frame();
        let total = mmc_config.installed_dram / PAGE_SIZE - first;
        Kernel {
            layout,
            mmc_config,
            hpt: HashedPageTable::new(layout.hpt_config()),
            frames: FrameAllocator::new(first, total, config.frame_order),
            shadow: BucketAllocator::new(mmc_config.shadow, &config.shadow_alloc),
            config,
            processes: vec![Process::new(0)],
            current: 0,
            shadow_regions: BTreeMap::new(),
            swap: SwapDevice::new(),
            recolor_pool: BTreeMap::new(),
            shadow_page_pool: Vec::new(),
            promo_counters: BTreeMap::new(),
            resident: Vec::new(),
            resident_pos: RingIndex::default(),
            clock_hand: 0,
            pending_shootdowns: Vec::new(),
            flushed_pages: Vec::new(),
            stats: KernelStats::default(),
        }
    }

    fn proc(&self) -> &Process {
        &self.processes[self.current]
    }

    fn proc_mut(&mut self) -> &mut Process {
        &mut self.processes[self.current]
    }

    /// Creates a new process (an `exec`-style fresh address space in its
    /// own virtual window) and returns its pid. The caller maps regions
    /// and runs after [`switch_process`](Self::switch_process)ing to it.
    pub fn spawn_process(&mut self) -> usize {
        let pid = self.processes.len();
        self.processes.push(Process::new(pid));
        self.stats.processes_spawned = self.stats.processes_spawned.saturating_add(1);
        pid
    }

    /// Context switch (the paper's kernel schedules processes, §3.2):
    /// purges the replaceable CPU TLB entries and the micro-ITLB — the
    /// locked kernel block entry survives — and charges the scheduler's
    /// software cost. Returns cycles.
    ///
    /// # Errors
    ///
    /// [`Fault::NoSuchProcess`] on an unknown pid; no state changes and
    /// no cycles are charged.
    pub fn switch_process(&mut self, ctx: &mut KernelCtx<'_>, pid: usize) -> Result<Cycles, Fault> {
        if pid >= self.processes.len() {
            return Err(Fault::NoSuchProcess { pid: pid as u64 });
        }
        self.current = pid;
        self.invalidate(ctx, ShootdownRequest::All);
        self.stats.context_switches = self.stats.context_switches.saturating_add(1);
        let cycles = self.config.costs.context_switch;
        self.stats.service_cycles += cycles;
        Ok(cycles)
    }

    /// Re-points the kernel's notion of the running process without a
    /// context switch — used when the machine moves its attention from
    /// one core to another: each core is already running its process,
    /// so no purge, shootdown, or cycle cost applies.
    ///
    /// The pid must come from [`spawn_process`](Self::spawn_process);
    /// an unknown pid is a host-side bug, not a simulated fault.
    pub fn set_current_process(&mut self, pid: usize) {
        assert!(pid < self.processes.len(), "no such process {pid}");
        self.current = pid;
    }

    /// The locked kernel block mapping — the identity mapping of the
    /// reserved low-memory region — that [`boot`](Self::boot) pins in
    /// the first core's TLB and the machine in every other core's.
    /// `None` only for a reservation no block entry can map, which the
    /// standard layout never produces.
    #[must_use]
    pub fn kernel_block_entry(&self) -> Option<TlbEntry> {
        let size = PageSize::from_bytes(self.layout.reserved_bytes)?;
        TlbEntry::new(
            Vpn::new(0),
            Ppn::new(0),
            size,
            Prot::RW | Prot::EXEC | Prot::SUPERVISOR_ONLY,
        )
    }

    /// Applies `request` to the running core's TLB and micro-ITLB and
    /// queues it for delivery to the other cores.
    ///
    /// Every mapping mutation that can strand a stale translation
    /// funnels through here; the machine drains the queue via
    /// [`take_shootdowns`](Self::take_shootdowns) after each service
    /// and applies each request to every remote core, so both sides
    /// purge through [`ShootdownRequest::apply`].
    /// `crates/sim/tests/schemes.rs` pins, service by service, which
    /// entry points shoot down and which (fresh mappings, §2.5
    /// per-base-page paging) deliberately do not.
    fn invalidate(&mut self, ctx: &mut KernelCtx<'_>, request: ShootdownRequest) {
        request.apply(ctx.tlb, ctx.itlb);
        self.pending_shootdowns.push(request);
    }

    /// Whether any shootdown requests await delivery.
    #[must_use]
    pub fn has_pending_shootdowns(&self) -> bool {
        !self.pending_shootdowns.is_empty()
    }

    /// Drains the queued shootdown requests. The caller (the machine)
    /// applies them to every remote core and reports the delivery via
    /// [`note_shootdown`](Self::note_shootdown); a 1-core machine drains
    /// and drops them at zero cost.
    pub fn take_shootdowns(&mut self) -> Vec<ShootdownRequest> {
        core::mem::take(&mut self.pending_shootdowns)
    }

    /// Drains the pages this kernel has flushed from the running core's
    /// L1 since the last call. A page flush reaches every core's cache
    /// (the bus broadcasts it), so the machine drops these pages' lines
    /// from the other cores' L1s before any of them runs again. A
    /// per-base-page pageout queues no TLB shootdown, but its flush
    /// still lands here.
    pub fn drain_flushed_pages(&mut self) -> std::vec::Drain<'_, (Vpn, Ppn)> {
        self.flushed_pages.drain(..)
    }

    /// Flushes the page's lines from the running core's L1, noting it
    /// for the other cores' (see
    /// [`drain_flushed_pages`](Self::drain_flushed_pages)), and writes
    /// each dirty line back through the MMC.
    fn flush_page(&mut self, ctx: &mut KernelCtx<'_>, vpn: Vpn, pfn: Ppn) -> PageFlush {
        self.flushed_pages.push((vpn, pfn));
        let out = ctx.cache.flush_page(vpn, pfn);
        let mut cycles = self.config.costs.flush_line * out.lines_examined;
        for wb in &out.writebacks {
            #[expect(
                clippy::expect_used,
                reason = "Structure invariant: a flushed line's bus address is a real frame or a shadow page whose MTLB mapping the kernel installed and has not yet torn down."
            )]
            let resp = ctx
                .mmc
                .bus_access(*wb, BusOp::Writeback, ctx.mem)
                .expect("flush writeback cannot fault");
            cycles += ctx.ratio.device_to_cpu(resp.mmc_cycles);
        }
        PageFlush {
            lines: out.lines_examined,
            writebacks: out.writebacks.len() as u64,
            cycles,
        }
    }

    /// Accounts for delivering `requests` shootdown requests to
    /// `remote_cores` cores each, returning the CPU cycles to charge
    /// (one [`KernelCosts::shootdown_ipi`] per delivery). Kept out of
    /// `service_cycles` so the cycle auditor can reconcile the two
    /// kernel-time sources independently.
    pub fn note_shootdown(&mut self, requests: u64, remote_cores: u64) -> Cycles {
        let deliveries = requests * remote_cores;
        self.stats.shootdowns = self.stats.shootdowns.saturating_add(deliveries);
        let cycles = self.config.costs.shootdown_ipi * deliveries;
        self.stats.shootdown_cycles += cycles;
        cycles
    }

    /// The running process id.
    #[must_use]
    pub fn current_process(&self) -> usize {
        self.current
    }

    /// The base of a process's private heap window.
    #[must_use]
    pub fn heap_base(pid: usize) -> VirtAddr {
        UserLayout::HEAP_BASE + pid as u64 * Process::WINDOW
    }

    /// The physical layout in use.
    #[must_use]
    pub fn layout(&self) -> KernelLayout {
        self.layout
    }

    /// The current process's address space (for assertions and reports).
    #[must_use]
    pub fn aspace(&self) -> &AddressSpace {
        &self.proc().aspace
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// The swap device (for traffic reports).
    #[must_use]
    pub fn swap(&self) -> &SwapDevice {
        &self.swap
    }

    /// Free user frames remaining.
    #[must_use]
    pub fn free_frames(&self) -> u64 {
        self.frames.free_frames()
    }

    /// Shadow regions of `size` still available.
    #[must_use]
    pub fn shadow_available(&self, size: PageSize) -> u64 {
        self.shadow.available(size)
    }

    /// Boot-time setup: installs the locked kernel block mapping
    /// (§3.2's non-replaceable block TLB entry) covering the reserved
    /// low-memory region, identity-mapped and supervisor-only.
    pub fn boot(&mut self, ctx: &mut KernelCtx<'_>) -> Cycles {
        if let Some(entry) = self.kernel_block_entry() {
            ctx.tlb.insert_locked(entry);
        }
        // A token boot cost: building tables, zeroing, device setup.
        let cycles = Cycles::new(10_000);
        self.stats.service_cycles += cycles;
        cycles
    }

    fn timed<'c>(&self, ctx: &'c mut KernelCtx<'_>) -> TimedMem<'c> {
        TimedMem::new(&mut *ctx.cache, &mut *ctx.mmc, &mut *ctx.mem, ctx.ratio)
    }

    /// Writes `pte` into the hashed page table through the cache (a new
    /// entry, or an in-place update of the page's old one); returns the
    /// insert's cycles.
    fn install_pte(&mut self, ctx: &mut KernelCtx<'_>, pte: Pte) -> Cycles {
        let mut tm = self.timed(ctx);
        #[expect(
            clippy::expect_used,
            reason = "Documented contract: HPT capacity is an experiment parameter; overflowing it must abort the run, not skew its results."
        )]
        self.hpt
            .insert(pte, &mut tm)
            .expect("hashed page table exhausted");
        tm.take_cycles()
    }

    /// The MMC table index of a shadow page.
    fn shadow_index(&self, spn: Spn) -> u64 {
        self.mmc_config.shadow.page_index(spn.base_addr())
    }

    /// The shadow superpage of the running process that contains `vpn`.
    fn superpage_at(&self, vpn: Vpn) -> SuperpageInfo {
        #[expect(
            clippy::panic,
            reason = "Documented contract: demote/swap/page-bits entry points require a vpn inside a shadow superpage; callers look it up first."
        )]
        *self
            .proc()
            .aspace
            .superpage_of(vpn)
            .unwrap_or_else(|| panic!("vpn {vpn} is not in a shadow superpage"))
    }

    /// Appends shadow page `index` to the CLOCK ring.
    fn push_resident(&mut self, index: u64) {
        debug_assert_eq!(
            self.resident_pos.get(index),
            0,
            "shadow page {index} is already in the CLOCK ring"
        );
        self.resident.push(index);
        self.resident_pos.set(index, self.resident.len() as u32);
    }

    /// Drops shadow page `index` from the CLOCK ring, if there, and
    /// steps the hand back when the removed slot was behind it.
    fn forget_resident(&mut self, index: u64) {
        let pos = self.resident_pos.get(index);
        if pos == 0 {
            return;
        }
        self.resident_pos.set(index, 0);
        let pos = pos as usize - 1;
        debug_assert_eq!(self.resident.get(pos), Some(&index));
        self.resident.swap_remove(pos);
        if let Some(&moved) = self.resident.get(pos) {
            self.resident_pos.set(moved, pos as u32 + 1);
        }
        if self.clock_hand > pos {
            self.clock_hand -= 1;
        }
        debug_assert!(
            (1..)
                .zip(&self.resident)
                .all(|(at, &r)| self.resident_pos.get(r) == at),
            "CLOCK ring position index out of step with the ring"
        );
    }

    fn alloc_frame(&mut self, ctx: &mut KernelCtx<'_>) -> (Ppn, Cycles) {
        if let Some(f) = self.frames.alloc() {
            return (f, Cycles::ZERO);
        }
        // Physical memory exhausted: run the CLOCK hand until a frame
        // frees up.
        let mut cycles = Cycles::ZERO;
        loop {
            cycles += self.clock_evict_one(ctx);
            if let Some(f) = self.frames.alloc() {
                return (f, cycles);
            }
        }
    }

    /// Allocates a 16 KB shadow region to carve into single shadow
    /// pages (all-shadow 4 KB mappings, recoloring).
    fn alloc_pool_region(&mut self) -> ShadowAddr {
        #[expect(
            clippy::expect_used,
            reason = "Documented contract: all-shadow and recoloring experiments size the shadow window to the pages they shadow; exhaustion is an experiment misconfiguration."
        )]
        self.shadow
            .alloc(PageSize::Size16K)
            .expect("shadow space exhausted")
    }

    /// Takes one shadow base page for an all-shadow 4 KB mapping,
    /// provisioning 16 KB at a time.
    fn take_shadow_page(&mut self) -> Spn {
        if let Some(p) = self.shadow_page_pool.pop() {
            return p;
        }
        let region = self.alloc_pool_region();
        // Pool pages 0..3 and hand out page 3 directly — the same order a
        // push-all-then-pop sequence would produce.
        for i in 0..3u64 {
            self.shadow_page_pool.push(region.spn().offset(i));
        }
        region.spn().offset(3)
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
        let cycles = self.map_region_inner(ctx, start, len, prot);
        self.stats.service_cycles += cycles;
        cycles
    }

    fn map_region_inner(
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
            "user mappings must lie above the locked kernel block window              (first {} bytes)",
            self.layout.reserved_bytes
        );
        let pages = len.div_ceil(PAGE_SIZE);
        let mut cycles = self.config.costs.syscall_overhead;
        for i in 0..pages {
            let vpn = start.vpn().offset(i);
            let (frame, c) = self.alloc_frame(ctx);
            cycles += c;
            ctx.mem.zero_page(frame);
            // §4 all-shadow mode: the CPU-visible frame is a shadow page
            // remapped by the MTLB even for ordinary 4 KB mappings.
            let (pfn, backing) = if self.config.all_shadow {
                let shadow_spn = self.take_shadow_page();
                let index = self.shadow_index(shadow_spn);
                let mmc_cycles = ctx
                    .mmc
                    .set_mapping(index, ShadowPte::present(frame), ctx.mem);
                cycles += ctx.ratio.device_to_cpu(mmc_cycles);
                let sp = SuperpageInfo {
                    vpn_base: vpn,
                    size: PageSize::Base4K,
                    shadow_base: shadow_spn,
                };
                self.shadow_regions.insert(index, sp);
                self.push_resident(index);
                (shadow_spn.bus(), Backing::Shadow { shadow_spn })
            } else {
                (frame, Backing::Real(frame))
            };
            cycles += self.install_pte(
                ctx,
                Pte {
                    vpn,
                    pfn,
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
                Some(promotion) => {
                    let bytes = promotion.size.bytes();
                    self.create_superpage(ctx, va, promotion, &mut report);
                    va += bytes;
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
    /// allocating the shadow region it settles on.
    fn pick_superpage(&mut self, va: VirtAddr, remaining: u64) -> Option<Promotion> {
        for size in PageSize::SUPERPAGES.iter().copied().rev() {
            if size.bytes() > remaining || !va.is_aligned(size.bytes()) {
                continue;
            }
            let Some((prot, frames)) = self.promotable_frames(va.vpn(), size) else {
                continue;
            };
            if let Some(shadow_base) = self.shadow.alloc(size) {
                return Some(Promotion {
                    size,
                    shadow_base,
                    prot,
                    frames,
                });
            }
        }
        None
    }

    /// The shared protection and the real frames of the `size` region at
    /// `vpn_base`, when all its pages are present, real-backed, and of
    /// uniform protection (the paper requires identical protection
    /// across a superpage, §2.1).
    fn promotable_frames(&self, vpn_base: Vpn, size: PageSize) -> Option<(Prot, Vec<Ppn>)> {
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
        let prot = prot?;
        (frames.len() as u64 == size.base_pages()).then_some((prot, frames))
    }

    fn create_superpage(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        va: VirtAddr,
        promotion: Promotion,
        report: &mut RemapReport,
    ) {
        let Promotion {
            size,
            shadow_base,
            prot,
            frames,
        } = promotion;
        let shadow_base = shadow_base.spn();
        let base_index = self.shadow_index(shadow_base);
        let vpn_base = va.vpn();
        let pages = size.base_pages();
        let mut cycles = self.config.costs.per_superpage_overhead;

        // Shoot down stale CPU TLB entries for the range (§2.3).
        self.invalidate(
            ctx,
            ShootdownRequest::Range {
                vpn: vpn_base,
                pages,
            },
        );

        for (i, frame) in (0..).zip(frames) {
            let vpn = vpn_base.offset(i);
            let shadow_spn = shadow_base.offset(i);

            // Flush the page's cache lines: the tags are about to change
            // from real to shadow addresses (§2.3).
            let flush = self.flush_page(ctx, vpn, frame);
            report.lines_flushed = report.lines_flushed.saturating_add(flush.lines);
            report.flush_writebacks = report.flush_writebacks.saturating_add(flush.writebacks);
            report.flush_cycles += flush.cycles;

            // Point shadow page at the (discontiguous) real frame via the
            // MMC control register (§2.4).
            let mmc_cycles =
                ctx.mmc
                    .set_mapping(base_index + i, ShadowPte::present(frame), ctx.mem);
            cycles += ctx.ratio.device_to_cpu(mmc_cycles);

            // Re-point the PTE at the shadow frame with the superpage size.
            cycles += self.install_pte(
                ctx,
                Pte {
                    vpn,
                    pfn: shadow_spn.bus(),
                    size,
                    prot,
                },
            );
            self.proc_mut()
                .aspace
                .remap_page(vpn, Backing::Shadow { shadow_spn }, size);
            self.push_resident(base_index + i);
            cycles += self.config.costs.remap_page_overhead;
            report.pages_remapped = report.pages_remapped.saturating_add(1);
        }

        let sp = SuperpageInfo {
            vpn_base,
            size,
            shadow_base,
        };
        self.proc_mut().aspace.add_superpage(sp);
        self.shadow_regions.insert(base_index, sp);
        report.superpages.push((va, size));
        report.other_cycles += cycles;
        self.stats.superpages_created = self.stats.superpages_created.saturating_add(1);
        self.stats.pages_remapped = self.stats.pages_remapped.saturating_add(pages);
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
    /// and the cycles consumed.
    pub fn sbrk(&mut self, ctx: &mut KernelCtx<'_>, increment: u64) -> (VirtAddr, Cycles) {
        self.stats.sbrk_calls = self.stats.sbrk_calls.saturating_add(1);
        let old_brk = self.proc().heap_brk;
        let mut cycles = self.config.costs.syscall_overhead;
        let new_brk = old_brk + increment;
        if !self.sbrk_fits(increment) {
            let need = new_brk.offset_from(self.proc().heap_mapped_end);
            let chunk_cfg = if self.proc().heap_extended {
                self.config.sbrk.later_chunk
            } else {
                self.config.sbrk.initial_chunk
            };
            let chunk = need.max(chunk_cfg).div_ceil(PAGE_SIZE) * PAGE_SIZE;
            let base = self.proc().heap_mapped_end;
            cycles += self.map_region_inner(ctx, base, chunk, Prot::RW);
            if self.config.use_superpages {
                let report = self.remap_inner(ctx, base, chunk);
                cycles += report.total_cycles();
            }
            let p = self.proc_mut();
            p.heap_mapped_end = base + chunk;
            p.heap_extended = true;
        }
        self.proc_mut().heap_brk = new_brk;
        self.stats.service_cycles += cycles;
        (old_brk, cycles)
    }

    /// The software TLB miss handler (§3.2): trap, probe the hashed page
    /// table through the cache, insert the (super)page entry.
    ///
    /// # Errors
    ///
    /// [`Fault::PageNotMapped`] when no PTE exists.
    pub fn handle_tlb_miss(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        va: VirtAddr,
    ) -> Result<(TlbEntry, Cycles), Fault> {
        self.stats.tlb_miss_handler_calls = self.stats.tlb_miss_handler_calls.saturating_add(1);
        let mut cycles = self.config.costs.tlb_trap_overhead;
        let mut tm = self.timed(ctx);
        let lookup = self.hpt.lookup(va.vpn(), &mut tm);
        cycles += tm.take_cycles();
        cycles += self.config.costs.tlb_probe_instructions * u64::from(lookup.probes);
        let Some(mut pte) = lookup.pte else {
            return Err(Fault::PageNotMapped { va });
        };
        // §5 extension: online promotion. Misses on 4 KB pages charge a
        // per-region counter; crossing the threshold promotes the
        // aligned region to a shadow superpage and re-walks the table.
        if let Some(promo) = self.config.promotion {
            if self.config.use_superpages && pte.size == PageSize::Base4K {
                let region_base = va.vpn().align_down_to(promo.region).index();
                let count = self.promo_counters.entry(region_base).or_insert(0);
                *count += 1;
                if *count >= promo.miss_threshold {
                    self.promo_counters.remove(&region_base);
                    let report = self.remap_inner(
                        ctx,
                        Vpn::new(region_base).base_addr(),
                        promo.region.bytes(),
                    );
                    if !report.superpages.is_empty() {
                        self.stats.auto_promotions = self
                            .stats
                            .auto_promotions
                            .saturating_add(report.superpages.len() as u64);
                        cycles += report.total_cycles();
                        // Re-walk: the PTE now names a superpage.
                        let mut tm = self.timed(ctx);
                        let again = self.hpt.lookup(va.vpn(), &mut tm);
                        cycles += tm.take_cycles();
                        cycles +=
                            self.config.costs.tlb_probe_instructions * u64::from(again.probes);
                        #[expect(
                            clippy::expect_used,
                            reason = "Structure invariant: the PTE was inserted earlier in the same (single-threaded) kernel operation."
                        )]
                        let walked = again.pte.expect("page was mapped a moment ago");
                        pte = walked;
                    }
                }
            }
        }
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
        cycles += self.config.costs.tlb_insert;
        self.stats.tlb_miss_cycles += cycles;
        Ok((entry, cycles))
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
        let index = self.mmc_config.shadow.page_index(shadow_pa);
        let Some(region) = self.region_of_index(index) else {
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
                let base = self.shadow_index(region.shadow_base);
                for i in 0..region.size.base_pages() {
                    let idx = base + i;
                    let (pte, c) = ctx.mmc.read_mapping(idx, ctx.mem);
                    cycles += ctx.ratio.device_to_cpu(c);
                    if !pte.valid {
                        cycles += self.swap_in_page(ctx, idx);
                    }
                }
            }
        }
        self.stats.fault_cycles += cycles;
        Ok(cycles)
    }

    fn region_of_index(&self, index: u64) -> Option<SuperpageInfo> {
        self.shadow_regions
            .range(..=index)
            .next_back()
            .map(|(_, sp)| *sp)
            .filter(|sp| index < self.shadow_index(sp.shadow_base) + sp.size.base_pages())
    }

    fn swap_in_page(&mut self, ctx: &mut KernelCtx<'_>, index: u64) -> Cycles {
        let (frame, mut cycles) = self.alloc_frame(ctx);
        let bytes = self
            .swap
            .read(index)
            .unwrap_or_else(|| vec![0u8; PAGE_SIZE as usize]);
        ctx.mem.write(frame.base_addr(), &bytes);
        cycles += self.config.swap_costs.page_read;
        let mmc_cycles = ctx
            .mmc
            .set_mapping(index, ShadowPte::present(frame), ctx.mem);
        cycles += ctx.ratio.device_to_cpu(mmc_cycles);
        self.push_resident(index);
        self.stats.pages_swapped_in = self.stats.pages_swapped_in.saturating_add(1);
        cycles
    }

    /// Swaps out a single shadow base page: flush its cache lines, write
    /// it to swap if dirty (or never yet copied), invalidate the mapping,
    /// free the frame. The CPU TLB superpage entry **stays in place** —
    /// that is the paper's key §2.5/§4 property. `vpn` is the virtual
    /// page shadow page `index` backs.
    fn swap_out_page(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        index: u64,
        vpn: Vpn,
        force_write: bool,
    ) -> Cycles {
        let shadow_ppn = self.mmc_config.shadow.page_addr(index).spn().bus();

        // Clean the page: flush lines so DRAM is current and the dirty
        // bit is final (§2.5's "cleaning process"). The lines are tagged
        // with the page's *shadow* address.
        let mut cycles = self.flush_page(ctx, vpn, shadow_ppn).cycles;

        let (pte, c) = ctx.mmc.read_mapping(index, ctx.mem);
        cycles += ctx.ratio.device_to_cpu(c);
        assert!(pte.valid, "swapping out a non-resident page");

        if force_write || pte.dirty || !self.swap.has_copy(index) {
            let mut buf = vec![0u8; PAGE_SIZE as usize];
            ctx.mem.read(pte.rpfn.base_addr(), &mut buf);
            self.swap.write(index, buf);
            cycles += self.config.swap_costs.page_write;
        }

        let mmc_cycles = ctx
            .mmc
            .set_mapping(index, ShadowPte::swapped_out(), ctx.mem);
        cycles += ctx.ratio.device_to_cpu(mmc_cycles);
        self.frames.free(pte.rpfn);
        self.forget_resident(index);
        self.stats.pages_swapped_out = self.stats.pages_swapped_out.saturating_add(1);
        cycles
    }

    /// One CLOCK eviction: sweep the resident ring clearing referenced
    /// bits until an unreferenced page is found, then swap it (or, under
    /// the conventional policy, its whole superpage) out.
    fn clock_evict_one(&mut self, ctx: &mut KernelCtx<'_>) -> Cycles {
        assert!(
            !self.resident.is_empty(),
            "out of physical memory with nothing evictable"
        );
        let mut cycles = Cycles::ZERO;
        loop {
            self.stats.clock_sweeps = self.stats.clock_sweeps.saturating_add(1);
            assert!(
                !self.resident.is_empty(),
                "out of physical memory with nothing evictable"
            );
            if self.clock_hand >= self.resident.len() {
                self.clock_hand = 0;
            }
            let index = self.resident[self.clock_hand];
            let (pte, c) = ctx.mmc.read_mapping(index, ctx.mem);
            cycles += ctx.ratio.device_to_cpu(c);
            if pte.referenced {
                let c = ctx.mmc.clear_bits(index, true, false, ctx.mem);
                cycles += ctx.ratio.device_to_cpu(c);
                self.clock_hand = (self.clock_hand + 1) % self.resident.len();
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "Structure invariant: pages enter the resident ring only when their region is registered."
            )]
            let sp = self
                .region_of_index(index)
                .expect("resident ring holds only region pages");
            match self.config.paging {
                PagingPolicy::PerBasePage => {
                    let vpn = sp
                        .vpn_base
                        .offset(index - self.shadow_index(sp.shadow_base));
                    cycles += self.swap_out_page(ctx, index, vpn, false);
                }
                PagingPolicy::WholeSuperpage => {
                    cycles += self.swap_out_pages(ctx, sp, true).cycles;
                }
            }
            return cycles;
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
        let write_all = match self.config.paging {
            PagingPolicy::PerBasePage => false,
            PagingPolicy::WholeSuperpage => {
                // Conventional superpages also lose their TLB mapping.
                self.invalidate(
                    ctx,
                    ShootdownRequest::Range {
                        vpn: sp.vpn_base,
                        pages: sp.size.base_pages(),
                    },
                );
                true
            }
        };
        let report = self.swap_out_pages(ctx, sp, write_all);
        self.stats.service_cycles += report.cycles;
        report
    }

    /// Pages out every resident base page of `sp`. With `write_all`
    /// (conventional superpages, whose dirty information is unusable)
    /// each one is written to swap; otherwise only dirty pages and pages
    /// with no swap copy yet are.
    fn swap_out_pages(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        sp: SuperpageInfo,
        write_all: bool,
    ) -> SwapOutReport {
        let base = self.shadow_index(sp.shadow_base);
        let mut report = SwapOutReport {
            pages_total: sp.size.base_pages(),
            ..SwapOutReport::default()
        };
        for i in 0..sp.size.base_pages() {
            let index = base + i;
            let (pte, c) = ctx.mmc.read_mapping(index, ctx.mem);
            report.cycles += ctx.ratio.device_to_cpu(c);
            if !pte.valid {
                continue; // already out
            }
            let writes_before = self.swap.writes();
            report.cycles += self.swap_out_page(ctx, index, sp.vpn_base.offset(i), write_all);
            report.pages_written += self.swap.writes() - writes_before;
        }
        report
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
        let colors = ctx.cache.config().page_colors();
        assert!(color < colors, "color {color} out of range 0..{colors}");
        #[expect(
            clippy::panic,
            reason = "Documented contract: recolor requires a mapped, real-backed page; recoloring a shadow page twice is caller error."
        )]
        let Some(&PageInfo {
            backing: Backing::Real(frame),
            prot,
            ..
        }) = self.proc().aspace.page(vpn)
        else {
            panic!("recolor of unmapped or non-real-backed vpn {vpn}");
        };
        let mut cycles = self.config.costs.syscall_overhead;

        // Find (or provision) a shadow base page of the wanted color.
        // Each 16 KB allocation contributes four consecutive colors, so
        // at most `colors / 4` allocations cover the whole palette.
        let shadow_spn = loop {
            if let Some(p) = self.recolor_pool.get_mut(&color).and_then(Vec::pop) {
                break p;
            }
            let region = self.alloc_pool_region();
            for i in 0..4u64 {
                let addr = region + i * PAGE_SIZE;
                let c = ctx.cache.config().color_of(addr.bus());
                self.recolor_pool.entry(c).or_default().push(addr.spn());
            }
            cycles += self.config.costs.per_superpage_overhead;
        };

        // The page's lines move to new index slots: flush under the old
        // (real) address, shoot down the stale translation.
        cycles += self.flush_page(ctx, vpn, frame).cycles;
        self.invalidate(ctx, ShootdownRequest::Range { vpn, pages: 1 });

        let index = self.shadow_index(shadow_spn);
        let mmc_cycles = ctx
            .mmc
            .set_mapping(index, ShadowPte::present(frame), ctx.mem);
        cycles += ctx.ratio.device_to_cpu(mmc_cycles);

        cycles += self.install_pte(
            ctx,
            Pte {
                vpn,
                pfn: shadow_spn.bus(),
                size: PageSize::Base4K,
                prot,
            },
        );
        self.proc_mut()
            .aspace
            .remap_page(vpn, Backing::Shadow { shadow_spn }, PageSize::Base4K);
        // Track as a one-page shadow region so faults/paging find it.
        let sp = SuperpageInfo {
            vpn_base: vpn,
            size: PageSize::Base4K,
            shadow_base: shadow_spn,
        };
        self.proc_mut().aspace.add_superpage(sp);
        self.shadow_regions.insert(index, sp);
        self.push_resident(index);
        cycles += self.config.costs.remap_page_overhead;
        self.stats.pages_recolored = self.stats.pages_recolored.saturating_add(1);
        self.stats.service_cycles += cycles;
        cycles
    }

    /// Demotes the superpage containing `vpn` back to ordinary 4 KB
    /// mappings (§2.3 notes mappings may change "from real to shadow
    /// addresses (or back)"): swapped-out base pages are brought in, the
    /// virtual region is flushed and shot down, PTEs are re-pointed at
    /// the real frames, and the shadow region returns to the allocator
    /// (a recolored page's shadow page returns to the recolor pool).
    ///
    /// # Panics
    ///
    /// Panics when `vpn` is not inside a shadow-backed superpage.
    pub fn demote_superpage(&mut self, ctx: &mut KernelCtx<'_>, vpn: Vpn) -> Cycles {
        let sp = self.superpage_at(vpn);
        let base = self.shadow_index(sp.shadow_base);
        let pages = sp.size.base_pages();
        let mut cycles =
            self.config.costs.syscall_overhead + self.config.costs.per_superpage_overhead;

        self.invalidate(
            ctx,
            ShootdownRequest::Range {
                vpn: sp.vpn_base,
                pages,
            },
        );

        for i in 0..pages {
            let index = base + i;
            let page_vpn = sp.vpn_base.offset(i);

            // Shadow-tagged lines must go before the mapping does.
            cycles += self
                .flush_page(ctx, page_vpn, sp.shadow_base.offset(i).bus())
                .cycles;

            let (pte, c) = ctx.mmc.read_mapping(index, ctx.mem);
            cycles += ctx.ratio.device_to_cpu(c);
            let frame = if pte.valid {
                pte.rpfn
            } else {
                // Swapped out: bring it back so the 4 KB mapping is real.
                cycles += self.swap_in_page(ctx, index);
                let (pte, c) = ctx.mmc.read_mapping(index, ctx.mem);
                cycles += ctx.ratio.device_to_cpu(c);
                pte.rpfn
            };

            let prot =
                self.proc_mut()
                    .aspace
                    .remap_page(page_vpn, Backing::Real(frame), PageSize::Base4K);
            cycles += self.install_pte(
                ctx,
                Pte {
                    vpn: page_vpn,
                    pfn: frame,
                    size: PageSize::Base4K,
                    prot,
                },
            );

            let mmc_cycles = ctx.mmc.set_mapping(index, ShadowPte::invalid(), ctx.mem);
            cycles += ctx.ratio.device_to_cpu(mmc_cycles);
            // The shadow page is being released: its swap copy must not
            // outlive it, or the index's next tenant inherits it.
            self.swap.discard(index);
            self.forget_resident(index);
            cycles += self.config.costs.remap_page_overhead;
        }

        self.proc_mut().aspace.remove_superpage(sp.vpn_base);
        self.shadow_regions.remove(&base);
        if sp.size == PageSize::Base4K {
            // A recolored page: its shadow page was carved out of a
            // 16 KB pool allocation and goes back to the pool.
            let color = ctx
                .cache
                .config()
                .color_of(sp.shadow_base.bus().base_addr());
            self.recolor_pool
                .entry(color)
                .or_default()
                .push(sp.shadow_base);
        } else {
            self.shadow.free(sp.shadow_base.base_addr(), sp.size);
        }
        self.stats.service_cycles += cycles;
        cycles
    }

    /// Reads the per-base-page referenced/dirty bits of a superpage — the
    /// OS-visible §2.5 accounting.
    ///
    /// # Panics
    ///
    /// Panics when `vpn` is not inside a shadow-backed superpage.
    pub fn page_bits(&mut self, ctx: &mut KernelCtx<'_>, vpn: Vpn) -> Vec<(Vpn, bool, bool)> {
        let sp = self.superpage_at(vpn);
        let base = self.shadow_index(sp.shadow_base);
        (0..sp.size.base_pages())
            .map(|i| {
                let (pte, _) = ctx.mmc.read_mapping(base + i, ctx.mem);
                (sp.vpn_base.offset(i), pte.referenced, pte.dirty)
            })
            .collect()
    }

    /// Kernel page copy with the paper's §3.3 cost structure (word loads
    /// and stores through the cache plus loop overhead) — the operation
    /// conventional superpage coalescing needs and shadow remapping
    /// avoids. Copies `src` frame to `dst` frame; returns cycles.
    pub fn copy_page_timed(&mut self, ctx: &mut KernelCtx<'_>, src: Ppn, dst: Ppn) -> Cycles {
        let words = PAGE_SIZE / 4;
        let mut cycles = self.config.costs.copy_word_overhead * words;
        let mut tm = self.timed(ctx);
        for w in 0..words {
            tm.charge_access(src.base_addr() + w * 4, false);
            tm.charge_access(dst.base_addr() + w * 4, true);
        }
        cycles += tm.take_cycles();
        ctx.mem.copy_page(src, dst);
        cycles
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
/// only schemes that opt in via [`TranslationScheme::wants_contiguity`]
/// trigger the host-side scan at all, and it is one range walk of the
/// address space over the window.
fn contiguity_of(aspace: &AddressSpace, entry: &TlbEntry) -> ContigInfo {
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
            frames[(vpn.index() - window_base) as usize] = Some(match info.backing {
                Backing::Real(f) => f.index(),
                Backing::Shadow { shadow_spn } => shadow_spn.bus().index(),
            });
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

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_cache::CacheConfig;
    use mtlb_tlb::CpuTlb;

    const DRAM: u64 = 128 << 20;

    struct Rig {
        tlb: CpuTlb,
        itlb: MicroItlb,
        cache: DataCache,
        mmc: Mmc,
        mem: GuestMemory,
        kernel: Kernel,
    }

    impl Rig {
        fn new(kcfg: KernelConfig) -> Self {
            let mmc_cfg = MmcConfig::paper_default(DRAM);
            let mut rig = Rig {
                tlb: CpuTlb::new(96),
                itlb: MicroItlb::new(),
                cache: DataCache::new(CacheConfig::paper_default()),
                mmc: Mmc::new(mmc_cfg),
                mem: GuestMemory::new(DRAM),
                kernel: Kernel::new(mmc_cfg, kcfg, 1),
            };
            let mut ctx = KernelCtx {
                tlb: &mut rig.tlb,
                itlb: &mut rig.itlb,
                cache: &mut rig.cache,
                mmc: &mut rig.mmc,
                mem: &mut rig.mem,
                ratio: ClockRatio::paper_default(),
            };
            rig.kernel.boot(&mut ctx);
            rig
        }

        fn with<R>(&mut self, f: impl FnOnce(&mut Kernel, &mut KernelCtx<'_>) -> R) -> R {
            let mut ctx = KernelCtx {
                tlb: &mut self.tlb,
                itlb: &mut self.itlb,
                cache: &mut self.cache,
                mmc: &mut self.mmc,
                mem: &mut self.mem,
                ratio: ClockRatio::paper_default(),
            };
            f(&mut self.kernel, &mut ctx)
        }
    }

    fn rig() -> Rig {
        Rig::new(KernelConfig::default())
    }

    #[test]
    fn boot_installs_locked_kernel_block() {
        let mut r = rig();
        // Kernel VA 0x1000 is covered by the locked 16 MB identity entry.
        let out = r.tlb.translate(
            VirtAddr::new(0x1000),
            mtlb_types::AccessKind::Read,
            mtlb_types::PrivilegeLevel::Supervisor,
        );
        assert!(matches!(out, mtlb_tlb::LookupOutcome::Hit(pa) if pa.get() == 0x1000));
        // ...but is supervisor-only.
        let out = r.tlb.translate(
            VirtAddr::new(0x1000),
            mtlb_types::AccessKind::Read,
            mtlb_types::PrivilegeLevel::User,
        );
        assert!(matches!(out, mtlb_tlb::LookupOutcome::Fault(_)));
    }

    #[test]
    fn map_region_then_tlb_miss_fills_base_page() {
        let mut r = rig();
        let base = UserLayout::DATA_BASE;
        r.with(|k, ctx| {
            k.map_region(ctx, base, 8 * PAGE_SIZE, Prot::RW);
            let (entry, cycles) = k.handle_tlb_miss(ctx, base + 0x123).unwrap();
            assert_eq!(entry.size(), PageSize::Base4K);
            assert!(cycles > Cycles::ZERO);
        });
        // The entry is now in the TLB.
        assert!(r.tlb.entry_for(base.vpn()).is_some());
    }

    #[test]
    fn tlb_miss_on_unmapped_address_faults() {
        let mut r = rig();
        r.with(|k, ctx| {
            let err = k
                .handle_tlb_miss(ctx, VirtAddr::new(0x6000_0000))
                .unwrap_err();
            assert!(matches!(err, Fault::PageNotMapped { .. }));
        });
    }

    #[test]
    fn remap_builds_maximal_superpages() {
        let mut r = rig();
        let base = UserLayout::DATA_BASE; // 256 MB-aligned: any size fits
        r.with(|k, ctx| {
            // 64 KB + 16 KB + one loose page = 84 KB.
            k.map_region(ctx, base, 84 * 1024, Prot::RW);
            let rep = k.remap(ctx, base, 84 * 1024);
            assert_eq!(
                rep.superpages,
                vec![
                    (base, PageSize::Size64K),
                    (base + 64 * 1024, PageSize::Size16K)
                ]
            );
            assert_eq!(rep.pages_remapped, 20);
            assert_eq!(rep.pages_skipped, 1, "the 4 KB tail stays a base page");
        });
    }

    #[test]
    fn remap_skips_unaligned_head() {
        let mut r = rig();
        let base = UserLayout::DATA_BASE + PAGE_SIZE; // 4 KB past alignment
        r.with(|k, ctx| {
            k.map_region(ctx, base, 20 * 1024, Prot::RW); // 5 pages
            let rep = k.remap(ctx, base, 20 * 1024);
            // Head skips 3 pages to reach 16 KB alignment, leaving 2 pages
            // — below 16 KB, so nothing is promoted (compress95's buffer
            // alignment effect from §3.1).
            assert!(rep.superpages.is_empty());
            assert_eq!(rep.pages_skipped, 5);
        });
    }

    #[test]
    fn remap_establishes_mmc_mappings_to_old_frames() {
        let mut r = rig();
        let base = UserLayout::DATA_BASE;
        r.with(|k, ctx| {
            k.map_region(ctx, base, 16 * 1024, Prot::RW);
            // Collect the real frames before remap.
            let frames: Vec<Ppn> = (0..4)
                .map(|i| {
                    match k
                        .aspace()
                        .page(Vpn::new(base.vpn().index() + i))
                        .unwrap()
                        .backing
                    {
                        Backing::Real(f) => f,
                        Backing::Shadow { .. } => panic!("not yet remapped"),
                    }
                })
                .collect();
            let rep = k.remap(ctx, base, 16 * 1024);
            assert_eq!(rep.superpages.len(), 1);
            let sp = *k.aspace().superpages().next().unwrap();
            // Each shadow page must point at the original (discontiguous)
            // frame.
            for (i, f) in frames.iter().enumerate() {
                let idx = ctx
                    .mmc
                    .config()
                    .shadow
                    .page_index(sp.shadow_base.base_addr())
                    + i as u64;
                let (pte, _) = ctx.mmc.read_mapping(idx, ctx.mem);
                assert!(pte.valid);
                assert_eq!(pte.rpfn, *f);
            }
            // With a scrambled frame allocator the frames really are
            // discontiguous — the situation conventional superpages cannot
            // handle at all.
            let contiguous = frames.windows(2).all(|w| w[1].index() == w[0].index() + 1);
            assert!(!contiguous, "scrambled frames should be discontiguous");
        });
    }

    #[test]
    fn tlb_miss_after_remap_inserts_superpage_entry() {
        let mut r = rig();
        let base = UserLayout::DATA_BASE;
        r.with(|k, ctx| {
            k.map_region(ctx, base, 64 * 1024, Prot::RW);
            k.remap(ctx, base, 64 * 1024);
            let (entry, _) = k.handle_tlb_miss(ctx, base + 5 * PAGE_SIZE).unwrap();
            assert_eq!(entry.size(), PageSize::Size64K);
            assert_eq!(entry.vpn_base(), base.vpn());
            // One TLB entry now covers all 16 pages.
        });
        assert!(r.tlb.entry_for(Vpn::new(base.vpn().index() + 15)).is_some());
    }

    #[test]
    fn remap_noop_on_baseline_kernel() {
        let mut r = Rig::new(KernelConfig {
            use_superpages: false,
            ..KernelConfig::default()
        });
        let base = UserLayout::DATA_BASE;
        r.with(|k, ctx| {
            k.map_region(ctx, base, 64 * 1024, Prot::RW);
            let rep = k.remap(ctx, base, 64 * 1024);
            assert!(rep.superpages.is_empty());
            assert_eq!(rep.pages_remapped, 0);
            let (entry, _) = k.handle_tlb_miss(ctx, base).unwrap();
            assert_eq!(entry.size(), PageSize::Base4K);
        });
    }

    #[test]
    fn remap_flush_cost_is_about_1400_cycles_per_page() {
        // §3.3: "the cost of cache flushing is quite modest, averaging
        // 1400 CPU cycles per 4KB page".
        let mut r = rig();
        let base = UserLayout::DATA_BASE;
        r.with(|k, ctx| {
            k.map_region(ctx, base, 256 * 1024, Prot::RW);
            let rep = k.remap(ctx, base, 256 * 1024);
            let per_page = rep.flush_cycles.get() as f64 / rep.pages_remapped as f64;
            assert!(
                (1100.0..1800.0).contains(&per_page),
                "flush cost {per_page} cycles/page is out of the paper's band"
            );
        });
    }

    #[test]
    fn sbrk_preallocates_and_promotes() {
        let mut r = rig();
        let (first, _) = r.with(|k, ctx| k.sbrk(ctx, 1000));
        assert_eq!(first, UserLayout::HEAP_BASE);
        let k = &r.kernel;
        // 8 MB chunk mapped and largely promoted to superpages.
        assert_eq!(k.aspace().mapped_bytes(), 8 << 20);
        assert!(k.stats().superpages_created >= 1);
        // Heap base is 4 MB-aligned (0x2000_0000), so the first superpage
        // should be large.
        let first_sp = k.aspace().superpages().next().unwrap();
        assert!(first_sp.size >= PageSize::Size4M);
        // Subsequent small sbrk stays within the preallocation: no new pages.
        let mapped_before = r.kernel.aspace().mapped_pages();
        r.with(|k, ctx| k.sbrk(ctx, 100_000));
        assert_eq!(r.kernel.aspace().mapped_pages(), mapped_before);
        // Blowing past the preallocation maps a later chunk (2 MB).
        r.with(|k, ctx| k.sbrk(ctx, 9 << 20));
        assert_eq!(r.kernel.aspace().mapped_bytes(), (8 << 20) + (2 << 20));
    }

    #[test]
    fn swap_out_writes_only_dirty_pages() {
        let mut r = rig();
        let base = UserLayout::DATA_BASE;
        r.with(|k, ctx| {
            k.map_region(ctx, base, 64 * 1024, Prot::RW);
            k.remap(ctx, base, 64 * 1024);
            let sp = *k.aspace().superpages().next().unwrap();

            // Generation 1: no page has a swap copy yet, so every page is
            // written regardless of dirtiness (data must not be lost).
            let rep = k.swap_out_superpage(ctx, base.vpn());
            assert_eq!(rep.pages_total, 16);
            assert_eq!(rep.pages_written, 16);

            // Bring everything back in.
            for page in 0..16u64 {
                let shadow_pa = sp.shadow_base.base_addr() + page * PAGE_SIZE;
                k.handle_shadow_fault(ctx, shadow_pa).unwrap();
            }

            // Dirty exactly pages 3 and 7 via exclusive fills at their
            // shadow addresses.
            for page in [3u64, 7] {
                let shadow_pa = sp.shadow_base.base_addr() + page * PAGE_SIZE;
                ctx.mmc
                    .bus_access(shadow_pa.bus(), BusOp::FillExclusive, ctx.mem)
                    .unwrap();
            }

            // Generation 2 — the paper's §2.5 claim: only dirty base
            // pages are flushed to disk.
            let writes_before = k.swap().writes();
            let rep = k.swap_out_superpage(ctx, base.vpn());
            assert_eq!(rep.pages_total, 16);
            assert_eq!(rep.pages_written, 2, "only the dirty pages are written");
            assert_eq!(k.swap().writes() - writes_before, 2);
            assert_eq!(k.stats().pages_swapped_out, 32);
        });
    }

    #[test]
    fn conventional_policy_writes_whole_superpage() {
        let mut r = Rig::new(KernelConfig {
            paging: PagingPolicy::WholeSuperpage,
            ..KernelConfig::default()
        });
        let base = UserLayout::DATA_BASE;
        r.with(|k, ctx| {
            k.map_region(ctx, base, 64 * 1024, Prot::RW);
            k.remap(ctx, base, 64 * 1024);
            let sp = *k.aspace().superpages().next().unwrap();
            let shadow_pa = sp.shadow_base.base_addr() + 3 * PAGE_SIZE;
            ctx.mmc
                .bus_access(shadow_pa.bus(), BusOp::FillExclusive, ctx.mem)
                .unwrap();
            let rep = k.swap_out_superpage(ctx, base.vpn());
            assert_eq!(rep.pages_total, 16);
            assert_eq!(
                rep.pages_written, 16,
                "without per-page dirty bits everything is written"
            );
        });
    }

    #[test]
    fn shadow_fault_swaps_page_back_in_with_data_intact() {
        let mut r = rig();
        let base = UserLayout::DATA_BASE;
        r.with(|k, ctx| {
            k.map_region(ctx, base, 16 * 1024, Prot::RW);
            k.remap(ctx, base, 16 * 1024);
            let sp = *k.aspace().superpages().next().unwrap();
            let shadow_pa = sp.shadow_base.base_addr() + PAGE_SIZE;

            // Write recognisable data through the real frame.
            let real = ctx
                .mmc
                .translate_functional(shadow_pa.bus(), ctx.mem)
                .unwrap();
            ctx.mem.write_u64(real, 0xdead_beef_cafe_f00d);
            // Make the page dirty in the MMC's eyes, then swap out.
            ctx.mmc
                .bus_access(shadow_pa.bus(), BusOp::FillExclusive, ctx.mem)
                .unwrap();
            k.swap_out_superpage(ctx, base.vpn());

            // An access now faults precisely...
            let err = ctx
                .mmc
                .bus_access(shadow_pa.bus(), BusOp::FillShared, ctx.mem)
                .unwrap_err();
            assert!(matches!(err, Fault::ShadowPageFault { .. }));

            // ...the OS services it...
            k.handle_shadow_fault(ctx, shadow_pa).unwrap();

            // ...and the data is back, possibly in a different frame.
            let real2 = ctx
                .mmc
                .translate_functional(shadow_pa.bus(), ctx.mem)
                .unwrap();
            assert_eq!(ctx.mem.read_u64(real2), 0xdead_beef_cafe_f00d);
            assert_eq!(k.stats().pages_swapped_in, 1);
        });
    }

    #[test]
    fn wild_shadow_fault_propagates() {
        let mut r = rig();
        r.with(|k, ctx| {
            let err = k
                .handle_shadow_fault(
                    ctx,
                    ShadowAddr::from_bus(mtlb_types::PhysAddr::new(0x9f00_0000)),
                )
                .unwrap_err();
            assert!(matches!(err, Fault::ShadowPageFault { .. }));
        });
    }

    #[test]
    fn demote_restores_base_pages_and_frees_shadow() {
        let mut r = rig();
        let base = UserLayout::DATA_BASE;
        r.with(|k, ctx| {
            k.map_region(ctx, base, 64 * 1024, Prot::RW);
            let avail = k.shadow_available(PageSize::Size64K);
            k.remap(ctx, base, 64 * 1024);
            assert_eq!(k.shadow_available(PageSize::Size64K), avail - 1);
            k.demote_superpage(ctx, base.vpn());
            assert_eq!(k.shadow_available(PageSize::Size64K), avail);
            assert!(k.aspace().superpages().next().is_none());
            let (entry, _) = k.handle_tlb_miss(ctx, base).unwrap();
            assert_eq!(entry.size(), PageSize::Base4K);
            // The page is real-backed again.
            assert!(matches!(
                k.aspace().page(base.vpn()).unwrap().backing,
                Backing::Real(_)
            ));
        });
    }

    #[test]
    fn clock_eviction_frees_frames_under_pressure() {
        // A machine with few user frames: map + remap a region, then
        // demand more memory than exists.
        let mmc_cfg = MmcConfig::paper_default(DRAM);
        let mut r = Rig::new(KernelConfig::default());
        let need_frames = r.kernel.free_frames();
        let base = UserLayout::DATA_BASE;
        // Consume all but 32 frames with an (unremapped) mapping.
        let bulk = (need_frames - 32) * PAGE_SIZE;
        r.with(|k, ctx| {
            k.map_region(ctx, base, bulk, Prot::RW);
            // Remap a 64 KB window so there is something evictable.
            k.remap(ctx, base, 64 * 1024);
            assert_eq!(k.free_frames(), 32);
            // Now map 40 more pages: CLOCK must evict shadow-backed pages
            // (32 free + 16 evictable covers it).
            k.map_region(ctx, UserLayout::STACK_BASE, 40 * PAGE_SIZE, Prot::RW);
            assert!(k.stats().pages_swapped_out > 0);
            assert!(k.stats().clock_sweeps > 0);
        });
        let _ = mmc_cfg;
    }

    #[test]
    fn online_promotion_triggers_after_threshold_misses() {
        let mut r = Rig::new(KernelConfig {
            promotion: Some(crate::PromotionConfig {
                miss_threshold: 8,
                region: PageSize::Size64K,
            }),
            ..KernelConfig::default()
        });
        let base = UserLayout::DATA_BASE;
        r.with(|k, ctx| {
            k.map_region(ctx, base, 64 * 1024, Prot::RW);
            // Generate base-page TLB misses across the region: purge the
            // TLB between touches so every touch misses.
            for round in 0..8u64 {
                let va = base + (round % 16) * PAGE_SIZE;
                let (_, _) = k.handle_tlb_miss(ctx, va).unwrap();
                ctx.tlb.purge_all();
            }
            assert_eq!(k.stats().auto_promotions, 1, "8th miss promotes");
            // The next miss loads a 64 KB superpage entry.
            let (entry, _) = k.handle_tlb_miss(ctx, base).unwrap();
            assert_eq!(entry.size(), PageSize::Size64K);
        });
    }

    #[test]
    fn promotion_disabled_by_default() {
        let mut r = rig();
        let base = UserLayout::DATA_BASE;
        r.with(|k, ctx| {
            k.map_region(ctx, base, 64 * 1024, Prot::RW);
            for _ in 0..100 {
                k.handle_tlb_miss(ctx, base).unwrap();
                ctx.tlb.purge_all();
            }
            assert_eq!(k.stats().auto_promotions, 0);
        });
    }

    #[test]
    fn processes_have_disjoint_windows_and_switching_purges() {
        let mut r = rig();
        r.with(|k, ctx| {
            let p1 = k.spawn_process();
            assert_eq!(p1, 1);
            // Map and use memory in process 0.
            k.map_region(ctx, UserLayout::DATA_BASE, 4096, Prot::RW);
            k.handle_tlb_miss(ctx, UserLayout::DATA_BASE).unwrap();
            assert!(ctx.tlb.entry_for(UserLayout::DATA_BASE.vpn()).is_some());
            // Switch: replaceable entries are gone, kernel block stays.
            k.switch_process(ctx, p1).expect("pid 1 exists");
            assert!(ctx.tlb.entry_for(UserLayout::DATA_BASE.vpn()).is_none());
            assert!(
                ctx.tlb.entry_for(Vpn::new(1)).is_some(),
                "kernel block survives"
            );
            // Process 1 has its own heap window and empty address space.
            assert_eq!(k.aspace().mapped_pages(), 0);
            let (brk, _) = k.sbrk(ctx, 1000);
            assert_eq!(brk, Kernel::heap_base(1));
            assert!(brk.get() >= UserLayout::HEAP_BASE.get() + (1 << 32));
            // Back to process 0: its mapping is still there.
            k.switch_process(ctx, 0).expect("pid 0 exists");
            assert_eq!(k.aspace().mapped_pages(), 1);
            assert_eq!(k.stats().context_switches, 2);
            // Each switch queued a full shootdown for the other cores
            // (the sbrk in between may add Range requests of its own).
            assert!(k.has_pending_shootdowns());
            let drained = k.take_shootdowns();
            assert_eq!(
                drained
                    .iter()
                    .filter(|r| **r == ShootdownRequest::All)
                    .count(),
                2
            );
            assert!(!k.has_pending_shootdowns());
        });
    }

    #[test]
    fn switching_to_unknown_pid_faults() {
        let mut r = rig();
        r.with(|k, ctx| {
            // A bad pid is a typed fault, not a panic, and charges
            // nothing: the kernel validates before touching any state.
            let before = k.stats();
            assert_eq!(
                k.switch_process(ctx, 9),
                Err(Fault::NoSuchProcess { pid: 9 })
            );
            assert_eq!(k.stats(), before);
            assert_eq!(k.current_process(), 0);
            assert!(!k.has_pending_shootdowns());
        });
    }

    #[test]
    fn copy_page_costs_about_11400_cycles_warm() {
        // §3.3: "a comparable cost for copying a 4KB page, when the source
        // page is warm in the cache, is 11,400 CPU cycles".
        let mut r = rig();
        r.with(|k, ctx| {
            // Frames chosen so src and dst do not conflict in the
            // direct-mapped cache (they are 64 KB apart; the cache wraps
            // at 512 KB).
            let src = Ppn::new(0x5000);
            let dst = Ppn::new(0x5010);
            // Warm the source.
            let mut tm = TimedMem::new(ctx.cache, ctx.mmc, ctx.mem, ctx.ratio);
            for w in 0..(PAGE_SIZE / 4) {
                tm.charge_access(src.base_addr() + w * 4, false);
            }
            let cycles = k.copy_page_timed(ctx, src, dst).get() as f64;
            assert!(
                (9_000.0..14_000.0).contains(&cycles),
                "warm page copy cost {cycles} out of the paper's band"
            );
        });
    }

    /// The page-by-page neighbour walk `contiguity_of` replaced: one
    /// address-space lookup per neighbouring page.
    fn contiguity_per_page(aspace: &AddressSpace, entry: &TlbEntry) -> ContigInfo {
        if entry.size() != PageSize::Base4K {
            return ContigInfo::for_entry(entry);
        }
        let anchor = entry.vpn_base().index();
        let window_base = anchor & !(CONTIG_SCAN_WINDOW - 1);
        let window_end = window_base + CONTIG_SCAN_WINDOW;
        let frame_of = |p: u64| -> Option<u64> {
            let info = aspace.page(Vpn::new(p))?;
            if info.mapping_size != PageSize::Base4K || info.prot != entry.prot() {
                return None;
            }
            Some(match info.backing {
                Backing::Real(f) => f.index(),
                Backing::Shadow { shadow_spn } => shadow_spn.bus().index(),
            })
        };
        let (mut lo, mut lo_frame) = (anchor, entry.pfn_base().index());
        while lo > window_base {
            match frame_of(lo - 1) {
                Some(f) if f + 1 == lo_frame => (lo, lo_frame) = (lo - 1, f),
                _ => break,
            }
        }
        let (mut hi, mut hi_frame) = (anchor, entry.pfn_base().index());
        while hi + 1 < window_end {
            match frame_of(hi + 1) {
                Some(f) if f == hi_frame + 1 => (hi, hi_frame) = (hi + 1, f),
                _ => break,
            }
        }
        ContigInfo {
            base: Vpn::new(lo),
            pfn: Ppn::new(lo_frame),
            pages: hi - lo + 1,
        }
    }

    #[test]
    fn contiguity_is_the_per_page_walk_in_one_range_walk() {
        let mut aspace = AddressSpace::new();
        let real = |f: u64| Backing::Real(Ppn::new(f));
        let shadow = |f: u64| Backing::Shadow {
            shadow_spn: Spn::from_bus(Ppn::new(f)),
        };
        let mut map = |vpn: u64, backing, prot, mapping_size| {
            let info = PageInfo {
                backing,
                prot,
                mapping_size,
            };
            aspace.map_page(Vpn::new(vpn), info);
        };
        // Window 0x100: a run, a gap at 0x103, a protection change at
        // 0x106, and a page whose frame breaks the run at 0x107.
        for p in [0x100, 0x101, 0x102, 0x104, 0x105] {
            map(p, real(0x500 + p - 0x100), Prot::RW, PageSize::Base4K);
        }
        map(0x106, real(0x506), Prot::READ, PageSize::Base4K);
        map(0x107, real(0x900), Prot::RW, PageSize::Base4K);
        // Window 0x108: shadow frames, then a 16 KB superpage neighbour
        // whose frames continue the run.
        for p in 0x108..0x10c {
            map(p, shadow(0x8_0000 + p - 0x108), Prot::RW, PageSize::Base4K);
        }
        for p in 0x10c..0x110 {
            map(p, shadow(0x8_0000 + p - 0x108), Prot::RW, PageSize::Size16K);
        }
        // Window 0x110: real frames that run on into shadow frames (a
        // bus frame is a bus frame), and an unmapped window edge.
        for p in 0x111..0x114 {
            map(p, real(0x7_fffd + p - 0x111), Prot::RW, PageSize::Base4K);
        }
        for p in 0x114..0x117 {
            map(p, shadow(0x8_0000 + p - 0x114), Prot::RW, PageSize::Base4K);
        }
        let mut checked = 0;
        for vpn in 0x100..0x118 {
            let Some(info) = aspace.page(Vpn::new(vpn)) else {
                continue;
            };
            let frame = match info.backing {
                Backing::Real(f) => f,
                Backing::Shadow { shadow_spn } => shadow_spn.bus(),
            };
            let size = info.mapping_size;
            let (base, frame) = if size == PageSize::Base4K {
                (Vpn::new(vpn), frame)
            } else {
                let base = Vpn::new(vpn).align_down_to(size);
                (base, Ppn::new(frame.index() - (vpn - base.index())))
            };
            let entry = TlbEntry::new(base, frame, size, info.prot).unwrap();
            assert_eq!(
                contiguity_of(&aspace, &entry),
                contiguity_per_page(&aspace, &entry),
                "anchor {vpn:#x}"
            );
            checked += 1;
        }
        assert_eq!(checked, 21);
        // Spot checks: the run across real and shadow frames is the
        // whole mapped window, and the gap and protection change cut
        // the first window's runs.
        let e = |vpn: u64, f: u64, prot| {
            TlbEntry::new(Vpn::new(vpn), Ppn::new(f), PageSize::Base4K, prot).unwrap()
        };
        let run = |base: u64, pfn: u64, pages| ContigInfo {
            base: Vpn::new(base),
            pfn: Ppn::new(pfn),
            pages,
        };
        assert_eq!(
            contiguity_of(&aspace, &e(0x112, 0x7_fffe, Prot::RW)),
            run(0x111, 0x7_fffd, 6)
        );
        assert_eq!(
            contiguity_of(&aspace, &e(0x101, 0x501, Prot::RW)),
            run(0x100, 0x500, 3)
        );
        assert_eq!(
            contiguity_of(&aspace, &e(0x104, 0x504, Prot::RW)),
            run(0x104, 0x504, 2)
        );
        assert_eq!(
            contiguity_of(&aspace, &e(0x10a, 0x8_0002, Prot::RW)),
            run(0x108, 0x8_0000, 4)
        );
    }
}
