//! The simulated kernel: boot, processes and the remote-work queue
//! here, and one module per resource with the services over it —
//! `shadow` (shadow address space), `residency` (real frames, swap and
//! CLOCK) and `mapping` (the hashed page table and the miss handler).
//!
//! Every service returns the CPU [`Cycles`] it consumed so the machine
//! model (`mtlb-sim`) can attribute kernel time, exactly as the paper's
//! simulations "include the execution time and memory accesses of these
//! kernel operations" (§3.2).

use mtlb_cache::{DataCache, FlushOutcome};
use mtlb_mem::{FrameOrder, GuestMemory};
use mtlb_mmc::{BusOp, Mmc, MmcConfig, ShadowPte};
use mtlb_tlb::{HashedPageTable, MicroItlb, TlbEntry, TranslationScheme};
use mtlb_types::{Cycles, Fault, PageSize, PhysAddr, Ppn, Prot, VirtAddr, Vpn, PAGE_SIZE};

use std::collections::BTreeMap;

use crate::access::TimedMem;
use crate::aspace::{AddressSpace, SuperpageInfo};
use crate::layout::{KernelLayout, UserLayout};
use crate::paging::{PagingPolicy, SwapDevice};
use crate::shadow_alloc::BucketPartition;

mod mapping;
mod residency;
mod shadow;

use residency::ResidentSet;
use shadow::ShadowSpace;

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
}

/// The kernel's MMC operations, each priced here in CPU cycles.
impl KernelCtx<'_> {
    /// Reads shadow page `index`'s mapping entry.
    fn read_mapping(&mut self, index: u64) -> (ShadowPte, Cycles) {
        let (pte, mmc_cycles) = self.mmc.read_mapping(index, self.mem);
        (pte, Cycles::from_bus_cycles(mmc_cycles))
    }

    /// Overwrites shadow page `index`'s mapping entry.
    fn set_mapping(&mut self, index: u64, pte: ShadowPte) -> Cycles {
        let mmc_cycles = self.mmc.set_mapping(index, pte, self.mem);
        Cycles::from_bus_cycles(mmc_cycles)
    }

    /// Clears shadow page `index`'s referenced bit (the CLOCK hand).
    fn clear_referenced(&mut self, index: u64) -> Cycles {
        let mmc_cycles = self.mmc.clear_bits(index, true, false, self.mem);
        Cycles::from_bus_cycles(mmc_cycles)
    }

    /// Writes back one dirty line a page flush evicted.
    fn writeback(&mut self, line: PhysAddr) -> Cycles {
        #[expect(
            clippy::expect_used,
            reason = "Structure invariant: a flushed line's bus address is a real frame or a shadow page whose MTLB mapping the kernel installed and has not yet torn down."
        )]
        let resp = self
            .mmc
            .bus_access(line, BusOp::Writeback, self.mem)
            .expect("flush writeback cannot fault");
        Cycles::from_bus_cycles(resp.mmc_cycles)
    }

    /// Kernel memory accesses charged through the cache and the MMC.
    fn timed(&mut self) -> TimedMem<'_> {
        TimedMem::new(&mut *self.cache, &mut *self.mmc, &mut *self.mem)
    }
}

/// A TLB shootdown: the invalidation a kernel service applied to the
/// local core's TLB and micro-ITLB that every *other* core must replay
/// (as [`RemoteWork`]) before the mapping change is globally safe. The
/// uniprocessor paper never needed these; they are the cost the
/// multi-core extension measures.
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

    /// The request covering superpage `sp`.
    fn covering(sp: &SuperpageInfo) -> Self {
        let (vpn, pages) = (sp.vpn_base, sp.size.base_pages());
        ShootdownRequest::Range { vpn, pages }
    }
}

/// What a kernel entry left for the other cores, in the order it
/// happened. The machine drains it ([`Kernel::drain_remote`]) on every
/// kernel exit, applying each item to every remote core and charging
/// [`KernelCosts::shootdown_ipi`] per shootdown per remote core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoteWork {
    /// A TLB shootdown the running core already applied.
    Shootdown(ShootdownRequest),
    /// A page flushed from the running core's L1. A page flush reaches
    /// every core's cache (the bus broadcasts it), so the other L1s drop
    /// its lines. A per-base-page pageout queues no shootdown, but its
    /// flush still lands here.
    Flush {
        /// The flushed page's virtual page.
        vpn: Vpn,
        /// Its bus frame (real or shadow), which tags its lines.
        pfn: Ppn,
    },
}

impl RemoteWork {
    /// Applies the work to one remote core's front end. A flush and a
    /// purge touch different structures, so their order does not
    /// matter.
    pub fn apply(
        self,
        tlb: &mut dyn TranslationScheme,
        itlb: &mut MicroItlb,
        cache: &mut DataCache,
    ) {
        match self {
            RemoteWork::Shootdown(request) => request.apply(tlb, itlb),
            RemoteWork::Flush { vpn, pfn } => cache.invalidate_page(vpn, pfn),
        }
    }
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
    /// Frame hand-out order (scrambled reproduces long-running-system
    /// fragmentation; the mechanism's whole point is tolerating it).
    pub frame_order: FrameOrder,
    /// Cost constants.
    pub costs: KernelCosts,
    /// Paging policy for superpages.
    pub paging: PagingPolicy,
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
            frame_order: FrameOrder::Scrambled { seed: 0x5eed },
            costs: KernelCosts::default(),
            paging: PagingPolicy::default(),
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
    /// CPU cycles charged by TLB miss handler invocations, including
    /// walks that found no PTE. The cycle-attribution auditor
    /// reconciles this against the machine's `tlb_miss` time bucket.
    pub tlb_miss_cycles: Cycles,
    /// CPU cycles charged by successful shadow-fault service (audited
    /// against the `fault` time bucket).
    pub fault_cycles: Cycles,
    /// CPU cycles charged by explicit kernel services — boot, map,
    /// remap, sbrk, swap control, demote, recolor, context switch
    /// (audited against the `kernel` time bucket). Each service counts
    /// only its own: a growing `sbrk` counts its syscall overhead, and
    /// the `map_region` and `remap` it calls count theirs.
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
/// The simulated kernel. See the module-level documentation for the modelled behaviour.
#[derive(Debug, Clone)]
pub struct Kernel {
    layout: KernelLayout,
    config: KernelConfig,
    processes: Vec<Process>,
    current: usize,
    /// The hashed page table the miss handler walks (`mapping`'s).
    hpt: HashedPageTable,
    /// Shadow address space (`shadow`'s).
    shadow: ShadowSpace,
    /// Real frames, swap and the CLOCK ring (`residency`'s).
    residency: ResidentSet,
    /// Per-candidate-region TLB miss counters for online promotion.
    promo_counters: BTreeMap<u64, u64>,
    /// Shootdowns and page flushes awaiting delivery to the other
    /// cores, in the order they happened.
    remote: Vec<RemoteWork>,
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
            hpt: HashedPageTable::new(layout.hpt_config()),
            shadow: ShadowSpace::new(mmc_config.shadow, &config.shadow_alloc),
            residency: ResidentSet::new(first, total, config.frame_order),
            config,
            processes: vec![Process::new(0)],
            current: 0,
            promo_counters: BTreeMap::new(),
            remote: Vec::new(),
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
    /// queues it for the other cores, so both sides purge through
    /// [`ShootdownRequest::apply`].
    ///
    /// Every mapping mutation that can strand a stale translation
    /// funnels through here. `crates/sim/tests/schemes.rs` pins, service by service, which
    /// entry points shoot down and which (fresh mappings, §2.5
    /// per-base-page paging) deliberately do not.
    fn invalidate(&mut self, ctx: &mut KernelCtx<'_>, request: ShootdownRequest) {
        request.apply(ctx.tlb, ctx.itlb);
        self.remote.push(RemoteWork::Shootdown(request));
    }

    /// Drains the work queued for the other cores since the last call;
    /// the caller reports the shootdowns it delivered via
    /// [`note_shootdown`](Self::note_shootdown).
    pub fn drain_remote(&mut self) -> std::vec::Drain<'_, RemoteWork> {
        self.remote.drain(..)
    }

    /// Flushes the page's lines from the running core's L1, queueing the
    /// flush for the other cores' (see [`RemoteWork::Flush`]), and
    /// writes each dirty line back through the MMC. Returns
    /// [`KernelCosts::flush_line`] per slot examined plus the
    /// writebacks' bus time, and what the flush did.
    fn flush_page(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        vpn: Vpn,
        pfn: Ppn,
    ) -> (Cycles, FlushOutcome) {
        self.remote.push(RemoteWork::Flush { vpn, pfn });
        let out = ctx.cache.flush_page(vpn, pfn);
        let mut cycles = self.config.costs.flush_line * out.lines_examined;
        for &line in &out.writebacks {
            cycles += ctx.writeback(line);
        }
        (cycles, out)
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

    /// Counters since construction or the last
    /// [`reset_stats`](Self::reset_stats).
    #[must_use]
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Zeroes the counters (e.g. after a warmup), keeping all kernel
    /// state. The swap device's traffic counts stay cumulative.
    pub fn reset_stats(&mut self) {
        self.stats = KernelStats::default();
    }

    /// The swap device (for traffic reports).
    #[must_use]
    pub fn swap(&self) -> &SwapDevice {
        self.residency.swap()
    }

    /// Free user frames remaining.
    #[must_use]
    pub fn free_frames(&self) -> u64 {
        self.residency.free_frames()
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

    /// Kernel page copy with the paper's §3.3 cost structure (word loads
    /// and stores through the cache plus loop overhead) — the operation
    /// conventional superpage coalescing needs and shadow remapping
    /// avoids. Copies `src` frame to `dst` frame; returns cycles.
    pub fn copy_page_timed(&mut self, ctx: &mut KernelCtx<'_>, src: Ppn, dst: Ppn) -> Cycles {
        let words = PAGE_SIZE / 4;
        let mut cycles = self.config.costs.copy_word_overhead * words;
        let mut tm = ctx.timed();
        for w in 0..words {
            tm.charge_access(src.base_addr() + w * 4, false);
            tm.charge_access(dst.base_addr() + w * 4, true);
        }
        cycles += tm.take_cycles();
        ctx.mem.copy_page(src, dst);
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::mapping::{contiguity_of, CONTIG_SCAN_WINDOW};
    use super::*;
    use crate::aspace::{Backing, PageInfo};
    use mtlb_cache::CacheConfig;
    use mtlb_tlb::{ContigInfo, CpuTlb};
    use mtlb_types::{ShadowAddr, Spn};

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
            let (entry, cycles) = k.handle_tlb_miss(ctx, base + 0x123);
            assert_eq!(entry.unwrap().size(), PageSize::Base4K);
            assert!(cycles > Cycles::ZERO);
        });
        // The entry is now in the TLB.
        assert!(r.tlb.entry_for(base.vpn()).is_some());
    }

    #[test]
    #[should_panic(expected = "kernel block window (first 16777216 bytes)")]
    fn map_region_below_the_kernel_reservation_panics() {
        let mut r = rig();
        r.with(|k, ctx| {
            k.map_region(ctx, VirtAddr::new(0x10_0000), PAGE_SIZE, Prot::RW);
        });
    }

    #[test]
    fn tlb_miss_on_unmapped_address_faults() {
        let mut r = rig();
        r.with(|k, ctx| {
            let (err, cycles) = k.handle_tlb_miss(ctx, VirtAddr::new(0x6000_0000));
            assert!(matches!(err, Err(Fault::PageNotMapped { .. })));
            // The trap and the walk are paid for all the same.
            assert!(cycles > k.config.costs.tlb_trap_overhead);
            assert_eq!(k.stats().tlb_miss_cycles, cycles);
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
            let entry = k.handle_tlb_miss(ctx, base + 5 * PAGE_SIZE).0.unwrap();
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
            let entry = k.handle_tlb_miss(ctx, base).0.unwrap();
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
            let entry = k.handle_tlb_miss(ctx, base).0.unwrap();
            assert_eq!(entry.size(), PageSize::Base4K);
            // The page is real-backed again.
            assert!(matches!(
                k.aspace().page(base.vpn()).unwrap().backing,
                Backing::Real(_)
            ));
        });
    }

    /// The shadow page a shadow-backed `vpn` maps to.
    fn shadow_spn_of(k: &Kernel, vpn: Vpn) -> Spn {
        match k.aspace().page(vpn).expect("vpn is mapped").backing {
            Backing::Shadow { shadow_spn } => shadow_spn,
            Backing::Real(_) => panic!("vpn {vpn} is real-backed"),
        }
    }

    #[test]
    fn single_shadow_pages_come_most_recently_pooled_first() {
        let base = UserLayout::DATA_BASE;
        // All-shadow mappings take a fresh 16 KB region last to first.
        let mut r = Rig::new(KernelConfig {
            all_shadow: true,
            ..KernelConfig::default()
        });
        r.with(|k, ctx| k.map_region(ctx, base, 8 * PAGE_SIZE, Prot::RW));
        let taken: Vec<Spn> = (0..8)
            .map(|i| shadow_spn_of(&r.kernel, base.vpn().offset(i)))
            .collect();
        for region in taken.chunks(4) {
            let first = region[3];
            assert_eq!(first.index() % 4, 0, "{first} starts a 16 KB region");
            assert_eq!(region, [3, 2, 1, 0].map(|i| first.offset(i)));
        }
        assert_ne!(taken[3], taken[7], "the second 16 KB is a new region");

        // A recolor takes the most recently pooled page of its color,
        // and a demoted recolored page is the next one handed out.
        let mut r = rig();
        r.with(|k, ctx| {
            k.map_region(ctx, base, 8 * PAGE_SIZE, Prot::RW);
            let palette = ctx.cache.config();
            let recolor = |k: &mut Kernel, ctx: &mut KernelCtx<'_>, page: u64, color| {
                k.recolor_page(ctx, base.vpn().offset(page), color);
                let spn = shadow_spn_of(k, base.vpn().offset(page));
                assert_eq!(palette.color_of(spn.bus().base_addr()), color);
                spn
            };
            // Three pages of color 0 carve a palette's worth of 16 KB
            // regions twice over; each carving pools a color-1 page.
            let zeros = [0, 1, 2].map(|page| recolor(k, ctx, page, 0));
            assert_eq!(recolor(k, ctx, 3, 1), zeros[2].offset(1));
            k.demote_superpage(ctx, base.vpn().offset(3));
            assert_eq!(recolor(k, ctx, 4, 1), zeros[2].offset(1));
            k.demote_superpage(ctx, base.vpn());
            k.demote_superpage(ctx, base.vpn().offset(1));
            assert_eq!(recolor(k, ctx, 5, 0), zeros[1]);
            assert_eq!(recolor(k, ctx, 6, 0), zeros[0]);
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
                k.handle_tlb_miss(ctx, va).0.unwrap();
                ctx.tlb.purge_all();
            }
            assert_eq!(k.stats().auto_promotions, 1, "8th miss promotes");
            // The next miss loads a 64 KB superpage entry.
            let entry = k.handle_tlb_miss(ctx, base).0.unwrap();
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
                k.handle_tlb_miss(ctx, base).0.unwrap();
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
            k.handle_tlb_miss(ctx, UserLayout::DATA_BASE).0.unwrap();
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
            // (the sbrk in between may add Range requests and flushes
            // of its own).
            let all = RemoteWork::Shootdown(ShootdownRequest::All);
            assert_eq!(k.drain_remote().filter(|w| *w == all).count(), 2);
            assert_eq!(k.drain_remote().count(), 0);
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
            assert_eq!(k.drain_remote().count(), 0);
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
            let mut tm = TimedMem::new(ctx.cache, ctx.mmc, ctx.mem);
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
            Some(info.backing.frame().index())
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
            let frame = info.backing.frame();
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
