//! The assembled machine and its execution-driven access paths.

use mtlb_cache::{AccessResult, DataCache, FillKind};
use mtlb_mem::GuestMemory;
use mtlb_mmc::{BusOp, Mmc};
use mtlb_os::{Kernel, KernelCtx, KernelStats, RemapReport, SwapOutReport, UserLayout};
use mtlb_tlb::{LookupOutcome, MicroItlb, TranslationScheme};
use mtlb_types::{
    AccessKind, Cycles, Fault, Histogram, PhysAddr, PrivilegeLevel, Prot, VirtAddr, Vpn,
    CACHE_LINE_SIZE, PAGE_SIZE,
};

use crate::ops::{MachineOp, OpSink};
#[cfg(debug_assertions)]
use crate::report::TimeBuckets;
use crate::report::{CoreStats, RunReport};
use crate::trace::{Bucket, Ledger, TraceEvent, TraceSink};
use crate::{MachineConfig, Scalar};

/// Builds a [`KernelCtx`] from the machine's fields without borrowing
/// `self.kernel`, so kernel services can be invoked in one expression.
macro_rules! kctx {
    ($self:ident) => {{
        let core = &mut $self.cores[$self.active];
        KernelCtx {
            tlb: &mut *core.tlb,
            itlb: &mut core.itlb,
            cache: &mut core.cache,
            mmc: &mut $self.mmc,
            mem: &mut $self.mem,
            ratio: $self.cfg.ratio,
        }
    }};
}

/// The complete simulated machine. See the [crate docs](crate) for the
/// modelled system and the timing rules.
///
/// # Access API
///
/// Workloads use the scalar pair [`try_read::<T>`](Machine::try_read) /
/// [`try_write::<T>`](Machine::try_write), generic over the sealed
/// [`Scalar`] widths (`u8 u16 u32 u64 f64`), for data, [`try_execute`]
/// to account instruction execution (with instruction-fetch translation
/// through the micro-ITLB), the batch accessors
/// ([`try_read_block`](Machine::try_read_block),
/// [`try_stream_write_u32`](Machine::try_stream_write_u32), …) for dense
/// loops, and the syscall wrappers ([`map_region`], [`remap`], [`sbrk`],
/// …) for memory management. Accessors return the typed [`Fault`] on
/// unmapped or protection-violating accesses; the `mtlb-workloads` crate
/// provides an infallible `AccessExt` convenience layer that panics
/// instead.
///
/// Naturally-aligned scalar accesses never straddle a cache line and
/// cost one access. Misaligned scalars are legal but are modelled as the
/// classic pair of aligned accesses over the two straddled windows (MIPS
/// `lwl`/`lwr` style): two loads or stores, two cache accesses. Width
/// changes nothing else: every scalar takes the same TLB, cache, bus
/// and MMC path, and is recorded as one `Read`/`Write` op of its size.
///
/// # Host-side fast paths
///
/// Two layers accelerate the host simulation without changing a
/// single simulated cycle or counter (the property the differential
/// tests pin): a per-access-kind **translation memo** that replays the
/// last translate hit for same-page runs and then runs the ordinary
/// cache/bus timing, and a stateless **batch planner** behind the
/// `try_*_block`/`try_stream_*` APIs that re-proves cache residency
/// with a probe on every run and fast-forwards whole cache-resident
/// runs, charging the identical cycles in bulk through the same
/// internal `charge` funnel. The memos are guarded by a generation
/// counter bumped on every TLB fill, purge, remap, paging operation
/// and context switch.
/// [`set_fast_paths`](Machine::set_fast_paths) turns both off to
/// recover the pure slow-path reference machine.
///
/// # Operation recording
///
/// An [`OpSink`] attached via [`set_op_sink`](Machine::set_op_sink)
/// records every public-API operation as a [`MachineOp`] at the call
/// boundary — the basis of the co-run mirror (`mtlb_trace::corun_with`)
/// and of the MTR1 trace codec.
///
/// [`try_execute`]: Machine::try_execute
/// [`map_region`]: Machine::map_region
/// [`remap`]: Machine::remap
/// [`sbrk`]: Machine::sbrk
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    /// The per-core front ends, one [`CoreState`] per configured core
    /// in core-index order. Every hot path reaches its translation,
    /// cache, program-counter and memo state through
    /// `cores[active]` — the same code at every core count, so a
    /// one-core machine is the multi-core machine with a one-element
    /// list, and whole-machine views (`report`, `per_core_stats`,
    /// shootdown delivery, `reset_stats`, the audit) iterate this one
    /// list.
    cores: Vec<CoreState>,
    /// Index in `cores` of the core the machine is executing as;
    /// [`set_active_core`](Machine::set_active_core) moves it.
    active: usize,
    mmc: Mmc,
    mem: GuestMemory,
    kernel: Kernel,
    /// Time buckets and the optional event trace: every simulated
    /// cycle is charged through it.
    ledger: Ledger,
    /// Kernel counters at construction / last [`reset_stats`]
    /// (`Machine::reset_stats`), so the attribution auditor can compare
    /// bucket deltas even though kernel stats are never reset.
    kernel_base: KernelStats,
    /// CPU-cycle intervals between consecutive CPU TLB misses.
    miss_intervals: Histogram,
    last_miss_at: Option<Cycles>,
    /// Generation counter guarding the translation memos: bumped by
    /// [`invalidate_memos`](Machine::invalidate_memos) on every event
    /// that can change a translation, TLB slot contents or page
    /// residency. A memo is valid only while its recorded generation
    /// matches.
    memo_gen: u64,
    /// Host-side fast paths enabled (memos + batch fast-forwarding).
    /// Disabled by the differential tests to produce a pure slow-path
    /// reference machine.
    fast_paths: bool,
    /// Optional operation recorder for trace record/replay; `None`
    /// costs one branch per public API call.
    op_sink: Option<Box<dyn OpSink>>,
    /// Core that issued the previous user bus transaction. A different
    /// core taking the bus pays [`MachineConfig::bus_arbitration`] —
    /// the shared-bus contention model (irrelevant at one core).
    last_bus_core: Option<usize>,
    /// Bus-arbitration stalls charged so far.
    contention_events: u64,
    /// CPU cycles those stalls cost (inside the mem-stall bucket).
    contention_cycles: Cycles,
}

/// One CPU front end: everything private to a core — its translation
/// and cache state, program-counter state, retired-op counters, the
/// translation memos keyed to its own TLB slots, and the process it is
/// running.
#[derive(Debug)]
struct CoreState {
    /// Translation front end (the paper's [`CpuTlb`](mtlb_tlb::CpuTlb)
    /// by default; fig5 swaps in rival designs behind the same trait).
    tlb: Box<dyn TranslationScheme>,
    itlb: MicroItlb,
    cache: DataCache,
    code_base: VirtAddr,
    code_len: u64,
    pc_offset: u64,
    loads: u64,
    stores: u64,
    instructions: u64,
    /// Recently translated data pages for loads, direct-mapped by the
    /// low VPN bits so page-alternating loops (key + table, source +
    /// histogram) keep all their hot pages memoized at once. Boxed to
    /// keep the struct's hot scalars within a few cache lines of each
    /// other (inline tables measured 6 % slower on the live workloads).
    read_memos: Box<[Option<AccessMemo>; MEMO_WAYS]>,
    /// Recently translated data pages for stores.
    write_memos: Box<[Option<AccessMemo>; MEMO_WAYS]>,
    /// The process this core was running when the machine last moved
    /// off it (the kernel's current-process pointer is the truth while
    /// the core is active; `set_active_core` saves and restores it).
    pid: usize,
}

impl CoreState {
    /// One access to this core's L1 cache.
    #[inline]
    fn cache_probe(&mut self, va: VirtAddr, pa: PhysAddr, write: bool) -> AccessResult {
        if write {
            self.cache.access_write(va, pa)
        } else {
            self.cache.access_read(va, pa)
        }
    }

    /// A cold front end on process 0, its PC on the boot text page.
    fn new(cfg: &MachineConfig) -> Self {
        CoreState {
            tlb: cfg.scheme.build(cfg.cpu_tlb_entries),
            itlb: MicroItlb::new(),
            cache: DataCache::new(cfg.cache),
            code_base: UserLayout::TEXT_BASE,
            code_len: PAGE_SIZE,
            pc_offset: 0,
            loads: 0,
            stores: 0,
            instructions: 0,
            read_memos: Box::new([None; MEMO_WAYS]),
            write_memos: Box::new([None; MEMO_WAYS]),
            pid: 0,
        }
    }
}

/// Direct-mapped translation-memo table size per access kind (a power
/// of two; indexed by the low bits of the VPN).
const MEMO_WAYS: usize = 64;

/// One-line translation memo: the last successfully translated data
/// page for one access kind. Valid while `gen` matches the machine's
/// `memo_gen` — any TLB fill/purge/remap/paging/context-switch bumps
/// the generation, so a valid memo proves the TLB slot, the bus
/// translation and the real (DRAM) backing are all unchanged since the
/// recorded access.
#[derive(Clone, Copy, Debug)]
struct AccessMemo {
    /// `Machine::memo_gen` at establishment.
    gen: u64,
    /// [`TranslationScheme::generation`] at establishment: the memo's
    /// validity (`gen` unchanged) implies no fill/purge/shootdown has
    /// touched the front end since, so its content generation must
    /// still match — debug-asserted on every replay.
    tlb_gen: u64,
    /// 4 KB virtual page index this memo covers.
    vpn: u64,
    /// Unified-TLB slot that served the translation (for crediting
    /// replayed hits to the right entry).
    slot: usize,
    /// Bus (possibly shadow) address of the page's first byte.
    bus_page: PhysAddr,
    /// Real DRAM address of the page's first byte.
    real_page: PhysAddr,
}

/// One access stream of a batched operation: item `j` accesses
/// `base + j * size` (naturally aligned, `size` a power of two ≤ 8).
#[derive(Clone, Copy, Debug)]
struct Lane {
    base: VirtAddr,
    size: u64,
    write: bool,
}

/// Maximum lanes a batched operation may drive.
const MAX_LANES: usize = 2;

impl Machine {
    /// Builds and boots a machine.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (shadow range overlapping
    /// DRAM, kernel tables not fitting, bad MTLB geometry).
    #[must_use]
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(cfg.cores > 0, "a machine needs at least one core");
        let mut m = Machine {
            cores: vec![CoreState::new(&cfg)],
            active: 0,
            mmc: Mmc::new(cfg.mmc),
            mem: GuestMemory::new(cfg.mmc.installed_dram),
            kernel: Kernel::new(cfg.mmc, cfg.kernel.clone()),
            cfg,
            ledger: Ledger::default(),
            kernel_base: KernelStats::default(),
            miss_intervals: Histogram::new(),
            last_miss_at: None,
            memo_gen: 0,
            fast_paths: true,
            op_sink: None,
            last_bus_core: None,
            contention_events: 0,
            contention_cycles: Cycles::ZERO,
        };
        let boot = m.kernel.boot(&mut kctx!(m));
        m.ledger.charge(Bucket::Kernel, boot, || TraceEvent::Boot);
        // A minimal text page so `try_execute` works before
        // `load_program`.
        let c = m
            .kernel
            .map_region(&mut kctx!(m), UserLayout::TEXT_BASE, PAGE_SIZE, Prot::RX);
        m.ledger
            .charge(Bucket::Kernel, c, || TraceEvent::MapRegion {
                start: UserLayout::TEXT_BASE,
                len: PAGE_SIZE,
            });
        // Secondary front ends: fresh TLB (pinning the same locked
        // kernel block entry boot installed on core 0), micro-ITLB and
        // L1 cache, all starting on process 0. Boot is charged once —
        // the model brings secondary cores up during the same boot
        // window.
        for _ in 1..m.cfg.cores {
            let mut core = CoreState::new(&m.cfg);
            if let Some(entry) = m.kernel.kernel_block_entry() {
                core.tlb.insert_locked(entry);
            }
            m.cores.push(core);
        }
        m
    }

    /// Short name of the active translation front end (fig5 labels).
    #[must_use]
    pub fn scheme_name(&self) -> &'static str {
        self.core().tlb.name()
    }

    /// Number of CPU cores.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Index of the core the machine is currently executing as.
    #[must_use]
    pub fn active_core(&self) -> usize {
        self.active
    }

    /// The active core's front end.
    #[inline]
    fn core(&self) -> &CoreState {
        &self.cores[self.active]
    }

    /// The active core's front end, mutably. (Paths that also need
    /// other machine fields while they hold the core index
    /// `cores[active]` in place, which borrows just that field.)
    #[inline]
    fn core_mut(&mut self) -> &mut CoreState {
        &mut self.cores[self.active]
    }

    /// Makes `core` the core the machine executes as and re-points the
    /// kernel at the process that core is running. O(1): the front ends
    /// stay where they are in the core list, only the active index
    /// moves. This is the deterministic round-robin scheduler's
    /// primitive: a host-level operation (not a recorded [`MachineOp`],
    /// like [`set_fast_paths`](Machine::set_fast_paths)) costing no
    /// simulated cycles — each core is already running; only the
    /// simulator's attention moves. No-op when `core` is active.
    ///
    /// # Panics
    ///
    /// Panics when `core` is out of range.
    pub fn set_active_core(&mut self, core: usize) {
        assert!(core < self.cores.len(), "no such core {core}");
        if core == self.active {
            return;
        }
        self.core_mut().pid = self.kernel.current_process();
        self.active = core;
        self.kernel.set_current_process(self.core().pid);
    }

    /// Drains the kernel's queued TLB shootdowns, applying each to
    /// every remote core's CPU TLB and micro-ITLB and charging the
    /// delivery cost; part of [`kernel_exit`](Machine::kernel_exit),
    /// whose memo-generation bump already covers the remote cores'
    /// memos. On a single core the queue drains at zero cost — there is
    /// no remote core to purge, count or charge for, which is what
    /// keeps the 1-core machine bit-identical.
    fn service_shootdowns(&mut self) {
        if !self.kernel.has_pending_shootdowns() {
            return;
        }
        let requests = self.kernel.take_shootdowns();
        let remote_cores = (self.cores.len() - 1) as u64;
        if remote_cores == 0 {
            return;
        }
        for request in &requests {
            for (i, core) in self.cores.iter_mut().enumerate() {
                if i != self.active {
                    request.apply(core.tlb.as_mut(), &mut core.itlb);
                }
            }
        }
        let n = requests.len() as u64;
        let c = self.kernel.note_shootdown(n, remote_cores);
        self.ledger
            .charge(Bucket::Kernel, c, || TraceEvent::Shootdown {
                requests: n,
                remote_cores,
            });
    }

    /// The epilogue of every kernel entry: translation memos die, the
    /// entry's cycles land in `bucket`, and the page flushes and
    /// shootdowns it queued reach the other cores before the machine
    /// runs user code again.
    fn kernel_exit(&mut self, bucket: Bucket, cycles: Cycles, event: impl FnOnce() -> TraceEvent) {
        self.invalidate_memos();
        self.kernel_return(bucket, cycles, event);
    }

    /// [`kernel_exit`](Machine::kernel_exit) for a kernel entry that
    /// changed no translation, protection, residency or TLB entry: the
    /// translation memos stay valid.
    fn kernel_return(
        &mut self,
        bucket: Bucket,
        cycles: Cycles,
        event: impl FnOnce() -> TraceEvent,
    ) {
        self.ledger.charge(bucket, cycles, event);
        let active = self.active;
        for (vpn, pfn) in self.kernel.drain_flushed_pages() {
            for (i, core) in self.cores.iter_mut().enumerate() {
                if i != active {
                    core.cache.invalidate_page(vpn, pfn);
                }
            }
        }
        self.service_shootdowns();
    }

    /// Charges the bus-arbitration penalty when a user-path bus
    /// transaction comes from a different core than the previous one —
    /// the shared-bus/MTLB contention model. Kernel-internal bus
    /// traffic (page-table walks, flush writebacks inside services) is
    /// not arbitrated per-core; its cost is already folded into the
    /// service cycles. Free at one core.
    fn arbitrate_bus(&mut self) {
        if self.cores.len() <= 1 {
            return;
        }
        let core = self.active;
        let prev = self.last_bus_core.replace(core);
        if prev.is_none() || prev == Some(core) {
            return;
        }
        self.contention_events = self.contention_events.saturating_add(1);
        self.contention_cycles += self.cfg.bus_arbitration;
        self.ledger
            .charge(Bucket::MemStall, self.cfg.bus_arbitration, || {
                TraceEvent::MtlbContention { core: core as u64 }
            });
    }

    /// Attaches a trace sink; subsequent charges are recorded into it.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.ledger.set_sink(sink);
    }

    /// Detaches and returns the trace sink, if one was attached.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.ledger.take_sink()
    }

    /// Mirrors one public-API operation to the attached op sink (if
    /// any), at the API boundary before the machine acts on it. The op
    /// is a closure so that with no sink attached — the overwhelmingly
    /// common case — constructing it costs nothing. The sink is taken
    /// out while it runs, so what it does to the machine is neither
    /// recorded nor fed back to it.
    fn record_op(&mut self, op: impl FnOnce() -> MachineOp) {
        if let Some(mut sink) = self.op_sink.take() {
            sink.record(self, &op());
            self.op_sink = Some(sink);
        }
    }

    /// Attaches an operation recorder; every subsequent public-API
    /// call is recorded into it (see [`MachineOp`] for the vocabulary
    /// and the record/replay contract).
    pub fn set_op_sink(&mut self, sink: Box<dyn OpSink>) {
        self.op_sink = Some(sink);
    }

    /// Detaches and returns the operation recorder, if one was
    /// attached.
    pub fn take_op_sink(&mut self) -> Option<Box<dyn OpSink>> {
        self.op_sink.take()
    }

    /// Notes a CPU TLB miss for the miss-interval histogram.
    fn note_tlb_miss(&mut self) {
        let now = self.ledger.total();
        if let Some(prev) = self.last_miss_at {
            self.miss_intervals.record((now - prev).get());
        }
        self.last_miss_at = Some(now);
    }

    /// Invalidates every outstanding translation memo by bumping the
    /// generation counter. Called whenever TLB contents, mappings or
    /// page residency may have changed: after every software miss-handler
    /// run, every shadow-fault service, and every kernel service wrapper
    /// but an `sbrk` inside the mapped heap, which moves only the break.
    #[inline]
    fn invalidate_memos(&mut self) {
        self.memo_gen = self.memo_gen.wrapping_add(1);
    }

    /// Enables or disables the host-side fast paths (translation memos
    /// and batched fast-forwarding). On by default. Simulated cycles and
    /// every statistic are identical either way — that is the property
    /// the differential tests pin; disabling recovers the pure slow-path
    /// reference machine they compare against.
    pub fn set_fast_paths(&mut self, on: bool) {
        self.fast_paths = on;
    }

    /// The guest DRAM store, for diagnostics (e.g. content digests in
    /// the differential tests).
    #[must_use]
    pub fn guest_memory(&self) -> &GuestMemory {
        &self.mem
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The kernel (for stats, swap inspection, paging experiments).
    #[must_use]
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Total simulated cycles so far.
    #[must_use]
    pub fn cycles(&self) -> Cycles {
        self.ledger.total()
    }

    /// Snapshot of all statistics.
    ///
    /// In debug builds this also runs the cycle-attribution audit,
    /// panicking if the time buckets have drifted from the
    /// per-component counters (every charge goes through the single
    /// `Ledger::charge` funnel, which is what makes the audit exact).
    #[must_use]
    pub fn report(&mut self) -> RunReport {
        // Merge every core's private counters — the report describes
        // the whole machine.
        let mut tlb = mtlb_tlb::TlbStats::default();
        let mut cache = mtlb_cache::CacheStats::default();
        let (mut itlb_hits, mut itlb_misses) = (0, 0);
        let (mut loads, mut stores, mut instructions, mut tlb_reach_bytes) = (0, 0, 0, 0);
        for core in &self.cores {
            Self::merge_tlb_stats(&mut tlb, core.tlb.stats());
            tlb_reach_bytes += core.tlb.reach_bytes();
            Self::merge_cache_stats(&mut cache, core.cache.stats());
            itlb_hits += core.itlb.hits();
            itlb_misses += core.itlb.misses();
            loads += core.loads;
            stores += core.stores;
            instructions += core.instructions;
        }
        let report = RunReport {
            total_cycles: self.ledger.total(),
            buckets: self.ledger.buckets(),
            tlb,
            itlb_hits,
            itlb_misses,
            cache,
            mmc: self.mmc.stats(),
            kernel: self.kernel.stats(),
            loads,
            stores,
            instructions,
            tlb_miss_intervals: self.miss_intervals,
            mtlb_contention_events: self.contention_events,
            mtlb_contention_cycles: self.contention_cycles,
            tlb_reach_bytes,
        };
        #[cfg(debug_assertions)]
        self.audit(&report);
        report
    }

    /// Per-core front-end counters, in core-index order. The
    /// across-core sums equal the merged figures in
    /// [`report`](Machine::report) — the debug audit asserts it.
    #[must_use]
    pub fn per_core_stats(&self) -> Vec<CoreStats> {
        self.cores
            .iter()
            .map(|c| CoreStats {
                tlb: c.tlb.stats(),
                cache: c.cache.stats(),
                itlb_hits: c.itlb.hits(),
                itlb_misses: c.itlb.misses(),
                loads: c.loads,
                stores: c.stores,
                instructions: c.instructions,
            })
            .collect()
    }

    /// A CPU-TLB size from which on this run is the same run, bit for
    /// bit, at every `cpu_tlb_entries`: the largest of the cores'
    /// [`TranslationScheme::reach_demand`], `None` if any core has none
    /// (its TLB evicted, or its scheme claims no bound). Nothing else in
    /// the machine reads `cpu_tlb_entries`, so the machine's run at any
    /// capacity at or above this is this run.
    #[must_use]
    pub fn tlb_reach_demand(&self) -> Option<usize> {
        self.cores
            .iter()
            .try_fold(0, |most, core| Some(most.max(core.tlb.reach_demand()?)))
    }

    /// Field-by-field sum of two [`TlbStats`](mtlb_tlb::TlbStats) —
    /// exhaustive destructure, so a new counter field is a compile
    /// error until the merge handles it.
    fn merge_tlb_stats(into: &mut mtlb_tlb::TlbStats, from: mtlb_tlb::TlbStats) {
        let mtlb_tlb::TlbStats {
            hits,
            misses,
            replacements,
            purges,
            nru_resets,
            fills,
        } = from;
        into.hits = into.hits.saturating_add(hits);
        into.misses = into.misses.saturating_add(misses);
        into.replacements = into.replacements.saturating_add(replacements);
        into.purges = into.purges.saturating_add(purges);
        into.nru_resets = into.nru_resets.saturating_add(nru_resets);
        into.fills = into.fills.saturating_add(fills);
    }

    /// Field-by-field sum of two [`CacheStats`](mtlb_cache::CacheStats)
    /// (exhaustive destructure, like
    /// [`merge_tlb_stats`](Machine::merge_tlb_stats)).
    fn merge_cache_stats(into: &mut mtlb_cache::CacheStats, from: mtlb_cache::CacheStats) {
        let mtlb_cache::CacheStats {
            hits,
            misses,
            replacement_writebacks,
            flush_writebacks,
            lines_flushed,
            flush_walks,
        } = from;
        into.hits = into.hits.saturating_add(hits);
        into.misses = into.misses.saturating_add(misses);
        into.replacement_writebacks = into
            .replacement_writebacks
            .saturating_add(replacement_writebacks);
        into.flush_writebacks = into.flush_writebacks.saturating_add(flush_writebacks);
        into.lines_flushed = into.lines_flushed.saturating_add(lines_flushed);
        into.flush_walks = into.flush_walks.saturating_add(flush_walks);
    }

    // ----- program text ---------------------------------------------------

    /// Maps a text segment of `len` bytes at the conventional text base
    /// and points the simulated PC at it. `remap_text` additionally
    /// promotes it to shadow superpages (the paper simulates loader
    /// support via explicit remaps, §2.3).
    pub fn load_program(&mut self, len: u64, remap_text: bool) {
        self.record_op(|| MachineOp::LoadProgram { len, remap_text });
        assert!(len > 0, "program text cannot be empty");
        let len = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let base = self.program_base();
        let c = self
            .kernel
            .map_region(&mut kctx!(self), base, len, Prot::RX);
        self.kernel_exit(Bucket::Kernel, c, || TraceEvent::MapRegion {
            start: base,
            len,
        });
        if remap_text {
            let rep = self.kernel.remap(&mut kctx!(self), base, len);
            self.kernel_exit(Bucket::Kernel, rep.total_cycles(), || TraceEvent::Remap {
                start: base,
                len,
                superpages: rep.superpages.len() as u64,
            });
        }
        let core = self.core_mut();
        core.code_base = base;
        core.code_len = len;
        core.pc_offset = 0;
    }

    /// Where [`load_program`](Machine::load_program) maps the running
    /// process's text: clear of the boot stub page and 64 KB-aligned so
    /// modest text segments promote to a single superpage, inside the
    /// process's private virtual window (process 0 — the boot process —
    /// keeps the historical base), so co-scheduled processes each load
    /// their own text without colliding in the shared hashed page table.
    #[must_use]
    pub fn program_base(&self) -> VirtAddr {
        let window = Self::process_heap_base(self.kernel.current_process())
            .offset_from(UserLayout::HEAP_BASE);
        UserLayout::TEXT_BASE + 64 * 1024 + window
    }

    /// Executes `n` single-cycle instructions, advancing the simulated PC
    /// cyclically through the text segment and translating instruction
    /// fetches through the micro-ITLB (then the unified TLB, then the
    /// software miss handler).
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] when an instruction fetch hits unmapped or
    /// non-executable memory; the batch's user-cycle charge has already
    /// been made at that point.
    pub fn try_execute(&mut self, n: u64) -> Result<(), Fault> {
        self.record_op(|| MachineOp::Execute { n });
        self.execute_inner(n)
    }

    /// [`try_execute`](Machine::try_execute) without the op recording,
    /// for internal callers (the batch engine), so a recorded stream
    /// operation replays as one op rather than one op per item.
    fn execute_inner(&mut self, n: u64) -> Result<(), Fault> {
        self.ledger
            .charge(Bucket::User, Cycles::new(n), || TraceEvent::Execute {
                instructions: n,
            });
        // One lookup of the active core serves the whole call unless a
        // fetch misses the micro-ITLB.
        let mut core = self.core_mut();
        core.instructions = core.instructions.saturating_add(n);
        let mut remaining = n.saturating_mul(4); // 4-byte instructions
        while remaining > 0 {
            let va = core.code_base + core.pc_offset;
            if core.itlb.translate(va).is_none() {
                self.ifetch_miss(va)?;
                core = self.core_mut();
            }
            let to_page_end = PAGE_SIZE - va.page_offset();
            let to_wrap = core.code_len - core.pc_offset;
            let step = remaining.min(to_page_end).min(to_wrap);
            // `step <= to_wrap`, so this is `% code_len` without a divide.
            core.pc_offset += step;
            if core.pc_offset == core.code_len {
                core.pc_offset = 0;
            }
            remaining -= step;
        }
        Ok(())
    }

    /// Instruction-fetch translation after a micro-ITLB miss: the
    /// unified TLB, then the software miss handler, refilling the
    /// micro-ITLB either way.
    fn ifetch_miss(&mut self, va: VirtAddr) -> Result<(), Fault> {
        let core = self.core_mut();
        match core
            .tlb
            .translate(va, AccessKind::IFetch, PrivilegeLevel::User)
        {
            LookupOutcome::Hit(_) => {
                #[expect(
                    clippy::expect_used,
                    reason = "Structure invariant: `probe` follows a hit outcome for the same vpn within one access."
                )]
                let entry = core
                    .tlb
                    .entry_for(va.vpn())
                    .expect("entry present after a hit");
                core.itlb.refill(entry);
                Ok(())
            }
            LookupOutcome::Miss => {
                self.note_tlb_miss();
                // A failed walk changes no TLB or mapping state, so the
                // memos outlive it; a successful one refills the TLB and
                // may auto-promote a region, shooting down the remapped
                // range on the other cores.
                let (entry, c) = self.kernel.handle_tlb_miss(&mut kctx!(self), va)?;
                self.kernel_exit(Bucket::TlbMiss, c, || TraceEvent::ItlbMiss { va });
                self.core_mut().itlb.refill(entry);
                Ok(())
            }
            LookupOutcome::Fault(f) => Err(f),
        }
    }

    // ----- data accesses --------------------------------------------------

    fn translate_data(&mut self, va: VirtAddr, kind: AccessKind) -> Result<PhysAddr, Fault> {
        loop {
            match self
                .core_mut()
                .tlb
                .translate(va, kind, PrivilegeLevel::User)
            {
                LookupOutcome::Hit(pa) => return Ok(pa),
                LookupOutcome::Miss => {
                    self.note_tlb_miss();
                    let (_, c) = self.kernel.handle_tlb_miss(&mut kctx!(self), va)?;
                    self.kernel_exit(Bucket::TlbMiss, c, || TraceEvent::TlbMiss { va });
                }
                LookupOutcome::Fault(f) => return Err(f),
            }
        }
    }

    /// Runs the cache + bus + MMC timing for one access, servicing shadow
    /// page faults transparently (swap-in and retry, §4). `probe` is the
    /// outcome of the active core's [`cache_probe`](CoreState::cache_probe)
    /// for this access — taken by the caller, which already holds the
    /// core, so the hit path looks the active core up once.
    fn cached_access(&mut self, va: VirtAddr, pa: PhysAddr, write: bool, probe: AccessResult) {
        // Single-cycle cache pipeline, hit or miss.
        self.ledger
            .charge(Bucket::User, Cycles::new(1), || TraceEvent::CacheAccess {
                va,
                write,
            });
        let AccessResult::Miss { fill, writeback } = probe else {
            return;
        };
        // The miss goes to the shared bus: pay arbitration if another
        // core owned it (free at one core).
        self.arbitrate_bus();
        if let Some(victim) = writeback {
            #[expect(
                clippy::expect_used,
                reason = "Structure invariant: the OS flushes a page's cache lines before swapping it out, so a victim writeback never targets a swapped page."
            )]
            let resp = self
                .mmc
                .bus_access(victim, BusOp::Writeback, &mut self.mem)
                .expect(
                    "a dirty victim's page cannot be swapped out: the OS flushes before swapping",
                );
            self.ledger.charge(
                Bucket::MemStall,
                self.cfg.ratio.device_to_cpu(resp.mmc_cycles),
                || TraceEvent::CacheWriteback { pa: victim },
            );
        }
        let op = match fill {
            FillKind::Shared => BusOp::FillShared,
            FillKind::Exclusive => BusOp::FillExclusive,
        };
        loop {
            match self.mmc.bus_access(pa, op, &mut self.mem) {
                Ok(resp) => {
                    self.ledger.charge(
                        Bucket::MemStall,
                        self.cfg.ratio.device_to_cpu(resp.mmc_cycles),
                        || TraceEvent::CacheFill { pa },
                    );
                    return;
                }
                Err(Fault::ShadowPageFault { shadow }) => {
                    // Precise fault: the OS pages the base page back in
                    // and the access retries. Servicing may page other
                    // frames out and purge TLB state, so memos die here.
                    match self.kernel.handle_shadow_fault(&mut kctx!(self), shadow) {
                        // Per-base-page swap-in needs no shootdown
                        // (residency is checked at the shared MMC), but
                        // the exit drains anything the service queued.
                        Ok(c) => self
                            .kernel_exit(Bucket::Fault, c, || TraceEvent::ShadowFault { shadow }),
                        #[expect(
                            clippy::panic,
                            reason = "Harness boundary: the kernel services every shadow fault it raised; failure means the swap state is corrupt."
                        )]
                        Err(f) => panic!("unserviceable shadow fault: {f}"),
                    }
                }
                #[expect(
                    clippy::panic,
                    reason = "Harness boundary: translations the kernel installed never point outside DRAM or the shadow window."
                )]
                Err(f) => panic!("bus error during access to {va}: {f}"),
            }
        }
    }

    /// Bus → real resolution after a completed access. A real bus
    /// address is its own translation; shadow addresses take the
    /// functional table walk.
    #[expect(
        clippy::expect_used,
        reason = "Structure invariant: the access just completed (faulting in if needed), so the page's residency entry exists."
    )]
    fn functional_addr(&self, pa: PhysAddr) -> PhysAddr {
        if !self.mmc.is_shadow(pa) {
            debug_assert_eq!(self.mmc.translate_functional(pa, &self.mem).ok(), Some(pa));
            return pa;
        }
        self.mmc
            .translate_functional(pa, &self.mem)
            .expect("page is resident after the access completed")
    }

    /// The aligned data-access path: counts the access, translates, runs
    /// the cache/bus timing, and returns `(bus, real)` addresses. A
    /// valid access memo replays the translation without consulting the
    /// TLB lookup machinery at all.
    fn data_access(
        &mut self,
        va: VirtAddr,
        size: u64,
        write: bool,
    ) -> Result<(PhysAddr, PhysAddr), Fault> {
        debug_assert!(
            va.is_aligned(size),
            "data_access is the aligned path; misaligned scalars go through misaligned_rw"
        );
        let vpn = va.vpn().index();
        let way = (vpn as usize) & (MEMO_WAYS - 1);
        if self.fast_paths {
            if let Some(hit) = self.memo_access(va, way, write) {
                return Ok(hit);
            }
        }
        let core = self.core_mut();
        if write {
            core.stores = core.stores.saturating_add(1);
        } else {
            core.loads = core.loads.saturating_add(1);
        }
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let pa = self.translate_data(va, kind)?;
        // Both translate hit paths leave the hit slot as the TLB's MRU,
        // so this names the entry that served (and will keep serving)
        // this page.
        let core = self.core_mut();
        let slot = core.tlb.last_hit_slot();
        let tlb_gen = core.tlb.generation();
        let probe = core.cache_probe(va, pa, write);
        let gen = self.memo_gen;
        self.cached_access(va, pa, write, probe);
        let real = self.functional_addr(pa);
        if self.fast_paths && gen == self.memo_gen {
            // Nothing invalidated during the access, so the slot, the
            // bus mapping and the real backing are all current: memoize.
            let off = va.page_offset();
            let mo = AccessMemo {
                gen,
                tlb_gen,
                vpn,
                slot,
                bus_page: pa - off,
                real_page: real - off,
            };
            let core = self.core_mut();
            if write {
                core.write_memos[way] = Some(mo);
            } else {
                core.read_memos[way] = Some(mo);
            }
        }
        Ok((pa, real))
    }

    /// Replays an access whose page has a valid memo in `way` (`None`
    /// without one): identical counters, TLB side effects, cache/bus
    /// timing and returned addresses, with the translation lookup
    /// skipped. One lookup of the active core serves the whole hit.
    fn memo_access(
        &mut self,
        va: VirtAddr,
        way: usize,
        write: bool,
    ) -> Option<(PhysAddr, PhysAddr)> {
        let core = &mut self.cores[self.active];
        let mo = if write {
            core.write_memos[way]
        } else {
            core.read_memos[way]
        }?;
        if mo.gen != self.memo_gen || mo.vpn != va.vpn().index() {
            return None;
        }
        // A valid memo proves nothing invalidated translations since it
        // was recorded, which in turn means the TLB content generation
        // cannot have moved (fills, purges and shootdowns all bump
        // `memo_gen` too). The trait's generation hook makes the
        // implication checkable.
        debug_assert_eq!(
            core.tlb.generation(),
            mo.tlb_gen,
            "access memo outlived its TLB generation"
        );
        let off = va.page_offset();
        if write {
            core.stores = core.stores.saturating_add(1);
        } else {
            core.loads = core.loads.saturating_add(1);
        }
        // Exactly the side effects of the translate hit the slow path
        // would have made (hit counter, NRU used bit, MRU pointer).
        core.tlb.note_fast_hits(mo.slot, 1);
        let pa = mo.bus_page + off;
        debug_assert!(
            core.tlb
                .entry_for(va.vpn())
                .is_some_and(|e| e.translate(va) == Some(pa)),
            "access memo diverged from the TLB"
        );
        let probe = core.cache_probe(va, pa, write);
        self.cached_access(va, pa, write, probe);
        if mo.gen == self.memo_gen {
            return Some((pa, mo.real_page + off));
        }
        // A shadow fault was serviced inside the access: the page was
        // just paged back in, possibly into a different real frame.
        // The memo is already dead (generation moved); re-derive.
        Some((pa, self.functional_addr(pa)))
    }

    /// Scalar access at an address that is *not* naturally aligned for
    /// `bytes.len()`: modelled as the classic pair of aligned accesses
    /// covering the two straddled windows (MIPS `lwl`/`lwr` style), so a
    /// misaligned scalar counts as two loads (or stores) and makes two
    /// cache accesses. Data still moves byte-exact.
    ///
    /// Each half's bytes move immediately after its own aligned access,
    /// before the other half's access runs. Ordering is what defines the
    /// fault semantics when the windows straddle a page boundary: the
    /// second access may shadow-fault, and servicing it can page the
    /// *first* window's frame out (CLOCK eviction under memory
    /// pressure), so a translation obtained for the first window is
    /// stale by the time the second access completes. Committing
    /// per-half keeps the first half exactly-once — never re-run
    /// (double-charged) and never applied to a recycled frame
    /// (half-committed).
    fn misaligned_rw(&mut self, va: VirtAddr, bytes: &mut [u8], write: bool) -> Result<(), Fault> {
        let n = bytes.len() as u64;
        debug_assert!(!va.is_aligned(n), "aligned scalars take the fast path");
        let lo = va.align_down(n);
        let hi = lo + n;
        // Bytes of the scalar that live in the low window.
        let (low, high) = bytes.split_at_mut(hi.offset_from(va) as usize);
        for (window, part, skip) in [(lo, low, va.offset_from(lo)), (hi, high, 0)] {
            let (_, real) = self.data_access(window, n, write)?;
            if write {
                self.mem.write(real + skip, part);
            } else {
                self.mem.read(real + skip, part);
            }
        }
        Ok(())
    }

    // ----- scalar accesses ------------------------------------------------

    /// Loads a little-endian [`Scalar`]. A misaligned address works but
    /// costs a second access (see the [`Machine`] docs).
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] for unmapped or protection-violating
    /// accesses (so do all the `try_*` accessors).
    pub fn try_read<T: Scalar>(&mut self, va: VirtAddr) -> Result<T, Fault> {
        self.record_op(|| MachineOp::Read { va, size: T::SIZE });
        let n = u64::from(T::SIZE);
        let mut bytes = [0u8; 8];
        let buf = &mut bytes[..n as usize];
        if va.is_aligned(n) {
            let (_, real) = self.data_access(va, n, false)?;
            self.mem.read_scalar(real, buf);
        } else {
            self.misaligned_rw(va, buf, false)?;
        }
        Ok(T::from_bits(u64::from_le_bytes(bytes)))
    }

    /// Stores a little-endian [`Scalar`] (misaligned addresses
    /// supported).
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] for unmapped or protection-violating
    /// accesses.
    pub fn try_write<T: Scalar>(&mut self, va: VirtAddr, v: T) -> Result<(), Fault> {
        self.record_op(|| MachineOp::Write { va, size: T::SIZE });
        let n = u64::from(T::SIZE);
        let mut bytes = v.to_bits().to_le_bytes();
        let buf = &mut bytes[..n as usize];
        if va.is_aligned(n) {
            let (_, real) = self.data_access(va, n, true)?;
            self.mem.write_scalar(real, buf);
            Ok(())
        } else {
            self.misaligned_rw(va, buf, true)
        }
    }

    /// [`try_read::<u32>`](Machine::try_read), kept by this name because
    /// the `benchmark/` crate calls it.
    #[inline]
    pub fn try_read_u32(&mut self, va: VirtAddr) -> Result<u32, Fault> {
        self.try_read(va)
    }

    /// [`try_write::<u32>`](Machine::try_write), kept by this name
    /// because the `benchmark/` crate calls it.
    #[inline]
    pub fn try_write_u32(&mut self, va: VirtAddr, v: u32) -> Result<(), Fault> {
        self.try_write(va, v)
    }

    // ----- batched accesses -----------------------------------------------

    /// The batched-access engine. Runs `count` items; item `j` performs
    /// one aligned access per lane (in lane order) at `base + j * size`,
    /// then `instr` single-cycle instructions — exactly the sequence the
    /// caller's scalar loop would have issued, and cycle-identical to it.
    ///
    /// Per item it executes the slow scalar path once, then plans the
    /// longest run of following items that provably behave identically —
    /// every lane stays on its current 4 KB page with permission intact,
    /// every touched cache line is resident (so no bus traffic, no
    /// faults), and the fetch stream stays inside the micro-ITLB'd text
    /// page without wrapping — and replays that run in bulk: data moves
    /// through the real-address anchors, hit counters and NRU/MRU bits
    /// advance exactly as `k` slow iterations would have advanced them,
    /// and one summed [`TraceEvent::BatchedRun`] charge lands in the
    /// user bucket where the slow path would have made `k × (lanes +
    /// instr)` single-cycle charges.
    ///
    /// `io` is invoked once per item per lane (item-major, lane-minor,
    /// matching the scalar order) with the guest memory, the lane index
    /// and the access's real address.
    fn stream<IO>(
        &mut self,
        lanes: &[Lane],
        count: u64,
        instr: u64,
        mut io: IO,
    ) -> Result<(), Fault>
    where
        IO: FnMut(&mut GuestMemory, usize, PhysAddr, u64),
    {
        assert!(
            !lanes.is_empty() && lanes.len() <= MAX_LANES,
            "batched operations drive 1..={MAX_LANES} lanes"
        );
        for lane in lanes {
            assert!(
                lane.size.is_power_of_two() && lane.size <= 8,
                "batched lane accesses are power-of-two scalars"
            );
            assert!(
                lane.base.is_aligned(lane.size),
                "batched lane bases must be naturally aligned"
            );
        }
        let mut anchors = [(PhysAddr::new(0), PhysAddr::new(0)); MAX_LANES];
        let mut slots = [0usize; MAX_LANES];
        let mut i = 0u64;
        while i < count {
            // One reference (slow-path) item: per-lane scalar access
            // plus the instruction batch.
            for (l, lane) in lanes.iter().enumerate() {
                let va = lane.base + i * lane.size;
                let (bus, real) = self.data_access(va, lane.size, lane.write)?;
                io(&mut self.mem, l, real, i);
                anchors[l] = (bus, real);
            }
            if instr > 0 {
                self.execute_inner(instr)?;
            }
            i += 1;
            if !self.fast_paths || i >= count {
                continue;
            }

            // Plan the longest provably-identical run starting at `i`.
            // Bound 1: every lane stays on the page item `i-1` proved.
            let mut k = count - i;
            for lane in lanes {
                let prev = lane.base + (i - 1) * lane.size;
                let next = lane.base + i * lane.size;
                if next.vpn() != prev.vpn() {
                    k = 0;
                    break;
                }
                k = k.min((PAGE_SIZE - next.page_offset()) / lane.size);
            }
            // Bound 2: the fetch stream stays inside the current text
            // page (micro-ITLB hit per item) and does not wrap.
            let core = &mut self.cores[self.active];
            if k > 0 && instr > 0 {
                let text_va = core.code_base + core.pc_offset;
                if core.itlb.covers(text_va) {
                    let window =
                        (PAGE_SIZE - text_va.page_offset()).min(core.code_len - core.pc_offset);
                    k = k.min(window / instr.saturating_mul(4));
                } else {
                    k = 0;
                }
            }
            // Bound 3: the TLB still holds a permitting entry per lane
            // (the item's own ifetch may have evicted one).
            if k > 0 {
                for (l, lane) in lanes.iter().enumerate() {
                    let page_va = lane.base + i * lane.size;
                    let kind = if lane.write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    match core.tlb.slot_for(page_va.vpn()) {
                        Some((slot, entry)) if entry.prot().permits(kind, PrivilegeLevel::User) => {
                            // Mappings cannot change mid-loop (no
                            // syscalls), so any covering entry agrees
                            // with the anchor translation.
                            debug_assert_eq!(
                                entry.translate(page_va),
                                Some(anchors[l].0 + lane.size)
                            );
                            slots[l] = slot;
                        }
                        _ => {
                            k = 0;
                            break;
                        }
                    }
                }
            }
            // Bound 4: every cache line the run touches is resident, so
            // no access reaches the bus (no stalls, no shadow faults).
            for (l, lane) in lanes.iter().enumerate() {
                if k == 0 {
                    break;
                }
                let mut resident = 0u64;
                let mut va = lane.base + i * lane.size;
                let mut bus = anchors[l].0 + lane.size;
                while resident < k {
                    if !core.cache.probe(va, bus) {
                        break;
                    }
                    let line_off = {
                        let raw = bus.get();
                        raw % CACHE_LINE_SIZE
                    };
                    let in_line = ((CACHE_LINE_SIZE - line_off) / lane.size).min(k - resident);
                    resident += in_line;
                    va += in_line * lane.size;
                    bus += in_line * lane.size;
                }
                k = k.min(resident);
            }
            if k == 0 {
                continue;
            }

            // Commit: replay `k` items in bulk. Data still moves
            // per-item (item-major, lane-minor, like the slow path).
            for j in 0..k {
                for (l, lane) in lanes.iter().enumerate() {
                    let real = anchors[l].1 + (j + 1) * lane.size;
                    io(&mut self.mem, l, real, i + j);
                }
            }
            for (l, lane) in lanes.iter().enumerate() {
                if lane.write {
                    core.stores = core.stores.saturating_add(k);
                } else {
                    core.loads = core.loads.saturating_add(k);
                }
                core.tlb.note_fast_hits(slots[l], k);
                // Per-line hit accounting, mirroring the residency walk.
                let mut done = 0u64;
                let mut va = lane.base + i * lane.size;
                let mut bus = anchors[l].0 + lane.size;
                while done < k {
                    let line_off = {
                        let raw = bus.get();
                        raw % CACHE_LINE_SIZE
                    };
                    let in_line = ((CACHE_LINE_SIZE - line_off) / lane.size).min(k - done);
                    core.cache.note_fast_hits(va, bus, in_line, lane.write);
                    done += in_line;
                    va += in_line * lane.size;
                    bus += in_line * lane.size;
                }
            }
            if instr > 0 {
                core.instructions = core.instructions.saturating_add(k * instr);
                core.itlb.note_fast_hits(k);
                core.pc_offset = (core.pc_offset + k * instr * 4) % core.code_len;
            }
            let accesses = k * lanes.len() as u64;
            let instructions = k * instr;
            self.ledger
                .charge(Bucket::User, Cycles::new(accesses + instructions), || {
                    TraceEvent::BatchedRun {
                        items: k,
                        accesses,
                        instructions,
                    }
                });
            i += k;
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `va` — one byte load plus
    /// `instr` instructions per byte, cycle-identical to the equivalent
    /// [`try_read::<u8>`](Machine::try_read) + [`try_execute`] loop but
    /// fast-forwarding cache-resident same-page runs.
    ///
    /// [`try_execute`]: Machine::try_execute
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] for unmapped or protection-violating
    /// accesses.
    pub fn try_read_block(
        &mut self,
        va: VirtAddr,
        buf: &mut [u8],
        instr: u64,
    ) -> Result<(), Fault> {
        self.record_op(|| MachineOp::ReadBlock {
            va,
            len: buf.len() as u64,
            instr,
        });
        let lanes = [Lane {
            base: va,
            size: 1,
            write: false,
        }];
        self.stream(&lanes, buf.len() as u64, instr, |mem, _, real, item| {
            buf[item as usize] = mem.read_u8(real);
        })
    }

    /// Writes `data` starting at `va` — one byte store plus `instr`
    /// instructions per byte. See [`try_read_block`](Machine::try_read_block).
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] for unmapped or protection-violating
    /// accesses.
    pub fn try_write_block(&mut self, va: VirtAddr, data: &[u8], instr: u64) -> Result<(), Fault> {
        self.record_op(|| MachineOp::WriteBlock {
            va,
            len: data.len() as u64,
            instr,
        });
        let lanes = [Lane {
            base: va,
            size: 1,
            write: true,
        }];
        self.stream(&lanes, data.len() as u64, instr, |mem, _, real, item| {
            mem.write_u8(real, data[item as usize]);
        })
    }

    /// Streams `count` aligned `u32` loads from `base`, `instr`
    /// instructions after each, handing each `(item, value)` to `f`.
    /// Cycle-identical to the equivalent scalar loop.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] for unmapped or protection-violating
    /// accesses.
    pub fn try_stream_read_u32(
        &mut self,
        base: VirtAddr,
        count: u64,
        instr: u64,
        mut f: impl FnMut(u64, u32),
    ) -> Result<(), Fault> {
        self.record_op(|| MachineOp::StreamReadU32 { base, count, instr });
        let lanes = [Lane {
            base,
            size: 4,
            write: false,
        }];
        self.stream(&lanes, count, instr, |mem, _, real, item| {
            f(item, mem.read_u32(real));
        })
    }

    /// Streams `count` aligned `u32` stores to `base`, `instr`
    /// instructions after each, with `f(item)` producing each value.
    /// Cycle-identical to the equivalent scalar loop.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] for unmapped or protection-violating
    /// accesses.
    pub fn try_stream_write_u32(
        &mut self,
        base: VirtAddr,
        count: u64,
        instr: u64,
        mut f: impl FnMut(u64) -> u32,
    ) -> Result<(), Fault> {
        self.record_op(|| MachineOp::StreamWriteU32 { base, count, instr });
        let lanes = [Lane {
            base,
            size: 4,
            write: true,
        }];
        self.stream(&lanes, count, instr, |mem, _, real, item| {
            let v = f(item);
            mem.write_u32(real, v);
        })
    }

    /// Streams paired aligned `u32` stores: item `j` writes
    /// `f(j).0` to `a + j*4` then `f(j).1` to `b + j*4`, then runs
    /// `instr` instructions. The two destination ranges must not
    /// overlap. Cycle-identical to the equivalent scalar loop.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] for unmapped or protection-violating
    /// accesses.
    pub fn try_stream_write_u32_pair(
        &mut self,
        a: VirtAddr,
        b: VirtAddr,
        count: u64,
        instr: u64,
        mut f: impl FnMut(u64) -> (u32, u32),
    ) -> Result<(), Fault> {
        self.record_op(|| MachineOp::StreamWritePairU32 { a, b, count, instr });
        debug_assert!(
            a + count * 4 <= b || b + count * 4 <= a,
            "paired stream lanes must not overlap"
        );
        let lanes = [
            Lane {
                base: a,
                size: 4,
                write: true,
            },
            Lane {
                base: b,
                size: 4,
                write: true,
            },
        ];
        let mut pending = 0u32;
        self.stream(&lanes, count, instr, |mem, lane, real, item| {
            if lane == 0 {
                let (va, vb) = f(item);
                pending = vb;
                mem.write_u32(real, va);
            } else {
                mem.write_u32(real, pending);
            }
        })
    }

    /// Streams paired stores of an aligned `u32` (at `a + j*4`) and an
    /// aligned `f64` (at `b + j*8`) per item, then `instr` instructions.
    /// The two destination ranges must not overlap. Cycle-identical to
    /// the equivalent scalar loop.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] for unmapped or protection-violating
    /// accesses.
    pub fn try_stream_write_u32_f64(
        &mut self,
        a: VirtAddr,
        b: VirtAddr,
        count: u64,
        instr: u64,
        mut f: impl FnMut(u64) -> (u32, f64),
    ) -> Result<(), Fault> {
        self.record_op(|| MachineOp::StreamWriteU32F64 { a, b, count, instr });
        debug_assert!(
            a + count * 4 <= b || b + count * 8 <= a,
            "paired stream lanes must not overlap"
        );
        let lanes = [
            Lane {
                base: a,
                size: 4,
                write: true,
            },
            Lane {
                base: b,
                size: 8,
                write: true,
            },
        ];
        let mut pending = 0f64;
        self.stream(&lanes, count, instr, |mem, lane, real, item| {
            if lane == 0 {
                let (va, vb) = f(item);
                pending = vb;
                mem.write_u32(real, va);
            } else {
                mem.write_u64(real, pending.to_bits());
            }
        })
    }

    // ----- syscalls ---------------------------------------------------------

    /// Maps fresh zeroed pages over `[start, start+len)`.
    pub fn map_region(&mut self, start: VirtAddr, len: u64, prot: Prot) {
        self.record_op(|| MachineOp::MapRegion { start, len, prot });
        let c = self.kernel.map_region(&mut kctx!(self), start, len, prot);
        self.kernel_exit(Bucket::Kernel, c, || TraceEvent::MapRegion { start, len });
    }

    /// The `remap()` syscall: promotes the region to shadow-backed
    /// superpages (no-op on baseline machines).
    pub fn remap(&mut self, start: VirtAddr, len: u64) -> RemapReport {
        self.record_op(|| MachineOp::Remap { start, len });
        let rep = self.kernel.remap(&mut kctx!(self), start, len);
        self.kernel_exit(Bucket::Kernel, rep.total_cycles(), || TraceEvent::Remap {
            start,
            len,
            superpages: rep.superpages.len() as u64,
        });
        rep
    }

    /// The (modified) `sbrk()` syscall. Returns the previous break.
    pub fn sbrk(&mut self, increment: u64) -> VirtAddr {
        self.record_op(|| MachineOp::Sbrk { increment });
        let grows = !self.kernel.sbrk_fits(increment);
        let (old, c) = self.kernel.sbrk(&mut kctx!(self), increment);
        let event = || TraceEvent::Sbrk { increment };
        if grows {
            self.kernel_exit(Bucket::Kernel, c, event);
        } else {
            // Only the break moved: the memos outlive the call.
            self.kernel_return(Bucket::Kernel, c, event);
        }
        old
    }

    /// Explicitly swaps out the superpage containing `vpn` under the
    /// configured paging policy (§2.5 experiments).
    pub fn swap_out_superpage(&mut self, vpn: Vpn) -> SwapOutReport {
        self.record_op(|| MachineOp::SwapOutSuperpage { vpn });
        let rep = self.kernel.swap_out_superpage(&mut kctx!(self), vpn);
        self.kernel_exit(Bucket::Kernel, rep.cycles, || {
            TraceEvent::SwapOutSuperpage {
                pages_written: rep.pages_written,
            }
        });
        rep
    }

    /// Demotes the superpage containing `vpn` back to 4 KB pages.
    pub fn demote_superpage(&mut self, vpn: Vpn) {
        self.record_op(|| MachineOp::DemoteSuperpage { vpn });
        let c = self.kernel.demote_superpage(&mut kctx!(self), vpn);
        self.kernel_exit(Bucket::Kernel, c, || TraceEvent::Demote);
    }

    /// Reads the per-base-page referenced/dirty bits of the superpage
    /// containing `vpn`.
    pub fn page_bits(&mut self, vpn: Vpn) -> Vec<(Vpn, bool, bool)> {
        self.record_op(|| MachineOp::PageBits { vpn });
        let bits = self.kernel.page_bits(&mut kctx!(self), vpn);
        // Harvesting referenced bits may consult/adjust TLB state.
        self.invalidate_memos();
        bits
    }

    /// Creates a new process (fresh address space in its own virtual
    /// window); switch to it with
    /// [`try_switch_process`](Machine::try_switch_process).
    pub fn spawn_process(&mut self) -> usize {
        self.record_op(|| MachineOp::SpawnProcess);
        self.kernel.spawn_process()
    }

    /// Context-switches to `pid`, purging replaceable TLB state on this
    /// core, shooting down the other cores' TLBs, and charging the
    /// scheduler cost.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::NoSuchProcess`] when `pid` was never spawned;
    /// the machine is unchanged (and nothing is charged) in that case.
    pub fn try_switch_process(&mut self, pid: usize) -> Result<(), Fault> {
        self.record_op(|| MachineOp::SwitchProcess { pid: pid as u64 });
        let c = self.kernel.switch_process(&mut kctx!(self), pid)?;
        self.kernel_exit(Bucket::Kernel, c, || TraceEvent::ContextSwitch {
            pid: pid as u64,
        });
        Ok(())
    }

    /// The private heap-window base of a process (for mapping regions
    /// that do not collide across processes).
    #[must_use]
    pub fn process_heap_base(pid: usize) -> VirtAddr {
        Kernel::heap_base(pid)
    }

    /// Stream-buffer statistics from the memory controller (zeroes when
    /// no buffers are fitted).
    #[must_use]
    pub fn mmc_stream_stats(&self) -> mtlb_mmc::StreamStats {
        self.mmc.stream_stats()
    }

    /// The cache color of the bus address backing a mapped page
    /// (meaningful on physically-indexed caches).
    ///
    /// # Panics
    ///
    /// Panics when `vpn` is unmapped.
    #[must_use]
    pub fn page_color(&self, vpn: Vpn) -> u64 {
        #[expect(
            clippy::panic,
            reason = "Documented contract: `# Panics` on the public accessor — asking for the color of an unmapped page is caller error."
        )]
        let info = self
            .kernel
            .aspace()
            .page(vpn)
            .unwrap_or_else(|| panic!("page_color of unmapped vpn {vpn}"));
        let ppn = match info.backing {
            mtlb_os::Backing::Real(f) => f,
            mtlb_os::Backing::Shadow { shadow_spn } => shadow_spn.bus(),
        };
        self.cfg.cache.color_of(ppn.base_addr())
    }

    /// No-copy page recoloring via shadow memory (§6 extension): moves
    /// the page to a shadow bus address of the requested cache color.
    pub fn recolor_page(&mut self, vpn: Vpn, color: u64) {
        self.record_op(|| MachineOp::RecolorPage { vpn, color });
        let c = self.kernel.recolor_page(&mut kctx!(self), vpn, color);
        self.kernel_exit(Bucket::Kernel, c, || TraceEvent::Recolor);
    }

    /// Resets all statistics and timing buckets (e.g. after warmup),
    /// preserving machine state.
    pub fn reset_stats(&mut self) {
        self.record_op(|| MachineOp::ResetStats);
        self.ledger.reset();
        self.mmc.reset_stats();
        // Every core's front-end counters are part of the merged
        // report (the micro-ITLB counters are cumulative on every
        // core).
        for core in &mut self.cores {
            core.tlb.reset_stats();
            core.cache.reset_stats();
            core.loads = 0;
            core.stores = 0;
            core.instructions = 0;
        }
        self.contention_events = 0;
        self.contention_cycles = Cycles::ZERO;
        self.last_bus_core = None;
        // Kernel counters are cumulative; snapshot them so the auditor
        // reconciles post-reset deltas only.
        self.kernel_base = self.kernel.stats();
        self.miss_intervals = Histogram::new();
        self.last_miss_at = None;
    }

    /// Debug-build cycle-attribution audit: reconciles the time buckets
    /// against the independently-maintained per-component counters and
    /// panics on any drift. Each check pairs a bucket (mutated only via
    /// [`Ledger::charge`]) with counters accumulated inside the
    /// component that earned the cycles, so a charge routed to the
    /// wrong bucket, double-counted, or dropped shows up immediately.
    #[cfg(debug_assertions)]
    fn audit(&self, r: &RunReport) {
        let base = &self.kernel_base;
        // Exhaustive, `..`-free destructures of the report and of every
        // stats struct in it: a new field anywhere in `RunReport` is a
        // compile error until the auditor decides how it reconciles.
        // Fields bound to `_` are reconciled implicitly (they feed a
        // derived figure or are informational-only).
        let RunReport {
            total_cycles,
            buckets,
            tlb,
            itlb_hits,
            itlb_misses,
            cache,
            ref mmc,
            kernel: kernel_stats,
            loads,
            stores,
            instructions,
            ref tlb_miss_intervals,
            mtlb_contention_events,
            mtlb_contention_cycles,
            tlb_reach_bytes: _,
        } = *r;
        let TimeBuckets {
            user,
            tlb_miss,
            mem_stall,
            kernel,
            fault,
        } = buckets;
        let mtlb_tlb::TlbStats {
            hits: _,
            misses: tlb_misses,
            replacements: _,
            purges: _,
            nru_resets: _,
            fills: tlb_fills,
        } = tlb;
        let mtlb_cache::CacheStats {
            hits: _,
            misses: cache_misses,
            replacement_writebacks,
            flush_writebacks,
            lines_flushed: _,
            flush_walks: _,
        } = cache;
        let mtlb_mmc::MmcStats {
            fills_shared,
            fills_exclusive,
            writebacks: mmc_writebacks,
            shadow_ops: _,
            real_ops: _,
            mtlb_hits: _,
            mtlb_misses: _,
            shadow_faults,
            bus_errors: _,
            fill_mmc_cycles: _,
            control_ops: _,
            ref fill_hist,
        } = *mmc;
        let KernelStats {
            tlb_miss_handler_calls,
            remaps: _,
            superpages_created: _,
            pages_remapped: _,
            sbrk_calls: _,
            shadow_faults_serviced,
            pages_swapped_out: _,
            pages_swapped_in: _,
            clock_sweeps: _,
            pages_recolored: _,
            auto_promotions: _,
            processes_spawned: _,
            context_switches: _,
            tlb_miss_cycles,
            fault_cycles,
            service_cycles,
            shootdowns: _,
            shootdown_cycles,
        } = kernel_stats;
        let mmc_fills = fills_shared + fills_exclusive;
        assert_eq!(
            total_cycles,
            user + tlb_miss + mem_stall + kernel + fault,
            "attribution audit: total_cycles != bucket sum"
        );
        assert_eq!(
            user.get(),
            instructions + loads + stores,
            "attribution audit: user bucket != instructions + single-cycle accesses"
        );
        assert_eq!(
            tlb_miss,
            tlb_miss_cycles - base.tlb_miss_cycles,
            "attribution audit: tlb_miss bucket != kernel handler cycles"
        );
        assert_eq!(
            fault,
            fault_cycles - base.fault_cycles,
            "attribution audit: fault bucket != kernel shadow-fault cycles"
        );
        assert_eq!(
            kernel,
            (service_cycles - base.service_cycles) + (shootdown_cycles - base.shootdown_cycles),
            "attribution audit: kernel bucket != kernel service + shootdown cycles"
        );
        assert_eq!(
            tlb_misses,
            tlb_miss_handler_calls - base.tlb_miss_handler_calls,
            "attribution audit: TLB misses != miss-handler invocations"
        );
        assert_eq!(
            tlb_fills,
            tlb_miss_handler_calls - base.tlb_miss_handler_calls,
            "attribution audit: TLB refills != miss-handler invocations"
        );
        assert_eq!(
            mmc_fills, cache_misses,
            "attribution audit: MMC fills != cache misses"
        );
        assert_eq!(
            mmc_writebacks,
            replacement_writebacks + flush_writebacks,
            "attribution audit: MMC writebacks != cache writebacks"
        );
        assert_eq!(
            shadow_faults,
            shadow_faults_serviced - base.shadow_faults_serviced,
            "attribution audit: MMC shadow faults != kernel services"
        );
        assert_eq!(
            fill_hist.count(),
            mmc_fills,
            "attribution audit: fill histogram count != fill count"
        );
        // Histogram saturation check: the report's aggregate figures are
        // only trustworthy while no bucket or sum has clamped at
        // `u64::MAX` (the release-build histograms saturate rather than
        // wrap, see `Histogram::sum`).
        assert!(
            fill_hist.checked_sum().is_some(),
            "attribution audit: MMC fill histogram saturated"
        );
        assert!(
            tlb_miss_intervals.checked_sum().is_some(),
            "attribution audit: TLB miss-interval histogram saturated"
        );
        // Every bus-arbitration stall costs the configured penalty, and
        // the stalls are part of the mem-stall bucket.
        assert_eq!(
            mtlb_contention_cycles,
            self.cfg.bus_arbitration * mtlb_contention_events,
            "attribution audit: contention cycles != stalls x arbitration penalty"
        );
        assert!(
            mtlb_contention_cycles <= mem_stall,
            "attribution audit: contention cycles exceed the mem-stall bucket"
        );
        // Per-core symmetry: the merged report figures must equal the
        // field-by-field sum over `per_core_stats()`, with every
        // `CoreStats` field named (adding a per-core counter without
        // deciding how it merges is a compile error here).
        let mut sum = CoreStats::default();
        for core in self.per_core_stats() {
            let CoreStats {
                tlb,
                cache,
                itlb_hits,
                itlb_misses,
                loads,
                stores,
                instructions,
            } = core;
            Self::merge_tlb_stats(&mut sum.tlb, tlb);
            Self::merge_cache_stats(&mut sum.cache, cache);
            sum.itlb_hits = sum.itlb_hits.saturating_add(itlb_hits);
            sum.itlb_misses = sum.itlb_misses.saturating_add(itlb_misses);
            sum.loads = sum.loads.saturating_add(loads);
            sum.stores = sum.stores.saturating_add(stores);
            sum.instructions = sum.instructions.saturating_add(instructions);
        }
        assert_eq!(sum.tlb, tlb, "attribution audit: per-core TLB stats drift");
        assert_eq!(
            sum.cache, cache,
            "attribution audit: per-core cache stats drift"
        );
        assert_eq!(
            (sum.itlb_hits, sum.itlb_misses),
            (itlb_hits, itlb_misses),
            "attribution audit: per-core micro-ITLB stats drift"
        );
        assert_eq!(
            (sum.loads, sum.stores, sum.instructions),
            (loads, stores, instructions),
            "attribution audit: per-core access counters drift"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_types::PageSize;

    fn mtlb_machine() -> Machine {
        Machine::new(MachineConfig::paper_mtlb(64))
    }

    fn base_machine() -> Machine {
        Machine::new(MachineConfig::paper_base(64))
    }

    const DATA: VirtAddr = UserLayout::DATA_BASE;

    #[test]
    fn scalar_round_trips_through_full_hierarchy() {
        for mut m in [mtlb_machine(), base_machine()] {
            m.map_region(DATA, 64 * 1024, Prot::RW);
            m.remap(DATA, 64 * 1024);
            m.try_write::<u8>(DATA + 1, 0xaa).unwrap();
            m.try_write::<u16>(DATA + 2, 0xbbcc).unwrap();
            m.try_write::<u32>(DATA + 4, 0xdead_beef).unwrap();
            m.try_write::<u64>(DATA + 8, 0x0123_4567_89ab_cdef).unwrap();
            m.try_write::<f64>(DATA + 16, 2.5).unwrap();
            assert_eq!(m.try_read::<u8>(DATA + 1).unwrap(), 0xaa);
            assert_eq!(m.try_read::<u16>(DATA + 2).unwrap(), 0xbbcc);
            assert_eq!(m.try_read::<u32>(DATA + 4).unwrap(), 0xdead_beef);
            assert_eq!(m.try_read::<u64>(DATA + 8).unwrap(), 0x0123_4567_89ab_cdef);
            assert_eq!(m.try_read::<f64>(DATA + 16).unwrap(), 2.5);
        }
    }

    #[test]
    fn data_survives_remap() {
        let mut m = mtlb_machine();
        m.map_region(DATA, 64 * 1024, Prot::RW);
        for i in 0..16u64 {
            m.try_write::<u64>(DATA + i * PAGE_SIZE + 8, i + 100)
                .unwrap();
        }
        let rep = m.remap(DATA, 64 * 1024);
        assert_eq!(rep.superpages.len(), 1);
        for i in 0..16u64 {
            assert_eq!(
                m.try_read::<u64>(DATA + i * PAGE_SIZE + 8).unwrap(),
                i + 100
            );
        }
    }

    #[test]
    fn remapped_region_uses_one_tlb_entry() {
        let mut m = mtlb_machine();
        m.map_region(DATA, 256 * 1024, Prot::RW);
        m.remap(DATA, 256 * 1024);
        m.reset_stats();
        // Touch all 64 pages: one miss fills a 256 KB superpage entry,
        // everything else hits.
        for i in 0..64u64 {
            m.try_read::<u32>(DATA + i * PAGE_SIZE).unwrap();
        }
        let r = m.report();
        assert_eq!(r.tlb.misses, 1, "one superpage entry covers the region");
        // Baseline machine: one miss per page.
        let mut b = base_machine();
        b.map_region(DATA, 256 * 1024, Prot::RW);
        b.remap(DATA, 256 * 1024);
        b.reset_stats();
        for i in 0..64u64 {
            b.try_read::<u32>(DATA + i * PAGE_SIZE).unwrap();
        }
        assert_eq!(b.report().tlb.misses, 64);
    }

    #[test]
    fn mtlb_reach_extension_headline() {
        // The abstract's claim in miniature: a small CPU TLB plus the
        // MTLB reaches a working set that thrashes the same TLB without
        // superpages. 8 TLB entries, 32 pages of data.
        let len = 32 * PAGE_SIZE;
        let run = |mut m: Machine| {
            m.map_region(DATA, len, Prot::RW);
            m.remap(DATA, len);
            m.reset_stats();
            for round in 0..8u64 {
                for i in 0..32u64 {
                    m.try_read::<u32>(DATA + i * PAGE_SIZE + round * 64)
                        .unwrap();
                }
            }
            m.report()
        };
        let with = run(Machine::new(MachineConfig::paper_mtlb(8)));
        let without = run(Machine::new(MachineConfig::paper_base(8)));
        assert!(with.tlb.misses < 4, "superpages fit easily: {:?}", with.tlb);
        assert_eq!(without.tlb.misses, 8 * 32, "every touch misses");
        assert!(with.total_cycles < without.total_cycles);
    }

    #[test]
    fn execute_accounts_instructions_and_ifetches() {
        let mut m = mtlb_machine();
        m.load_program(8 * PAGE_SIZE, false);
        m.reset_stats();
        m.try_execute(10_000).unwrap();
        let r = m.report();
        assert_eq!(r.instructions, 10_000);
        assert!(r.buckets.user >= Cycles::new(10_000));
        // 10k instructions * 4 B = 40 KB of fetches over an 8-page loop:
        // ~10 page crossings; the first 8 miss the ITLB.
        assert!(r.itlb_misses >= 8);
        assert!(r.itlb_hits > 0 || r.itlb_misses < 11);
    }

    #[test]
    fn text_superpage_eliminates_itlb_pressure_on_main_tlb() {
        let mut m = mtlb_machine();
        m.load_program(64 * 1024, true); // 16 pages, remapped
        m.reset_stats();
        m.try_execute(100_000).unwrap();
        let r = m.report();
        assert!(
            r.tlb.misses <= 1,
            "one 64 KB text superpage serves all fetch translations: {:?}",
            r.tlb
        );
    }

    #[test]
    fn swapped_page_faults_and_recovers_transparently() {
        let mut m = mtlb_machine();
        m.map_region(DATA, 16 * 1024, Prot::RW);
        m.remap(DATA, 16 * 1024);
        m.try_write::<u64>(DATA + 2 * PAGE_SIZE, 777).unwrap();
        m.swap_out_superpage(DATA.vpn());
        // The access below faults in the MMC, the OS swaps the page in,
        // and the load completes with the right value.
        assert_eq!(m.try_read::<u64>(DATA + 2 * PAGE_SIZE).unwrap(), 777);
        let r = m.report();
        assert_eq!(r.kernel.shadow_faults_serviced, 1);
        assert!(r.buckets.fault > Cycles::ZERO);
    }

    #[test]
    fn per_page_dirty_bits_visible_to_os() {
        let mut m = mtlb_machine();
        m.map_region(DATA, 64 * 1024, Prot::RW);
        m.remap(DATA, 64 * 1024);
        // Write pages 2 and 9; read page 5.
        m.try_write::<u32>(DATA + 2 * PAGE_SIZE, 1).unwrap();
        m.try_write::<u32>(DATA + 9 * PAGE_SIZE, 1).unwrap();
        m.try_read::<u32>(DATA + 5 * PAGE_SIZE).unwrap();
        let bits = m.page_bits(DATA.vpn());
        assert_eq!(bits.len(), 16);
        for (i, (_, referenced, dirty)) in bits.iter().enumerate() {
            let expect_dirty = i == 2 || i == 9;
            let expect_ref = expect_dirty || i == 5;
            assert_eq!(*dirty, expect_dirty, "page {i} dirty bit");
            assert_eq!(*referenced, expect_ref, "page {i} referenced bit");
        }
    }

    #[test]
    fn sbrk_heap_is_usable_immediately() {
        let mut m = mtlb_machine();
        let p = m.sbrk(100_000);
        for i in 0..100u64 {
            m.try_write::<u32>(p + i * 1000 / 4 * 4, i as u32).unwrap();
        }
        for i in 0..100u64 {
            assert_eq!(m.try_read::<u32>(p + i * 1000 / 4 * 4).unwrap(), i as u32);
        }
        assert!(m.kernel().stats().superpages_created > 0);
    }

    #[test]
    fn mtlb_machine_charges_detect_cycle_on_fills() {
        let mut with = mtlb_machine();
        let mut without = base_machine();
        for m in [&mut with, &mut without] {
            m.map_region(DATA, 4096, Prot::RW);
            m.reset_stats();
            m.try_read::<u32>(DATA).unwrap(); // one cold miss
        }
        // A *real*-address fill never touches the MTLB table, so the only
        // difference is the paper's 1-cycle shadow-detect classification:
        // 29 vs 28 MMC cycles.
        assert_eq!(with.report().mmc.fill_mmc_cycles, 29);
        assert_eq!(without.report().mmc.fill_mmc_cycles, 28);
    }

    #[test]
    fn misaligned_scalars_round_trip() {
        for mut m in [mtlb_machine(), base_machine()] {
            m.map_region(DATA, 16 * 1024, Prot::RW);
            // Offsets straddling every alignment boundary, including a
            // base-page boundary (offset 4094 with a u32).
            m.try_write::<u16>(DATA + 1, 0xa55a).unwrap();
            m.try_write::<u32>(DATA + 6, 0xdead_beef).unwrap();
            m.try_write::<u32>(DATA + 4094, 0x0102_0304).unwrap();
            m.try_write::<u64>(DATA + 13, 0x1122_3344_5566_7788)
                .unwrap();
            assert_eq!(m.try_read::<u16>(DATA + 1).unwrap(), 0xa55a);
            assert_eq!(m.try_read::<u32>(DATA + 6).unwrap(), 0xdead_beef);
            assert_eq!(m.try_read::<u32>(DATA + 4094).unwrap(), 0x0102_0304);
            assert_eq!(m.try_read::<u64>(DATA + 13).unwrap(), 0x1122_3344_5566_7788);
        }
    }

    #[test]
    fn misaligned_scalar_bytes_agree_with_aligned_view() {
        let mut m = mtlb_machine();
        m.map_region(DATA, 4096, Prot::RW);
        m.try_write::<u64>(DATA, 0x8877_6655_4433_2211).unwrap();
        // A misaligned u32 at offset 2 must see bytes 2..6 of the u64.
        assert_eq!(m.try_read::<u32>(DATA + 2).unwrap(), 0x6655_4433);
        // And a misaligned store must leave its neighbours intact:
        // bytes 3..5 become ef, be in a little-endian u64.
        m.try_write::<u16>(DATA + 3, 0xbeef).unwrap();
        assert_eq!(m.try_read::<u64>(DATA).unwrap(), 0x8877_66be_ef33_2211);
    }

    #[test]
    fn misaligned_scalar_costs_two_accesses() {
        let mut m = mtlb_machine();
        m.map_region(DATA, 4096, Prot::RW);
        m.reset_stats();
        m.try_read::<u32>(DATA + 2).unwrap(); // straddles: lwl/lwr-style pair
        assert_eq!(m.report().loads, 2);
        m.reset_stats();
        m.try_read::<u32>(DATA + 4).unwrap();
        assert_eq!(m.report().loads, 1, "aligned stays a single access");
        m.reset_stats();
        m.try_write::<u64>(DATA + 3, 7).unwrap();
        assert_eq!(m.report().stores, 2);
    }

    #[test]
    fn unmapped_access_is_a_typed_fault() {
        let mut m = mtlb_machine();
        let va = VirtAddr::new(0x6666_0000);
        assert!(matches!(
            m.try_read::<u32>(va),
            Err(Fault::PageNotMapped { va: f }) if f == va
        ));
        // The fault is precise: the machine remains usable.
        m.try_execute(1).unwrap();
    }

    #[test]
    fn write_to_readonly_is_a_protection_fault() {
        let mut m = mtlb_machine();
        m.map_region(DATA, 4096, Prot::READ);
        assert!(matches!(
            m.try_write::<u32>(DATA, 1),
            Err(Fault::Protection {
                kind: AccessKind::Write,
                ..
            })
        ));
        // The read side of the same page is fine.
        assert_eq!(m.try_read::<u32>(DATA).unwrap(), 0);
    }

    #[test]
    fn reset_stats_preserves_state() {
        let mut m = mtlb_machine();
        m.map_region(DATA, 4096, Prot::RW);
        m.try_write::<u32>(DATA, 99).unwrap();
        m.reset_stats();
        assert_eq!(m.cycles(), Cycles::ZERO);
        assert_eq!(m.try_read::<u32>(DATA).unwrap(), 99);
    }

    #[test]
    fn determinism_same_config_same_cycles() {
        let run = || {
            let mut m = mtlb_machine();
            m.map_region(DATA, 128 * 1024, Prot::RW);
            m.remap(DATA, 128 * 1024);
            for i in 0..1000u64 {
                m.try_write::<u32>(DATA + (i * 4093 % (128 * 1024)) / 4 * 4, i as u32)
                    .unwrap();
            }
            m.try_execute(5000).unwrap();
            m.cycles()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn superpage_sizes_observed_in_aspace() {
        let mut m = mtlb_machine();
        m.map_region(DATA, (1 << 20) + 64 * 1024, Prot::RW);
        m.remap(DATA, (1 << 20) + 64 * 1024);
        let sizes: Vec<PageSize> = m.kernel().aspace().superpages().map(|sp| sp.size).collect();
        assert_eq!(sizes, vec![PageSize::Size1M, PageSize::Size64K]);
    }

    /// Drives the same logical program through the batch APIs on one
    /// machine and the equivalent scalar loops on another; every cycle
    /// and every counter must agree — the tentpole's bit-identity claim
    /// in one test.
    #[test]
    fn batched_streams_are_cycle_identical_to_scalar_loops() {
        let program = |m: &mut Machine, batch: bool| {
            m.map_region(DATA, 64 * 1024, Prot::RW);
            m.remap(DATA, 64 * 1024);
            m.load_program(8 * PAGE_SIZE, false);
            let n = 3000u64;
            if batch {
                m.try_stream_write_u32(DATA, n, 2, |i| i as u32).unwrap();
                let mut sum = 0u64;
                m.try_stream_read_u32(DATA, n, 1, |_, v| sum += u64::from(v))
                    .unwrap();
                let bytes: Vec<u8> = (0..500).map(|i| i as u8).collect();
                m.try_write_block(DATA + 16 * 1024, &bytes, 3).unwrap();
                let mut back = vec![0u8; 500];
                m.try_read_block(DATA + 16 * 1024, &mut back, 1).unwrap();
                m.try_stream_write_u32_pair(DATA + 32 * 1024, DATA + 40 * 1024, 800, 3, |i| {
                    (i as u32, !i as u32)
                })
                .unwrap();
                m.try_stream_write_u32_f64(DATA + 44 * 1024, DATA + 48 * 1024, 500, 4, |i| {
                    (i as u32, i as f64)
                })
                .unwrap();
                (sum, back)
            } else {
                for i in 0..n {
                    m.try_write::<u32>(DATA + i * 4, i as u32).unwrap();
                    m.try_execute(2).unwrap();
                }
                let mut sum = 0u64;
                for i in 0..n {
                    sum += u64::from(m.try_read::<u32>(DATA + i * 4).unwrap());
                    m.try_execute(1).unwrap();
                }
                for i in 0..500u64 {
                    m.try_write::<u8>(DATA + 16 * 1024 + i, i as u8).unwrap();
                    m.try_execute(3).unwrap();
                }
                let mut back = vec![0u8; 500];
                for (i, b) in back.iter_mut().enumerate() {
                    *b = m.try_read::<u8>(DATA + 16 * 1024 + i as u64).unwrap();
                    m.try_execute(1).unwrap();
                }
                for i in 0..800u64 {
                    m.try_write::<u32>(DATA + 32 * 1024 + i * 4, i as u32)
                        .unwrap();
                    m.try_write::<u32>(DATA + 40 * 1024 + i * 4, !i as u32)
                        .unwrap();
                    m.try_execute(3).unwrap();
                }
                for i in 0..500u64 {
                    m.try_write::<u32>(DATA + 44 * 1024 + i * 4, i as u32)
                        .unwrap();
                    m.try_write::<f64>(DATA + 48 * 1024 + i * 8, i as f64)
                        .unwrap();
                    m.try_execute(4).unwrap();
                }
                (sum, back)
            }
        };
        let mut fast = mtlb_machine();
        let mut slow = mtlb_machine();
        slow.set_fast_paths(false);
        let a = program(&mut fast, true);
        let b = program(&mut slow, false);
        assert_eq!(a, b, "computed values must agree");
        assert_eq!(
            fast.report().to_json(),
            slow.report().to_json(),
            "batched and scalar execution must be cycle- and counter-identical"
        );
        assert_eq!(
            fast.guest_memory().content_digest(),
            slow.guest_memory().content_digest()
        );
    }

    /// Regression: translation memos must die on every remap, swap-out,
    /// recoloring and context switch between same-page accesses. Runs
    /// one sequence interleaving all invalidation events with same-page
    /// hits, on a fast machine and a slow-path reference; cycles,
    /// counters and values must agree.
    #[test]
    fn memo_invalidation_on_remap_purge_and_context_switch() {
        let program = |m: &mut Machine| {
            m.map_region(DATA, 64 * 1024, Prot::RW);
            let mut acc = 0u64;
            // Establish hot read+write memos.
            for i in 0..64u64 {
                m.try_write::<u32>(DATA + i * 4, i as u32).unwrap();
                acc += u64::from(m.try_read::<u32>(DATA + i * 4).unwrap());
            }
            // Remap to shadow superpages: bus addresses move.
            m.remap(DATA, 64 * 1024);
            acc += u64::from(m.try_read::<u32>(DATA + 4).unwrap());
            m.try_write::<u32>(DATA + 8, 1234).unwrap();
            // Swap the superpage out: residency changes, TLB purged;
            // the next same-page access must shadow-fault and recover.
            m.swap_out_superpage(DATA.vpn());
            acc += u64::from(m.try_read::<u32>(DATA + 8).unwrap());
            // Context switch away and back purges replaceable TLB state.
            let pid = m.spawn_process();
            m.try_switch_process(pid).unwrap();
            m.try_switch_process(0).unwrap();
            acc += u64::from(m.try_read::<u32>(DATA + 12).unwrap());
            // Demotion rewrites the mapping granularity.
            m.demote_superpage(DATA.vpn());
            m.try_write::<u32>(DATA + 12, 77).unwrap();
            acc += u64::from(m.try_read::<u32>(DATA + 12).unwrap());
            acc
        };
        let mut fast = mtlb_machine();
        let mut slow = mtlb_machine();
        slow.set_fast_paths(false);
        assert_eq!(program(&mut fast), program(&mut slow));
        assert_eq!(fast.report().to_json(), slow.report().to_json());
        assert_eq!(
            fast.guest_memory().content_digest(),
            slow.guest_memory().content_digest()
        );
        // And the fast machine really did take the fast path: the test
        // is vacuous unless memos were live between the events.
        assert!(fast.report().tlb.hits > 0);
    }

    // ----- multi-core front ends -------------------------------------------

    fn two_core_machine() -> Machine {
        Machine::new(MachineConfig::paper_mtlb(64).with_cores(2))
    }

    #[test]
    fn one_core_machine_has_no_shootdowns_or_contention() {
        let mut m = mtlb_machine();
        assert_eq!(m.num_cores(), 1);
        m.map_region(DATA, 64 * 1024, Prot::RW);
        m.remap(DATA, 64 * 1024);
        for i in 0..64u64 {
            m.try_write::<u32>(DATA + i * 256, i as u32).unwrap();
        }
        m.demote_superpage(DATA.vpn());
        let pid = m.spawn_process();
        m.try_switch_process(pid).unwrap();
        m.try_switch_process(0).unwrap();
        let r = m.report();
        assert_eq!(r.kernel.shootdowns, 0);
        assert_eq!(r.kernel.shootdown_cycles, Cycles::ZERO);
        assert_eq!(r.mtlb_contention_events, 0);
        assert_eq!(r.mtlb_contention_cycles, Cycles::ZERO);
        assert_eq!(m.per_core_stats().len(), 1);
    }

    #[test]
    fn core_banking_isolates_front_ends_and_shares_memory() {
        let mut m = two_core_machine();
        assert_eq!(m.num_cores(), 2);
        assert_eq!(m.active_core(), 0);
        m.map_region(DATA, 64 * 1024, Prot::RW);
        m.try_write::<u32>(DATA + 8, 0xfeed_f00d).unwrap();
        let core0_loads_before = m.report().loads;
        m.set_active_core(1);
        assert_eq!(m.active_core(), 1);
        // Memory is shared: core 1 reads what core 0 wrote, through its
        // own (cold) TLB and cache.
        assert_eq!(m.try_read::<u32>(DATA + 8).unwrap(), 0xfeed_f00d);
        let per_core = m.per_core_stats();
        assert_eq!(per_core.len(), 2);
        // Core 1 earned exactly the one load; core 0's counters were
        // left untouched.
        assert_eq!(per_core[1].loads, 1);
        assert_eq!(per_core[0].loads + 1, m.report().loads);
        assert_eq!(m.report().loads, core0_loads_before + 1);
        // Core 1 paid its own TLB miss for the shared page.
        assert!(per_core[1].tlb.misses > 0);
        m.set_active_core(0);
        assert_eq!(m.active_core(), 0);
        assert_eq!(m.per_core_stats()[0].loads, per_core[0].loads);
    }

    #[test]
    fn alternating_cores_pay_bus_arbitration() {
        let mut m = two_core_machine();
        m.map_region(DATA, 512 * 1024, Prot::RW);
        // Ping-pong cache-missing accesses between the cores: each
        // switch of bus ownership costs an arbitration stall.
        for i in 0..8u64 {
            m.set_active_core((i % 2) as usize);
            m.try_read::<u32>(DATA + i * 64 * 1024).unwrap();
        }
        let r = m.report();
        assert!(r.mtlb_contention_events > 0);
        assert_eq!(
            r.mtlb_contention_cycles,
            Cycles::new(r.mtlb_contention_events * 8)
        );
        // Contention cycles land in the mem-stall bucket.
        assert!(r.buckets.mem_stall >= r.mtlb_contention_cycles);
    }

    #[test]
    fn reset_stats_clears_parked_core_counters() {
        let mut m = two_core_machine();
        m.map_region(DATA, 64 * 1024, Prot::RW);
        m.try_read::<u32>(DATA).unwrap();
        m.set_active_core(1);
        m.try_read::<u32>(DATA + 4).unwrap();
        m.reset_stats();
        let r = m.report();
        assert_eq!(r.loads, 0);
        assert_eq!(r.mtlb_contention_events, 0);
        for core in m.per_core_stats() {
            assert_eq!(core.loads, 0);
            assert_eq!(core.tlb.misses, 0);
        }
    }

    /// The machine's witness is its busiest core's: core 1 touches 40
    /// pages, core 0 two. A run at that demand, one above it or four
    /// times it is the run at 1000 entries, report for report; one
    /// entry fewer makes core 1 evict and withdraws the witness.
    #[test]
    fn tlb_reach_demand_is_the_busiest_cores() {
        let run = |entries: usize| {
            let mut m = Machine::new(MachineConfig::paper_base(entries).with_cores(2));
            m.map_region(DATA, 64 * PAGE_SIZE, Prot::RW);
            m.try_read::<u32>(DATA).unwrap();
            m.set_active_core(1);
            for page in 0..40 {
                m.try_write::<u32>(DATA + page * PAGE_SIZE, 7).unwrap();
            }
            m.set_active_core(0);
            m.try_read::<u32>(DATA + PAGE_SIZE).unwrap();
            let demand = m.tlb_reach_demand();
            (m.report().to_json(), demand)
        };
        let (wide, demand) = run(1000);
        let demand = demand.expect("1000 entries never fill");
        assert!(demand > 40, "core 1's pages and its locked entry");
        for entries in [demand, demand + 1, 4 * demand] {
            assert_eq!(run(entries), (wide.clone(), Some(demand)), "{entries}");
        }
        assert_eq!(run(demand - 1).1, None);
    }

    #[test]
    fn switching_to_unknown_pid_is_a_clean_fault() {
        let mut m = mtlb_machine();
        let cycles_before = m.report().total_cycles;
        assert_eq!(
            m.try_switch_process(42),
            Err(Fault::NoSuchProcess { pid: 42 })
        );
        assert_eq!(m.report().total_cycles, cycles_before);
    }
}
