//! The assembled machine: the [`Machine`] struct, its construction and
//! its plain accessors. Each layer keeps its own `impl Machine` block in
//! a child module: `cores` (the core list, remote delivery and bus
//! arbitration), `access` (the access engine and its memos, with the
//! batch planner in `access::stream`), `services` (kernel entry and exit
//! and the syscall shims) and `audit` (report, reset and audit).

use mtlb_mem::GuestMemory;
use mtlb_mmc::Mmc;
use mtlb_os::{Kernel, KernelStats, UserLayout};
use mtlb_types::{Cycles, Histogram, Prot, PAGE_SIZE};

use crate::ops::{MachineOp, OpSink};
use crate::report::{Bucket, Ledger};
use crate::MachineConfig;

/// Builds a [`KernelCtx`](mtlb_os::KernelCtx) from the machine's fields
/// without borrowing `self.kernel`, so kernel services can be invoked in
/// one expression.
macro_rules! kctx {
    ($self:ident) => {{
        let core = &mut $self.cores[$self.active];
        mtlb_os::KernelCtx {
            tlb: &mut *core.tlb,
            itlb: &mut core.itlb,
            cache: &mut core.cache,
            mmc: &mut $self.mmc,
            mem: &mut $self.mem,
            ratio: $self.cfg.ratio,
        }
    }};
}

mod access;
mod audit;
mod cores;
mod services;

use cores::CoreState;

/// The complete simulated machine. See the [crate docs](crate) for the
/// modelled system and the timing rules.
///
/// # Access API
///
/// Workloads use the scalar pair [`try_read::<T>`](Machine::try_read) /
/// [`try_write::<T>`](Machine::try_write), generic over the sealed
/// [`Scalar`](crate::Scalar) widths (`u8 u16 u32 u64 f64`), for data,
/// [`try_execute`] to account instruction execution (with
/// instruction-fetch translation through the micro-ITLB), the batch
/// accessors ([`try_read_block`](Machine::try_read_block),
/// [`try_stream_write_u32`](Machine::try_stream_write_u32), …) for dense
/// loops, and the syscall wrappers ([`map_region`], [`remap`], [`sbrk`],
/// …) for memory management. Accessors return the typed
/// [`Fault`](mtlb_types::Fault) on unmapped or protection-violating
/// accesses; a faulting access is neither counted nor charged. The
/// `mtlb-workloads` crate provides an infallible `AccessExt` convenience
/// layer that panics instead.
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
/// internal `charge` funnel. The memos die at every kernel exit (TLB
/// fill, shadow fault, remap, paging operation, context switch) but an
/// `sbrk` that only moves the break.
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
    /// shootdown delivery, `reset_stats`) iterate this one list.
    cores: Vec<CoreState>,
    /// Index in `cores` of the core the machine is executing as;
    /// [`set_active_core`](Machine::set_active_core) moves it.
    active: usize,
    mmc: Mmc,
    mem: GuestMemory,
    kernel: Kernel,
    /// Time buckets: every simulated cycle is charged through it.
    ledger: Ledger,
    /// Kernel counters at construction / last [`reset_stats`]
    /// (`Machine::reset_stats`), so the attribution auditor can compare
    /// bucket deltas even though kernel stats are never reset.
    kernel_base: KernelStats,
    /// Miss-handler walks since the last reset that found no PTE: the
    /// handler ran but filled nothing (the access returned
    /// `PageNotMapped`).
    walk_faults: u64,
    /// CPU-cycle intervals between consecutive CPU TLB misses.
    miss_intervals: Histogram,
    last_miss_at: Option<Cycles>,
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
            kernel: Kernel::new(cfg.mmc, cfg.kernel.clone(), cfg.cores),
            cfg,
            ledger: Ledger::default(),
            kernel_base: KernelStats::default(),
            walk_faults: 0,
            miss_intervals: Histogram::new(),
            last_miss_at: None,
            fast_paths: true,
            op_sink: None,
            last_bus_core: None,
            contention_events: 0,
            contention_cycles: Cycles::ZERO,
        };
        let boot = m.kernel.boot(&mut kctx!(m));
        m.ledger.charge(Bucket::Kernel, boot);
        // A minimal text page so `try_execute` works before
        // `load_program`.
        let c = m
            .kernel
            .map_region(&mut kctx!(m), UserLayout::TEXT_BASE, PAGE_SIZE, Prot::RX);
        m.ledger.charge(Bucket::Kernel, c);
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

    /// Stream-buffer statistics from the memory controller (zeroes when
    /// no buffers are fitted).
    #[must_use]
    pub fn mmc_stream_stats(&self) -> mtlb_mmc::StreamStats {
        self.mmc.stream_stats()
    }
}

#[cfg(test)]
/// Fixtures shared by the layer modules' unit tests.
mod testing {
    use super::Machine;
    use crate::MachineConfig;
    use mtlb_os::UserLayout;
    use mtlb_types::VirtAddr;

    pub(super) fn mtlb_machine() -> Machine {
        Machine::new(MachineConfig::paper_mtlb(64))
    }

    pub(super) fn base_machine() -> Machine {
        Machine::new(MachineConfig::paper_base(64))
    }

    pub(super) fn two_core_machine() -> Machine {
        Machine::new(MachineConfig::paper_mtlb(64).with_cores(2))
    }

    pub(super) const DATA: VirtAddr = UserLayout::DATA_BASE;
}
