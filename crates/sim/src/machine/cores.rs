//! The core list: one [`CoreState`] per CPU front end, the active-core
//! switch, delivery of kernel shootdowns and page flushes to the remote
//! cores, and arbitration of the shared bus.

use mtlb_cache::{AccessResult, DataCache};
use mtlb_os::{RemoteWork, UserLayout};
use mtlb_tlb::{MicroItlb, TranslationScheme};
use mtlb_types::{Cycles, PhysAddr, VirtAddr, PAGE_SIZE};

use super::access::Memos;
use super::Machine;
use crate::report::Bucket;
use crate::MachineConfig;

/// Bus-arbitration penalty charged (as a memory stall) when a user-path
/// bus transaction comes from a different core than the previous one —
/// the multi-core contention model.
pub(super) const BUS_ARBITRATION: Cycles = Cycles::new(8);

/// One CPU front end: everything private to a core — its translation
/// and cache state, program-counter state, retired-op counters, the
/// access engine's translation memos keyed to its own TLB slots, and the
/// process it is running.
#[derive(Debug)]
pub(super) struct CoreState {
    /// Translation front end (the paper's [`CpuTlb`](mtlb_tlb::CpuTlb)
    /// by default; fig5 swaps in rival designs behind the same trait).
    pub(super) tlb: Box<dyn TranslationScheme>,
    pub(super) itlb: MicroItlb,
    pub(super) cache: DataCache,
    pub(super) code_base: VirtAddr,
    pub(super) code_len: u64,
    pub(super) pc_offset: u64,
    pub(super) loads: u64,
    pub(super) stores: u64,
    pub(super) instructions: u64,
    /// This core's translation memos, opaque outside the access engine.
    pub(super) memos: Memos,
    /// The process this core was running when the machine last moved
    /// off it (the kernel's current-process pointer is the truth while
    /// the core is active; `set_active_core` saves and restores it).
    pid: usize,
}

impl CoreState {
    /// One access to this core's L1 cache.
    #[inline]
    pub(super) fn cache_probe(&mut self, va: VirtAddr, pa: PhysAddr, write: bool) -> AccessResult {
        if write {
            self.cache.access_write(va, pa)
        } else {
            self.cache.access_read(va, pa)
        }
    }

    /// A cold front end on process 0, its PC on the boot text page.
    pub(super) fn new(cfg: &MachineConfig) -> Self {
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
            memos: Memos::new(),
            pid: 0,
        }
    }
}

impl Machine {
    /// Short name of the active translation front end (fig5 labels).
    #[must_use]
    pub fn scheme_name(&self) -> &'static str {
        self.cores[self.active].tlb.name()
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

    /// The active core's front end, mutably. (Paths that also need
    /// other machine fields while they hold the core index
    /// `cores[active]` in place, which borrows just that field.)
    #[inline]
    pub(super) fn core_mut(&mut self) -> &mut CoreState {
        &mut self.cores[self.active]
    }

    /// Makes `core` the core the machine executes as and re-points the
    /// kernel at the process that core is running. O(1): the front ends
    /// stay where they are in the core list, only the active index
    /// moves. This is the deterministic round-robin scheduler's
    /// primitive: a host-level operation (not a recorded
    /// [`MachineOp`](crate::MachineOp), like
    /// [`set_fast_paths`](Machine::set_fast_paths)) costing no
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
        self.kernel.set_current_process(self.cores[core].pid);
    }

    /// Delivers what a kernel entry queued for the other cores, in one
    /// pass over the kernel's queue: each flushed page leaves every
    /// remote L1, and each TLB shootdown reaches every remote CPU TLB
    /// and micro-ITLB, its delivery cost charged to the kernel bucket.
    /// On a single core the queue drains at zero cost — there is no
    /// remote core to purge, count or charge for, which is what keeps
    /// the 1-core machine bit-identical.
    pub(super) fn deliver_remote(&mut self) {
        let active = self.active;
        let mut requests = 0;
        for work in self.kernel.drain_remote() {
            requests += u64::from(matches!(work, RemoteWork::Shootdown(_)));
            for (i, core) in self.cores.iter_mut().enumerate() {
                if i != active {
                    work.apply(core.tlb.as_mut(), &mut core.itlb, &mut core.cache);
                }
            }
        }
        let remote_cores = (self.cores.len() - 1) as u64;
        if requests > 0 && remote_cores > 0 {
            let c = self.kernel.note_shootdown(requests, remote_cores);
            self.ledger.charge(Bucket::Kernel, c);
        }
    }

    /// Charges [`BUS_ARBITRATION`] when a user-path bus
    /// transaction comes from a different core than the previous one —
    /// the shared-bus/MTLB contention model. Kernel-internal bus
    /// traffic (page-table walks, flush writebacks inside services) is
    /// not arbitrated per-core; its cost is already folded into the
    /// service cycles. Free at one core.
    pub(super) fn arbitrate_bus(&mut self) {
        if self.cores.len() <= 1 {
            return;
        }
        let core = self.active;
        let prev = self.last_bus_core.replace(core);
        if prev.is_none() || prev == Some(core) {
            return;
        }
        self.contention_events = self.contention_events.saturating_add(1);
        self.contention_cycles += BUS_ARBITRATION;
        self.ledger.charge(Bucket::MemStall, BUS_ARBITRATION);
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::testing::*;
    use mtlb_types::{Cycles, Prot};

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
}
