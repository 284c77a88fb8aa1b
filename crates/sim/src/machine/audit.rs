//! Whole-machine views: the merged [`RunReport`], its per-core
//! breakdown, the TLB-reach witness, the statistics reset and the
//! debug-build cycle-attribution audit.

#[cfg(debug_assertions)]
use mtlb_os::KernelStats;
use mtlb_types::{Cycles, Histogram};

#[cfg(debug_assertions)]
use super::cores::BUS_ARBITRATION;
use super::Machine;
use crate::ops::MachineOp;
#[cfg(debug_assertions)]
use crate::report::TimeBuckets;
use crate::report::{CoreStats, RunReport};

impl Machine {
    /// Snapshot of all statistics.
    ///
    /// In debug builds this also runs the cycle-attribution audit,
    /// panicking if the time buckets have drifted from the
    /// per-component counters (every charge goes through the single
    /// `Ledger::charge` funnel, which is what makes the audit exact).
    #[must_use]
    pub fn report(&mut self) -> RunReport {
        // The report describes the whole machine: every core's private
        // counters, merged.
        let cores = self.per_core_stats().into_iter();
        let front = cores.fold(CoreStats::default(), CoreStats::merge);
        let report = RunReport {
            total_cycles: self.ledger.total(),
            buckets: self.ledger.buckets(),
            tlb: front.tlb,
            itlb_hits: front.itlb_hits,
            itlb_misses: front.itlb_misses,
            cache: front.cache,
            mmc: self.mmc.stats(),
            kernel: self.kernel.stats(),
            loads: front.loads,
            stores: front.stores,
            instructions: front.instructions,
            tlb_miss_intervals: self.miss_intervals,
            mtlb_contention_events: self.contention_events,
            mtlb_contention_cycles: self.contention_cycles,
            tlb_reach_bytes: self.cores.iter().map(|c| c.tlb.reach_bytes()).sum(),
        };
        #[cfg(debug_assertions)]
        self.audit(&report);
        report
    }

    /// Per-core front-end counters, in core-index order.
    /// [`report`](Machine::report)'s front-end figures are their
    /// across-core sum.
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
    /// [`TranslationScheme::reach_demand`](mtlb_tlb::TranslationScheme::reach_demand),
    /// `None` if any core has none (its TLB evicted, or its scheme
    /// claims no bound). Nothing else in the machine reads
    /// `cpu_tlb_entries`, so the machine's run at any capacity at or
    /// above this is this run.
    #[must_use]
    pub fn tlb_reach_demand(&self) -> Option<usize> {
        self.cores
            .iter()
            .try_fold(0, |most, core| Some(most.max(core.tlb.reach_demand()?)))
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
        self.kernel.reset_stats();
        self.walk_faults = 0;
        self.miss_intervals = Histogram::new();
        self.last_miss_at = None;
    }

    /// Debug-build cycle-attribution audit: reconciles the time buckets
    /// against the independently-maintained per-component counters and
    /// panics on any drift. Each check pairs a bucket (mutated only via
    /// [`Ledger::charge`](crate::report::Ledger::charge)) with counters accumulated inside the
    /// component that earned the cycles, so a charge routed to the
    /// wrong bucket, double-counted, or dropped shows up immediately.
    #[cfg(debug_assertions)]
    fn audit(&self, r: &RunReport) {
        // Exhaustive, `..`-free destructures of the report and of every
        // stats struct in it: a new field anywhere in `RunReport` is a
        // compile error until the auditor decides how it reconciles.
        // Fields bound to `_` are reconciled implicitly (they feed a
        // derived figure or are informational-only).
        let RunReport {
            total_cycles,
            buckets,
            tlb,
            itlb_hits: _,
            itlb_misses: _,
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
            tlb_miss, tlb_miss_cycles,
            "attribution audit: tlb_miss bucket != kernel handler cycles"
        );
        assert_eq!(
            fault, fault_cycles,
            "attribution audit: fault bucket != kernel shadow-fault cycles"
        );
        assert_eq!(
            kernel,
            service_cycles + shootdown_cycles,
            "attribution audit: kernel bucket != kernel service + shootdown cycles"
        );
        assert_eq!(
            tlb_misses, tlb_miss_handler_calls,
            "attribution audit: TLB misses != miss-handler invocations"
        );
        // A walk that found no PTE ran the handler and filled nothing.
        assert_eq!(
            tlb_fills + self.walk_faults,
            tlb_miss_handler_calls,
            "attribution audit: TLB refills + faulting walks != miss-handler invocations"
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
            shadow_faults, shadow_faults_serviced,
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
        // Every bus-arbitration stall costs `BUS_ARBITRATION`, and
        // the stalls are part of the mem-stall bucket.
        assert_eq!(
            mtlb_contention_cycles,
            BUS_ARBITRATION * mtlb_contention_events,
            "attribution audit: contention cycles != stalls x arbitration penalty"
        );
        assert!(
            mtlb_contention_cycles <= mem_stall,
            "attribution audit: contention cycles exceed the mem-stall bucket"
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::testing::*;
    use crate::{Machine, MachineConfig};
    use mtlb_types::{Cycles, Prot, PAGE_SIZE};

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

    #[test]
    fn reset_stats_restarts_the_kernel_counters() {
        let mut m = base_machine();
        m.map_region(DATA, 64 * PAGE_SIZE, Prot::RW);
        for page in 0..64 {
            m.try_read::<u32>(DATA + page * PAGE_SIZE).unwrap();
        }
        m.reset_stats();
        m.try_read::<u32>(DATA + 64).unwrap();
        let r = m.report();
        assert_eq!(r.tlb.misses, 1);
        assert_eq!(r.kernel.tlb_miss_handler_calls, r.tlb.misses);
        assert_eq!(r.kernel.tlb_miss_cycles, r.buckets.tlb_miss);
        assert_eq!(r.kernel.service_cycles, r.buckets.kernel);
    }

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
}
