//! Run-time attribution and reporting.

use core::fmt;

use mtlb_cache::CacheStats;
use mtlb_mmc::MmcStats;
use mtlb_os::KernelStats;
use mtlb_tlb::TlbStats;
use mtlb_types::{Cycles, Histogram};

/// Where simulated CPU cycles went — the decomposition behind the
/// paper's Figure 3 (total runtime with the TLB-miss fraction broken
/// out).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeBuckets {
    /// Instruction execution plus single-cycle cache accesses.
    pub user: Cycles,
    /// Software TLB miss handling: traps, hashed-page-table probes
    /// (including their memory time) and TLB inserts.
    pub tlb_miss: Cycles,
    /// Memory stalls on user accesses: fills and writebacks.
    pub mem_stall: Cycles,
    /// Kernel services invoked explicitly (map, remap, sbrk, swap
    /// control).
    pub kernel: Cycles,
    /// Shadow page fault service (swap-ins).
    pub fault: Cycles,
}

impl TimeBuckets {
    /// Sum of all buckets — total runtime.
    #[must_use]
    pub fn total(&self) -> Cycles {
        self.user + self.tlb_miss + self.mem_stall + self.kernel + self.fault
    }
}

/// The bucket a charge lands in: one variant per field of
/// [`TimeBuckets`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Bucket {
    User,
    TlbMiss,
    MemStall,
    Kernel,
    Fault,
}

/// The machine's cycle ledger.
///
/// Its buckets are private to this module, so [`charge`](Ledger::charge)
/// is the only way a simulated cycle enters a bucket. That is what makes
/// the debug attribution audit exact: a bucket write anywhere else does
/// not compile.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    buckets: TimeBuckets,
}

impl Ledger {
    /// Adds `cycles` to `bucket`.
    #[inline]
    pub(crate) fn charge(&mut self, bucket: Bucket, cycles: Cycles) {
        let b = &mut self.buckets;
        match bucket {
            Bucket::User => b.user += cycles,
            Bucket::TlbMiss => b.tlb_miss += cycles,
            Bucket::MemStall => b.mem_stall += cycles,
            Bucket::Kernel => b.kernel += cycles,
            Bucket::Fault => b.fault += cycles,
        }
    }

    /// Total cycles charged since construction or the last
    /// [`reset`](Ledger::reset).
    #[inline]
    pub(crate) fn total(&self) -> Cycles {
        self.buckets.total()
    }

    /// The buckets as they stand.
    pub(crate) fn buckets(&self) -> TimeBuckets {
        self.buckets
    }

    /// Zeroes every bucket.
    pub(crate) fn reset(&mut self) {
        self.buckets = TimeBuckets::default();
    }
}

/// One CPU front end's private counters (its CPU TLB, micro-ITLB, L1
/// data cache, and retired-operation counts). [`RunReport`] carries the
/// across-core merge of these;
/// [`per_core_stats`](crate::Machine::per_core_stats) exposes the
/// per-core breakdown the `fig6` experiment reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// CPU TLB counters for this core.
    pub tlb: TlbStats,
    /// Data cache counters for this core.
    pub cache: CacheStats,
    /// Micro-ITLB hits on this core.
    pub itlb_hits: u64,
    /// Micro-ITLB misses on this core.
    pub itlb_misses: u64,
    /// Data loads executed on this core.
    pub loads: u64,
    /// Data stores executed on this core.
    pub stores: u64,
    /// Instructions executed on this core.
    pub instructions: u64,
}

/// A complete snapshot of a run's statistics.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Total simulated CPU cycles.
    pub total_cycles: Cycles,
    /// Attribution by bucket.
    pub buckets: TimeBuckets,
    /// CPU TLB counters.
    pub tlb: TlbStats,
    /// Micro-ITLB hits/misses.
    pub itlb_hits: u64,
    /// Micro-ITLB misses (consulted the main TLB).
    pub itlb_misses: u64,
    /// Data cache counters.
    pub cache: CacheStats,
    /// Memory controller counters (MTLB hit rates, fill timing).
    pub mmc: MmcStats,
    /// Kernel counters.
    pub kernel: KernelStats,
    /// Data loads executed.
    pub loads: u64,
    /// Data stores executed.
    pub stores: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Log-bucketed distribution of CPU-cycle intervals between
    /// consecutive CPU TLB misses (miss clustering / locality).
    pub tlb_miss_intervals: Histogram,
    /// Bus-arbitration stalls charged because consecutive bus
    /// transactions came from different cores (zero on one core).
    pub mtlb_contention_events: u64,
    /// CPU cycles those stalls cost (inside the mem-stall bucket).
    pub mtlb_contention_cycles: Cycles,
    /// Bytes of virtual address space the cores' translation front ends
    /// could translate without a miss when the report was taken (the
    /// sum over cores) — the "TLB reach" the rival designs compete on.
    pub tlb_reach_bytes: u64,
}

impl RunReport {
    /// Fraction of total runtime spent handling CPU TLB misses — the
    /// quantity the paper's Figure 3 separates out.
    #[must_use]
    pub fn tlb_miss_fraction(&self) -> f64 {
        self.buckets.tlb_miss.fraction_of(self.total_cycles)
    }

    /// Average MMC cycles per demand cache fill (Figure 4B's metric).
    #[must_use]
    pub fn avg_fill_mmc_cycles(&self) -> f64 {
        self.mmc.avg_fill_mmc_cycles()
    }

    /// Serialises the full report as a deterministic JSON object (no
    /// external dependencies; field order is fixed). Histograms are
    /// emitted as arrays of `{"lo", "hi", "count"}` buckets with
    /// inclusive bounds.
    #[must_use]
    pub fn to_json(&self) -> String {
        let b = &self.buckets;
        let t = &self.tlb;
        let c = &self.cache;
        let m = &self.mmc;
        let k = &self.kernel;
        format!(
            concat!(
                "{{",
                "\"total_cycles\":{},",
                "\"buckets\":{{\"user\":{},\"tlb_miss\":{},\"mem_stall\":{},",
                "\"kernel\":{},\"fault\":{}}},",
                "\"instructions\":{},\"loads\":{},\"stores\":{},",
                "\"tlb\":{{\"hits\":{},\"misses\":{},\"fills\":{},",
                "\"replacements\":{},\"purges\":{},\"nru_resets\":{}}},",
                "\"itlb\":{{\"hits\":{},\"misses\":{}}},",
                "\"cache\":{{\"hits\":{},\"misses\":{},\"replacement_writebacks\":{},",
                "\"flush_writebacks\":{},\"lines_flushed\":{},\"flush_walks\":{}}},",
                "\"mmc\":{{\"fills_shared\":{},\"fills_exclusive\":{},\"writebacks\":{},",
                "\"shadow_ops\":{},\"real_ops\":{},\"mtlb_hits\":{},\"mtlb_misses\":{},",
                "\"shadow_faults\":{},\"bus_errors\":{},\"fill_mmc_cycles\":{},",
                "\"control_ops\":{},\"fill_hist\":{}}},",
                "\"kernel\":{{\"tlb_miss_handler_calls\":{},\"remaps\":{},",
                "\"superpages_created\":{},\"pages_remapped\":{},\"sbrk_calls\":{},",
                "\"shadow_faults_serviced\":{},\"pages_swapped_out\":{},",
                "\"pages_swapped_in\":{},\"clock_sweeps\":{},\"pages_recolored\":{},",
                "\"auto_promotions\":{},\"processes_spawned\":{},\"context_switches\":{},",
                "\"tlb_miss_cycles\":{},\"fault_cycles\":{},\"service_cycles\":{},",
                "\"shootdowns\":{},\"shootdown_cycles\":{}}},",
                "\"mtlb_contention\":{{\"events\":{},\"cycles\":{}}},",
                "\"tlb_reach_bytes\":{},",
                "\"tlb_miss_intervals\":{}",
                "}}"
            ),
            self.total_cycles.get(),
            b.user.get(),
            b.tlb_miss.get(),
            b.mem_stall.get(),
            b.kernel.get(),
            b.fault.get(),
            self.instructions,
            self.loads,
            self.stores,
            t.hits,
            t.misses,
            t.fills,
            t.replacements,
            t.purges,
            t.nru_resets,
            self.itlb_hits,
            self.itlb_misses,
            c.hits,
            c.misses,
            c.replacement_writebacks,
            c.flush_writebacks,
            c.lines_flushed,
            c.flush_walks,
            m.fills_shared,
            m.fills_exclusive,
            m.writebacks,
            m.shadow_ops,
            m.real_ops,
            m.mtlb_hits,
            m.mtlb_misses,
            m.shadow_faults,
            m.bus_errors,
            m.fill_mmc_cycles,
            m.control_ops,
            histogram_json(&m.fill_hist),
            k.tlb_miss_handler_calls,
            k.remaps,
            k.superpages_created,
            k.pages_remapped,
            k.sbrk_calls,
            k.shadow_faults_serviced,
            k.pages_swapped_out,
            k.pages_swapped_in,
            k.clock_sweeps,
            k.pages_recolored,
            k.auto_promotions,
            k.processes_spawned,
            k.context_switches,
            k.tlb_miss_cycles.get(),
            k.fault_cycles.get(),
            k.service_cycles.get(),
            k.shootdowns,
            k.shootdown_cycles.get(),
            self.mtlb_contention_events,
            self.mtlb_contention_cycles.get(),
            self.tlb_reach_bytes,
            histogram_json(&self.tlb_miss_intervals),
        )
    }
}

/// JSON array of a histogram's non-empty buckets (inclusive bounds).
#[must_use]
fn histogram_json(h: &Histogram) -> String {
    let mut out = String::from("[");
    for (i, (lo, hi, count)) in h.nonempty_buckets().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"lo\":{lo},\"hi\":{hi},\"count\":{count}}}"));
    }
    out.push(']');
    out
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total: {} cycles", self.total_cycles.get())?;
        writeln!(
            f,
            "  user {:>12}  tlb-miss {:>12} ({:.2}%)  mem-stall {:>12}  kernel {:>12}  fault {:>12}",
            self.buckets.user.get(),
            self.buckets.tlb_miss.get(),
            self.tlb_miss_fraction() * 100.0,
            self.buckets.mem_stall.get(),
            self.buckets.kernel.get(),
            self.buckets.fault.get(),
        )?;
        writeln!(
            f,
            "  {} instructions, {} loads, {} stores",
            self.instructions, self.loads, self.stores
        )?;
        writeln!(
            f,
            "  tlb: {} lookups, {:.4}% miss | itlb: {} hits, {} misses",
            self.tlb.lookups(),
            self.tlb.miss_rate() * 100.0,
            self.itlb_hits,
            self.itlb_misses
        )?;
        writeln!(f, "  {}", self.cache)?;
        writeln!(f, "  {}", self.mmc)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_total() {
        let b = TimeBuckets {
            user: Cycles::new(100),
            tlb_miss: Cycles::new(25),
            mem_stall: Cycles::new(50),
            kernel: Cycles::new(20),
            fault: Cycles::new(5),
        };
        assert_eq!(b.total(), Cycles::new(200));
    }

    #[test]
    fn tlb_miss_fraction_of_total() {
        let r = RunReport {
            total_cycles: Cycles::new(200),
            buckets: TimeBuckets {
                tlb_miss: Cycles::new(50),
                ..TimeBuckets::default()
            },
            ..RunReport::default()
        };
        assert!((r.tlb_miss_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn json_has_fixed_shape_and_consistent_buckets() {
        let mut h = Histogram::new();
        h.record(29);
        let r = RunReport {
            total_cycles: Cycles::new(200),
            buckets: TimeBuckets {
                user: Cycles::new(100),
                tlb_miss: Cycles::new(25),
                mem_stall: Cycles::new(50),
                kernel: Cycles::new(20),
                fault: Cycles::new(5),
            },
            tlb_miss_intervals: h,
            tlb_reach_bytes: 3 << 20,
            ..RunReport::default()
        };
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"total_cycles\":200"));
        assert!(json.contains(
            "\"buckets\":{\"user\":100,\"tlb_miss\":25,\"mem_stall\":50,\"kernel\":20,\"fault\":5}"
        ));
        assert!(json.contains("\"tlb_miss_intervals\":[{\"lo\":16,\"hi\":31,\"count\":1}]"));
        assert!(json.contains("\"fill_hist\":[]"));
        assert!(json.contains("\"tlb_reach_bytes\":3145728,"));
        // The acceptance property: bucket values sum to total_cycles.
        assert_eq!(r.buckets.total(), r.total_cycles);
    }

    #[test]
    fn display_contains_key_lines() {
        let r = RunReport {
            total_cycles: Cycles::new(123),
            ..RunReport::default()
        };
        let s = r.to_string();
        assert!(s.contains("total: 123 cycles"));
        assert!(s.contains("tlb-miss"));
    }
}
