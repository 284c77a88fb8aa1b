//! MMC latency parameters.
//!
//! All values are **MMC (bus) cycles** at the paper's 120 MHz; the machine
//! model converts to CPU cycles with [`Cycles::from_bus_cycles`]
//! (2 CPU cycles per MMC cycle).
//!
//! [`Cycles::from_bus_cycles`]: mtlb_types::Cycles::from_bus_cycles

/// Latency parameters of the memory controller, in MMC cycles.
///
/// Defaults are calibrated so the paper's *shape* reproduces:
///
/// * a cache fill on the standard (no-MTLB) system costs
///   `bus_request + dram_access + line_transfer` = 28 MMC cycles
///   (56 CPU cycles — mid-1990s main-memory latency);
/// * with an MTLB present, every MMC operation pays `shadow_detect`
///   (1 cycle, the paper's "conservative estimate", §2.2);
/// * an MTLB miss adds `mtlb_fill` — one *word* read of the flat table,
///   cheaper than a full line fill (no 32-byte transfer phase) — so the
///   Figure 4B "added delay per cache fill" spans ≈ 1.5 MMC cycles (high
///   hit rates) up to ≈ 10 (small direct-mapped MTLBs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MmcTiming {
    /// Shadow/real classification added to *every* operation when an MTLB
    /// is present.
    pub shadow_detect: u64,
    /// Bus arbitration + request transfer for an operation reaching the MMC.
    pub bus_request: u64,
    /// One DRAM access (row activate + column read).
    pub dram_access: u64,
    /// Returning a 32-byte line over the 64-bit bus.
    pub line_transfer: u64,
    /// The DRAM read performed by the hardware MTLB fill engine.
    pub mtlb_fill: u64,
    /// Cycles the CPU observes for a posted writeback (bus occupancy
    /// only; the DRAM write completes in the background).
    pub writeback_issue: u64,
    /// An uncached control-register write (OS establishing a
    /// shadow-to-real mapping, §2.4) or read (OS inspecting ref/dirty
    /// bits).
    pub control_op: u64,
    /// Serving a demand fill from a stream-buffer head instead of DRAM
    /// (§6 extension; only reachable when stream buffers are fitted).
    pub stream_hit: u64,
}

impl MmcTiming {
    /// The calibrated defaults described in the type-level docs.
    #[must_use]
    pub const fn paper_default() -> Self {
        MmcTiming {
            shadow_detect: 1,
            bus_request: 4,
            dram_access: 20,
            line_transfer: 4,
            mtlb_fill: 12,
            writeback_issue: 4,
            control_op: 25,
            stream_hit: 2,
        }
    }
}

impl Default for MmcTiming {
    fn default() -> Self {
        MmcTiming::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_fill_cost_is_28_mmc_cycles() {
        let t = MmcTiming::paper_default();
        assert_eq!(t.bus_request + t.dram_access + t.line_transfer, 28);
        assert_eq!(t.shadow_detect, 1, "the paper's 1-cycle classification");
    }
}
