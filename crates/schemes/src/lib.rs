//! Rival TLB-reach designs behind the [`TranslationScheme`] trait.
//!
//! The paper's machine always translates through the fully-associative
//! NRU [`CpuTlb`] (`mtlb-tlb`); this crate supplies the competitors the
//! fig5 experiment pits against it on identical address streams (each
//! cell runs its workload live; the streams are identical because the
//! workloads are deterministic and configuration-independent):
//!
//! * [`CoalescedTlb`] — detects contiguous VPN→PFN runs at fill time
//!   and stores them as ranged entries (Ban et al., arXiv:1908.08774).
//!   Earns reach from whatever physical contiguity the frame allocator
//!   produces naturally.
//! * [`SplitTlb`] — a multi-page-size split TLB with fixed cpuid-style
//!   per-size-class arrays (64×4-way @ 4 KB, 32×4-way mid, 8 FA
//!   large). Earns reach only when the OS actually maps superpages.
//!
//! [`SchemeConfig`] is the serializable selector the machine
//! configuration carries; its [`build`](SchemeConfig::build) factory
//! constructs the chosen front end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::iter_over_hash_type
    )
)]

mod coalesced;
mod split;

pub use coalesced::{CoalescedStats, CoalescedTlb, MAX_COALESCE};
pub use split::{SplitStats, SplitTlb};

use mtlb_tlb::{CpuTlb, TranslationScheme};

/// Which translation front end a machine uses.
///
/// `Cpu` (the default) is the paper's TLB and is bit-identical to the
/// machine before this selector existed; the rivals are the fig5
/// competitors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchemeConfig {
    /// The paper's fully-associative NRU TLB ([`CpuTlb`]).
    #[default]
    Cpu,
    /// Contiguity-coalescing TLB ([`CoalescedTlb`]).
    Coalesced,
    /// Multi-page-size split TLB ([`SplitTlb`]; fixed geometry — the
    /// configured entry count does not apply).
    Split,
}

impl SchemeConfig {
    /// Short stable identifier (matches
    /// [`TranslationScheme::name`]).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SchemeConfig::Cpu => "cpu",
            SchemeConfig::Coalesced => "coalesced",
            SchemeConfig::Split => "split",
        }
    }

    /// Builds the selected front end. `entries` sizes the schemes with
    /// a configurable capacity (`Cpu`, `Coalesced`); the split TLB's
    /// geometry is fixed by design.
    #[must_use]
    pub fn build(&self, entries: usize) -> Box<dyn TranslationScheme> {
        match self {
            SchemeConfig::Cpu => Box::new(CpuTlb::new(entries)),
            SchemeConfig::Coalesced => Box::new(CoalescedTlb::new(entries)),
            SchemeConfig::Split => Box::new(SplitTlb::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_the_named_scheme() {
        for (cfg, name) in [
            (SchemeConfig::Cpu, "cpu"),
            (SchemeConfig::Coalesced, "coalesced"),
            (SchemeConfig::Split, "split"),
        ] {
            let scheme = cfg.build(96);
            assert_eq!(scheme.name(), name);
            assert_eq!(cfg.name(), name);
            assert_eq!(scheme.occupancy(), 0);
        }
        assert_eq!(SchemeConfig::default(), SchemeConfig::Cpu);
        assert_eq!(SchemeConfig::Cpu.build(64).capacity(), 64);
        assert_eq!(SchemeConfig::Split.build(64).capacity(), 104);
    }
}
