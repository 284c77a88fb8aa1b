//! Rival TLB-reach designs behind the [`TranslationScheme`] trait.
//!
//! The paper's machine always translates through the fully-associative
//! NRU [`CpuTlb`] (`mtlb-tlb`); this crate supplies the competitors the
//! fig5 experiment and the §5 related-work table pit against it on
//! identical address streams (each cell is a sweep job, run live; the
//! streams are identical because the workloads are deterministic and
//! configuration-independent):
//!
//! * [`CoalescedTlb`] — detects contiguous VPN→PFN runs at fill time
//!   and stores them as ranged entries (Ban et al., arXiv:1908.08774).
//!   Earns reach from whatever physical contiguity the frame allocator
//!   produces naturally.
//! * [`SplitTlb`] — a multi-page-size split TLB with fixed cpuid-style
//!   per-size-class arrays (64×4-way @ 4 KB, 32×4-way mid, 8 FA
//!   large). Earns reach only when the OS actually maps superpages.
//! * [`SubblockTlb`] — Talluri & Hill's complete-subblock TLB, the
//!   design the paper's §5 sets itself against: one entry per 64 KB
//!   block with a frame per 4 KB subblock, so discontiguous frames share
//!   an entry without any help from the OS.
//!
//! All three are the `mtlb-tlb` slot store
//! ([`SlotTlb`](mtlb_tlb::SlotTlb)) over their own entry type, as the
//! paper's [`CpuTlb`] is: the store's NRU install (the paper TLB's
//! policy, so the comparison isolates reach, not replacement), page-map
//! lookup, purges, occupancy, reach and `reach_demand` serve them all.
//! Each rival's module supplies only its entry type: the range its tag
//! covers, the entry it translates a page through, its reach and its
//! fill (split also its set geometry and set-local victim choice).
//! Their locked kernel block entries are a side list beside the
//! capacity (PA-RISC block-TLB style).
//!
//! [`SchemeConfig`] is the serializable selector the machine
//! configuration carries; its [`build`](SchemeConfig::build) factory
//! constructs the chosen front end, and [`SchemeConfig::ALL`] lists every
//! front end for the tests that must cover each one.

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
mod subblock;

pub use coalesced::{CoalescedTlb, MAX_COALESCE};
pub use split::SplitTlb;
pub use subblock::SubblockTlb;

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
    /// Complete-subblock TLB ([`SubblockTlb`]; the configured entry
    /// count is the number of 64 KB blocks).
    Subblock,
}

impl SchemeConfig {
    /// Every front end. The per-scheme tests (conformance, the
    /// machine-level audit, the fast-path differential, the shootdown
    /// table) iterate this list, so a new variant is covered by all of
    /// them once it is listed here.
    pub const ALL: [SchemeConfig; 4] = [
        SchemeConfig::Cpu,
        SchemeConfig::Coalesced,
        SchemeConfig::Split,
        SchemeConfig::Subblock,
    ];

    /// Short stable identifier (matches
    /// [`TranslationScheme::name`]).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SchemeConfig::Cpu => "cpu",
            SchemeConfig::Coalesced => "coalesced",
            SchemeConfig::Split => "split",
            SchemeConfig::Subblock => "subblock",
        }
    }

    /// Builds the selected front end. `entries` sizes the schemes with
    /// a configurable capacity (`Cpu`, `Coalesced`, `Subblock`); the
    /// split TLB's geometry is fixed by design.
    #[must_use]
    pub fn build(&self, entries: usize) -> Box<dyn TranslationScheme> {
        match self {
            SchemeConfig::Cpu => Box::new(CpuTlb::new(entries)),
            SchemeConfig::Coalesced => Box::new(CoalescedTlb::new(entries)),
            SchemeConfig::Split => Box::new(split::new()),
            SchemeConfig::Subblock => Box::new(SubblockTlb::new(entries)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_the_named_scheme() {
        for cfg in SchemeConfig::ALL {
            let scheme = cfg.build(96);
            assert_eq!(scheme.name(), cfg.name());
            assert_eq!(scheme.occupancy(), 0);
        }
        let names = SchemeConfig::ALL.map(|cfg| cfg.name());
        assert_eq!(names, ["cpu", "coalesced", "split", "subblock"]);
        assert_eq!(SchemeConfig::default(), SchemeConfig::Cpu);
        assert_eq!(SchemeConfig::Cpu.build(64).capacity(), 64);
        assert_eq!(SchemeConfig::Subblock.build(64).capacity(), 64);
        assert_eq!(SchemeConfig::Split.build(64).capacity(), 104);
    }
}
