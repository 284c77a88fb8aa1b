//! The paper's five benchmark workloads (§3.1), re-implemented as
//! execution-driven programs over the simulated [`Machine`].
//!
//! Each workload performs its benchmark's *actual computation* — the
//! compressor really LZW-compresses, the sorter really radix-sorts, the
//! graph solver really relaxes — with every load, store and instruction
//! routed through the simulated TLB/cache/MMC hierarchy, at footprints
//! matching the paper's descriptions:
//!
//! | Workload | Paper description | Here |
//! |---|---|---|
//! | [`Compress95`] | SPECint95 LZW; ~440 KB hash+code tables accessed "in a relatively random manner", 3 × ~1 MB buffers, 2 compress/decompress cycles | identical structure, deterministic pseudo-text input |
//! | [`Vortex`] | SPECint95 OODB; ~9 MB of databases + ~10 MB transaction churn, all superpage creation via the modified `sbrk()` | hash-indexed object store with pointer-chasing transactions |
//! | [`Radix`] | SPLASH-2 LSD radix sort; 2²⁰ keys, 8.4 MB, radix 1024 | identical algorithm, histogram + scattered permutation |
//! | [`Em3d`] | 3-D electromagnetic propagation; 6000 nodes, 4.5 MB, worst cache behaviour of the five | bipartite E/H graph relaxation with random remote neighbours |
//! | [`Cc1`] | gcc 2.5.3 `cc1`; heap via `sbrk`, pointer-heavy AST passes | lex/parse → AST build → constant folding → code generation over malloc'd nodes |
//!
//! A sixth workload, [`Oltp`], goes beyond the paper's suite: a B+-tree
//! transaction mix over a database several times larger than any of the
//! five, testing the paper's §1 prediction that commercial working sets
//! benefit even more.
//!
//! Every workload is parameterised with a [`Scale`]: `Paper` reproduces
//! the §3.1 run sizes; `Test` shrinks them for fast unit/integration
//! tests.
//!
//! # Example
//!
//! ```
//! use mtlb_sim::{Machine, MachineConfig};
//! use mtlb_workloads::{Radix, Scale, Workload};
//!
//! let mut machine = Machine::new(MachineConfig::paper_mtlb(64));
//! let mut radix = Radix::new(Scale::Test);
//! let outcome = radix.run(&mut machine);
//! assert!(outcome.verified);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod cc1;
mod common;
mod compress;
mod em3d;
mod oltp;
mod radix;
mod vortex;

pub use access::AccessExt;
pub use cc1::Cc1;
pub use common::Heap;
pub use compress::Compress95;
pub use em3d::Em3d;
pub use oltp::Oltp;
pub use radix::Radix;
pub use vortex::Vortex;

use mtlb_sim::Machine;

/// Run-size selector for workloads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scale {
    /// Small inputs for fast tests (seconds of wall clock).
    Test,
    /// The paper's §3.1 run sizes.
    #[default]
    Paper,
}

/// Outcome of one workload run; the default is an unverified one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// A deterministic digest of the computation's result, for
    /// cross-configuration equality checks (the same workload must
    /// compute the same answer on every machine).
    pub checksum: u64,
    /// Whether the workload's internal self-check passed (e.g. the radix
    /// output really is sorted, the decompressed text matches).
    pub verified: bool,
}

/// A benchmark program runnable on a simulated [`Machine`].
pub trait Workload {
    /// Short name matching the paper ("compress95", "radix", …).
    fn name(&self) -> &'static str;

    /// Maps its memory, performs its remaps, runs to completion.
    fn run(&mut self, machine: &mut Machine) -> Outcome;
}

/// Constructs the paper's five benchmarks at the given scale, in the
/// order Figure 3 lists them.
#[must_use]
pub fn paper_suite(scale: Scale) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Compress95::new(scale)),
        Box::new(Em3d::new(scale)),
        Box::new(Radix::new(scale)),
        Box::new(Vortex::new(scale)),
        Box::new(Cc1::new(scale)),
    ]
}

/// Convenience: run `workload` on a fresh machine of the given
/// configuration and return `(outcome, report)`.
pub fn run_on(
    mut workload: impl Workload,
    config: mtlb_sim::MachineConfig,
) -> (Outcome, mtlb_sim::RunReport) {
    let mut machine = Machine::new(config);
    let outcome = workload.run(&mut machine);
    (outcome, machine.report())
}
