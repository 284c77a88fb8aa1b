//! The execution-driven machine model.
//!
//! [`Machine`] assembles the full simulated system of the paper's §3.2 —
//! single-issue 240 MHz CPU, unified software-filled TLB with micro-ITLB
//! and a locked kernel block entry, 512 KB direct-mapped VIPT write-back
//! data cache (perfect I-cache), 120 MHz Runway-style bus, HP-style MMC
//! with an optional **memory-controller TLB**, and a microkernel VM layer —
//! and exposes an execution-driven programming interface: workloads
//! allocate memory through kernel services and perform genuine loads,
//! stores and instruction fetches, every one of which is routed through
//! the simulated translation and memory hierarchy with cycle-accurate
//! accounting.
//!
//! Timing is attributed to buckets (user compute, TLB miss handling,
//! memory stalls, kernel services, fault handling), which is exactly the
//! decomposition the paper's Figure 3 plots.
//!
//! # Example
//!
//! ```
//! use mtlb_sim::{Machine, MachineConfig};
//! use mtlb_types::{Prot, VirtAddr};
//!
//! // The paper's MTLB system with a 64-entry CPU TLB.
//! let mut m = Machine::new(MachineConfig::paper_mtlb(64));
//! let base = VirtAddr::new(0x1000_0000);
//! m.map_region(base, 64 * 1024, Prot::RW);
//! m.remap(base, 64 * 1024); // promote to a shadow superpage
//!
//! m.try_write(base + 0x2468, 42u32).unwrap();
//! assert_eq!(m.try_read::<u32>(base + 0x2468).unwrap(), 42);
//! m.try_execute(1_000).unwrap(); // burn some instructions
//!
//! let report = m.report();
//! assert!(report.total_cycles.get() > 0);
//! ```

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

mod config;
mod machine;
pub mod ops;
mod report;
mod scalar;

pub use config::MachineConfig;
pub use machine::Machine;
pub use ops::{MachineOp, OpSink, VecOpSink};
pub use report::{CoreStats, RunReport, TimeBuckets};
pub use scalar::Scalar;
