//! The main memory controller (MMC) with its memory-controller TLB
//! (MTLB) — the paper's central hardware contribution (§2.2).
//!
//! The MMC watches every cache fill request and writeback on the bus and
//! classifies the bus physical address:
//!
//! * **real** addresses (below installed DRAM) pass straight through;
//! * **shadow** addresses (inside the configured shadow range, a region
//!   of physical address space *not* backed by DRAM) are retranslated,
//!   base-page by base-page, to real frames via the MTLB;
//! * anything else is a bus error.
//!
//! The MTLB is a small set-associative cache of the **flat shadow page
//! table** — a dense array of 4-byte entries in DRAM, indexed directly by
//! shadow page offset, so a hardware fill is a single DRAM read (no walk).
//! Entries carry the real page frame plus *valid*, *fault*, *referenced*
//! and *dirty* bits (§2.2's 4-byte entry layout), which is what lets the
//! OS page shadow-backed superpages one base page at a time (§2.5).
//!
//! Timing follows the paper's conservative assumptions: when an MTLB is
//! present, the shadow/real classification adds **one MMC cycle to every
//! MMC operation**; an MTLB miss adds one DRAM access to read the mapping
//! entry (§3.5, Figure 4B).
//!
//! # Example
//!
//! ```
//! use mtlb_mem::GuestMemory;
//! use mtlb_mmc::{BusOp, Mmc, MmcConfig, ShadowPte};
//! use mtlb_types::{PhysAddr, Ppn};
//!
//! let mut mem = GuestMemory::new(64 << 20);
//! let mut mmc = Mmc::new(MmcConfig::paper_default(64 << 20));
//!
//! // OS: back shadow page 0 with real frame 0x1234.
//! mmc.set_mapping(0, ShadowPte::present(Ppn::new(0x1234)), &mut mem);
//!
//! // A cache fill for shadow address 0x80000040 lands on real 0x1234040.
//! let resp = mmc
//!     .bus_access(PhysAddr::new(0x8000_0040), BusOp::FillShared, &mut mem)
//!     .expect("mapped");
//! assert_eq!(resp.real_pa, PhysAddr::new(0x0123_4040));
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

mod controller;
mod mtlb;
mod shadow;
mod stats;
mod stream;
mod timing;

pub use controller::{BusOp, BusResponse, Mmc, MmcConfig, TABLE_BASE};
pub use mtlb::{Mtlb, MtlbConfig};
pub use shadow::{ShadowPte, ShadowRange};
pub use stats::MmcStats;
pub use stream::{StreamBuffers, StreamStats};
pub use timing::MmcTiming;
