//! Core vocabulary types for the `shadow-superpages` simulator.
//!
//! This crate defines the small, widely-shared building blocks used by every
//! other crate in the workspace:
//!
//! * strongly-typed addresses ([`VirtAddr`], [`PhysAddr`], [`ShadowAddr`],
//!   [`RealAddr`]) and page numbers ([`Vpn`], [`Ppn`], [`Spn`]) so virtual,
//!   shadow and real physical addresses cannot be confused at compile time,
//! * page and superpage geometry ([`PageSize`], [`PAGE_SIZE`],
//!   [`CACHE_LINE_SIZE`]) matching the paper's 4 KB base pages and
//!   power-of-4 superpages (16 KB … 16 MB),
//! * simulated-time accounting ([`Cycles`], [`CPU_CYCLES_PER_BUS_CYCLE`]) for the paper's
//!   240 MHz CPU / 120 MHz bus split,
//! * page protection ([`Prot`]) and the precise fault vocabulary
//!   ([`Fault`]) raised by the TLB, MMC and OS models.
//!
//! # Example
//!
//! ```
//! use mtlb_types::{VirtAddr, PageSize, Cycles};
//!
//! let va = VirtAddr::new(0x0000_4080);
//! assert_eq!(va.vpn().index(), 0x4);
//! assert_eq!(va.page_offset(), 0x80);
//!
//! let sp = PageSize::Size16K;
//! assert_eq!(sp.bytes(), 16 * 1024);
//! assert_eq!(sp.base_pages(), 4);
//!
//! let t = Cycles::new(120) + Cycles::new(3);
//! assert_eq!(t.get(), 123);
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

mod addr;
mod cycles;
mod fastmap;
mod fault;
mod histogram;
mod page;
mod prot;
pub mod varint;

pub use addr::{PhysAddr, Ppn, RealAddr, ShadowAddr, Spn, VirtAddr, Vpn};
pub use cycles::{Cycles, CPU_CYCLES_PER_BUS_CYCLE};
pub use fastmap::{FastMap, FxHasher};
pub use fault::Fault;
pub use histogram::Histogram;
pub use page::{PageSize, CACHE_LINE_SHIFT, CACHE_LINE_SIZE, PAGE_SHIFT, PAGE_SIZE};
pub use prot::{AccessKind, PrivilegeLevel, Prot};
