//! Guest DRAM storage and physical frame allocation.
//!
//! This crate provides the *functional* half of the simulated memory
//! system: it stores real bytes so that workloads genuinely compute (the
//! radix sort really sorts, the compressor really compresses). All
//! *timing* lives in `mtlb-mmc` and `mtlb-sim`.
//!
//! * [`GuestMemory`] — a sparse, page-granular byte store representing
//!   installed DRAM. Pages materialise zero-filled on first touch.
//! * [`FrameAllocator`] — hands out 4 KB physical frames. It can
//!   deliberately *scramble* allocation order to reproduce the paper's
//!   premise that real pages end up dispersed throughout memory, which is
//!   exactly what shadow superpages tolerate and conventional superpages
//!   do not.
//!
//! # Example
//!
//! ```
//! use mtlb_mem::{FrameAllocator, FrameOrder, GuestMemory};
//! use mtlb_types::PhysAddr;
//!
//! let mut dram = GuestMemory::new(64 * 1024 * 1024); // 64 MB installed
//! let mut frames = FrameAllocator::new(0x100, 1024, FrameOrder::Scrambled { seed: 7 });
//!
//! let f = frames.alloc().unwrap();
//! let addr = f.base_addr();
//! dram.write_u32(addr, 0xdead_beef);
//! assert_eq!(dram.read_u32(addr), 0xdead_beef);
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

mod frame;
mod guest;

pub use frame::{FrameAllocator, FrameOrder};
pub use guest::GuestMemory;
