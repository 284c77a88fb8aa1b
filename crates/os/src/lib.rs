//! The simulated operating system's virtual-memory layer.
//!
//! The paper's mechanism needs only "modest changes to the VM software"
//! (§1); this crate is that VM software:
//!
//! * [`Kernel`] — boot, region mapping, the `remap()` syscall that builds
//!   maximally-sized shadow-backed superpages (§2.3–2.4), the modified
//!   pre-allocating `sbrk()`, the software TLB miss handler, and demand
//!   paging with per-base-page dirty bits (§2.5, §4).
//! * [`BucketAllocator`] — the kernel's shadow address-space allocator
//!   (§2.4, Figure 2); [`BuddyAllocator`] — the buddy-system alternative
//!   §2.4 suggests, for the allocator ablation.
//! * [`AddressSpace`] — per-process page/superpage bookkeeping.
//! * [`SwapDevice`] / [`PagingPolicy`] — swap model contrasting
//!   per-base-page paging (this paper) with whole-superpage paging
//!   (conventional superpages).
//! * [`TimedMem`] — kernel memory accesses charged through the simulated
//!   cache and memory controller.
//!
//! # Example
//!
//! Building a kernel for a paper-default machine:
//!
//! ```
//! use mtlb_mmc::MmcConfig;
//! use mtlb_os::{Kernel, KernelConfig};
//!
//! let kernel = Kernel::new(MmcConfig::paper_default(256 << 20), KernelConfig::default(), 1);
//! assert!(kernel.shadow_available(mtlb_types::PageSize::Size16M) > 0);
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

mod access;
mod aspace;
mod kernel;
mod layout;
mod paging;
mod shadow_alloc;

pub use access::TimedMem;
pub use aspace::{AddressSpace, Backing, PageInfo, SuperpageInfo};
pub use kernel::{
    Kernel, KernelConfig, KernelCosts, KernelCtx, KernelStats, PromotionConfig, RemapReport,
    RemoteWork, ShootdownRequest, SwapOutReport,
};
pub use layout::{KernelLayout, UserLayout};
pub use paging::{PagingPolicy, SwapDevice};
pub use shadow_alloc::{BucketAllocator, BucketPartition, BuddyAllocator, ShadowAllocator};
