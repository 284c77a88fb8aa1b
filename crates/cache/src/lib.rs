//! The simulated first-level data cache.
//!
//! Models the paper's PA-8000-style cache (§3.2): a single-level,
//! **direct-mapped**, **virtually-indexed / physically-tagged**, 512 KB,
//! write-back, write-allocate cache with 32-byte lines. Hits cost a single
//! CPU cycle (folded into the instruction); misses produce bus traffic that
//! the machine model (`mtlb-sim`) prices via the memory controller
//! (`mtlb-mmc`).
//!
//! The instruction cache is assumed perfect, exactly as in the paper, so
//! only a data cache is modelled.
//!
//! Two properties matter for the shadow-memory mechanism:
//!
//! * cache tags hold **bus physical** addresses, which may be *shadow*
//!   addresses — the cache neither knows nor cares (paper §1: "they will
//!   appear as physical tags on cache lines");
//! * remapping a page from real to shadow addresses (or back) requires
//!   flushing its lines, because the tags change — [`DataCache::flush_page`]
//!   implements exactly the per-line walk whose cost the paper reports as
//!   ~1400 CPU cycles per 4 KB page (§3.3).
//!
//! # Example
//!
//! ```
//! use mtlb_cache::{AccessResult, CacheConfig, DataCache, FillKind};
//! use mtlb_types::{PhysAddr, VirtAddr};
//!
//! let mut cache = DataCache::new(CacheConfig::paper_default());
//! let va = VirtAddr::new(0x4080);
//! let pa = PhysAddr::new(0x8024_0080); // a shadow address: the cache doesn't care
//!
//! // Cold miss, shared fill:
//! match cache.access_read(va, pa) {
//!     AccessResult::Miss { fill, writeback } => {
//!         assert_eq!(fill, FillKind::Shared);
//!         assert!(writeback.is_none());
//!     }
//!     AccessResult::Hit => unreachable!("cold cache"),
//! }
//! // Now it hits:
//! assert_eq!(cache.access_read(va, pa), AccessResult::Hit);
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

mod cache;
mod config;
mod stats;

pub use cache::{AccessResult, DataCache, FillKind, FlushOutcome};
pub use config::{CacheConfig, CacheIndexing};
pub use stats::CacheStats;
