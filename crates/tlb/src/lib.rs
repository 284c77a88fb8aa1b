//! CPU-side address translation: the processor TLB and its software fill
//! machinery.
//!
//! Models the paper's processor MMU (§3.2):
//!
//! * [`CpuTlb`] — a unified instruction/data TLB: fully associative,
//!   single-cycle, **not-recently-used (NRU)** replacement, with each entry
//!   independently mapping a 4 KB page or a power-of-4 superpage
//!   (16 KB … 16 MB). Kernel text/data are covered by *locked block
//!   entries* that are never replaced.
//! * [`MicroItlb`] — the single-entry micro-ITLB holding the most recent
//!   instruction translation.
//! * [`HashedPageTable`] — the HP PA-RISC-style hashed page table (16 K
//!   buckets × 16-byte PTEs by default) that the software miss handler
//!   walks. The table lives in **guest physical memory**: every probe is
//!   performed through the [`PteMemory`] trait so the machine model can
//!   route PTE reads through the simulated cache — reproducing the §3.5
//!   observation that CPU TLB refills benefit from cached page tables.
//! * [`SlotTlb`] — the one slot store behind every translation front
//!   end: NRU slots, locked entries, an exact page map for O(1) lookup,
//!   purges and statistics. [`CpuTlb`] is the store over plain
//!   [`TlbEntry`]s; the rival designs (coalescing, split and
//!   complete-subblock TLBs) in `mtlb-schemes` are the store over their
//!   own [`SlotEntry`] types.
//! * [`TranslationScheme`] — the trait the machine drives every
//!   translation front end through, implemented once by [`SlotTlb`].
//!
//! Nothing in this crate knows about shadow addresses: the TLB maps
//! virtual pages to *bus* physical pages, which may equally be real DRAM
//! or shadow regions. That opacity is the heart of the paper's design —
//! the CPU MMU is completely unmodified.
//!
//! # Example
//!
//! ```
//! use mtlb_tlb::{CpuTlb, LookupOutcome, TlbEntry, TranslationScheme};
//! use mtlb_types::{AccessKind, PageSize, PhysAddr, PrivilegeLevel, Ppn, Prot, VirtAddr, Vpn};
//!
//! let mut tlb = CpuTlb::new(64);
//! // Map the 16 KB superpage at VA 0x4000 to shadow frame 0x80240 (Figure 1).
//! tlb.insert(TlbEntry::new(
//!     Vpn::new(0x4),
//!     Ppn::new(0x80240),
//!     PageSize::Size16K,
//!     Prot::RW,
//! ).expect("aligned"));
//!
//! let out = tlb.translate(
//!     VirtAddr::new(0x0000_4080),
//!     AccessKind::Read,
//!     PrivilegeLevel::User,
//! );
//! assert_eq!(out, LookupOutcome::Hit(PhysAddr::new(0x8024_0080)));
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

mod cpu_tlb;
mod entry;
mod hpt;
mod micro_itlb;
mod scheme;
mod store;

pub use cpu_tlb::CpuTlb;
pub use entry::TlbEntry;
pub use hpt::{HashedPageTable, HptConfig, HptFull, HptLookup, HptStats, Pte, PteMemory};
pub use micro_itlb::MicroItlb;
pub use scheme::{ContigInfo, TranslationScheme};
pub use store::{LookupOutcome, SlotEntry, SlotTlb, TlbStats};
