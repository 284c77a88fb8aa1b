//! # shadow-superpages
//!
//! A full-system Rust reproduction of
//! *"Increasing TLB Reach Using Superpages Backed by Shadow Memory"*
//! (Swanson, Stoller & Carter, ISCA 1998): a cycle-accounting,
//! execution-driven simulator of a machine whose **memory controller
//! carries a second TLB (the MTLB)** that remaps *shadow* physical
//! addresses — physical addresses not backed by DRAM — onto arbitrary,
//! discontiguous real page frames. The OS can then build CPU-TLB
//! superpages out of any existing 4 KB mappings without copying a byte,
//! while keeping per-base-page referenced/dirty bits in the memory
//! controller.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`types`] — addresses, page sizes, cycles, protection, faults
//! * [`mem`] — guest DRAM and frame allocation
//! * [`cache`] — the 512 KB direct-mapped VIPT write-back data cache
//! * [`tlb`] — CPU TLB, micro-ITLB, hashed page table
//! * [`mmc`] — the memory controller with the MTLB and shadow tables
//! * [`os`] — the kernel VM layer (`remap`, `sbrk`, allocators, paging)
//! * [`sim`] — the assembled [`Machine`](sim::Machine)
//! * [`workloads`] — the paper's five benchmarks
//!
//! # Quick start
//!
//! ```
//! use shadow_superpages::sim::{Machine, MachineConfig};
//! use shadow_superpages::types::{Prot, VirtAddr, PAGE_SIZE};
//! use shadow_superpages::workloads::AccessExt;
//!
//! // The paper's machine: 64-entry CPU TLB + 128-entry 2-way MTLB.
//! let mut machine = Machine::new(MachineConfig::paper_mtlb(64));
//!
//! let base = VirtAddr::new(0x1000_0000);
//! machine.map_region(base, 64 * 1024, Prot::RW);     // sixteen 4 KB pages
//! let report = machine.remap(base, 64 * 1024);       // one 64 KB superpage
//! assert_eq!(report.superpages.len(), 1);
//!
//! machine.write::<u64>(base + 5 * PAGE_SIZE, 42);
//! assert_eq!(machine.read::<u64>(base + 5 * PAGE_SIZE), 42);
//! ```
//!
//! See `examples/` for runnable demonstrations and the `repro` binary in
//! `crates/bench` for the paper's full evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mtlb_cache as cache;
pub use mtlb_mem as mem;
pub use mtlb_mmc as mmc;
pub use mtlb_os as os;
pub use mtlb_sim as sim;
pub use mtlb_tlb as tlb;
pub use mtlb_types as types;
pub use mtlb_workloads as workloads;
