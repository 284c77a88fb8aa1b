//! Experiment drivers regenerating the paper's evaluation (§3).
//!
//! Each public function in [`experiments`] reproduces one table or figure
//! and returns structured rows; the `repro` binary prints them in the
//! paper's format and the repo benchmark (`benchmark/`) times the same
//! drivers at paper scale.
//!
//! | Paper artefact | Driver |
//! |---|---|
//! | Figure 2 (shadow-space partition) | [`experiments::fig2`] |
//! | Figure 3 (normalised runtimes, TLB-miss fractions) | [`experiments::fig3`] |
//! | Figure 4A (em3d runtime vs MTLB geometry) | [`experiments::fig4`] |
//! | Figure 4B (avg time per cache fill) | [`experiments::fig4`] |
//! | §3.3 (remap / flush / copy costs) | [`experiments::init_costs`] |
//! | §2.5 (per-base-page vs whole-superpage paging) | [`experiments::paging`] |
//! | §3.4 headline (64+MTLB ≈ 128 without) | derived from [`experiments::fig3`] |
//! | §2.4 allocator discussion (buckets vs buddy) | [`experiments::allocator_ablation`] |
//! | §3.4 note (ref/dirty write-back cost) | [`experiments::bit_writeback_ablation`] |
//! | §1 premise (discontiguous frames are free) | [`experiments::fragmentation_ablation`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod runner;
pub mod table;
