//! `mtlb-analysis` — the workspace invariant linter, as a library.
//!
//! Lexes the simulator's own Rust sources (dependency-free, offline)
//! and enforces seven invariants deny-by-default, with violations
//! either fixed or justified in the checked-in
//! `analysis-allowlist.toml`:
//!
//! * **addr-domain** — no arithmetic or casts on bare integers in
//!   address-carrying code; the `ShadowAddr`/`RealAddr` typestate keeps
//!   shadow vs real confusion a type error, so code must stay in the
//!   typed domain.
//! * **counter-overflow** — unchecked `+=` on `u64` counters (fields of
//!   `pub struct …Stats`, plus the machine's own report counters)
//!   must be `saturating_add`/`checked_add` outside `Machine::charge`.
//! * **counter-symmetry** — every `pub struct …Stats` is exhaustively
//!   destructured by `Machine::audit` (or allowlisted with a reason).
//! * **cycle-funnel** — cycle counters are mutated only inside
//!   `Machine::charge`, keeping the debug auditor's reconciliation
//!   sound.
//! * **determinism** — report-feeding crates use no
//!   `std::collections::HashMap`/`HashSet`, read no wall clock
//!   (`Instant`/`SystemTime`), and never iterate a `FastMap` through
//!   hash-ordered adapters; the bench wall-clock perimeter is the sole
//!   allowlisted exception.
//! * **panic-freedom** — no `unwrap`/`expect`/`panic!`-family calls in
//!   core simulator crates outside `#[cfg(test)]` regions.
//! * **shootdown-completeness** — every pub `Kernel` method that writes
//!   mapping state reaches `queue_shootdown` through the call graph, or
//!   carries an allowlist entry (the paper's §2.5 pageout exemption).
//!
//! The structural machinery lives in [`items`] (functions, impl-block
//! owners, stats-struct fields) and [`callgraph`] (name-based
//! intra-workspace call edges); [`engine`] drives the whole pass and
//! renders text or schema-versioned JSON.

pub mod allowlist;
pub mod callgraph;
pub mod engine;
pub mod items;
pub mod lexer;
pub mod lints;
