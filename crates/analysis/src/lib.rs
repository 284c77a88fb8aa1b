//! `mtlb-analysis` — the workspace invariant linter, as a library.
//!
//! Lexes the simulator's own Rust sources (dependency-free, offline)
//! and enforces six invariants deny-by-default. Each lint's exemptions
//! are named constants beside it that report themselves when stale;
//! there is no allowlist file.
//!
//! * **addr-domain** — no arithmetic or casts on bare integers in
//!   address-carrying code; the `ShadowAddr`/`RealAddr` typestate keeps
//!   shadow vs real confusion a type error, so code must stay in the
//!   typed domain.
//! * **counter-overflow** — unchecked `+=` on `u64` counters (fields of
//!   `pub struct …Stats`, plus the machine's own report counters)
//!   must be `saturating_add`/`checked_add` outside `Machine::charge`.
//! * **counter-symmetry** — every `pub struct …Stats` is exhaustively
//!   destructured by `Machine::audit` or named in
//!   [`lints::UNAUDITED_STATS`].
//! * **cycle-funnel** — cycle counters are mutated only inside
//!   `Machine::charge`, keeping the debug auditor's reconciliation
//!   sound.
//! * **panic-freedom** — no `unwrap`/`expect`/`panic!`-family calls in
//!   `macro_rules!` bodies of core crates: the one place clippy's
//!   restriction lints, which the core crates deny, cannot see.
//! * **shootdown-completeness** — every pub `Kernel` method that writes
//!   mapping state reaches `queue_shootdown` through the call graph, or
//!   is named in [`lints::SHOOTDOWN_EXEMPT`] (the paper's §2.5 pageout
//!   exemption).
//!
//! Determinism (no `HashMap`/`HashSet`, no wall clock, no hash-ordered
//! `FastMap` traversal) is clippy's job too: `crates/clippy.toml`.
//!
//! The structural machinery lives in [`items`] (functions, impl-block
//! owners, stats-struct fields) and [`callgraph`] (name-based
//! intra-workspace call edges); [`engine`] drives the whole pass and
//! renders text or schema-versioned JSON.

pub mod callgraph;
pub mod engine;
pub mod items;
pub mod lexer;
pub mod lints;
