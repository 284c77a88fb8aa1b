//! The workspace invariant lints.
//!
//! All lints run over the token stream of [`crate::lexer`] and report
//! [`Diagnostic`]s with 1-based `file:line:col` positions. Violations
//! inside `#[cfg(test)]` spans are never reported — test code may
//! panic and do raw arithmetic freely. The three call-graph-aware
//! lints (shootdown-completeness, determinism, counter-overflow)
//! additionally consume the item layer of [`crate::items`] and the
//! name-based graph of [`crate::callgraph`].

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::lexer::{fn_span, in_spans, Token};

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Lint name (`addr-domain`, `counter-overflow`, `counter-symmetry`,
    /// `cycle-funnel`, `determinism`, `panic-freedom`,
    /// `shootdown-completeness`).
    pub lint: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable message.
    pub msg: String,
}

/// Binary arithmetic operators that move an integer out of the address
/// domain. Comparisons are deliberately excluded (ordering addresses is
/// fine); so are the compound-assignment forms (they cannot follow a
/// method call).
const ARITH_AFTER: [&str; 9] = ["+", "-", "*", "/", "%", "<<", ">>", "&", "^"];

/// Operators flagged *inside* newtype constructor parentheses. `&`, `|`
/// and `^` are permitted there (mask composition of already-computed
/// fields); shifts and add/sub/mul/div are how offset bugs happen.
const ARITH_INSIDE: [&str; 7] = ["+", "-", "*", "/", "%", "<<", ">>"];

/// The typed address/page-number constructors whose arguments must be
/// pre-computed values, not inline arithmetic.
const NEWTYPES: [&str; 6] = ["VirtAddr", "PhysAddr", "ShadowAddr", "Vpn", "Ppn", "Spn"];

/// Address-domain lint: flags arithmetic on bare integers freshly
/// unwrapped from an address or page-number newtype, and arithmetic
/// written inline inside a newtype constructor call. Both patterns are
/// where shadow/real confusion hides; the typed helpers
/// (`offset`, `offset_from`, `align_down_to`, `ShadowAddr::bus`, …)
/// keep the domain visible to the type checker.
pub fn addr_domain(path: &str, tokens: &[Token], skip: &[(u32, u32)], out: &mut Vec<Diagnostic>) {
    for i in 0..tokens.len() {
        // `.get()` / `.index()` immediately followed by arithmetic or a
        // cast: the raw integer escapes the newtype and is computed on.
        if (tokens[i].text == "get" || tokens[i].text == "index")
            && i >= 1
            && tokens[i - 1].text == "."
            && tokens.get(i + 1).is_some_and(|t| t.text == "(")
            && tokens.get(i + 2).is_some_and(|t| t.text == ")")
        {
            if let Some(next) = tokens.get(i + 3) {
                let flagged = ARITH_AFTER.contains(&next.text.as_str()) || next.text == "as";
                if flagged && !in_spans(skip, tokens[i].line) {
                    out.push(Diagnostic {
                        lint: "addr-domain",
                        path: path.into(),
                        line: tokens[i].line,
                        col: tokens[i].col,
                        msg: format!(
                            "arithmetic/cast on the bare integer from `.{}()`; \
                             use the typed helpers (offset, offset_from, align_down_to) \
                             or let-bind with a justifying comment",
                            tokens[i].text
                        ),
                    });
                }
            }
        }
        // Inline arithmetic inside `VirtAddr::new(…)` and friends: the
        // computation happens in no domain at all.
        if NEWTYPES.contains(&tokens[i].text.as_str())
            && tokens.get(i + 1).is_some_and(|t| t.text == "::")
            && tokens.get(i + 2).is_some_and(|t| t.text == "new")
            && tokens.get(i + 3).is_some_and(|t| t.text == "(")
        {
            let mut depth = 0usize;
            let mut j = i + 3;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    op if depth >= 1 && ARITH_INSIDE.contains(&op) => {
                        // Only binary position: `*x` (deref) and `-1`
                        // (negation) follow a delimiter or operator,
                        // never a value.
                        let binary = j >= 1
                            && (matches!(tokens[j - 1].kind, crate::lexer::TokKind::Ident)
                                || matches!(tokens[j - 1].kind, crate::lexer::TokKind::Num)
                                || tokens[j - 1].text == ")"
                                || tokens[j - 1].text == "]");
                        if binary && !in_spans(skip, tokens[j].line) {
                            out.push(Diagnostic {
                                lint: "addr-domain",
                                path: path.into(),
                                line: tokens[j].line,
                                col: tokens[j].col,
                                msg: format!(
                                    "raw `{}` arithmetic inside `{}::new(…)`; compute in \
                                     the typed domain and convert at the boundary",
                                    op, tokens[i].text
                                ),
                            });
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }
}

/// The functions of `crates/sim/src/machine.rs` sanctioned to replay
/// component hit counters with `.note_fast_hits(…)`.
pub const REPLAY_SITES: [&str; 2] = ["memo_access", "stream"];

/// Line spans of the [`REPLAY_SITES`] functions in `tokens`, for
/// [`cycle_funnel`]. With `required` (the machine source itself), a
/// name that matches no function is reported like a stale allowlist
/// entry: it sanctions nothing today and would silently exempt any
/// future function of that name.
pub fn replay_spans(
    path: &str,
    tokens: &[Token],
    required: bool,
    out: &mut Vec<Diagnostic>,
) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    for name in REPLAY_SITES {
        match fn_span(tokens, name) {
            Some(span) => spans.push(span),
            None if required => out.push(Diagnostic {
                lint: "cycle-funnel",
                path: path.into(),
                line: 1,
                col: 1,
                msg: format!(
                    "stale sanctioned fast-hit replay site: no `fn {name}` in this file — \
                     remove it from `REPLAY_SITES`"
                ),
            }),
            None => {}
        }
    }
    spans
}

/// Cycle-funnel lint: every mutation of a `buckets.<field>` cycle
/// counter must go through `Machine::charge` — the one place that pairs
/// the charge with its trace event, so the debug auditor can reconcile
/// buckets against component counters.
///
/// The host fast paths add a second funnel concern: replaying
/// component hit counters via `.note_fast_hits(…)` skips the real
/// lookup path, so any call site outside the sanctioned entry points
/// (`replay_spans`: the translation memo and the batch planner, see
/// [`REPLAY_SITES`]) would let simulated statistics drift from the
/// slow path silently.
pub fn cycle_funnel(
    path: &str,
    tokens: &[Token],
    skip: &[(u32, u32)],
    charge_span: Option<(u32, u32)>,
    replay_spans: &[(u32, u32)],
    out: &mut Vec<Diagnostic>,
) {
    for i in 0..tokens.len() {
        if tokens[i].text == "buckets"
            && tokens.get(i + 1).is_some_and(|t| t.text == ".")
            && tokens
                .get(i + 3)
                .is_some_and(|t| matches!(t.text.as_str(), "+=" | "-=" | "="))
        {
            let line = tokens[i].line;
            let in_charge = charge_span.is_some_and(|(a, b)| line >= a && line <= b);
            if !in_charge && !in_spans(skip, line) {
                out.push(Diagnostic {
                    lint: "cycle-funnel",
                    path: path.into(),
                    line,
                    col: tokens[i].col,
                    msg: format!(
                        "cycle counter `buckets.{}` mutated outside the `Machine::charge` funnel",
                        tokens[i + 2].text
                    ),
                });
            }
        }
        // `.note_fast_hits(` — a method *call* (the `fn note_fast_hits`
        // definitions in the component crates are preceded by `fn`, not
        // `.`, and never match).
        if tokens[i].text == "note_fast_hits"
            && i >= 1
            && tokens[i - 1].text == "."
            && tokens.get(i + 1).is_some_and(|t| t.text == "(")
        {
            let line = tokens[i].line;
            if !in_spans(replay_spans, line) && !in_spans(skip, line) {
                out.push(Diagnostic {
                    lint: "cycle-funnel",
                    path: path.into(),
                    line,
                    col: tokens[i].col,
                    msg: format!(
                        "fast-hit counter replay `.note_fast_hits(…)` outside the \
                         sanctioned entry points (`{}`)",
                        REPLAY_SITES.join("`/`")
                    ),
                });
            }
        }
    }
}

/// Panic-freedom lint: `unwrap`/`expect`/`panic!`-family calls in core
/// simulator code must either become typed `Fault` returns or carry a
/// justified allowlist entry. Asserts are allowed (they state
/// invariants, not control flow); `unwrap_or`, `unwrap_or_else` and
/// `unwrap_or_default` never match (identifier-exact comparison).
pub fn panic_freedom(path: &str, tokens: &[Token], skip: &[(u32, u32)], out: &mut Vec<Diagnostic>) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if in_spans(skip, t.line) {
            continue;
        }
        let method_call =
            i >= 1 && tokens[i - 1].text == "." && tokens.get(i + 1).is_some_and(|n| n.text == "(");
        let bang_macro = tokens.get(i + 1).is_some_and(|n| n.text == "!");
        let hit = match t.text.as_str() {
            "unwrap" | "expect" => method_call,
            "panic" | "unreachable" | "todo" | "unimplemented" => bang_macro,
            _ => false,
        };
        if hit {
            let what = if method_call {
                format!(".{}()", t.text)
            } else {
                format!("{}!", t.text)
            };
            out.push(Diagnostic {
                lint: "panic-freedom",
                path: path.into(),
                line: t.line,
                col: t.col,
                msg: format!(
                    "`{what}` in core simulator code; return a typed Fault or add a \
                     justified allowlist entry"
                ),
            });
        }
    }
}

/// A `pub struct …Stats` found while scanning the workspace.
#[derive(Clone, Debug)]
pub struct StatsStruct {
    /// Struct name (ends in `Stats`).
    pub name: String,
    /// Repo-relative defining file.
    pub path: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Column of the name.
    pub col: u32,
}

/// Finds every `pub struct <X>Stats` definition in a file.
pub fn find_stats_structs(path: &str, tokens: &[Token], out: &mut Vec<StatsStruct>) {
    for i in 0..tokens.len() {
        if tokens[i].text == "pub"
            && tokens.get(i + 1).is_some_and(|t| t.text == "struct")
            && tokens
                .get(i + 2)
                .is_some_and(|t| t.text.ends_with("Stats") && t.text != "Stats")
        {
            out.push(StatsStruct {
                name: tokens[i + 2].text.clone(),
                path: path.into(),
                line: tokens[i + 2].line,
                col: tokens[i + 2].col,
            });
        }
    }
}

/// Names of structs destructured **exhaustively** (no `..` rest pattern)
/// inside the given line span — used on the body of `Machine::audit`.
#[must_use]
pub fn exhaustive_destructures(tokens: &[Token], span: (u32, u32)) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.line < span.0 || t.line > span.1 {
            continue;
        }
        if t.kind == crate::lexer::TokKind::Ident
            && t.text.chars().next().is_some_and(char::is_uppercase)
            && tokens.get(i + 1).is_some_and(|n| n.text == "{")
        {
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut has_rest = false;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    ".." | "..=" => has_rest = true,
                    _ => {}
                }
                j += 1;
            }
            if !has_rest {
                names.push(t.text.clone());
            }
        }
    }
    names
}

/// Counter-symmetry lint: every `pub struct …Stats` in the core crates
/// must be reconciled by the debug cycle auditor — destructured without
/// `..` inside `Machine::audit` so that adding a counter field without
/// deciding its audit story becomes a compile error — or carry an
/// allowlist entry explaining why it stays outside the audit.
pub fn counter_symmetry(structs: &[StatsStruct], audited: &[String], out: &mut Vec<Diagnostic>) {
    for s in structs {
        if !audited.iter().any(|a| a == &s.name) {
            out.push(Diagnostic {
                lint: "counter-symmetry",
                path: s.path.clone(),
                line: s.line,
                col: s.col,
                msg: format!(
                    "stats struct `{}` is not exhaustively destructured in `Machine::audit`; \
                     reconcile it there or allowlist it with a reason",
                    s.name
                ),
            });
        }
    }
}

// --------------------------------------------------------------------
// Shootdown-completeness (call-graph-aware)
// --------------------------------------------------------------------

/// One function of the os crate, annotated with its shootdown-relevant
/// sinks — input to [`shootdown_completeness`].
#[derive(Clone, Debug)]
pub struct KernelFn {
    /// Repo-relative defining file.
    pub path: String,
    /// Function name.
    pub name: String,
    /// Self type of the enclosing impl block, if any.
    pub owner: Option<String>,
    /// Whether the function is `pub`.
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Column of the function name.
    pub col: u32,
    /// First direct mapping-state mutation sink in the body, as a
    /// human-readable label (`hpt.insert`, `set_mapping`, …).
    pub mutation: Option<String>,
    /// Whether the body directly queues or pushes a shootdown.
    pub shoots: bool,
}

/// Token patterns that count as *writing mapping state*: HPT bucket
/// writes, MMC shadow-table writes, address-space PTE/superpage-table
/// writes, and the kernel's shadow-region reverse map.
const MUTATION_METHODS: [&str; 6] = [
    "set_mapping",
    "map_page",
    "remap_page",
    "unmap_page",
    "add_superpage",
    "remove_superpage",
];

/// Receivers whose `.insert(…)`/`.remove(…)` calls are mapping-state
/// writes (other receivers — `Vec`, pools, counters — are not).
const MUTATION_RECEIVERS: [&str; 2] = ["hpt", "shadow_regions"];

/// Scans a function body for the shootdown lint's sinks: the first
/// direct mapping-state mutation (if any) and whether the body queues
/// a shootdown (`queue_shootdown(…)` call or a direct
/// `pending_shootdowns.push(…)`).
#[must_use]
pub fn shootdown_sinks(tokens: &[Token], body: (usize, usize)) -> (Option<String>, bool) {
    let mut mutation: Option<String> = None;
    let mut shoots = false;
    let end = body.1.min(tokens.len().saturating_sub(1));
    for i in body.0..=end {
        let t = &tokens[i];
        let method_call =
            i >= 1 && tokens[i - 1].text == "." && tokens.get(i + 1).is_some_and(|n| n.text == "(");
        if !method_call {
            continue;
        }
        match t.text.as_str() {
            "insert" | "remove"
                if i >= 2
                    && MUTATION_RECEIVERS.contains(&tokens[i - 2].text.as_str())
                    && mutation.is_none() =>
            {
                mutation = Some(format!("{}.{}", tokens[i - 2].text, t.text));
            }
            m if MUTATION_METHODS.contains(&m) && mutation.is_none() => {
                mutation = Some(m.to_string());
            }
            "push" if i >= 2 && tokens[i - 2].text == "pending_shootdowns" => shoots = true,
            "queue_shootdown" => shoots = true,
            _ => {}
        }
    }
    (mutation, shoots)
}

/// Shootdown-completeness lint: every **pub** method of `impl Kernel`
/// that writes mapping state — directly or through any helper it can
/// reach in the call graph — must also reach a shootdown queue site
/// (`queue_shootdown` / `pending_shootdowns.push`) or carry an
/// allowlist entry. The per-base-page pageout path (§2.5) deliberately
/// shoots nothing — the superpage TLB entry stays valid across
/// pageout — which is why the *entry points* carry the obligation, not
/// the leaf helpers.
pub fn shootdown_completeness(fns: &[KernelFn], graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    let mutated_by: std::collections::BTreeMap<&str, &str> = fns
        .iter()
        .filter_map(|f| f.mutation.as_deref().map(|m| (f.name.as_str(), m)))
        .collect();
    let shooters: BTreeSet<&str> = fns
        .iter()
        .filter(|f| f.shoots)
        .map(|f| f.name.as_str())
        .collect();
    for f in fns {
        if f.owner.as_deref() != Some("Kernel") || !f.is_pub {
            continue;
        }
        // Which reachable function mutates, and through what sink?
        let mut witness: Option<(String, String)> = None;
        graph.reaches(&f.name, |n| {
            if let Some(sink) = mutated_by.get(n) {
                witness = Some((n.to_string(), (*sink).to_string()));
                true
            } else {
                false
            }
        });
        let Some((via, sink)) = witness else {
            continue;
        };
        let shoots = graph.reaches(&f.name, |n| n == "queue_shootdown" || shooters.contains(n));
        if shoots {
            continue;
        }
        let how = if via == f.name {
            format!("`{sink}`")
        } else {
            format!("`{sink}` via `{via}`")
        };
        out.push(Diagnostic {
            lint: "shootdown-completeness",
            path: f.path.clone(),
            line: f.line,
            col: f.col,
            msg: format!(
                "kernel method `{}` writes mapping state ({how}) but reaches no \
                 `queue_shootdown` on any path; queue a shootdown or allowlist it \
                 with the §2.5 justification",
                f.name
            ),
        });
    }
}

/// The invalidation calls `Machine::service_shootdowns` must make while
/// draining the queue: the remote front ends are purged through the
/// `TranslationScheme` trait (all-or-range, matching the two
/// `ShootdownRequest` variants) and the remote micro-ITLBs are purged
/// directly.
const DRAIN_SINKS: [&str; 3] = ["purge_all", "purge_range", "purge"];

/// Drain-side shootdown completeness: the queue side is covered by
/// [`shootdown_completeness`], but a queued request only protects
/// coherence if the machine's drain actually invalidates every remote
/// translation front end. `service_shootdowns` must call each of the
/// drain sinks (`purge_all`, `purge_range`, `purge`) through a method
/// call — the purge path of the
/// `TranslationScheme` trait, so rival schemes are invalidated exactly
/// like the paper's TLB.
pub fn shootdown_drain(
    path: &str,
    tokens: &[Token],
    span: Option<(u32, u32)>,
    out: &mut Vec<Diagnostic>,
) {
    let Some((a, b)) = span else {
        out.push(Diagnostic {
            lint: "shootdown-completeness",
            path: path.into(),
            line: 1,
            col: 1,
            msg: "`fn service_shootdowns` not found; the machine has no shootdown \
                  drain to deliver queued requests to remote cores"
                .into(),
        });
        return;
    };
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.line < a || t.line > b {
            continue;
        }
        let method_call =
            i >= 1 && tokens[i - 1].text == "." && tokens.get(i + 1).is_some_and(|n| n.text == "(");
        if method_call {
            if let Some(sink) = DRAIN_SINKS.iter().find(|s| **s == t.text) {
                seen.insert(sink);
            }
        }
    }
    for sink in DRAIN_SINKS {
        if !seen.contains(sink) {
            out.push(Diagnostic {
                lint: "shootdown-completeness",
                path: path.into(),
                line: a,
                col: 1,
                msg: format!(
                    "`service_shootdowns` never calls `.{sink}(…)`; the drain must \
                     invalidate every remote front end through the TranslationScheme \
                     purge path (and the µITLB)"
                ),
            });
        }
    }
}

// --------------------------------------------------------------------
// Determinism
// --------------------------------------------------------------------

/// Iteration adapters whose order is the hasher's, not the data's.
const ITER_ADAPTERS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
];

/// Determinism lint: report-feeding crates must not use
/// `std::collections::HashMap`/`HashSet` (hasher-ordered iteration and
/// `Debug` output are nondeterministic across runs), must not read the
/// wall clock (`Instant::now`/`SystemTime::now` — the bench wall-clock
/// perimeter is the sole allowlisted exception), and must not iterate a
/// `FastMap` through hash-ordered adapters (lookup is fine; traversal
/// must go through a sorted/ordered copy).
pub fn determinism(path: &str, tokens: &[Token], skip: &[(u32, u32)], out: &mut Vec<Diagnostic>) {
    // Names declared with type `FastMap` in this file (struct fields,
    // lets, parameters): `name : [&] [mut] FastMap`.
    let mut fastmaps: BTreeSet<&str> = BTreeSet::new();
    for i in 0..tokens.len() {
        if tokens[i].text != "FastMap" {
            continue;
        }
        let mut j = i;
        while j >= 1 && matches!(tokens[j - 1].text.as_str(), "&" | "mut") {
            j -= 1;
        }
        if j >= 2 && tokens[j - 1].text == ":" {
            fastmaps.insert(tokens[j - 2].text.as_str());
        }
    }

    for i in 0..tokens.len() {
        let t = &tokens[i];
        if in_spans(skip, t.line) {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" => out.push(Diagnostic {
                lint: "determinism",
                path: path.into(),
                line: t.line,
                col: t.col,
                msg: format!(
                    "`{}` in a report-feeding crate: hash order is nondeterministic; \
                     use `BTreeMap`/`BTreeSet`, or `FastMap` with ordered traversal",
                    t.text
                ),
            }),
            "Instant" | "SystemTime"
                if tokens.get(i + 1).is_some_and(|n| n.text == "::")
                    && tokens.get(i + 2).is_some_and(|n| n.text == "now") =>
            {
                out.push(Diagnostic {
                    lint: "determinism",
                    path: path.into(),
                    line: t.line,
                    col: t.col,
                    msg: format!(
                        "wall-clock read `{}::now()` in a report-feeding crate; only the \
                         bench wall-clock perimeter may read host time (allowlisted)",
                        t.text
                    ),
                });
            }
            a if ITER_ADAPTERS.contains(&a)
                && i >= 2
                && tokens[i - 1].text == "."
                && fastmaps.contains(tokens[i - 2].text.as_str())
                && tokens.get(i + 1).is_some_and(|n| n.text == "(") =>
            {
                out.push(Diagnostic {
                    lint: "determinism",
                    path: path.into(),
                    line: t.line,
                    col: t.col,
                    msg: format!(
                        "hash-ordered traversal `{}.{}()` of a FastMap; collect into a \
                         sorted structure before iterating",
                        tokens[i - 2].text,
                        a
                    ),
                });
            }
            _ => {}
        }
    }
}

// --------------------------------------------------------------------
// Counter-overflow
// --------------------------------------------------------------------

/// Counter-overflow lint: unchecked `+=` (or `x = x + …` self-addition)
/// on a `u64` counter — a field of a `pub struct …Stats` or one of the
/// machine's own report counters — must be `saturating_add`/
/// `checked_add`. `Cycles`-typed counters are exempt (their arithmetic
/// already panics on overflow), as is the `Machine::charge` funnel,
/// whose bucket writes the cycle-funnel lint already confines.
pub fn counter_overflow(
    path: &str,
    tokens: &[Token],
    skip: &[(u32, u32)],
    charge_span: Option<(u32, u32)>,
    fields: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    let exempt = |line: u32| {
        in_spans(skip, line) || charge_span.is_some_and(|(a, b)| line >= a && line <= b)
    };
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if !(t.kind == crate::lexer::TokKind::Ident
            && fields.contains(&t.text)
            && i >= 1
            && tokens[i - 1].text == ".")
        {
            continue;
        }
        if exempt(t.line) {
            continue;
        }
        let next = tokens.get(i + 1).map(|n| n.text.as_str());
        let flagged = match next {
            Some("+=") => true,
            Some("=") => {
                // `x.f = … x.f + …` self-addition before the `;`.
                let mut j = i + 2;
                let mut found = false;
                while j < tokens.len() && tokens[j].text != ";" {
                    if tokens[j].text == t.text && tokens.get(j + 1).is_some_and(|n| n.text == "+")
                    {
                        found = true;
                        break;
                    }
                    j += 1;
                }
                found
            }
            _ => false,
        };
        if flagged {
            out.push(Diagnostic {
                lint: "counter-overflow",
                path: path.into(),
                line: t.line,
                col: t.col,
                msg: format!(
                    "unchecked accumulation on counter `{0}`; write \
                     `{0} = {0}.saturating_add(…)` (or `checked_add`) so a wrapped \
                     counter cannot fabricate results",
                    t.text
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_spans};

    fn run_addr(src: &str) -> Vec<Diagnostic> {
        let toks = lex(src);
        let spans = test_spans(&toks);
        let mut out = Vec::new();
        addr_domain("fixture.rs", &toks, &spans, &mut out);
        out
    }

    fn run_panic(src: &str) -> Vec<Diagnostic> {
        let toks = lex(src);
        let spans = test_spans(&toks);
        let mut out = Vec::new();
        panic_freedom("fixture.rs", &toks, &spans, &mut out);
        out
    }

    #[test]
    fn addr_domain_flags_arith_after_get() {
        let d = run_addr("let x = pa.get() + 4096;");
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].line, d[0].lint), (1, "addr-domain"));
        assert_eq!(run_addr("let x = vpn.index() << PAGE_SHIFT;").len(), 1);
        assert_eq!(run_addr("let x = vpn.index() as u32;").len(), 1);
    }

    #[test]
    fn addr_domain_allows_comparisons_and_bindings() {
        assert!(run_addr("if a.get() < b.get() { f(); }").is_empty());
        assert!(run_addr("let raw = pa.get();").is_empty());
        assert!(run_addr("assert_eq!(pa.get(), 7);").is_empty());
    }

    #[test]
    fn addr_domain_flags_arith_inside_constructors() {
        let d = run_addr("let v = Vpn::new(base + i);");
        assert_eq!(d.len(), 1);
        assert!(d[0].msg.contains("Vpn::new"));
        assert_eq!(
            run_addr("let a = PhysAddr::new(pfn << PAGE_SHIFT);").len(),
            1
        );
        assert!(run_addr("let a = PhysAddr::new(RAW_BASE);").is_empty());
        // Other constructors with arithmetic args are out of scope.
        assert!(run_addr("let r = Foo::new(a + b);").is_empty());
    }

    #[test]
    fn addr_domain_skips_test_regions() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let x = pa.get() + 1; }\n}\n";
        assert!(run_addr(src).is_empty());
    }

    #[test]
    fn cycle_funnel_only_allows_charge() {
        let src = "impl M {\n    fn charge(&mut self) {\n        self.buckets.user += c;\n    }\n    fn rogue(&mut self) {\n        self.buckets.kernel += c;\n    }\n}\n";
        let toks = lex(src);
        let span = fn_span(&toks, "charge");
        let mut out = Vec::new();
        cycle_funnel("fixture.rs", &toks, &[], span, &[], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 6);
        assert!(out[0].msg.contains("buckets.kernel"));
    }

    #[test]
    fn cycle_funnel_flags_fast_hit_replay_outside_the_engine() {
        let src = "impl M {\n    fn memo_access(&mut self) {\n        self.tlb.note_fast_hits(s, 1);\n    }\n    fn stream(&mut self) {\n        self.cache.note_fast_hits(va, pa, k, w);\n    }\n    fn rogue(&mut self) {\n        self.tlb.note_fast_hits(s, n);\n    }\n    fn note_fast_hits(&mut self, n: u64) {\n        self.hits += n;\n    }\n}\n";
        let toks = lex(src);
        let mut out = Vec::new();
        let replay = replay_spans("fixture.rs", &toks, true, &mut out);
        assert!(out.is_empty(), "every sanctioned site exists: {out:?}");
        cycle_funnel("fixture.rs", &toks, &[], None, &replay, &mut out);
        // Only the call in `rogue` fires: the sanctioned spans cover the
        // engine call sites and the `fn` definition is not a method call.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 9);
        assert!(out[0].msg.contains("note_fast_hits"));
    }

    #[test]
    fn cycle_funnel_reports_a_sanctioned_site_that_no_longer_exists() {
        let toks = lex("impl M {\n    fn memo_access(&mut self) {}\n}\n");
        let mut out = Vec::new();
        // Only the machine source must define every site; other files
        // of the crate legitimately define none.
        assert_eq!(replay_spans("trace.rs", &toks, false, &mut out).len(), 1);
        assert!(out.is_empty());
        assert_eq!(replay_spans("machine.rs", &toks, true, &mut out).len(), 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "cycle-funnel");
        assert!(out[0].msg.contains("no `fn stream`"), "{}", out[0].msg);
    }

    #[test]
    fn panic_freedom_flags_the_panic_family_only() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    let a = x.unwrap();\n    let b = x.expect(\"msg\");\n    if a == 0 { panic!(\"zero\"); }\n    match a { 1 => unreachable!(), _ => todo!() }\n}\n";
        let d = run_panic(src);
        assert_eq!(d.len(), 5);
        assert_eq!(
            d.iter().map(|x| x.line).collect::<Vec<_>>(),
            vec![2, 3, 4, 5, 5]
        );
    }

    #[test]
    fn panic_freedom_ignores_fallbacks_asserts_and_tests() {
        assert!(run_panic("let a = x.unwrap_or(0);").is_empty());
        assert!(run_panic("let a = x.unwrap_or_else(|| 0);").is_empty());
        assert!(run_panic("let a = x.unwrap_or_default();").is_empty());
        assert!(run_panic("assert!(ok, \"bad\");").is_empty());
        assert!(run_panic("debug_assert_eq!(a, b);").is_empty());
        assert!(run_panic("#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\n").is_empty());
        // Strings and comments never trip the lint.
        assert!(run_panic("// calls .unwrap() in prose\nlet s = \".unwrap()\";").is_empty());
    }

    #[test]
    fn counter_symmetry_requires_exhaustive_destructure() {
        let def_src = "pub struct FooStats { pub a: u64 }\npub struct BarStats { pub b: u64 }\n";
        let def_toks = lex(def_src);
        let mut structs = Vec::new();
        find_stats_structs("stats.rs", &def_toks, &mut structs);
        assert_eq!(structs.len(), 2);

        let audit_src = "impl M {\n    fn audit(&self) {\n        let FooStats { a } = s;\n        let BarStats { b, .. } = t;\n    }\n}\n";
        let audit_toks = lex(audit_src);
        let span = fn_span(&audit_toks, "audit").expect("audit span");
        let audited = exhaustive_destructures(&audit_toks, span);
        assert_eq!(audited, vec!["FooStats".to_string()]);

        let mut out = Vec::new();
        counter_symmetry(&structs, &audited, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("BarStats"));
    }

    fn kernel_fns(src: &str) -> (Vec<KernelFn>, CallGraph) {
        let toks = lex(src);
        let fns = crate::items::functions(&toks);
        let graph = CallGraph::build(&[(&toks[..], &fns[..])]);
        let kfns = fns
            .iter()
            .map(|f| {
                let (mutation, shoots) = shootdown_sinks(&toks, f.body);
                KernelFn {
                    path: "crates/os/src/kernel.rs".into(),
                    name: f.name.clone(),
                    owner: f.owner.clone(),
                    is_pub: f.is_pub,
                    line: f.line,
                    col: f.col,
                    mutation,
                    shoots,
                }
            })
            .collect();
        (kfns, graph)
    }

    #[test]
    fn shootdown_flags_mutation_without_queue() {
        let src = "impl Kernel {\n    pub fn bad(&mut self) {\n        self.hpt.insert(pte, &mut tm);\n    }\n}\n";
        let (kfns, graph) = kernel_fns(src);
        let mut out = Vec::new();
        shootdown_completeness(&kfns, &graph, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "shootdown-completeness");
        assert!(out[0].msg.contains("`bad`"));
        assert!(out[0].msg.contains("hpt.insert"));
    }

    #[test]
    fn shootdown_accepts_indirect_queue_through_a_helper() {
        // The call-graph case: the pub entry point mutates via one
        // helper and queues the shootdown via another — two levels deep
        // on the queue side. Both obligations resolve transitively.
        let src = "impl Kernel {\n    pub fn remap(&mut self, va: VirtAddr) {\n        self.create_superpage(va);\n    }\n    fn create_superpage(&mut self, va: VirtAddr) {\n        self.hpt.insert(pte, &mut tm);\n        self.invalidate(va);\n    }\n    fn invalidate(&mut self, va: VirtAddr) {\n        self.queue_shootdown(ShootdownRequest::All);\n    }\n    fn queue_shootdown(&mut self, req: ShootdownRequest) {\n        self.pending_shootdowns.push(req);\n    }\n}\n";
        let (kfns, graph) = kernel_fns(src);
        let mut out = Vec::new();
        shootdown_completeness(&kfns, &graph, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn shootdown_obligation_sits_on_pub_entry_points_only() {
        // A private §2.5 helper that pages out without shooting down is
        // fine; the pub caller that *also* never shoots is flagged, and
        // the message names the helper as the witness.
        let src = "impl Kernel {\n    pub fn fault_in(&mut self) {\n        self.swap_in_page(0);\n    }\n    fn swap_in_page(&mut self, index: u64) {\n        ctx.mmc.set_mapping(index, pte, mem);\n    }\n}\nimpl Other {\n    pub fn not_kernel(&mut self) {\n        self.hpt.insert(pte, &mut tm);\n    }\n}\n";
        let (kfns, graph) = kernel_fns(src);
        let mut out = Vec::new();
        shootdown_completeness(&kfns, &graph, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("`set_mapping` via `swap_in_page`"));
    }

    #[test]
    fn shootdown_drain_accepts_a_complete_drain() {
        let src = "impl M {\n    fn service_shootdowns(&mut self) {\n        for core in cores {\n            match req {\n                R::All => core.tlb.purge_all(),\n                R::Range { vpn, pages } => core.tlb.purge_range(vpn, pages),\n            };\n            core.itlb.purge();\n        }\n    }\n}\n";
        let toks = lex(src);
        let span = fn_span(&toks, "service_shootdowns");
        let mut out = Vec::new();
        shootdown_drain("fixture.rs", &toks, span, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn shootdown_drain_flags_missing_purge_paths() {
        // Range requests silently dropped: purge_range never called.
        let src = "impl M {\n    fn service_shootdowns(&mut self) {\n        core.tlb.purge_all();\n        core.itlb.purge();\n    }\n}\n";
        let toks = lex(src);
        let span = fn_span(&toks, "service_shootdowns");
        let mut out = Vec::new();
        shootdown_drain("fixture.rs", &toks, span, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "shootdown-completeness");
        assert!(out[0].msg.contains("purge_range"));
        // A definition (`fn purge_all`) is not a call and does not count.
        let src = "impl M {\n    fn service_shootdowns(&mut self) {\n        fn purge_all() {}\n    }\n}\n";
        let toks = lex(src);
        let span = fn_span(&toks, "service_shootdowns");
        let mut out = Vec::new();
        shootdown_drain("fixture.rs", &toks, span, &mut out);
        assert_eq!(out.len(), 3, "{out:?}");
    }

    #[test]
    fn shootdown_drain_flags_a_missing_drain_entirely() {
        let toks = lex("impl M {\n    fn other(&mut self) {}\n}\n");
        let span = fn_span(&toks, "service_shootdowns");
        let mut out = Vec::new();
        shootdown_drain("fixture.rs", &toks, span, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("not found"));
    }

    #[test]
    fn determinism_flags_hash_collections_clocks_and_fastmap_iteration() {
        let src = "use std::collections::HashMap;\nfn report(index: FastMap<K, V>) {\n    let start = Instant::now();\n    for (k, v) in index.iter() {\n        emit(k, v);\n    }\n    let hit = index.get(&key);\n}\n";
        let toks = lex(src);
        let mut out = Vec::new();
        determinism("fixture.rs", &toks, &[], &mut out);
        let lints: Vec<_> = out.iter().map(|d| (d.line, d.msg.as_str())).collect();
        assert_eq!(out.len(), 3, "{lints:?}");
        assert!(out[0].msg.contains("HashMap"));
        assert!(out[1].msg.contains("Instant::now"));
        assert!(out[2].msg.contains("index.iter()"));
        // Lookup through .get() is fine; test spans are skipped.
        let test_src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let toks = lex(test_src);
        let spans = test_spans(&toks);
        let mut out = Vec::new();
        determinism("fixture.rs", &toks, &spans, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn counter_overflow_flags_unchecked_accumulation() {
        let fields: BTreeSet<String> = ["remaps", "shootdowns"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let src = "impl K {\n    fn f(&mut self) {\n        self.stats.remaps += 1;\n        self.stats.shootdowns = self.stats.shootdowns + n;\n        self.stats.remaps = self.stats.remaps.saturating_add(1);\n        self.other += 1;\n    }\n}\n";
        let toks = lex(src);
        let mut out = Vec::new();
        counter_overflow("fixture.rs", &toks, &[], None, &fields, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert_eq!((out[0].line, out[1].line), (3, 4));
        // Inside the charge funnel the same write is exempt.
        let mut out = Vec::new();
        counter_overflow("fixture.rs", &toks, &[], Some((1, 8)), &fields, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn fixture_with_seeded_violations_reports_every_kind() {
        // A composite fixture: one violation of each token lint.
        let src = "fn f(pa: PhysAddr) {\n    let x = pa.get() * 2;\n    let v = Ppn::new(x + 1);\n    let y = maybe.unwrap();\n}\n";
        let toks = lex(src);
        let spans = test_spans(&toks);
        let mut out = Vec::new();
        addr_domain("fixture.rs", &toks, &spans, &mut out);
        panic_freedom("fixture.rs", &toks, &spans, &mut out);
        let lints: Vec<_> = out.iter().map(|d| d.lint).collect();
        assert_eq!(lints, ["addr-domain", "addr-domain", "panic-freedom"]);
    }
}
