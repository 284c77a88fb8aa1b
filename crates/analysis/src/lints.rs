//! The workspace invariant lints.
//!
//! All lints run over the token stream of [`crate::lexer`] and report
//! [`Diagnostic`]s with 1-based `file:line:col` positions. Violations
//! inside `#[cfg(test)]` spans are never reported — test code may
//! panic and do raw arithmetic freely. Shootdown-completeness and
//! counter-overflow additionally consume the item layer of
//! [`crate::items`], and shootdown-completeness the name-based graph of
//! [`crate::callgraph`].
//!
//! Each lint's exemptions are named constants beside it
//! ([`REPLAY_SITES`], [`SHOOTDOWN_EXEMPT`], [`UNAUDITED_STATS`]), and a
//! name that no longer matches what it exempts is itself reported.

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::lexer::{fn_span, in_spans, macro_spans, Token};

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Lint name (`addr-domain`, `counter-overflow`, `counter-symmetry`,
    /// `cycle-funnel`, `panic-freedom`, `shootdown-completeness`).
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
/// name that matches no function is reported: it sanctions nothing
/// today and would silently exempt any future function of that name.
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

/// Panic-freedom lint, for the one place clippy cannot see: the bodies
/// of `macro_rules!` definitions in core crates. Everywhere else the
/// core crates deny clippy's `unwrap_used`/`expect_used`/`panic`/
/// `unreachable`/`todo`/`unimplemented`, and each justified site carries
/// `#[expect(clippy::…, reason = "…")]`; clippy skips macro-expanded
/// code, so a panic written inside a macro body must instead call a
/// checked helper defined outside it. Asserts are allowed (they state
/// invariants, not control flow); `unwrap_or`, `unwrap_or_else` and
/// `unwrap_or_default` never match (identifier-exact comparison).
pub fn panic_freedom(path: &str, tokens: &[Token], skip: &[(u32, u32)], out: &mut Vec<Diagnostic>) {
    let macros = macro_spans(tokens);
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if !in_spans(&macros, t.line) || in_spans(skip, t.line) {
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
                    "`{what}` inside a `macro_rules!` body, where clippy's panic lints \
                     cannot see it; call a checked helper defined outside the macro \
                     that carries `#[expect(clippy::…, reason = \"…\")]`"
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

/// The stats structs that stay outside `Machine::audit`:
///
/// * `HptStats` — HPT probe counters are internal to the tlb crate and
///   not reported in `RunReport`; the kernel's `tlb_miss_cycles` already
///   funnel them.
/// * `StreamStats` — stream buffers are an optional §5-comparison
///   fitting, not part of `RunReport`; their counters are reconciled by
///   the stream unit tests.
/// * `SubblockStats` — the complete-subblock TLB is a related-work
///   comparison model driven trace-style by experiments, never mounted
///   in `Machine`.
pub const UNAUDITED_STATS: [&str; 3] = ["HptStats", "StreamStats", "SubblockStats"];

/// Counter-symmetry lint: every `pub struct …Stats` in the core crates
/// must be reconciled by the debug cycle auditor — destructured without
/// `..` inside `Machine::audit` so that adding a counter field without
/// deciding its audit story becomes a compile error — or be named in
/// [`UNAUDITED_STATS`]. A name there that defines no stats struct, or
/// whose struct is now audited, is reported at `machine` (the audit's
/// file) or at the struct.
pub fn counter_symmetry(
    structs: &[StatsStruct],
    audited: &[String],
    machine: &str,
    out: &mut Vec<Diagnostic>,
) {
    for s in structs {
        let is_audited = audited.iter().any(|a| a == &s.name);
        let exempt = UNAUDITED_STATS.contains(&s.name.as_str());
        if is_audited == exempt {
            let msg = if exempt {
                format!(
                    "stale `UNAUDITED_STATS` entry: `{}` is now destructured in \
                     `Machine::audit` — remove it from the list",
                    s.name
                )
            } else {
                format!(
                    "stats struct `{}` is not exhaustively destructured in `Machine::audit`; \
                     reconcile it there or name it in `UNAUDITED_STATS` with a reason",
                    s.name
                )
            };
            out.push(Diagnostic {
                lint: "counter-symmetry",
                path: s.path.clone(),
                line: s.line,
                col: s.col,
                msg,
            });
        }
    }
    for name in UNAUDITED_STATS {
        if !structs.iter().any(|s| s.name == name) {
            out.push(Diagnostic {
                lint: "counter-symmetry",
                path: machine.into(),
                line: 1,
                col: 1,
                msg: format!(
                    "stale `UNAUDITED_STATS` entry: no `pub struct {name}` in the core \
                     crates — remove it from the list"
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

/// The pub `Kernel` methods that write mapping state without queueing
/// a shootdown, by design:
///
/// * `map_region` — fresh mappings only: it faults on any overlap with
///   existing translations, so no core can hold a stale TLB entry for
///   the range; there is nothing to shoot down.
/// * `handle_shadow_fault` — paper §2.5: per-base-page swap-in re-points
///   the shadow mapping while the superpage TLB entry stays valid on
///   every core; the whole point of shadow paging is that this needs no
///   shootdown.
pub const SHOOTDOWN_EXEMPT: [&str; 2] = ["map_region", "handle_shadow_fault"];

/// The file [`SHOOTDOWN_EXEMPT`] names are reported against when no
/// kernel method carries them.
const KERNEL: &str = "crates/os/src/kernel.rs";

/// Shootdown-completeness lint: every **pub** method of `impl Kernel`
/// that writes mapping state — directly or through any helper it can
/// reach in the call graph — must also reach a shootdown queue site
/// (`queue_shootdown` / `pending_shootdowns.push`) or be named in
/// [`SHOOTDOWN_EXEMPT`]. The per-base-page pageout path (§2.5)
/// deliberately shoots nothing — the superpage TLB entry stays valid
/// across pageout — which is why the *entry points* carry the
/// obligation, not the leaf helpers. An exempt name that matches no pub
/// `Kernel` method, or whose method no longer writes mapping state, is
/// reported: it would silently exempt a future method of that name.
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
        let exempt = SHOOTDOWN_EXEMPT.contains(&f.name.as_str());
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
            if exempt {
                out.push(Diagnostic {
                    lint: "shootdown-completeness",
                    path: f.path.clone(),
                    line: f.line,
                    col: f.col,
                    msg: format!(
                        "stale `SHOOTDOWN_EXEMPT` entry: `{}` no longer writes mapping \
                         state — remove it from the list",
                        f.name
                    ),
                });
            }
            continue;
        };
        if exempt || graph.reaches(&f.name, |n| n == "queue_shootdown" || shooters.contains(n)) {
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
                 `queue_shootdown` on any path; queue a shootdown or name it in \
                 `SHOOTDOWN_EXEMPT` with the §2.5 justification",
                f.name
            ),
        });
    }
    for name in SHOOTDOWN_EXEMPT {
        let present = fns
            .iter()
            .any(|f| f.name == name && f.is_pub && f.owner.as_deref() == Some("Kernel"));
        if !present {
            out.push(Diagnostic {
                lint: "shootdown-completeness",
                path: KERNEL.into(),
                line: 1,
                col: 1,
                msg: format!(
                    "stale `SHOOTDOWN_EXEMPT` entry: no pub `Kernel::{name}` — remove it \
                     from the list"
                ),
            });
        }
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

    /// Wraps statements in a `macro_rules!` body, where the lint looks.
    fn in_macro(body: &str) -> String {
        format!("macro_rules! m {{\n    () => {{\n        {body}\n    }};\n}}\n")
    }

    #[test]
    fn panic_freedom_flags_the_panic_family_inside_macro_bodies() {
        let src = "macro_rules! m {\n    ($x:expr) => {\n        let a = $x.unwrap();\n        let b = $x.expect(\"msg\");\n        if a == 0 { panic!(\"zero\"); }\n        match a { 1 => unreachable!(), _ => todo!() }\n    };\n}\n";
        let d = run_panic(src);
        assert_eq!(
            d.iter().map(|x| x.line).collect::<Vec<_>>(),
            vec![3, 4, 5, 6, 6]
        );
        assert!(d[1]
            .msg
            .contains("`.expect()` inside a `macro_rules!` body"));
        // Outside macro bodies clippy's restriction lints own the job.
        assert!(run_panic("fn f(x: Option<u8>) -> u8 {\n    x.expect(\"msg\")\n}\n").is_empty());
        assert_eq!(
            run_panic("macro_rules! p ( () => { x.unwrap() } );").len(),
            1
        );
    }

    #[test]
    fn panic_freedom_ignores_fallbacks_asserts_and_tests() {
        assert!(run_panic(&in_macro("let a = x.unwrap_or(0);")).is_empty());
        assert!(run_panic(&in_macro("let a = x.unwrap_or_else(|| 0);")).is_empty());
        assert!(run_panic(&in_macro("let a = x.unwrap_or_default();")).is_empty());
        assert!(run_panic(&in_macro("assert!(ok, \"bad\");")).is_empty());
        assert!(run_panic(&in_macro("debug_assert_eq!(a, b);")).is_empty());
        let test_mod = format!(
            "#[cfg(test)]\nmod tests {{\n{}}}\n",
            in_macro("x.unwrap();")
        );
        assert!(run_panic(&test_mod).is_empty());
        // Strings and comments never trip the lint.
        assert!(run_panic(&in_macro(
            "// calls .unwrap() in prose\nlet s = \".unwrap()\";"
        ))
        .is_empty());
    }

    fn stats_structs(src: &str) -> Vec<StatsStruct> {
        let mut structs = Vec::new();
        find_stats_structs("stats.rs", &lex(src), &mut structs);
        structs
    }

    #[test]
    fn counter_symmetry_requires_exhaustive_destructure_or_an_exemption() {
        let structs = stats_structs(
            "pub struct FooStats { pub a: u64 }\npub struct BarStats { pub b: u64 }\n\
             pub struct HptStats { pub c: u64 }\npub struct StreamStats { pub d: u64 }\n\
             pub struct SubblockStats { pub e: u64 }\n",
        );
        assert_eq!(structs.len(), 5);

        let audit_src = "impl M {\n    fn audit(&self) {\n        let FooStats { a } = s;\n        let BarStats { b, .. } = t;\n    }\n}\n";
        let audit_toks = lex(audit_src);
        let span = fn_span(&audit_toks, "audit").expect("audit span");
        let audited = exhaustive_destructures(&audit_toks, span);
        assert_eq!(audited, vec!["FooStats".to_string()]);

        // The three `UNAUDITED_STATS` structs are exempt; BarStats is not.
        let mut out = Vec::new();
        counter_symmetry(&structs, &audited, "machine.rs", &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("BarStats"));
    }

    #[test]
    fn counter_symmetry_reports_stale_unaudited_names() {
        // HptStats is now audited and StreamStats no longer exists.
        let structs = stats_structs(
            "pub struct HptStats { pub c: u64 }\npub struct SubblockStats { pub e: u64 }\n",
        );
        let mut out = Vec::new();
        counter_symmetry(&structs, &["HptStats".to_string()], "machine.rs", &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].msg.contains("`HptStats` is now destructured"));
        assert_eq!((out[0].path.as_str(), out[0].line), ("stats.rs", 1));
        assert!(out[1].msg.contains("no `pub struct StreamStats`"));
        assert_eq!(out[1].path, "machine.rs");
    }

    /// Pub `Kernel` methods carrying the [`SHOOTDOWN_EXEMPT`] names, so
    /// the other shootdown tests see no stale-exemption reports.
    const EXEMPT_STUBS: &str = "impl Kernel {\n    pub fn map_region(&mut self) {\n        self.hpt.insert(pte, &mut tm);\n    }\n    pub fn handle_shadow_fault(&mut self) {\n        ctx.mmc.set_mapping(index, pte, mem);\n    }\n}\n";

    fn run_shootdown(src: &str) -> Vec<Diagnostic> {
        let toks = lex(src);
        let fns = crate::items::functions(&toks);
        let graph = CallGraph::build(&[(&toks[..], &fns[..])]);
        let kfns: Vec<KernelFn> = fns
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
        let mut out = Vec::new();
        shootdown_completeness(&kfns, &graph, &mut out);
        out
    }

    #[test]
    fn shootdown_flags_mutation_without_queue() {
        let src = "impl Kernel {\n    pub fn bad(&mut self) {\n        self.hpt.insert(pte, &mut tm);\n    }\n}\n";
        let out = run_shootdown(&format!("{src}{EXEMPT_STUBS}"));
        assert_eq!(out.len(), 1, "the exempt stubs are not reported: {out:?}");
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
        let out = run_shootdown(&format!("{src}{EXEMPT_STUBS}"));
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn shootdown_obligation_sits_on_pub_entry_points_only() {
        // A private §2.5 helper that pages out without shooting down is
        // fine; the pub caller that *also* never shoots is flagged, and
        // the message names the helper as the witness.
        let src = "impl Kernel {\n    pub fn fault_in(&mut self) {\n        self.swap_in_page(0);\n    }\n    fn swap_in_page(&mut self, index: u64) {\n        ctx.mmc.set_mapping(index, pte, mem);\n    }\n}\nimpl Other {\n    pub fn not_kernel(&mut self) {\n        self.hpt.insert(pte, &mut tm);\n    }\n}\n";
        let out = run_shootdown(&format!("{src}{EXEMPT_STUBS}"));
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("`set_mapping` via `swap_in_page`"));
    }

    #[test]
    fn shootdown_reports_stale_exemptions() {
        // `map_region` no longer writes mapping state and
        // `handle_shadow_fault` is gone: each exemption would silently
        // cover a future method of that name.
        let out = run_shootdown(
            "impl Kernel {\n    pub fn map_region(&mut self) {\n        self.log(1);\n    }\n}\n",
        );
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0]
            .msg
            .contains("`map_region` no longer writes mapping state"));
        assert_eq!(out[0].line, 2);
        assert!(out[1].msg.contains("no pub `Kernel::handle_shadow_fault`"));
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
        let src = "fn f(pa: PhysAddr) {\n    let x = pa.get() * 2;\n    let v = Ppn::new(x + 1);\n}\nmacro_rules! m {\n    () => { maybe.unwrap() };\n}\n";
        let toks = lex(src);
        let spans = test_spans(&toks);
        let mut out = Vec::new();
        addr_domain("fixture.rs", &toks, &spans, &mut out);
        panic_freedom("fixture.rs", &toks, &spans, &mut out);
        let lints: Vec<_> = out.iter().map(|d| d.lint).collect();
        assert_eq!(lints, ["addr-domain", "addr-domain", "panic-freedom"]);
    }
}
