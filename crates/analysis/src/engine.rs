//! The analysis driver: loads the workspace sources, runs every lint,
//! applies the allowlist, and renders the outcome as text or
//! schema-versioned JSON.
//!
//! The driver is a library function (rather than living in `main`) so
//! the integration tests can point it at seeded-violation fixture
//! workspaces under `tests/fixtures/` and assert on the exact outcome.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::lexer;
use crate::lints::{self, Diagnostic};
use crate::{allowlist, items};

/// JSON schema version emitted by [`render_json`]. Bump on any change
/// to field names or structure; additive changes also bump it so
/// consumers can gate.
pub const JSON_SCHEMA_VERSION: u32 = 1;

/// Every lint, in the fixed order summaries and JSON use.
pub const LINTS: [&str; 7] = [
    "addr-domain",
    "counter-overflow",
    "counter-symmetry",
    "cycle-funnel",
    "determinism",
    "panic-freedom",
    "shootdown-completeness",
];

/// Crates whose `src/` trees are held to panic-freedom and scanned for
/// stats structs.
pub const CORE_CRATES: [&str; 9] = [
    "types", "mem", "cache", "tlb", "mmc", "os", "schemes", "sim", "trace",
];

/// Crates whose `src/` trees are address-carrying: they move virtual,
/// shadow and real addresses between domains. The cache crate is
/// deliberately excluded — its index/tag splitting is bit extraction on
/// bus addresses, not domain-crossing arithmetic.
pub const ADDR_CRATES: [&str; 4] = ["mmc", "os", "tlb", "mem"];

/// Crates feeding reports/stdout, held to the determinism lint: the
/// core crates plus the bench harness and the workload generators.
pub const REPORT_CRATES: [&str; 11] = [
    "types",
    "mem",
    "cache",
    "tlb",
    "mmc",
    "os",
    "schemes",
    "sim",
    "trace",
    "bench",
    "workloads",
];

/// The machine's `u64` counters that live outside any `…Stats` struct
/// but feed the same reports (bus-contention counting).
const EXTRA_COUNTERS: [&str; 1] = ["contention_events"];

struct SourceFile {
    /// Repo-relative path with forward slashes.
    rel: String,
    /// Raw source lines (for allowlist `contains` matching).
    lines: Vec<String>,
    tokens: Vec<lexer::Token>,
    test_spans: Vec<(u32, u32)>,
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn load_file(root: &Path, abs: &Path) -> Option<SourceFile> {
    let src = std::fs::read_to_string(abs).ok()?;
    let rel = abs
        .strip_prefix(root)
        .unwrap_or(abs)
        .to_string_lossy()
        .replace('\\', "/");
    let tokens = lexer::lex(&src);
    let test_spans = lexer::test_spans(&tokens);
    Some(SourceFile {
        rel,
        lines: src.lines().map(str::to_owned).collect(),
        tokens,
        test_spans,
    })
}

/// The text an allowlist entry's `contains` is matched against: the
/// violation line plus the following line, so calls split across lines
/// by rustfmt (message on the continuation line) still match.
fn match_window(file: &SourceFile, line: u32) -> String {
    let i = line.saturating_sub(1) as usize;
    let mut window = file.lines.get(i).cloned().unwrap_or_default();
    if let Some(next) = file.lines.get(i + 1) {
        window.push('\n');
        window.push_str(next);
    }
    window
}

/// A stale allowlist entry with its repair hint.
#[derive(Clone, Debug)]
pub struct StaleEntry {
    /// The entry that matched nothing.
    pub entry: allowlist::Entry,
    /// Where to look: the nearest still-matching line, the nearest
    /// open violation of the same lint, or "delete it".
    pub hint: String,
}

/// Per-lint slice of the outcome.
#[derive(Clone, Copy, Debug, Default)]
pub struct LintSummary {
    /// Open (unsuppressed) violations.
    pub open: usize,
    /// Violations suppressed by allowlist entries.
    pub suppressed: usize,
    /// Allowlist entries naming this lint.
    pub entries: usize,
}

/// The complete result of one analysis run, ready to render.
#[derive(Debug)]
pub struct Outcome {
    /// Number of files scanned.
    pub files: usize,
    /// Open violations, sorted by (path, line, col, lint).
    pub open: Vec<Diagnostic>,
    /// Total suppressed violations.
    pub suppressed: usize,
    /// Total allowlist entries.
    pub allowlist_entries: usize,
    /// Stale entries with hints, in file order.
    pub stale: Vec<StaleEntry>,
    /// Display name of the allowlist file (for stale-entry reports).
    pub allowlist_name: String,
    /// Per-lint counts, in [`LINTS`] order.
    pub per_lint: Vec<(&'static str, LintSummary)>,
}

impl Outcome {
    /// Whether the run is clean: nothing open, nothing stale.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.open.is_empty() && self.stale.is_empty()
    }
}

fn in_crates(rel: &str, set: &[&str]) -> bool {
    set.iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

/// Runs every lint over the workspace at `root` and applies the
/// allowlist at `allowlist_path`.
///
/// # Errors
///
/// Returns a message when no sources are found, the allowlist cannot
/// be read or parsed, or `crates/sim/src/machine.rs` (the audit anchor)
/// is missing.
pub fn analyze(root: &Path, allowlist_path: &Path) -> Result<Outcome, String> {
    // Load every file once, keyed by repo-relative path.
    let mut files: BTreeMap<String, SourceFile> = BTreeMap::new();
    for krate in REPORT_CRATES {
        let mut paths = Vec::new();
        collect_rs_files(&root.join("crates").join(krate).join("src"), &mut paths);
        for p in &paths {
            if let Some(f) = load_file(root, p) {
                files.insert(f.rel.clone(), f);
            }
        }
    }
    if files.is_empty() {
        return Err(format!(
            "no sources found under {} — wrong --root?",
            root.display()
        ));
    }

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut stats_structs = Vec::new();
    let mut counter_fields: BTreeSet<String> =
        EXTRA_COUNTERS.iter().map(|s| (*s).to_string()).collect();

    // Pass 1: collect the item layer that later lints consume.
    for file in files.values() {
        if in_crates(&file.rel, &CORE_CRATES) {
            lints::find_stats_structs(&file.rel, &file.tokens, &mut stats_structs);
            for s in items::stats_fields(&file.tokens) {
                counter_fields.extend(s.u64_fields);
            }
        }
    }

    // The os crate's functions and call graph, for shootdown-completeness.
    let os_files: Vec<&SourceFile> = files
        .values()
        .filter(|f| in_crates(&f.rel, &["os"]))
        .collect();
    let os_items: Vec<(&SourceFile, Vec<items::FnItem>)> = os_files
        .iter()
        .map(|f| (*f, items::functions(&f.tokens)))
        .collect();
    let graph = CallGraph::build(
        &os_items
            .iter()
            .map(|(f, fns)| (&f.tokens[..], &fns[..]))
            .collect::<Vec<_>>(),
    );
    let kernel_fns: Vec<lints::KernelFn> = os_items
        .iter()
        .flat_map(|(f, fns)| {
            fns.iter()
                .filter(|i| !lexer::in_spans(&f.test_spans, i.line))
                .map(|i| {
                    let (mutation, shoots) = lints::shootdown_sinks(&f.tokens, i.body);
                    lints::KernelFn {
                        path: f.rel.clone(),
                        name: i.name.clone(),
                        owner: i.owner.clone(),
                        is_pub: i.is_pub,
                        line: i.line,
                        col: i.col,
                        mutation,
                        shoots,
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect();

    // Pass 2: per-file token lints.
    for file in files.values() {
        if in_crates(&file.rel, &ADDR_CRATES) || file.rel == "crates/sim/src/machine.rs" {
            lints::addr_domain(&file.rel, &file.tokens, &file.test_spans, &mut diags);
        }
        if file.rel.starts_with("crates/sim/src/") {
            let charge = lexer::fn_span(&file.tokens, "charge");
            let replay = lints::replay_spans(
                &file.rel,
                &file.tokens,
                file.rel == "crates/sim/src/machine.rs",
                &mut diags,
            );
            lints::cycle_funnel(
                &file.rel,
                &file.tokens,
                &file.test_spans,
                charge,
                &replay,
                &mut diags,
            );
        }
        if in_crates(&file.rel, &CORE_CRATES) {
            lints::panic_freedom(&file.rel, &file.tokens, &file.test_spans, &mut diags);
        }
        lints::determinism(&file.rel, &file.tokens, &file.test_spans, &mut diags);
        if in_crates(&file.rel, &CORE_CRATES) || in_crates(&file.rel, &["bench"]) {
            let charge = if file.rel == "crates/sim/src/machine.rs" {
                lexer::fn_span(&file.tokens, "charge")
            } else {
                None
            };
            lints::counter_overflow(
                &file.rel,
                &file.tokens,
                &file.test_spans,
                charge,
                &counter_fields,
                &mut diags,
            );
        }
    }

    // Pass 3: whole-workspace lints.
    lints::shootdown_completeness(&kernel_fns, &graph, &mut diags);
    let machine = files
        .get("crates/sim/src/machine.rs")
        .ok_or("crates/sim/src/machine.rs not found")?;
    let audit_span = lexer::fn_span(&machine.tokens, "audit")
        .ok_or("fn audit not found in crates/sim/src/machine.rs")?;
    let audited = lints::exhaustive_destructures(&machine.tokens, audit_span);
    stats_structs.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    lints::counter_symmetry(&stats_structs, &audited, &mut diags);
    let drain_span = lexer::fn_span(&machine.tokens, "service_shootdowns");
    lints::shootdown_drain(&machine.rel, &machine.tokens, drain_span, &mut diags);

    // Apply the allowlist.
    let allow_text = std::fs::read_to_string(allowlist_path)
        .map_err(|e| format!("cannot read {}: {e}", allowlist_path.display()))?;
    let entries = allowlist::parse(&allow_text)?;
    let mut matched = vec![0usize; entries.len()];
    let mut open: Vec<Diagnostic> = Vec::new();
    let mut per_lint: BTreeMap<&'static str, LintSummary> = BTreeMap::new();
    for d in &diags {
        let window = files.get(&d.path).map(|f| match_window(f, d.line));
        let mut suppressed = false;
        for (i, e) in entries.iter().enumerate() {
            if e.lint == d.lint
                && e.path == d.path
                && window.as_deref().is_some_and(|w| w.contains(&e.contains))
            {
                matched[i] += 1;
                suppressed = true;
            }
        }
        let slot = per_lint.entry(d.lint).or_default();
        if suppressed {
            slot.suppressed += 1;
        } else {
            slot.open += 1;
            open.push(d.clone());
        }
    }
    open.sort_by(|a, b| (&a.path, a.line, a.col, a.lint).cmp(&(&b.path, b.line, b.col, b.lint)));

    let mut stale = Vec::new();
    for (e, n) in entries.iter().zip(&matched) {
        if *n > 0 {
            continue;
        }
        // Repair hint: the nearest line still containing the text, else
        // the nearest diagnostic of the same lint in the same file.
        let hint = if let Some(line) = files.get(&e.path).and_then(|f| {
            f.lines
                .iter()
                .position(|l| l.contains(&e.contains))
                .map(|i| i + 1)
        }) {
            format!(
                "hint: `{}` still matches {}:{line}, but no {} violation is reported there — \
                 the violation was fixed; delete the entry",
                e.contains, e.path, e.lint
            )
        } else if let Some(d) = diags
            .iter()
            .filter(|d| d.lint == e.lint && d.path == e.path)
            .min_by_key(|d| d.line)
        {
            format!(
                "hint: nearest {} violation in {} is line {} (`{}`) — retarget `contains` at it",
                e.lint,
                e.path,
                d.line,
                files
                    .get(&d.path)
                    .and_then(|f| f.lines.get(d.line.saturating_sub(1) as usize))
                    .map_or("", |l| l.trim())
            )
        } else {
            format!(
                "hint: no {} violations remain in {} — delete the entry",
                e.lint, e.path
            )
        };
        stale.push(StaleEntry {
            entry: e.clone(),
            hint,
        });
    }

    for e in &entries {
        if let Some(lint) = LINTS.iter().find(|l| **l == e.lint) {
            per_lint.entry(lint).or_default().entries += 1;
        }
    }

    Ok(Outcome {
        files: files.len(),
        open,
        suppressed: matched.iter().sum(),
        allowlist_entries: entries.len(),
        stale,
        allowlist_name: allowlist_path.file_name().map_or_else(
            || allowlist_path.display().to_string(),
            |n| n.to_string_lossy().into_owned(),
        ),
        per_lint: LINTS
            .iter()
            .map(|l| (*l, per_lint.get(l).copied().unwrap_or_default()))
            .collect(),
    })
}

/// Renders the outcome in the classic `path:line:col: [lint] msg` text
/// form, with stale-entry hints and the per-lint summary.
#[must_use]
pub fn render_text(o: &Outcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for d in &o.open {
        let _ = writeln!(
            out,
            "{}:{}:{}: [{}] {}",
            d.path, d.line, d.col, d.lint, d.msg
        );
    }
    for s in &o.stale {
        let e = &s.entry;
        let _ = writeln!(
            out,
            "{}:{}: stale [[allow]] entry ({} / {} / \"{}\") \
             matches no violation — remove it",
            o.allowlist_name, e.line, e.lint, e.path, e.contains
        );
        let _ = writeln!(out, "  {}", s.hint);
    }
    let _ = writeln!(
        out,
        "mtlb-analysis: {} files, {} violations, {} suppressed by {} allowlist entries, {} stale",
        o.files,
        o.open.len(),
        o.suppressed,
        o.allowlist_entries,
        o.stale.len()
    );
    for (lint, s) in &o.per_lint {
        let _ = writeln!(
            out,
            "  {lint}: {} open, {} suppressed, {} allowlist entries",
            s.open, s.suppressed, s.entries
        );
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the outcome as schema-versioned JSON with stable ordering:
/// violations sorted as in text mode, per-lint summaries in [`LINTS`]
/// order, and no map types anywhere — back-to-back runs over the same
/// tree are byte-identical.
#[must_use]
pub fn render_json(o: &Outcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema_version\": {JSON_SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"violations\": [");
    for (i, d) in o.open.iter().enumerate() {
        let comma = if i + 1 < o.open.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"lint\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \
             \"msg\": \"{}\"}}{comma}",
            json_escape(d.lint),
            json_escape(&d.path),
            d.line,
            d.col,
            json_escape(&d.msg)
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"stale_allowlist\": [");
    for (i, s) in o.stale.iter().enumerate() {
        let comma = if i + 1 < o.stale.len() { "," } else { "" };
        let e = &s.entry;
        let _ = writeln!(
            out,
            "    {{\"allowlist_line\": {}, \"lint\": \"{}\", \"path\": \"{}\", \
             \"contains\": \"{}\", \"hint\": \"{}\"}}{comma}",
            e.line,
            json_escape(&e.lint),
            json_escape(&e.path),
            json_escape(&e.contains),
            json_escape(&s.hint)
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"summary\": {{");
    let _ = writeln!(out, "    \"files\": {},", o.files);
    let _ = writeln!(out, "    \"violations\": {},", o.open.len());
    let _ = writeln!(out, "    \"suppressed\": {},", o.suppressed);
    let _ = writeln!(out, "    \"allowlist_entries\": {},", o.allowlist_entries);
    let _ = writeln!(out, "    \"stale\": {},", o.stale.len());
    let _ = writeln!(out, "    \"per_lint\": [");
    for (i, (lint, s)) in o.per_lint.iter().enumerate() {
        let comma = if i + 1 < o.per_lint.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"lint\": \"{lint}\", \"open\": {}, \"suppressed\": {}, \
             \"allowlist_entries\": {}}}{comma}",
            s.open, s.suppressed, s.entries
        );
    }
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}
