//! The analysis driver: loads the workspace sources, runs every lint,
//! and renders the outcome as text or schema-versioned JSON.
//!
//! The driver is a library function (rather than living in `main`) so
//! the integration tests can point it at seeded-violation fixture
//! workspaces under `tests/fixtures/` and assert on the exact outcome.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::items;
use crate::lexer;
use crate::lints::{self, Diagnostic};

/// JSON schema version emitted by [`render_json`]. Bump on any change
/// to field names or structure; additive changes also bump it so
/// consumers can gate.
pub const JSON_SCHEMA_VERSION: u32 = 2;

/// Every lint, in the fixed order summaries and JSON use.
pub const LINTS: [&str; 6] = [
    "addr-domain",
    "counter-overflow",
    "counter-symmetry",
    "cycle-funnel",
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

/// The machine's `u64` counters that live outside any `…Stats` struct
/// but feed the same reports (bus-contention counting).
const EXTRA_COUNTERS: [&str; 1] = ["contention_events"];

/// The machine source: audit anchor, shootdown drain and the home of
/// the sanctioned fast-hit replay sites.
const MACHINE: &str = "crates/sim/src/machine.rs";

struct SourceFile {
    /// Repo-relative path with forward slashes.
    rel: String,
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
        tokens,
        test_spans,
    })
}

/// The complete result of one analysis run, ready to render.
#[derive(Debug)]
pub struct Outcome {
    /// Number of files scanned.
    pub files: usize,
    /// Violations, sorted by (path, line, col, lint).
    pub violations: Vec<Diagnostic>,
    /// Violations per lint, in [`LINTS`] order.
    pub per_lint: Vec<(&'static str, usize)>,
}

impl Outcome {
    /// Whether the run is clean: no violations.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

fn in_crates(rel: &str, set: &[&str]) -> bool {
    set.iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

/// Runs every lint over the workspace at `root`.
///
/// # Errors
///
/// Returns a message when no sources are found or
/// `crates/sim/src/machine.rs` (the audit anchor) is missing.
pub fn analyze(root: &Path) -> Result<Outcome, String> {
    // Load every file once, keyed by repo-relative path.
    let mut files: BTreeMap<String, SourceFile> = BTreeMap::new();
    for krate in CORE_CRATES.iter().chain(&["bench"]) {
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
        if in_crates(&file.rel, &ADDR_CRATES) || file.rel == MACHINE {
            lints::addr_domain(&file.rel, &file.tokens, &file.test_spans, &mut diags);
        }
        if file.rel.starts_with("crates/sim/src/") {
            let charge = lexer::fn_span(&file.tokens, "charge");
            let replay =
                lints::replay_spans(&file.rel, &file.tokens, file.rel == MACHINE, &mut diags);
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
        let charge = if file.rel == MACHINE {
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

    // Pass 3: whole-workspace lints.
    lints::shootdown_completeness(&kernel_fns, &graph, &mut diags);
    let machine = files
        .get(MACHINE)
        .ok_or("crates/sim/src/machine.rs not found")?;
    let audit_span = lexer::fn_span(&machine.tokens, "audit")
        .ok_or("fn audit not found in crates/sim/src/machine.rs")?;
    let audited = lints::exhaustive_destructures(&machine.tokens, audit_span);
    stats_structs.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    lints::counter_symmetry(&stats_structs, &audited, MACHINE, &mut diags);
    let drain_span = lexer::fn_span(&machine.tokens, "service_shootdowns");
    lints::shootdown_drain(&machine.rel, &machine.tokens, drain_span, &mut diags);

    diags.sort_by(|a, b| (&a.path, a.line, a.col, a.lint).cmp(&(&b.path, b.line, b.col, b.lint)));
    let per_lint = LINTS
        .iter()
        .map(|l| (*l, diags.iter().filter(|d| d.lint == *l).count()))
        .collect();
    Ok(Outcome {
        files: files.len(),
        violations: diags,
        per_lint,
    })
}

/// Renders the outcome in the classic `path:line:col: [lint] msg` text
/// form, followed by the per-lint summary.
#[must_use]
pub fn render_text(o: &Outcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for d in &o.violations {
        let _ = writeln!(
            out,
            "{}:{}:{}: [{}] {}",
            d.path, d.line, d.col, d.lint, d.msg
        );
    }
    let _ = writeln!(
        out,
        "mtlb-analysis: {} files, {} violations",
        o.files,
        o.violations.len()
    );
    for (lint, n) in &o.per_lint {
        let _ = writeln!(out, "  {lint}: {n}");
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
/// violations sorted as in text mode, per-lint counts in [`LINTS`]
/// order, and no map types anywhere — back-to-back runs over the same
/// tree are byte-identical.
#[must_use]
pub fn render_json(o: &Outcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema_version\": {JSON_SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"violations\": [");
    for (i, d) in o.violations.iter().enumerate() {
        let comma = if i + 1 < o.violations.len() { "," } else { "" };
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
    let _ = writeln!(out, "  \"summary\": {{");
    let _ = writeln!(out, "    \"files\": {},", o.files);
    let _ = writeln!(out, "    \"violations\": {},", o.violations.len());
    let _ = writeln!(out, "    \"per_lint\": [");
    for (i, (lint, n)) in o.per_lint.iter().enumerate() {
        let comma = if i + 1 < o.per_lint.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"lint\": \"{lint}\", \"violations\": {n}}}{comma}"
        );
    }
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}
