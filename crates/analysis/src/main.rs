//! `mtlb-analysis` — the workspace invariant linter (CLI).
//!
//! Thin wrapper over [`mtlb_analysis::engine`]: parses `--root` and
//! `--format`, runs the analysis, prints the outcome (text or
//! schema-versioned JSON), and maps it to an exit code.
//!
//! Exit codes: `0` clean, `1` violations, `2` usage or configuration
//! errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mtlb_analysis::engine;

enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    // Defaults put the analyzer at <workspace>/crates/analysis, so the
    // workspace root is two levels up from the manifest.
    let default_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf);

    let mut root = default_root;
    let mut format = Format::Text;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!(
                        "mtlb-analysis: --format takes `text` or `json`, got `{}`",
                        other.unwrap_or("")
                    );
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "mtlb-analysis [--root <workspace>] [--format text|json]\n\
                     Lints the workspace sources for simulator invariants."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("mtlb-analysis: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let Some(root) = root else {
        eprintln!("mtlb-analysis: --root requires a path");
        return ExitCode::from(2);
    };
    match engine::analyze(&root) {
        Ok(outcome) => {
            let rendered = match format {
                Format::Text => engine::render_text(&outcome),
                Format::Json => engine::render_json(&outcome),
            };
            print!("{rendered}");
            if outcome.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("mtlb-analysis: {msg}");
            ExitCode::from(2)
        }
    }
}
