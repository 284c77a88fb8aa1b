#!/usr/bin/env bash
# Lints and tests the benchmark crate, then smoke-runs the whole
# benchmark at test scale with one rep: every workload untraced, the
# traced pass, and the schema checks run.sh applies to every result
# (exactly the declared metrics, declared units, names matching
# [A-Za-z0-9_.-]+).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

cargo fmt --manifest-path benchmark/Cargo.toml --check
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
cargo test --offline --release --manifest-path benchmark/Cargo.toml

smoke_start=$(date +%s)
benchmark/run.sh --scale test --reps 1
echo "smoke run: $(( $(date +%s) - smoke_start )) s"
