#!/usr/bin/env bash
# Builds the benchmark and runs it. See README.md beside this file.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in one process; the last line of standard output
#       is the result object BENCHMARK.json's contract describes.
#   run.sh [--seed N] [--repeat 2] [--no-trace] [--bless] [--scale test --reps 1]
#       every workload, each in its own child process, then the traced
#       pass; writes benchmark/out/results.json and trace.json.
set -euo pipefail

# Every path below is relative to the checkout's root.
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

build_start=$(date +%s%N)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
# Build time is printed, not reported: it is no metric of the program.
build_ms=$(( ($(date +%s%N) - build_start) / 1000000 ))
printf 'build_s %d.%03d\n' $((build_ms / 1000)) $((build_ms % 1000)) >&2

exec "$CARGO_TARGET_DIR/release/mtlb-benchmark" "$@"
