#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, release build, full test suite.
# Run from the repository root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (deny warnings)"
# The panic-freedom and determinism gate: the core crates deny clippy's
# panic lints outside tests (each justified site carries
# #[expect(clippy::…, reason)], and an unfulfilled expectation fails),
# and crates/clippy.toml forbids HashMap/HashSet, wall-clock reads and
# hash-ordered FastMap traversal. The simulator's other invariants
# (DESIGN.md §8) are held by the compiler — the private `Ledger` is the
# only writer of the time buckets, `Machine::audit` destructures
# `RunReport` exhaustively — and by the tests below: the per-service
# shootdown table in crates/sim/tests/schemes.rs, the
# fast_path_differential proptest and the golden fixtures.
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test"
cargo test -q --workspace

echo "== cargo doc (deny warnings)"
# Vendored third-party stand-ins (vendor/*) are excluded: only this
# repo's own documentation is held to the no-warnings bar.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet \
  --exclude proptest --exclude rand

echo "== determinism double-run (stdout + JSON reports byte-identical)"
DET_DIR="$(mktemp -d)"
trap 'rm -rf "$DET_DIR"' EXIT
./target/release/repro fig3 --test-scale --json-dir "$DET_DIR/json1" \
  > "$DET_DIR/stdout1" 2>/dev/null
./target/release/repro fig3 --test-scale --json-dir "$DET_DIR/json2" \
  > "$DET_DIR/stdout2" 2>/dev/null
# The stdout captures name different json paths; compare them with the
# directory prefixes normalised away.
sed "s|$DET_DIR/json1|JSON_DIR|" "$DET_DIR/stdout1" > "$DET_DIR/stdout1.norm"
sed "s|$DET_DIR/json2|JSON_DIR|" "$DET_DIR/stdout2" > "$DET_DIR/stdout2.norm"
diff "$DET_DIR/stdout1.norm" "$DET_DIR/stdout2.norm"
diff -r "$DET_DIR/json1" "$DET_DIR/json2"

echo "== multi-core determinism (--cores 1 == legacy; fig6 jobs-invariant)"
# A 1-core machine must be bit-identical to the machine before cores
# existed, and the fig6 co-scheduling tables must not depend on how
# many job threads computed them.
./target/release/repro fig3 --test-scale > "$DET_DIR/fig3_legacy" 2>/dev/null
./target/release/repro fig3 --test-scale --cores 1 > "$DET_DIR/fig3_cores1" 2>/dev/null
diff "$DET_DIR/fig3_legacy" "$DET_DIR/fig3_cores1"
./target/release/repro fig6 --test-scale --cores 4 --jobs 1 > "$DET_DIR/fig6_j1" 2>/dev/null
./target/release/repro fig6 --test-scale --cores 4 --jobs 4 > "$DET_DIR/fig6_j4" 2>/dev/null
diff "$DET_DIR/fig6_j1" "$DET_DIR/fig6_j4"

echo "== fig5 scheme shoot-out determinism (stdout + JSON jobs-invariant)"
# The rival-scheme comparison runs every workload live on every front
# end (the op streams are identical by determinism); neither the table
# nor the per-cell JSON reports may depend on how many job threads
# computed them.
./target/release/repro fig5 --test-scale --jobs 1 --json-dir "$DET_DIR/fig5_json1" \
  > "$DET_DIR/fig5_j1" 2>/dev/null
./target/release/repro fig5 --test-scale --jobs 4 --json-dir "$DET_DIR/fig5_json2" \
  > "$DET_DIR/fig5_j4" 2>/dev/null
sed "s|$DET_DIR/fig5_json1|JSON_DIR|" "$DET_DIR/fig5_j1" > "$DET_DIR/fig5_j1.norm"
sed "s|$DET_DIR/fig5_json2|JSON_DIR|" "$DET_DIR/fig5_j4" > "$DET_DIR/fig5_j4.norm"
diff "$DET_DIR/fig5_j1.norm" "$DET_DIR/fig5_j4.norm"
diff -r "$DET_DIR/fig5_json1" "$DET_DIR/fig5_json2"

echo "== trace record/replay determinism (live == recorded == replayed; traces byte-identical)"
# Three test-scale fig3 runs: live (the default), recording (in-memory
# cache + traces persisted to disk), and replaying from the persisted
# traces. All three stdouts must be byte-identical — the trace
# record/replay layer is required to be invisible in simulated results.
./target/release/repro fig3 --test-scale \
  > "$DET_DIR/rr_live" 2>/dev/null
./target/release/repro fig3 --test-scale --record-traces "$DET_DIR/traces" \
  > "$DET_DIR/rr_record_raw" 2>/dev/null
./target/release/repro fig3 --test-scale --replay-traces "$DET_DIR/traces" \
  > "$DET_DIR/rr_replay" 2>/dev/null
# The recording run appends [trace written ...] notices; strip them
# before comparing.
grep -v '^\[trace written' "$DET_DIR/rr_record_raw" > "$DET_DIR/rr_record"
diff "$DET_DIR/rr_live" "$DET_DIR/rr_record"
diff "$DET_DIR/rr_live" "$DET_DIR/rr_replay"
# Recording is byte-deterministic too: a second recording run writes
# the same MTR1 files, byte for byte.
./target/release/repro fig3 --test-scale --record-traces "$DET_DIR/traces2" \
  > /dev/null 2>&1
diff -r "$DET_DIR/traces" "$DET_DIR/traces2"

echo "== paper-scale cycle-fidelity gate (live pins of benchmark/expected.json)"
# Runs this tree's simulator at paper scale, one rep, through the
# benchmark as shipped: `"correct": true` means every unit matched its
# pinned simulated cycles and counter digest — 22 cells across live
# runs on four translation front ends, one MTR1 recording and its
# 4-core co-run, plus kernel_churn's 17 segments, the only pins that
# drive remap, swap-out, demotion, recoloring, page_bits and sbrk at
# paper scale. Any simulated-cycle drift this change causes is a hard
# failure. The perop_fig5_fig6 run (last, so `$result` is its line)
# also gates memory: its peak RSS was 537 MB while fig5/fig6 tasks held
# decoded op vectors and 101 MB while replayed zero stores still backed
# guest pages and a sealed trace was copied; about 41 MB since, so it
# must stay under 60 MB.
for workload in live_paper5 kernel_churn perop_fig5_fig6; do
  result="$(bash benchmark/run.sh --workload "$workload" --seed 1 --reps 1 --trace 0 \
    2>/dev/null | tail -n 1)" || true
  if [[ "$result" != *'"correct": true'* ]]; then
    echo "$workload did not match its paper-scale pins: ${result:-no result line}" >&2
    exit 1
  fi
done
rss_mb="$(sed -n 's/.*"peak_rss_mb": {"value": \([0-9]*\).*/\1/p' <<<"$result")"
if [ -z "$rss_mb" ] || [ "$rss_mb" -ge 60 ]; then
  echo "perop_fig5_fig6 peak RSS ${rss_mb:-unparsed} MB is not under 60 MB: $result" >&2
  exit 1
fi
echo "   perop_fig5_fig6 peak RSS: ${rss_mb} MB"

echo "== benchmark crate (fmt, clippy, tests, test-scale smoke run)"
# benchmark/ is its own workspace building against crates/* by path: a
# crate-API change that breaks its build, its unit tests or the result
# schema must fail here, not in the pipeline. (The per-unit cycle pins
# in benchmark/expected.json hold at paper scale only; the smoke run
# is test scale.)
bash benchmark/check.sh

echo "ci.sh: all green in ${SECONDS} s"
