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

echo "== size counts (information only, no gate)"
# The two numbers ROADMAP tracks, counted one way for every change:
# non-test lines in crates/*/src (each file's lines above its first
# #[cfg(test)], indented or not) and the #[expect] attributes there that
# name clippy::{expect_used, panic, unreachable}.
shopt -s globstar
src_files=(crates/*/src/**/*.rs)
awk 'FNR == 1 { in_test = 0 }
  /^[ \t]*#\[cfg\(test\)\]/ { in_test = 1 }
  !in_test { n++ }
  END { print "   non-test lines in crates/*/src: " n }' "${src_files[@]}"
awk '/#\[expect\(/ { open = 1; hit = 0 }
  open && /clippy::(expect_used|panic|unreachable)([^_a-z]|$)/ { hit = 1 }
  open && /\)\]/ { n += hit; open = 0 }
  END { print "   #[expect]s naming clippy::{expect_used, panic, unreachable}: " n + 0 }' \
  "${src_files[@]}"

echo "== cargo build --release"
cargo build --release --workspace

echo "== examples (release, each run to completion)"
# dirty_paging, recoloring and quickstart assert guest data through
# remap, swap-out and recolor; every example must exit 0.
cargo build --release --examples
for example in examples/*.rs; do
  ./target/release/examples/"$(basename "$example" .rs)" > /dev/null
done

echo "== examples (debug build, each run to completion)"
# Debug assertions on: every report() an example takes runs the cycle
# attribution audit, and every access-memo hit its debug asserts.
cargo build --examples
for example in examples/*.rs; do
  ./target/debug/examples/"$(basename "$example" .rs)" > /dev/null
done

echo "== cargo test"
cargo test -q --workspace

echo "== cargo doc (deny warnings)"
# Vendored third-party stand-ins (vendor/*) are excluded: only this
# repo's own documentation is held to the no-warnings bar.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet \
  --exclude proptest --exclude rand

echo "== jobs invariance (repro all: stdout, JSON reports and [job] lines at --jobs 1 and 4)"
# `repro all` runs every experiment: its stdout holds the fig3, fig5,
# fig6 and extensions sections, its JSON directory a report per fig3-fig6
# row, and fig6's 2/4/8-instance co-runs cover 4 cores. None of it may
# depend on how many job threads computed it. The Runner hands each
# class (specs that differ only in CPU-TLB size) to one thread, which
# runs its jobs in spec order, so which job simulates a run and which
# run serves every other job is a function of the spec list: with wall
# times stripped and the lines sorted, the `[job]` stderr lines (cycles
# and `served by`) must match too. Stdout names each run's JSON
# directory in its `[written ...]` lines, normalised away here.
DET_DIR="$(mktemp -d)"
trap 'rm -rf "$DET_DIR"' EXIT
repro_all() {
  local name="$1"
  shift
  ./target/release/repro all --test-scale --json-dir "$DET_DIR/${name}_json" "$@" \
    2> "$DET_DIR/${name}_err" | sed "s|$DET_DIR/${name}_json|JSON_DIR|" > "$DET_DIR/$name"
}
job_lines() {
  grep 'simulated cycles' "$1" | sed -E 's/: +[0-9.]+[^ ]*s wall, /: /' | sort
}
repro_all all_j1 --jobs 1
repro_all all_j4 --jobs 4
diff "$DET_DIR/all_j1" "$DET_DIR/all_j4"
diff -r "$DET_DIR/all_j1_json" "$DET_DIR/all_j4_json"
diff <(job_lines "$DET_DIR/all_j1_err") <(job_lines "$DET_DIR/all_j4_err")

echo "== served == simulated (repro all: result cache on vs --trace, which bypasses it)"
# The Runner serves a cell from a run of the same class whose CPU TLB
# never evicted, at any capacity that holds its peak; `--trace`
# simulates every job. Its stdout and JSON reports must be byte-identical
# to the served `--jobs 1` ones above (which the step above ties to
# `--jobs 4`). The diff is vacuous unless the traced run really
# simulated: its stderr must name no serving run and carry one `[trace]`
# line per `[job]` line.
repro_all all_simulated --trace
diff "$DET_DIR/all_j1" "$DET_DIR/all_simulated"
diff -r "$DET_DIR/all_j1_json" "$DET_DIR/all_simulated_json"
if grep -q 'served by' "$DET_DIR/all_simulated_err"; then
  echo "repro --trace served a job from the result cache" >&2
  exit 1
fi
line_labels() {
  sed -n "s/^$1 \([^:]*\):.*/\1/p" "$2" | sort
}
diff <(line_labels '\[job\]' "$DET_DIR/all_simulated_err") \
  <(line_labels '\[trace\]' "$DET_DIR/all_simulated_err")
if ! grep -q '^\[job\]' "$DET_DIR/all_simulated_err"; then
  echo "repro --trace printed no [job] line" >&2
  exit 1
fi

echo "== paper-scale repro all golden (stdout byte-identical to the committed fixture)"
# The only paper-scale pin on fig4, §2.5, §3.3 and the extensions (the
# benchmark pins below cover fig3, fig5, fig6 cells and the kernel
# services): paper-scale `repro all` at two job threads, result cache
# on, must print exactly the fixture. Regenerate it only with a change
# that is meant to move simulated output, and say so.
./target/release/repro all --jobs 2 > "$DET_DIR/all_paper" 2>/dev/null
diff crates/bench/tests/fixtures/repro_all_paper_scale.txt "$DET_DIR/all_paper"

echo "== paper-scale cycle-fidelity gate (live pins of benchmark/expected.json)"
# Runs this tree's simulator at paper scale, one rep, through the
# benchmark as shipped: `"correct": true` means every unit matched its
# pinned simulated cycles and counter digest — 35 cells across live
# runs on four translation front ends at 64–256 TLB entries (fig3's
# radix@256 cells are the only 256-entry TLB pinned anywhere), one
# vortex run and its 4-core co-run, plus kernel_churn's 17 segments, the
# only pins that drive remap, swap-out, demotion, recoloring, page_bits
# and sbrk at paper scale. Any simulated-cycle drift this change causes
# is a hard failure. The perop_fig5_fig6 run (last, so `$result` is its
# line) also gates memory: its peak RSS was 537 MB while fig5/fig6 tasks
# held decoded op vectors, 101 MB while replayed zero stores still
# backed guest pages and a sealed trace was copied, and about 41 MB
# while each co-run recorded its workload on a 1-core copy and held the
# trace; about 28 MB since a co-run mirrors one live run (no trace
# recorded, held or decoded), so it must stay under 35 MB.
for workload in live_paper5 sweep_fig3 kernel_churn perop_fig5_fig6; do
  result="$(bash benchmark/run.sh --workload "$workload" --seed 1 --reps 1 --trace 0 \
    2>/dev/null | tail -n 1)" || true
  if [[ "$result" != *'"correct": true'* ]]; then
    echo "$workload did not match its paper-scale pins: ${result:-no result line}" >&2
    exit 1
  fi
done
rss_mb="$(sed -n 's/.*"peak_rss_mb": {"value": \([0-9]*\).*/\1/p' <<<"$result")"
if [ -z "$rss_mb" ] || [ "$rss_mb" -ge 35 ]; then
  echo "perop_fig5_fig6 peak RSS ${rss_mb:-unparsed} MB is not under 35 MB: $result" >&2
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
