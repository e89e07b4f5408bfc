#!/usr/bin/env bash
# Offline CI: build, test, lint, pinned results/ tables, the wfsbench tests,
# and a one-iteration benchmark smoke run.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release (workspace)"
cargo build --release --workspace

echo "== cargo test -q (workspace)"
cargo test -q --release --workspace

echo "== cargo test -q (debug profile: plan_lint hook and debug_asserts)"
# The release tests skip `Algorithm::run`'s plan_lint hook and the
# debug_asserts of the planner's ready index and the engine; run the
# library crates' suites, the equivalence suite included, with them on.
cargo test -q -p wfs-workflow -p wfs-simulator -p wfs-observe -p wfs-scheduler
# The DAX reader's pinned outcomes, with overflow checks on its index
# arithmetic, over every fuzz mutant and hand-written corner; and the
# engine and refinement pins, with the engine's debug_asserts guarding
# every reset of a reused run state.
cargo test -q --test dax_golden --test dax_fuzz --test golden

echo "== cargo clippy -- -D warnings (workspace, all targets)"
cargo clippy --release --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings (workspace; broken intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== wfs-analyze (banned-pattern scan vs analyze-allow.txt)"
cargo run --release -p wfs-analyze -- --workspace

echo "== non-test line counts per library crate (informational, no gate)"
./scripts/loc.sh

echo "== fault-injection smoke grid (2 workflows x 2 policies, fixed seeds)"
WFS=target/release/wfs
FAULTS_TMP=$(mktemp -d)
trap 'rm -rf "$FAULTS_TMP"' EXIT
"$WFS" gen montage 30 --seed 1 -o "$FAULTS_TMP/montage30.json" >/dev/null
"$WFS" gen ligo 30 --seed 2 -o "$FAULTS_TMP/ligo30.json" >/dev/null
for wf in montage30 ligo30; do
  for pol in retry reschedule; do
    # --lint makes violations a non-zero exit: recovered plans must stay
    # invariant-clean in every epoch.
    "$WFS" faults "$FAULTS_TMP/$wf.json" --budget 3.0 --policy "$pol" \
      --mtbf 600 --boot-fail 0.1 --seed 7 --max-epochs 24 --lint >/dev/null
    echo "  faults $wf/$pol: lint-clean"
  done
done

echo "== trace round-trip smoke (wfs trace + faults --trace/--ledger)"
# `grep -q` exits at the match and closes the pipe while wfs may still be
# writing; wfs must then end quietly with status 0 (pipefail is on).
"$WFS" trace "$FAULTS_TMP/montage30.json" --budget 2.0 --seed 3 --ledger --counters \
  -o "$FAULTS_TMP/montage30.trace.json" | grep -q "reconciles  yes (exact)"
"$WFS" faults "$FAULTS_TMP/ligo30.json" --budget 3.0 --mtbf 600 --boot-fail 0.1 \
  --seed 7 --trace "$FAULTS_TMP/ligo30.trace.json" --ledger | grep -q "reconciles  yes (exact)"
# Both exports must parse as JSON with a non-empty traceEvents array; a
# file that does not parse fails the step.
for f in montage30 ligo30; do
  python3 -c "import json,sys; assert json.load(open(sys.argv[1]))['traceEvents']" \
    "$FAULTS_TMP/$f.trace.json"
done
echo "  trace exports parse, ledgers reconcile exactly"

echo "== DAX ingest smoke (2000-task DAX files parse to the JSON export's shape)"
dax_counts() { "$WFS" stats "$1" | grep -E '^(tasks|edges) '; }
for ty in montage cybershake ligo; do
  "$WFS" gen "$ty" 2000 -o "$FAULTS_TMP/$ty.dax" 2>/dev/null
  "$WFS" gen "$ty" 2000 -o "$FAULTS_TMP/$ty.json" 2>/dev/null
  diff <(dax_counts "$FAULTS_TMP/$ty.dax") <(dax_counts "$FAULTS_TMP/$ty.json")
  echo "  $ty: $(dax_counts "$FAULTS_TMP/$ty.dax" | tr -s ' ' | paste -sd ' ' -)"
done

echo "== results/ tables regenerate byte-identical"
# Every deterministic table is pinned: a change that moves a schedule shows
# up here as a diff against results/. The CSVs end in two scheduling-time
# columns (wall clock), which are stripped before comparing.
RES_TMP="$FAULTS_TMP/results"
mkdir -p "$RES_TMP"
for cmd in fig1 fig2 fig3 fig4 sigma sizes online extras deadline robustness faults counters ablations; do
  WFS_RESULTS_DIR="$RES_TMP" target/release/wfs-experiments "$cmd" >/dev/null
done
for f in "$RES_TMP"/*.md; do
  diff -u "results/$(basename "$f")" "$f"
done
strip_timing() { sed -E 's/,[^,]*,[^,]*$//' "$1"; }
for f in "$RES_TMP"/*.csv; do
  diff -u <(strip_timing "results/$(basename "$f")") <(strip_timing "$f")
done
echo "  results/ regenerated identically"

echo "== wfsbench (its own workspace): cargo test"
cargo test -q --release --offline --manifest-path wfsbench/Cargo.toml

echo "== quickbench smoke + zero-overhead gate (1 iteration vs pinned medians)"
# Writes to a temp file (the pin is regenerated only by deliberate 9-iteration
# runs) and gates the medians against BENCH_sched_time.json: the run must
# cover exactly the pinned cells and their median ratio must stay within
# 1.5x — a NoopSink that stopped compiling away would shift every cell,
# which the gate catches even at 1 iteration.
target/release/wfs-experiments quickbench 1 \
  --out "$FAULTS_TMP/bench-smoke.json" --gate BENCH_sched_time.json 2>&1 | tail -n 6
test -s "$FAULTS_TMP/bench-smoke.json"

echo "CI OK"
