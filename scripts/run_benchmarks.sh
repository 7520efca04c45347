#!/usr/bin/env bash
# Builds Release and runs the perf suite, emitting machine-readable
# bench_results/BENCH_perf.json and gating it against the checked-in
# baseline (quick runs gate against the quick baseline, full runs against
# the full one).
#
#   scripts/run_benchmarks.sh [--quick] [--update-baseline] [output_dir]
#
# --update-baseline re-records the baseline for the current mode instead of
# gating; run it on the reference machine after an intentional perf change
# and commit the result.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=""
UPDATE=0
OUT="bench_results"
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK="--quick" ;;
    --update-baseline) UPDATE=1 ;;
    *) OUT="$arg" ;;
  esac
done

# Same rationale as run_all_experiments.sh: throughput from an unoptimized
# build is meaningless, and the regression gate would fire spuriously.
cmake -B build -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build --target bench_perf_suite >/dev/null
mkdir -p "$OUT"
# Catch an unwritable output directory up front: a read-only $OUT would
# otherwise surface as a confusing downstream parse error (or, worse, a
# stale BENCH_perf.json silently gating the wrong run).
if ! touch "$OUT/.write_probe" 2>/dev/null; then
  echo "error: output directory '$OUT' is not writable" >&2
  exit 1
fi
rm -f "$OUT/.write_probe"

SHA=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)

# Runs the perf driver into $1 and propagates a non-zero exit explicitly,
# removing the partial JSON: a run that dies after writing part of its
# output must never be gated, or recorded as a baseline, as if complete.
run_perf() {
  build/bench/bench_perf_suite $QUICK --json "$1" --git-sha "$SHA" && return 0
  local status=$?
  echo "error: bench_perf_suite exited with status $status" >&2
  rm -f "$1"
  exit "$status"
}

# One artifact: solver cells, serve-* cells (informational; the gate skips
# them by bench-name prefix), batch<b>-<policy> sweep cells and kernel-*
# microbenchmark cells, all from one process.
run_perf "$OUT/BENCH_perf.json"

# Fail loudly if the artifact has no cells — every downstream consumer (the
# gate, CI artifact upload, plotting) assumes this file is real.
if ! python3 -c "
import json, sys
with open('$OUT/BENCH_perf.json') as f:
    doc = json.load(f)
sys.exit(0 if doc.get('results') else 1)
"; then
  echo "error: $OUT/BENCH_perf.json contains no benchmark cells" >&2
  exit 1
fi

# Longitudinal record: every completed run lands in history.jsonl with a
# per-cell trend delta against the previous run of the same mode. Runs
# before the gate on purpose — a regressing run is exactly the one worth
# having in the history when the gate below goes red.
python3 scripts/bench_history.py --input "$OUT/BENCH_perf.json" \
  --history bench_results/history.jsonl

if [[ -n "$QUICK" ]]; then
  BASELINE="bench_results/BENCH_baseline_quick.json"
else
  BASELINE="bench_results/BENCH_baseline.json"
fi

if [[ "$UPDATE" -eq 1 ]]; then
  # A baseline from a single run makes the 25% gate flaky: best-of timing
  # still shifts 20-30% between processes (allocator layout, frequency
  # scaling). Record two more runs and keep each cell's slowest
  # observation — a conservative envelope the gate compares against.
  run_perf "$OUT/BENCH_perf.run2.json" >/dev/null
  run_perf "$OUT/BENCH_perf.run3.json" >/dev/null
  python3 scripts/check_perf_regression.py --out "$BASELINE" --merge-max \
    "$OUT/BENCH_perf.json" "$OUT/BENCH_perf.run2.json" \
    "$OUT/BENCH_perf.run3.json"
  rm -f "$OUT/BENCH_perf.run2.json" "$OUT/BENCH_perf.run3.json"
  echo "updated $BASELINE"
else
  python3 scripts/check_perf_regression.py \
    --baseline "$BASELINE" \
    --current "$OUT/BENCH_perf.json" \
    --max-regression 0.25 --min-speedup 5
fi
