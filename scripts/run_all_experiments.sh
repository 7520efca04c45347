#!/usr/bin/env bash
# Builds the project and regenerates every experiment table (and CSVs).
#
#   scripts/run_all_experiments.sh [--quick] [output_dir]
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=""
OUT="bench_results"
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK="--quick" ;;
    *) OUT="$arg" ;;
  esac
done

# Benchmarks must run optimized; a Debug build here once produced a
# full_run.txt with ~10x-off throughput numbers. The Release tree lives
# under .bench_build so it never reconfigures the tier-1 build/ tree.
BUILD=.bench_build/experiments
cmake -B "$BUILD" -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" >/dev/null
mkdir -p "$OUT"

{
  for b in "$BUILD"/bench/bench_e*; do
    echo "===== $(basename "$b") ====="
    "$b" $QUICK --csv "$OUT"
    echo
  done

  # Machine-readable perf trajectory alongside the CSVs (E15-E17 and the
  # kernel rows), one run of the driver. No gate here: scripts/perf.py run
  # gates against the parent built on the same host.
  echo "===== bench_perf_suite ====="
  SHA=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
  "$BUILD"/bench/bench_perf_suite $QUICK --json "$OUT/BENCH_perf.json" \
    --git-sha "$SHA"
} | tee "$OUT/full_run.txt"

echo "wrote $OUT/full_run.txt (+ per-table CSVs + BENCH_perf.json)"
