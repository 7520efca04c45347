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
# full_run.txt with ~10x-off throughput numbers.
cmake -B build -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build >/dev/null
mkdir -p "$OUT"

{
  for b in build/bench/bench_e*; do
    echo "===== $(basename "$b") ====="
    "$b" $QUICK --csv "$OUT"
    echo
  done

  # Machine-readable perf trajectory alongside the CSVs (E15-E17 and the
  # kernel rows): the same full artifact scripts/run_benchmarks.sh writes.
  # No gate here — run_benchmarks.sh owns the regression check.
  echo "===== bench_perf_suite ====="
  SHA=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
  build/bench/bench_perf_suite $QUICK --json "$OUT/BENCH_perf.json" \
    --git-sha "$SHA"
} | tee "$OUT/full_run.txt"

echo "wrote $OUT/full_run.txt (+ per-table CSVs + BENCH_perf.json)"
