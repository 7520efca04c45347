#!/usr/bin/env bash
# Every binary parses its flags strictly (src/util/flags.h). Each tool, one
# bench_e* binary, bench_perf_suite and wmlp_lint is run three ways — a
# misspelled flag, a stray positional argument and a repeated value flag —
# and each run must exit 2 and name the offending token on stderr; so must
# a flag one mode reads given in another. The inputs are real, so the typo
# is the only thing wrong with each command.
#
# Usage: tests/cli_typo_test.sh <tools-dir> <bench-dir> <scratch-dir>
set -u
tools=$1
bench=$2
dir=$3
mkdir -p "$dir"
trace=$dir/typo.wmlp
snap=$dir/typo.json
"$tools/wmlp_tracegen" --kind zipf --n 32 --k 4 --ell 2 --length 200 \
  --out "$trace" > /dev/null || exit 1
"$tools/wmlp_serve" --trace "$trace" --shards 2 --telemetry-out "$snap" \
  > /dev/null || exit 1

failures=0
# expect TOKEN CMD...: CMD exits 2 and prints TOKEN on stderr.
expect() {
  local token=$1
  shift
  local err
  err=$("$@" 2>&1 > /dev/null)
  local code=$?
  if [[ $code -ne 2 || $err != *"'$token'"* ]]; then
    echo "FAIL: $* exited $code, stderr: $err (wanted 2 naming '$token')" >&2
    failures=$((failures + 1))
  fi
}

expect --lenght "$tools/wmlp_tracegen" --lenght 10 --out "$dir/t.wmlp"
expect stray "$tools/wmlp_tracegen" --out "$dir/t.wmlp" stray
expect --length "$tools/wmlp_tracegen" --length 10 --length 20 \
  --out "$dir/t.wmlp"
expect --alpha "$tools/wmlp_tracegen" --kind uniform --alpha 0.5 \
  --out "$dir/t.wmlp"
expect --ell "$tools/wmlp_tracegen" --kind wadv --mix uniform --ell 3 \
  --out "$dir/t.wmlp"

expect --trails "$tools/wmlp_run" --trace "$trace" --trails 5
expect stray "$tools/wmlp_run" --trace "$trace" stray
expect --trials "$tools/wmlp_run" --trace "$trace" --trials 2 --trials 3

expect --dp-limt "$tools/wmlp_opt" --trace "$trace" --dp-limt 5
expect stray "$tools/wmlp_opt" --trace "$trace" stray
expect --trace "$tools/wmlp_opt" --trace "$trace" --trace "$trace"

expect --lenght "$tools/wmlp_wbrun" --n 16 --lenght 10
expect stray "$tools/wmlp_wbrun" --n 16 stray
expect --n "$tools/wmlp_wbrun" --n 16 --n 8

expect --polcy "$tools/wmlp_serve" --trace "$trace" --polcy lru
expect stray "$tools/wmlp_serve" --trace "$trace" stray
expect --shards "$tools/wmlp_serve" --trace "$trace" --shards 2 --shards 4

expect --filtr "$tools/wmlp_stats" --snapshot "$snap" --filtr zzz
expect --require-nonzer "$tools/wmlp_stats" --check --snapshot "$snap" \
  --require-nonzer M
expect stray "$tools/wmlp_stats" --snapshot "$snap" stray
expect --filter "$tools/wmlp_stats" --snapshot "$snap" --filter a --filter b

expect --plian "$tools/wmlp_top" --snapshot-file "$snap" --iterations 1 \
  --plian
expect stray "$tools/wmlp_top" --snapshot-file "$snap" --iterations 1 stray
expect --iterations "$tools/wmlp_top" --snapshot-file "$snap" \
  --iterations 1 --iterations 2

expect --quik "$bench/bench_e2_ratio_vs_k" --quik
expect stray "$bench/bench_e2_ratio_vs_k" --quick stray
expect --csv "$bench/bench_e2_ratio_vs_k" --quick --csv "$dir" --csv "$dir"

expect --jsn "$bench/bench_perf_suite" --quick --jsn "$dir/p.json"
expect stray "$bench/bench_perf_suite" --quick stray
expect --json "$bench/bench_perf_suite" --quick --json "$dir/p.json" \
  --json "$dir/q.json"

expect --rot "$tools/wmlp_lint" --rot "$dir"
expect stray "$tools/wmlp_lint" --list-rules stray
expect --root "$tools/wmlp_lint" --root "$dir" --root "$dir"

# A flag declared for one mode is rejected in another.
expect --loop-size "$tools/wmlp_tracegen" --kind zipf --loop-size 7 \
  --out "$dir/t.wmlp"
expect --require-nonzero "$tools/wmlp_stats" --snapshot "$snap" \
  --require-nonzero M
expect --k "$tools/wmlp_run" --trace "$trace" --k 5

# A value flag needs its value, and there is one spelling per flag.
expect --trace "$tools/wmlp_serve" --trace
expect --seed "$tools/wmlp_run" --trace "$trace" --seed --opt
expect --http-port "$tools/wmlp_serve" --trace "$trace" --http-port
expect --trials=5 "$tools/wmlp_run" --trace "$trace" --trials=5

if [[ $failures -ne 0 ]]; then
  echo "$failures command(s) did not exit 2 naming the offending token" >&2
  exit 1
fi
echo "every misspelled, stray, repeated or out-of-mode argument exited 2"
