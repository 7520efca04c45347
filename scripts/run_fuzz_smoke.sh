#!/usr/bin/env bash
# Replays the checked-in seed corpora through every fuzz harness using the
# standalone driver (no libFuzzer needed — works under plain GCC). This is
# the deterministic CI smoke; for real coverage-guided fuzzing configure
# with clang and -DWMLP_LIBFUZZER=ON and run the binaries directly.
#
# Usage: scripts/run_fuzz_smoke.sh [build-dir]   (default: build)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"

fail=0
for target in fuzz_trace_io fuzz_policy_differ fuzz_serve_config \
              fuzz_predictor_config fuzz_registry_spec; do
  bin="$build/fuzz/$target"
  corpus="$repo/tests/corpus/${target#fuzz_}"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (configure without -DWMLP_LIBFUZZER=ON)" >&2
    exit 1
  fi
  if ! compgen -G "$corpus/*" > /dev/null; then
    echo "error: no corpus files in $corpus (run scripts/make_fuzz_corpus.sh)" >&2
    exit 1
  fi
  echo "== $target over $corpus"
  "$bin" "$corpus"/* || fail=1
done
exit "$fail"
