#!/usr/bin/env bash
# Runs wmlp_lint (tools/lint) — the project determinism / hot-path
# checker — over the whole first-party tree, using the
# CMake compile database for the TU list (headers are added by the
# tool's own src/ walk). Builds the checker first if the build directory
# doesn't have it yet. Exits non-zero on any finding.
#
# This is the entry point CI's lint job and pre-commit hooks use; the
# rule catalog lives in tools/lint/lint.h and docs/ARCHITECTURE.md §12.
#
# Usage: scripts/run_wmlp_lint.sh [build-dir]   (default: build)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
case "$build" in
  /*) ;;
  *) build="$repo/$build" ;;
esac

db="$("$repo/scripts/ensure_compile_db.sh" "$build")"

lint="$build/tools/wmlp_lint"
if [[ ! -x "$lint" ]]; then
  echo "note: building wmlp_lint" >&2
  cmake --build "$build" --target wmlp_lint > /dev/null
fi

exec "$lint" --root "$repo" --compile-db "$db"
