#!/usr/bin/env python3
"""Appends a benchmark run to the longitudinal history and prints trends.

  scripts/bench_history.py --input bench_results/BENCH_perf.json
      [--history bench_results/history.jsonl] [--date ISO8601]

Each invocation appends one JSON line to the history file:

  {"schema": "wmlp-bench-history-v1", "git_sha": "...",
   "date": "2026-08-08T12:34:56+00:00", "quick": true,
   "cells": {"<bench>": <ns_per_request>, ...}}

and prints a per-cell trend delta against the most recent prior entry
recorded in the same mode (quick runs compare to quick runs, full to
full) — a longitudinal view across commits that the point-in-time gate
(check_perf_regression.py, baseline vs current) cannot give. The trend is
informational only: a slowdown prints but never fails, because gating
lives in check_perf_regression.py against the curated baseline envelope.
Entries that carry a "source" key (servebench medians, appended by hand
with "source": "servebench") are not perf-suite runs, so no trend is
taken against them.

--date overrides the recorded timestamp (tests use it for determinism);
the default is the current UTC time.

Exit status: 0 on success, 2 on IO error or malformed input/history.
"""

import argparse
import datetime
import json
import math
import os
import sys


def die(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_run(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read {path}: {e}")
    if not isinstance(doc, dict) or doc.get("schema") != "wmlp-bench-perf-v1":
        die(f"{path}: not a wmlp-bench-perf-v1 document")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        die(f"{path}: no benchmark cells")
    cells = {}
    for cell in results:
        if not isinstance(cell, dict) or not isinstance(
                cell.get("bench"), str) or not cell["bench"]:
            die(f"{path}: cell without a bench name")
        # Same cell identity as check_perf_regression.py's cell_key():
        # solver benches repeat their name across (n, ell, requests)
        # configurations, so the name alone is ambiguous.
        try:
            name = (f"{cell['bench']}|n={cell['n']}|ell={cell['ell']}"
                    f"|req={cell['requests']}")
        except KeyError as e:
            die(f"{path}: cell '{cell['bench']}' missing {e}")
        ns = cell.get("ns_per_request")
        if not isinstance(ns, (int, float)) or isinstance(ns, bool) \
                or not math.isfinite(ns) or ns < 0:
            die(f"{path}: cell '{name}' has no finite ns_per_request")
        if name in cells:
            die(f"{path}: duplicate cell '{name}'")
        cells[name] = float(ns)
    return doc, cells


def load_history(path):
    """Returns prior entries, oldest first. Malformed lines are fatal: a
    corrupt history would silently skew every future trend report."""
    entries = []
    if not os.path.exists(path):
        return entries
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as e:
                    die(f"{path}:{lineno}: malformed history line: {e}")
                if not isinstance(entry, dict) or \
                        entry.get("schema") != "wmlp-bench-history-v1" or \
                        not isinstance(entry.get("cells"), dict):
                    die(f"{path}:{lineno}: not a wmlp-bench-history-v1 entry")
                entries.append(entry)
    except OSError as e:
        die(f"cannot read {path}: {e}")
    return entries


def print_trends(cells, prev):
    if prev is None:
        print("bench history: first recorded run in this mode, no trend")
        return
    base = f"{prev.get('git_sha', '?')} @ {prev.get('date', '?')}"
    print(f"bench history: trend vs {base}")
    width = max(len(n) for n in cells)
    for name in sorted(cells):
        cur = cells[name]
        old = prev["cells"].get(name)
        if not isinstance(old, (int, float)) or isinstance(old, bool):
            verdict = "(new cell)"
        elif old <= 0.0:
            verdict = f"(prev {old:.2f}, no ratio)"
        else:
            pct = 100.0 * (cur - old) / old
            verdict = f"(prev {old:9.2f}, {pct:+6.1f}%)"
        print(f"  {name:<{width}}  {cur:9.2f} ns/req  {verdict}")
    gone = sorted(set(prev["cells"]) - set(cells))
    if gone:
        print(f"  cells no longer reported: {', '.join(gone)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True,
                    help="merged BENCH_perf.json from run_benchmarks.sh")
    ap.add_argument("--history",
                    default=os.path.join(os.path.dirname(__file__), "..",
                                         "bench_results", "history.jsonl"))
    ap.add_argument("--date", default=None,
                    help="override the recorded ISO-8601 timestamp")
    args = ap.parse_args()

    doc, cells = load_run(args.input)
    quick = bool(doc.get("quick", False))
    entries = load_history(args.history)
    prev = next((e for e in reversed(entries)
                 if bool(e.get("quick", False)) == quick and
                 "source" not in e), None)

    date = args.date or datetime.datetime.now(
        datetime.timezone.utc).isoformat(timespec="seconds")
    entry = {
        "schema": "wmlp-bench-history-v1",
        "git_sha": doc.get("git_sha", "unknown"),
        "date": date,
        "quick": quick,
        "cells": cells,
    }
    try:
        os.makedirs(os.path.dirname(os.path.abspath(args.history)),
                    exist_ok=True)
        with open(args.history, "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    except OSError as e:
        die(f"cannot append to {args.history}: {e}")

    print_trends(cells, prev)
    print(f"bench history: recorded {len(cells)} cells "
          f"({'quick' if quick else 'full'}) to {args.history}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
