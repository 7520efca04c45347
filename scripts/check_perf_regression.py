#!/usr/bin/env python3
"""Perf regression gate over bench_perf_suite JSON output.

Compares a current BENCH_perf.json against a checked-in baseline:

  * every cell (bench, n, ell, requests) present in both files must not be
    more than --max-regression slower (ns/request) than the baseline;
  * the fractional-fast solver must beat fractional-reference by at least
    --min-speedup x at the largest n where both ran with ell = 2 (the
    output-sensitivity acceptance criterion);
  * every cell must stay allocation-free in steady state: a cell's total
    heap allocations (allocs_per_request * requests, measured by the perf
    driver's operator-new hook) must fit
    an affine budget --alloc-setup-budget + --max-allocs-per-request *
    requests. The constant term absorbs policy construction and Attach,
    and for serve-* cells the whole per-rep ServeTrace setup (shard map,
    per-shard engines, inboxes, thread spawns), which allocates per shard
    and per client, never per page; the linear term (default
    0.01/request) catches any per-request allocation long before it
    reaches 1 per request. Baseline-independent:
    the budget is absolute, not relative to the recorded baseline.
    Only cells from debug builds (allocs_per_request < 0) are exempt.

Cells present in only one file are reported but never fail the gate — the
grids differ between --quick and full mode by design.

Exit status: 0 pass, 1 fail, 2 usage/IO error.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def cell_key(c):
    return (c["bench"], c["n"], c["ell"], c["requests"])


def informational(bench):
    """Cells that are printed and merged but can never fail the gate.

    serve-* wall-clock is dominated by thread scheduling (and includes the
    ServeTrace setup), which jitters far past the 25% gate.
    """
    return bench.startswith("serve-")


def warn_metadata_mismatch(base, cur):
    """Warns (never fails) when baseline and current run disagree on the
    machine or toolchain.

    The ns/request envelope is machine-specific: a different CPU, a
    different kernel-dispatch ISA, or a different compiler shifts every
    cell at once, so a mismatch turns the 25% gate into noise in both
    directions. That still should not fail CI — runners get upgraded —
    but the operator re-recording the baseline needs to see why the
    numbers moved.
    """
    bm = base.get("metadata")
    cm = cur.get("metadata")
    if not bm and not cm:
        return
    if not bm or not cm:
        which = "baseline" if not bm else "current run"
        print(f"warning: {which} carries no machine metadata; re-record "
              "the baseline with a current bench binary to enable the "
              "mismatch check")
        return
    for key in sorted(set(bm) | set(cm)):
        if bm.get(key) != cm.get(key):
            print(f"warning: metadata mismatch on '{key}': baseline "
                  f"'{bm.get(key)}' vs current '{cm.get(key)}'; "
                  "ns/request envelopes are machine-specific — expect "
                  "drift in both directions")


def merge_max(out_path, in_paths):
    """Merges runs into a baseline, keeping each cell's slowest observation.

    A single run's best-of timing still shifts 20-30% between processes on
    a busy host (allocator layout, frequency scaling), so a baseline taken
    from one run makes the 25% gate fire spuriously. The per-cell max over
    a few runs is a conservative envelope: a true regression still has to
    beat the slowest run ever recorded by the full margin.
    """
    runs = [load(p) for p in in_paths]
    merged = dict(runs[0])
    cells = {}
    for run in runs:
        for c in run["results"]:
            key = cell_key(c)
            if key not in cells or c["ns_per_request"] > \
                    cells[key]["ns_per_request"]:
                cells[key] = c
    merged["results"] = [cells[k] for k in sorted(cells)]
    with open(out_path, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"merged {len(in_paths)} runs ({len(cells)} cells) -> {out_path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline")
    ap.add_argument("--current")
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="allowed fractional slowdown per cell (0.25 = 25%%)")
    ap.add_argument("--min-speedup", type=float, default=5.0,
                    help="required fractional-fast over fractional-reference "
                         "throughput ratio at the largest common (n, ell=2)")
    ap.add_argument("--max-allocs-per-request", type=float, default=0.01,
                    help="linear term of the per-cell allocation budget")
    ap.add_argument("--alloc-setup-budget", type=float, default=512.0,
                    help="constant term of the per-cell allocation budget "
                         "(absorbs construction/Attach, which is O(1) "
                         "allocations regardless of trace length)")
    ap.add_argument("--merge-max", nargs="+", metavar="RUN.json",
                    help="instead of gating, merge these runs into "
                         "--out, keeping each cell's slowest timing")
    ap.add_argument("--out", help="output path for --merge-max")
    args = ap.parse_args()

    if args.merge_max:
        if not args.out:
            ap.error("--merge-max requires --out")
        merge_max(args.out, args.merge_max)
        return 0
    if not args.baseline or not args.current:
        ap.error("--baseline and --current are required when gating")

    base = load(args.baseline)
    cur = load(args.current)
    # Name the baseline explicitly: quick and full runs gate against
    # different files, and a gate failure is uninterpretable without
    # knowing which envelope it was measured against.
    print(f"gating {args.current} against baseline {args.baseline} "
          f"(recorded at sha {base.get('git_sha', 'unknown')})")
    warn_metadata_mismatch(base, cur)
    if not cur.get("optimized", False):
        print("error: current run was not built optimized; refusing to gate",
              file=sys.stderr)
        return 1

    base_cells = {cell_key(c): c for c in base["results"]}
    cur_cells = {cell_key(c): c for c in cur["results"]}

    failures = []

    # Per-cell regression check. Informational cells (serve-* sharded
    # serving) are printed but can never fail the gate — see
    # informational() above.
    compared = 0
    for key, c in sorted(cur_cells.items()):
        b = base_cells.get(key)
        if b is None:
            print(f"note: no baseline for {key}; skipping")
            continue
        if informational(key[0]):
            ratio = c["ns_per_request"] / b["ns_per_request"]
            print(f"{key}: {c['ns_per_request']:8.1f} ns/req  "
                  f"baseline {b['ns_per_request']:8.1f}  {ratio:5.2f}x  "
                  "info (informational cells never gate)")
            continue
        compared += 1
        ratio = c["ns_per_request"] / b["ns_per_request"]
        status = "ok"
        if ratio > 1.0 + args.max_regression:
            status = "REGRESSION"
            failures.append(
                f"{key}: {c['ns_per_request']:.1f} ns/req vs baseline "
                f"{b['ns_per_request']:.1f} ({ratio:.2f}x)")
        print(f"{key}: {c['ns_per_request']:8.1f} ns/req  "
              f"baseline {b['ns_per_request']:8.1f}  {ratio:5.2f}x  {status}")
    if compared == 0:
        failures.append("no cells in common between baseline and current run")

    # Allocation budget: absolute, over the current run only (no baseline
    # needed), on every cell that was measured with the counting hook
    # compiled in.
    alloc_checked = 0
    for key, c in sorted(cur_cells.items()):
        apr = c.get("allocs_per_request", -1.0)
        if apr is None or apr < 0:
            continue
        alloc_checked += 1
        total = apr * c["requests"]
        # One budget for every cell, serve-* included: a serve rep's setup
        # allocates per shard and per client, so it fits the constant term.
        budget = (args.alloc_setup_budget +
                  args.max_allocs_per_request * c["requests"])
        status = "ok"
        if total > budget:
            status = "ALLOC REGRESSION"
            failures.append(
                f"{key}: {total:.0f} heap allocations "
                f"({apr:.4f}/request) exceeds budget {budget:.0f}")
        print(f"{key}: {total:8.0f} allocs ({apr:.4f}/req)  "
              f"budget {budget:8.0f}  {status}")
    if alloc_checked:
        print(f"allocation budget checked on {alloc_checked} cells")
    else:
        print("note: no cells carried allocs_per_request; allocation budget "
              "not checked (debug build)")

    # Output-sensitivity check: fast vs reference at the largest common n
    # with ell = 2.
    pairs = {}
    for c in cur["results"]:
        if c["ell"] != 2:
            continue
        pairs.setdefault(c["n"], {})[c["bench"]] = c["ns_per_request"]
    eligible = [n for n, v in pairs.items()
                if "fractional-fast" in v and "fractional-reference" in v]
    if not eligible:
        failures.append("no (fractional-fast, fractional-reference) pair at "
                        "ell=2 to check the speedup criterion")
    else:
        n = max(eligible)
        speedup = (pairs[n]["fractional-reference"] /
                   pairs[n]["fractional-fast"])
        print(f"speedup fractional-fast vs reference at n={n} ell=2: "
              f"{speedup:.2f}x (required >= {args.min_speedup:.1f}x)")
        if speedup < args.min_speedup:
            failures.append(
                f"fractional-fast only {speedup:.2f}x faster than reference "
                f"at n={n} ell=2 (need >= {args.min_speedup:.1f}x)")

    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf gate passed "
          f"({compared} cells within {args.max_regression:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
