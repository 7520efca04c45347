#!/usr/bin/env python3
"""The perf gates: bench_perf_suite and servebench built from the parent
and the change.

  scripts/perf.py check FILE
  scripts/perf.py run [--quick] [--parent REV] [OUT]
  scripts/perf.py serve [--parent REV] [--pairs N] [--seconds S]
                        [--first-seed SEED] [--claim WORKLOAD:METRIC]...
                        [--changes-cost] [--no-timing-gate] [--json FILE]

`check` validates one bench_perf_suite JSON document (wmlp-bench-perf-v1):
schema tag, git_sha, optimized: true, reps, metadata, a positive
stream_copy_gb_per_s, at least one kernel-* cell, and on every cell the
integer and number fields with unique (bench, n, ell, requests) keys.

`run` builds bench_perf_suite as two Release trees under .bench_build/perf:
one from the parent revision (`git archive REV`, default HEAD) and one from
the working tree. It runs each ROUNDS times, alternating which side goes
first, validates every run, and gates:

  * every cell, serve rows included: min(head) / min(parent) ns/request
    must be at most BOUND. The gate compares minima, not medians: slow
    host phases make short cells bimodal about 1.5x apart, and 10 rounds
    do not fix which mode a median lands in, while a minimum needs only
    one quiet round per side (ROADMAP item 1 has the measurements);
  * every head run: each cell's heap allocations fit ALLOC_SETUP +
    ALLOC_PER_REQUEST * requests, and fractional-fast is at least
    MIN_SPEEDUP times faster than fractional-reference at the largest n
    where both ran with ell = 2;
  * a cell's cost must repeat exactly across one side's rounds, since the
    driver is deterministic. A cost that differs between parent and head
    is listed but does not fail: behaviour identity belongs to the test
    batteries.

`run` writes OUT/BENCH_perf.json (OUT defaults to bench_results) from the
head's per-cell minima, keeps every round's document under OUT/rounds, and
appends one row of those minima to bench_results/history.jsonl.

`serve` runs the steady-state benchmark BENCHMARK.json declares through
each side's own servebench/run.py: the parent's in the same extracted
tree, the change's in the working tree, each building under its tree's
.bench_build. It runs N pairs per BENCHMARK.json workload, each pair on a
fresh seed (FIRST_SEED, FIRST_SEED + 1, ...) with --trace 0, alternating
which side runs first. It prints, per workload and end-to-end metric, the
parent's and the change's q1/median/q3, the median ratio, how many pairs
the change won and the parent's IQR, then every pair. It fails when

  * a side's run.py exits nonzero (its build included), or a run reports
    correct false or failed > 0;
  * a change median is worse than the parent's by more than the metric's
    BENCHMARK.json bound (not with --no-timing-gate, which still checks
    the rest: CI's smoke runs one short pair);
  * a pair's evict_cost_per_req differs between the sides, unless
    --changes-cost declares that the change moves cost;
  * a claimed gain (--claim WORKLOAD:METRIC) fails the rule the issues
    state: the change wins at least 9 of 10 pairs (that share of N) and
    its median beats the parent's by more than the parent's IQR.

Exit status: 0 valid or passed, 1 invalid or failed, 2 usage, IO or build
error.
"""

import argparse
import datetime
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perf"
HISTORY = ROOT / "bench_results" / "history.jsonl"

BENCHMARK = ROOT / "BENCHMARK.json"

ROUNDS = 10
BOUND = 1.25
SERVE_PAIRS = 10
CLAIM_WIN_SHARE = 0.9
ALLOC_SETUP = 512.0
ALLOC_PER_REQUEST = 0.01
MIN_SPEEDUP = 5.0


class Invalid(Exception):
    """A run document that breaks the schema."""


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def cell_key(c):
    """A cell's identity: solver benches repeat their name across (n, ell,
    requests), so the name alone is ambiguous."""
    return f"{c['bench']}|n={c['n']}|ell={c['ell']}|req={c['requests']}"


def cell_errors(i, cell):
    if not isinstance(cell, dict):
        return [f"results[{i}]: not an object"]
    bench = cell.get("bench")
    if not isinstance(bench, str) or not bench:
        return [f"results[{i}]: 'bench' missing or not a non-empty string"]
    where = f"results[{i}] ({bench})"
    errors = [f"{where}: '{key}' missing or not an integer"
              for key in ("n", "k", "ell", "requests")
              if not is_int(cell.get(key))]
    numbers = ["ns_per_request", "allocs_per_request", "cost"]
    if bench.startswith("kernel-"):
        numbers += ["gb_per_s", "roofline_frac"]
    errors += [f"{where}: '{key}' missing or not a number"
               for key in numbers if not is_number(cell.get(key))]
    if errors:
        return errors
    if not math.isfinite(cell["ns_per_request"]) or \
            cell["ns_per_request"] <= 0:
        errors.append(f"{where}: 'ns_per_request' is not positive")
    if cell["allocs_per_request"] < 0:
        errors.append(f"{where}: 'allocs_per_request' is negative "
                      "(allocation counting compiled out)")
    return errors


def validate(doc):
    """Returns the schema errors of one run document; empty when valid."""
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    errors = []
    if doc.get("schema") != "wmlp-bench-perf-v1":
        errors.append(f"schema tag is {doc.get('schema')!r}, expected "
                      "'wmlp-bench-perf-v1'")
    if not isinstance(doc.get("git_sha"), str):
        errors.append("'git_sha' missing or not a string")
    if doc.get("optimized") is not True:
        errors.append("'optimized' is not true: numbers from an "
                      "unoptimized build are refused")
    if not is_int(doc.get("reps")) or doc["reps"] < 1:
        errors.append("'reps' missing or not a positive integer")
    meta = doc.get("metadata")
    if not isinstance(meta, dict):
        errors.append("'metadata' missing or not an object")
    else:
        errors += [f"metadata.{key} missing or not a non-empty string"
                   for key in ("cpu_model", "isa", "compiler")
                   if not isinstance(meta.get(key), str) or not meta[key]]
    stream = doc.get("stream_copy_gb_per_s")
    if not is_number(stream) or not stream > 0:
        errors.append("'stream_copy_gb_per_s' missing or not a positive "
                      "number")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        return errors + ["'results' missing, not a list, or empty"]
    keys = set()
    kernel_rows = 0
    for i, cell in enumerate(results):
        bad = cell_errors(i, cell)
        errors += bad
        if bad:
            continue
        key = cell_key(cell)
        if key in keys:
            errors.append(f"results[{i}]: duplicate cell {key}")
        keys.add(key)
        kernel_rows += cell["bench"].startswith("kernel-")
    if not kernel_rows:
        errors.append("no kernel-* cells")
    return errors


def load(path):
    """Reads and validates one run document. Raises OSError or ValueError
    when it cannot be read as JSON, Invalid when it breaks the schema."""
    with open(path) as f:
        doc = json.load(f)
    errors = validate(doc)
    if errors:
        raise Invalid("\n".join(["schema check failed:"] +
                                [f"  - {e}" for e in errors]))
    return doc


def side_cells(runs, side, failures):
    """Per-cell ns/request over one side's rounds, and each cell's cost,
    which must repeat in every round."""
    ns = {}
    costs = {}
    for run in runs:
        for c in run["results"]:
            key = cell_key(c)
            ns.setdefault(key, []).append(c["ns_per_request"])
            costs.setdefault(key, set()).add(c["cost"])
    for key in sorted(ns):
        if len(ns[key]) != len(runs):
            failures.append(f"{key}: reported in {len(ns[key])} of "
                            f"{len(runs)} {side} rounds")
        if len(costs[key]) > 1:
            failures.append(f"{key}: {side} cost differs between rounds "
                            f"({sorted(costs[key])}); the driver is "
                            "deterministic")
    return ns, {key: min(c) for key, c in costs.items()}


def speedup(run):
    """fractional-reference / fractional-fast at the largest n where both
    ran with ell = 2, as (n, ratio), or None."""
    ns = {(c["bench"], c["n"]): c["ns_per_request"]
          for c in run["results"] if c["ell"] == 2}
    both = [n for bench, n in ns
            if bench == "fractional-fast" and ("fractional-reference", n) in ns]
    if not both:
        return None
    n = max(both)
    return n, ns[("fractional-reference", n)] / ns[("fractional-fast", n)]


def gate(parent, head):
    """Gates the head's validated rounds against the parent's; prints the
    per-cell table and returns the failures."""
    failures = []
    parent_ns, parent_cost = side_cells(parent, "parent", failures)
    head_ns, head_cost = side_cells(head, "head", failures)

    width = max(len(key) for key in head_ns)
    print(f"{'cell':<{width}}  {'parent min':>10}  {'head min':>10}  "
          f"{'min ratio':>9}  {'median ratio':>12}")
    ratios = []
    for key in sorted(head_ns):
        if key not in parent_ns:
            print(f"{key:<{width}}  new cell, no parent to gate against")
            continue
        p, h = min(parent_ns[key]), min(head_ns[key])
        ratio = h / p
        ratios.append(ratio)
        median = statistics.median(head_ns[key]) / \
            statistics.median(parent_ns[key])
        status = "ok"
        if ratio > BOUND:
            status = "REGRESSION"
            failures.append(f"{key}: min {h:.1f} ns/req vs parent {p:.1f} "
                            f"({ratio:.3f}x > {BOUND}x)")
        if head_cost[key] != parent_cost[key]:
            status += (f"  cost changed: {parent_cost[key]!r} -> "
                       f"{head_cost[key]!r}")
        print(f"{key:<{width}}  {p:10.1f}  {h:10.1f}  {ratio:9.3f}  "
              f"{median:12.3f}  {status}")
    for key in sorted(set(parent_ns) - set(head_ns)):
        print(f"{key:<{width}}  gone from the head")
    if ratios:
        print(f"min ratio head/parent over {len(ratios)} cells: "
              f"{min(ratios):.3f} to {max(ratios):.3f} (bound {BOUND})")
    else:
        failures.append("no cell in common between parent and head")

    for i, run in enumerate(head):
        for c in run["results"]:
            total = c["allocs_per_request"] * c["requests"]
            budget = ALLOC_SETUP + ALLOC_PER_REQUEST * c["requests"]
            if total > budget:
                failures.append(
                    f"{cell_key(c)}: head round {i} made {total:.0f} heap "
                    f"allocations, over the budget of {budget:.0f}")
        found = speedup(run)
        if found is None:
            failures.append(f"head round {i}: no fractional-fast and "
                            "fractional-reference pair at ell = 2")
        elif found[1] < MIN_SPEEDUP:
            failures.append(
                f"head round {i}: fractional-fast only {found[1]:.2f}x "
                f"faster than fractional-reference at n={found[0]} ell=2 "
                f"(need {MIN_SPEEDUP}x)")
    return failures


def minima(runs):
    """The first run's document with each cell taken from the round where
    it ran fastest."""
    best = {}
    for run in runs:
        for c in run["results"]:
            key = cell_key(c)
            if key not in best or \
                    c["ns_per_request"] < best[key]["ns_per_request"]:
                best[key] = c
    return dict(runs[0], results=[best[cell_key(c)]
                                  for c in runs[0]["results"]])


def die(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)
    if done.returncode != 0:
        die(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def step(cmd):
    done = subprocess.run([str(a) for a in cmd], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        die(f"{' '.join(str(a) for a in cmd)} exited with status "
            f"{done.returncode}")


def build(src, tree):
    """Builds bench_perf_suite from `src` as a Release tree at `tree`."""
    if not (tree / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", src, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    jobs = max(1, min(4, os.cpu_count() or 1))
    step(["cmake", "--build", tree, "--target", "bench_perf_suite", "-j",
          jobs])
    return tree / "bench" / "bench_perf_suite"


def parent_source(sha):
    """The parent's tree, extracted with git archive; kept while the
    revision stays the same so its build stays incremental.

    git archive stamps every file with the commit's time. A parent
    committed before the last parent build would then look older than
    that build's objects, and the build would keep the previous parent's
    code under the new sha, so tar -m gives the sources the current time
    instead."""
    src = BUILD / "parent-src"
    stamp = BUILD / "parent-src.sha"
    if not stamp.is_file() or stamp.read_text() != sha:
        shutil.rmtree(src, ignore_errors=True)
        src.mkdir(parents=True)
        tar = BUILD / "parent.tar"
        git("archive", "--output", str(tar), sha)
        step(["tar", "-x", "-m", "-f", tar, "-C", src])
        tar.unlink()
        stamp.write_text(sha)
    return src


def run(quick, parent_rev, out):
    parent_sha = git("rev-parse", "--verify", parent_rev + "^{commit}")
    head_sha = git("rev-parse", "--short=12", "HEAD")
    rounds_dir = out / "rounds"
    rounds_dir.mkdir(parents=True, exist_ok=True)

    print(f"building the parent ({parent_sha[:12]}) and the working tree",
          flush=True)
    binary = {
        "parent": build(parent_source(parent_sha), BUILD / "parent"),
        "head": build(ROOT, BUILD / "head"),
    }
    sha = {"parent": parent_sha[:12], "head": head_sha}
    runs = {"parent": [], "head": []}
    for r in range(ROUNDS):
        for side in ("parent", "head") if r % 2 == 0 else ("head", "parent"):
            path = rounds_dir / f"{side}-{r}.json"
            cmd = [binary[side], "--json", path, "--git-sha", sha[side]]
            if quick:
                cmd.append("--quick")
            done = subprocess.run([str(a) for a in cmd],
                                  stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                print(f"PERF GATE FAILED: the {side} driver exited with "
                      f"status {done.returncode}", file=sys.stderr)
                return 1
            try:
                runs[side].append(load(path))
            except (OSError, ValueError, Invalid) as e:
                print(f"PERF GATE FAILED: {path}: {e}", file=sys.stderr)
                return 1
        print(f"round {r + 1}/{ROUNDS} done", flush=True)

    # Recorded before the verdict: a failing run is the one worth keeping.
    best = minima(runs["head"])
    with open(out / "BENCH_perf.json", "w") as f:
        json.dump(best, f, indent=2)
        f.write("\n")
    row = {
        "schema": "wmlp-bench-history-v1",
        "git_sha": head_sha,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "quick": quick,
        "cells": {cell_key(c): c["ns_per_request"] for c in best["results"]},
    }
    HISTORY.parent.mkdir(parents=True, exist_ok=True)
    with open(HISTORY, "a") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"wrote {out / 'BENCH_perf.json'} and {rounds_dir}/*.json; "
          f"appended a row to {HISTORY}")

    print(f"\ngating {head_sha} (working tree) against parent "
          f"{parent_sha[:12]}, minima over {ROUNDS} alternating rounds")
    failures = gate(runs["parent"], runs["head"])
    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics
    (numpy's default); one value is all three."""
    v = sorted(values)
    if not v:
        raise ValueError("no values")

    def at(q):
        pos = (len(v) - 1) * q
        lo = math.floor(pos)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def serve_summary(pairs, metric, better):
    """Statistics of one metric over (parent, change) result pairs: each
    side's quartiles, the change/parent median ratio, the pairs the change
    won (strictly better) and the parent's IQR."""
    parent = [p["metrics"][metric] for p, _ in pairs]
    change = [c["metrics"][metric] for _, c in pairs]
    pq, cq = quartiles(parent), quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    return {
        "parent": pq,
        "change": cq,
        "ratio": cq[1] / pq[1] if pq[1] else math.inf,
        "wins": wins,
        "pairs": len(pairs),
        "parent_iqr": pq[2] - pq[0],
    }


def serve_gate(results, metrics, claims=(), changes_cost=False,
               gate_timing=True):
    """Gates servebench pairs. `results` maps a workload to its list of
    (parent, change) result objects, `metrics` lists BENCHMARK.json's
    end-to-end entries and `claims` (workload, metric) gains. Returns the
    failures."""
    failures = []
    for workload, pairs in results.items():
        for i, pair in enumerate(pairs):
            for side, r in zip(("parent", "change"), pair):
                if r.get("correct") is not True or r.get("failed") != 0:
                    failures.append(
                        f"{workload} pair {i}: the {side} run reported "
                        f"correct={r.get('correct')} "
                        f"failed={r.get('failed')}")
            costs = [r["metrics"].get("evict_cost_per_req") for r in pair]
            if not changes_cost and costs[0] != costs[1]:
                failures.append(
                    f"{workload} pair {i}: evict_cost_per_req "
                    f"{costs[0]!r} -> {costs[1]!r}; the change does not "
                    "declare that it moves cost (--changes-cost)")
        for m in metrics:
            s = serve_summary(pairs, m["name"], m["better"])
            p, c = s["parent"][1], s["change"][1]
            worse = c > p * (1 + m["bound"]) if m["better"] == "lower" \
                else c < p * (1 - m["bound"])
            if gate_timing and worse:
                failures.append(
                    f"{workload} {m['name']}: median {c:.6g} vs parent "
                    f"{p:.6g} ({s['ratio']:.3f}x), past the bound "
                    f"{m['bound']}")
    for workload, metric in claims:
        if workload not in results:
            failures.append(f"claim {workload}:{metric}: the workload did "
                            "not run")
            continue
        better = next((m["better"] for m in metrics
                       if m["name"] == metric), None)
        if better is None:
            failures.append(f"claim {workload}:{metric}: not an end-to-end "
                            "metric of BENCHMARK.json")
            continue
        s = serve_summary(results[workload], metric, better)
        gap = s["parent"][1] - s["change"][1]
        if better != "lower":
            gap = -gap
        need = math.ceil(CLAIM_WIN_SHARE * s["pairs"])
        if s["wins"] < need or not gap > s["parent_iqr"]:
            failures.append(
                f"claim {workload}:{metric}: the change won {s['wins']} of "
                f"{s['pairs']} pairs (need {need}) and moved the median by "
                f"{gap:.6g} against a parent IQR of {s['parent_iqr']:.6g}")
    return failures


def print_serve_table(results, metrics):
    for workload, pairs in results.items():
        print(f"\n{workload}: {len(pairs)} pairs, seeds "
              f"{pairs[0][0]['seed']}..{pairs[-1][0]['seed']}")
        print(f"  {'metric':<19}  {'parent q1/median/q3':>26}  "
              f"{'change q1/median/q3':>26}  {'ratio':>6}  {'won':>5}  "
              f"{'parent IQR':>10}")
        for m in metrics:
            s = serve_summary(pairs, m["name"], m["better"])
            q = ["/".join(f"{x:.4g}" for x in s[side])
                 for side in ("parent", "change")]
            print(f"  {m['name']:<19}  {q[0]:>26}  {q[1]:>26}  "
                  f"{s['ratio']:6.3f}  {s['wins']:>2}/{s['pairs']:<2}  "
                  f"{s['parent_iqr']:10.4g}")
        for m in metrics:
            cells = [f"{p['metrics'][m['name']]:.4g}->"
                     f"{c['metrics'][m['name']]:.4g}" for p, c in pairs]
            print(f"  {m['name']} per pair: {'; '.join(cells)}")


def serve_once(tree, workload, seed, seconds):
    """One --trace 0 run of `tree`'s servebench/run.py (which builds the
    tree's benchmark first and checks its result line); the result object
    with the seed, or an error string."""
    cmd = [sys.executable, str(tree / "servebench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return (f"{' '.join(cmd)} exited with status {done.returncode}\n"
                f"{done.stderr[-4000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    # Each metric is {"value": v, "unit": u}; the gate reads values.
    result["metrics"] = {name: float(m["value"])
                         for name, m in result["metrics"].items()}
    result["seed"] = seed
    return result


def serve(args):
    with open(BENCHMARK) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    claims = []
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        if not metric:
            die(f"--claim expects WORKLOAD:METRIC, got {claim!r}")
        claims.append((workload, metric))
    parent_sha = git("rev-parse", "--verify", args.parent + "^{commit}")
    print(f"running servebench of the parent ({parent_sha[:12]}) and the "
          "working tree (each side builds on its first run)", flush=True)
    tree = {"parent": parent_source(parent_sha), "change": ROOT}
    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            pair = {}
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            for side in order:
                result = serve_once(tree[side], workload, seed,
                                    args.seconds)
                if isinstance(result, str):
                    print(f"SERVE GATE FAILED: the {side} run: {result}",
                          file=sys.stderr)
                    return 1
                pair[side] = result
            pairs.append((pair["parent"], pair["change"]))
            print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}) done",
                  flush=True)
        results[workload] = pairs
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        with open(args.json, "w") as f:
            json.dump({w: [list(p) for p in pairs]
                       for w, pairs in results.items()}, f, indent=1)
            f.write("\n")
    print_serve_table(results, metrics)
    failures = serve_gate(results, metrics, claims, args.changes_cost,
                          not args.no_timing_gate)
    if failures:
        print("\nSERVE GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nserve gate passed")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    check_cmd = sub.add_parser("check", help="validate one run document")
    check_cmd.add_argument("file")
    run_cmd = sub.add_parser("run", help="gate the working tree against "
                             "its parent")
    run_cmd.add_argument("--quick", action="store_true",
                         help="run the driver's quick grid")
    run_cmd.add_argument("--parent", default="HEAD",
                         help="revision to gate against (default HEAD)")
    run_cmd.add_argument("out", nargs="?", type=Path,
                         default=ROOT / "bench_results",
                         help="output directory (default bench_results)")
    serve_cmd = sub.add_parser("serve", help="gate servebench pairs of the "
                               "working tree against its parent")
    serve_cmd.add_argument("--parent", default="HEAD",
                           help="revision to gate against (default HEAD)")
    serve_cmd.add_argument("--pairs", type=int, default=SERVE_PAIRS,
                           help=f"pairs per workload (default "
                           f"{SERVE_PAIRS})")
    serve_cmd.add_argument("--seconds", type=float, default=30.0,
                           help="servebench --seconds per run (default "
                           "30, BENCHMARK.json's)")
    serve_cmd.add_argument("--first-seed", type=int, default=1000,
                           help="seed of the first pair (default 1000)")
    serve_cmd.add_argument("--claim", action="append", default=[],
                           metavar="WORKLOAD:METRIC",
                           help="a gain the change claims (repeatable)")
    serve_cmd.add_argument("--changes-cost", action="store_true",
                           help="the change moves evict_cost_per_req")
    serve_cmd.add_argument("--no-timing-gate", action="store_true",
                           help="print timing medians without gating "
                           "them (smoke runs)")
    serve_cmd.add_argument("--json", type=Path,
                           help="write every pair's results here")
    args = ap.parse_args()

    if args.command == "run":
        return run(args.quick, args.parent, args.out.resolve())
    if args.command == "serve":
        if args.pairs < 1:
            die("--pairs must be >= 1")
        return serve(args)
    try:
        doc = load(args.file)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {args.file}: {e}", file=sys.stderr)
        return 2
    except Invalid as e:
        print(f"{args.file}: {e}", file=sys.stderr)
        return 1
    kernel_rows = sum(c["bench"].startswith("kernel-")
                      for c in doc["results"])
    print(f"{args.file}: schema ok ({len(doc['results'])} cells, "
          f"{kernel_rows} kernel rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
