#!/usr/bin/env python3
"""Structural schema check for wmlp-bench-perf-v1 JSON artifacts.

Validates shape only — no timing judgement (that is
check_perf_regression.py's job):

  * top-level: schema tag "wmlp-bench-perf-v1", git_sha string, optimized
    boolean, reps positive integer, non-empty results list, and a metadata
    object carrying cpu_model / isa / compiler strings (the fields the
    regression gate's mismatch warning keys on);
  * every cell: bench (string), n / k / ell / requests (integers),
    ns_per_request / allocs_per_request / cost (numbers);
  * kernel-* cells additionally: gb_per_s / roofline_frac (numbers), and
    the top level a positive stream_copy_gb_per_s, the STREAM-copy
    baseline every roofline_frac is divided by.

The bench_perf_smoke ctest and CI run this on bench_perf_suite's --quick
output so a writer regression (dropped field, renamed key, metadata left
out) fails fast, without waiting for a full gated run on the reference
machine.

Usage: check_bench_schema.py FILE [--require-kernel-rows]
Exit status: 0 valid, 1 invalid, 2 usage/IO error.
"""

import argparse
import json
import sys

NUMBER = (int, float)


def check(errors, cond, message):
    if not cond:
        errors.append(message)


def check_cell(errors, i, cell):
    where = f"results[{i}]"
    if not isinstance(cell, dict):
        errors.append(f"{where}: not an object")
        return
    bench = cell.get("bench")
    check(errors, isinstance(bench, str) and bench,
          f"{where}: 'bench' missing or not a non-empty string")
    for key in ("n", "k", "ell", "requests"):
        check(errors, isinstance(cell.get(key), int),
              f"{where} ({bench}): '{key}' missing or not an integer")
    for key in ("ns_per_request", "allocs_per_request", "cost"):
        check(errors, isinstance(cell.get(key), NUMBER),
              f"{where} ({bench}): '{key}' missing or not a number")
    if isinstance(bench, str) and bench.startswith("kernel-"):
        for key in ("gb_per_s", "roofline_frac"):
            check(errors, isinstance(cell.get(key), NUMBER),
                  f"{where} ({bench}): kernel cell lacks numeric '{key}'")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file")
    ap.add_argument("--require-kernel-rows", action="store_true",
                    help="fail unless at least one kernel-* cell is present")
    args = ap.parse_args()

    try:
        with open(args.file) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {args.file}: {e}", file=sys.stderr)
        return 2

    errors = []
    check(errors, isinstance(doc, dict), "top level is not an object")
    if not isinstance(doc, dict):
        doc = {}
    check(errors, doc.get("schema") == "wmlp-bench-perf-v1",
          f"schema tag is {doc.get('schema')!r}, "
          "expected 'wmlp-bench-perf-v1'")
    check(errors, isinstance(doc.get("git_sha"), str),
          "'git_sha' missing or not a string")
    check(errors, isinstance(doc.get("optimized"), bool),
          "'optimized' missing or not a boolean")
    reps = doc.get("reps")
    check(errors, isinstance(reps, int) and not isinstance(reps, bool) and
          reps >= 1, "'reps' missing or not a positive integer")

    meta = doc.get("metadata")
    check(errors, isinstance(meta, dict), "'metadata' missing or not an "
          "object")
    if isinstance(meta, dict):
        for key in ("cpu_model", "isa", "compiler"):
            check(errors,
                  isinstance(meta.get(key), str) and meta.get(key),
                  f"metadata.{key} missing or not a non-empty string")

    results = doc.get("results")
    check(errors, isinstance(results, list) and results,
          "'results' missing, not a list, or empty")
    kernel_rows = 0
    if isinstance(results, list):
        for i, cell in enumerate(results):
            check_cell(errors, i, cell)
            if isinstance(cell, dict) and \
                    str(cell.get("bench", "")).startswith("kernel-"):
                kernel_rows += 1
    if args.require_kernel_rows:
        check(errors, kernel_rows > 0, "no kernel-* cells present "
              "(--require-kernel-rows)")
    if kernel_rows:
        stream = doc.get("stream_copy_gb_per_s")
        check(errors, isinstance(stream, NUMBER) and stream > 0,
              "kernel cells present but 'stream_copy_gb_per_s' missing or "
              "not a positive number")

    if errors:
        print(f"SCHEMA CHECK FAILED for {args.file}:", file=sys.stderr)
        for e in errors:
            print(f"  - {e}", file=sys.stderr)
        return 1
    ncells = len(results) if isinstance(results, list) else 0
    print(f"{args.file}: schema ok ({ncells} cells, "
          f"{kernel_rows} kernel rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
