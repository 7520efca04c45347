#!/usr/bin/env python3
"""Tests for scripts/perf.py's gates and schema check on synthetic run
documents and servebench pairs, for its extraction of the parent's tree
and for its call of a tree's servebench/run.py (a stub); no binaries are
built or run."""

import contextlib
import copy
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path
from unittest import mock

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf.py"
spec = importlib.util.spec_from_file_location("perf", SCRIPT)
perf = importlib.util.module_from_spec(spec)
sys.dont_write_bytecode = True  # no __pycache__ next to scripts/perf.py
spec.loader.exec_module(perf)


def cell(bench, n, ell, requests, ns, cost, **extra):
    return dict(bench=bench, n=n, k=n // 4, ell=ell, requests=requests,
                ns_per_request=ns, allocs_per_request=0.001, cost=cost,
                **extra)


def run_doc():
    return {
        "schema": "wmlp-bench-perf-v1",
        "git_sha": "0123456789ab",
        "metadata": {"cpu_model": "test cpu", "isa": "avx2",
                     "compiler": "test cc"},
        "optimized": True,
        "quick": True,
        "reps": 3,
        "weight_model": "geometric-levels",
        "stream_copy_gb_per_s": 20.0,
        "peak_rss_kb": 1000,
        "results": [
            cell("fractional-fast", 1000, 2, 1000, 100.0, 51.5),
            cell("fractional-reference", 1000, 2, 1000, 4000.0, 51.5),
            cell("serve-s1-c1", 4096, 2, 50000, 130.0, 9000.0),
            cell("batch8-lru", 4096, 2, 20000, 40.0, 7000.0),
            cell("kernel-expm1", 4096, 0, 4096, 1.0, 3.25, gb_per_s=16.0,
                 roofline_frac=0.8),
        ],
    }


def rounds(edit=None):
    """perf.ROUNDS copies of run_doc(); edit(i, cells_by_bench) may change
    round i in place."""
    docs = []
    for i in range(perf.ROUNDS):
        doc = run_doc()
        if edit:
            edit(i, {c["bench"]: c for c in doc["results"]})
        docs.append(doc)
    return docs


def gate(parent, head):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        failures = perf.gate(parent, head)
    return failures, out.getvalue()


class GateTest(unittest.TestCase):
    def test_identical_sides_pass(self):
        failures, out = gate(rounds(), rounds())
        self.assertEqual(failures, [])
        self.assertIn("1.000 to 1.000", out)

    def test_cell_slower_in_every_head_round_fails_and_is_named(self):
        def slow(i, cells):
            cells["batch8-lru"]["ns_per_request"] *= 1.3
        failures, _ = gate(rounds(), rounds(slow))
        self.assertEqual(len(failures), 1)
        self.assertIn("batch8-lru", failures[0])

    def test_bimodal_cell_with_matching_minima_passes(self):
        def bimodal(i, cells):
            if i >= 3:
                cells["batch8-lru"]["ns_per_request"] = 60.0
        head = rounds(bimodal)
        failures, out = gate(rounds(), head)
        self.assertEqual(failures, [])
        line = next(l for l in out.splitlines() if l.startswith("batch8-lru"))
        self.assertIn("1.500", line)  # the median ratio, printed only

    def test_one_head_round_over_the_allocation_budget_fails(self):
        # Budget at 20000 requests: 512 + 0.01 * 20000 = 712 allocations.
        def leak(i, cells):
            if i == 4:
                cells["batch8-lru"]["allocs_per_request"] = 0.04
        failures, _ = gate(rounds(), rounds(leak))
        self.assertEqual(len(failures), 1)
        self.assertIn("batch8-lru", failures[0])
        self.assertIn("head round 4", failures[0])

    def test_one_head_round_below_the_speedup_fails(self):
        def slow_fast(i, cells):
            if i == 7:
                cells["fractional-fast"]["ns_per_request"] = 1000.0
        failures, _ = gate(rounds(), rounds(slow_fast))
        self.assertEqual(len(failures), 1)
        self.assertIn("head round 7", failures[0])
        self.assertIn("4.00x", failures[0])

    def test_cost_differing_between_rounds_of_one_side_fails(self):
        def drift(i, cells):
            if i == 5:
                cells["serve-s1-c1"]["cost"] = 9001.0
        failures, _ = gate(rounds(drift), rounds())
        self.assertEqual(len(failures), 1)
        self.assertIn("serve-s1-c1", failures[0])
        self.assertIn("parent cost differs", failures[0])

    def test_cost_differing_between_parent_and_head_is_listed_only(self):
        def changed(i, cells):
            cells["serve-s1-c1"]["cost"] = 9001.0
        failures, out = gate(rounds(), rounds(changed))
        self.assertEqual(failures, [])
        line = next(l for l in out.splitlines() if l.startswith("serve-s1"))
        self.assertIn("cost changed: 9000.0 -> 9001.0", line)


def broken(edit):
    doc = run_doc()
    edit(doc)
    return doc


class CheckTest(unittest.TestCase):
    def check(self, doc):
        with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
            json.dump(doc, f)
            f.flush()
            return subprocess.run([sys.executable, str(SCRIPT), "check",
                                   f.name], capture_output=True, text=True)

    def assertRejected(self, doc, message):
        done = self.check(doc)
        self.assertEqual(done.returncode, 1, done.stdout)
        self.assertIn(message, done.stderr)

    def test_valid_document_passes(self):
        done = self.check(run_doc())
        self.assertEqual(done.returncode, 0, done.stderr)

    def test_wrong_schema_tag(self):
        self.assertRejected(broken(lambda d: d.update(schema="v0")),
                            "schema tag")

    def test_missing_numeric_field(self):
        self.assertRejected(broken(lambda d: d["results"][1].pop("cost")),
                            "'cost' missing or not a number")

    def test_boolean_numeric_field(self):
        self.assertRejected(
            broken(lambda d: d["results"][2].update(n=True)),
            "'n' missing or not an integer")
        self.assertRejected(
            broken(lambda d: d["results"][2].update(ns_per_request=True)),
            "'ns_per_request' missing or not a number")

    def test_duplicate_cell_key(self):
        self.assertRejected(
            broken(lambda d: d["results"].append(
                copy.deepcopy(d["results"][3]))),
            "duplicate cell batch8-lru|n=4096|ell=2|req=20000")

    def test_no_kernel_rows(self):
        self.assertRejected(broken(lambda d: d["results"].pop()),
                            "no kernel-* cells")

    def test_non_positive_stream_copy(self):
        self.assertRejected(
            broken(lambda d: d.update(stream_copy_gb_per_s=0.0)),
            "stream_copy_gb_per_s")

    def test_unoptimized_run_is_refused(self):
        self.assertRejected(broken(lambda d: d.update(optimized=False)),
                            "unoptimized")

    def test_unreadable_file_is_an_io_error(self):
        done = subprocess.run([sys.executable, str(SCRIPT), "check",
                               "/nonexistent/run.json"],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 2)


SERVE_METRICS = [
    {"name": "serve_ns_per_req", "better": "lower", "bound": 0.2},
    {"name": "run_ns_per_req", "better": "lower", "bound": 0.25},
    {"name": "evict_cost_per_req", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]


def serve_result(run_ns, cost=2.5, correct=True, failed=0, seed=1):
    return {"correct": correct, "attempted": 1000, "failed": failed,
            "seed": seed,
            "metrics": {"serve_ns_per_req": 600.0, "run_ns_per_req": run_ns,
                        "evict_cost_per_req": cost, "setup_s": 2e-4}}


def serve_pairs(parent_ns, change_ns):
    return [(serve_result(p, seed=i), serve_result(c, seed=i))
            for i, (p, c) in enumerate(zip(parent_ns, change_ns))]


# Ten parent runs with quartiles 1010/1050/1090 (IQR 80).
PARENT_NS = [950, 1000, 1000, 1040, 1040, 1060, 1060, 1100, 1100, 1200]


class ServeGateTest(unittest.TestCase):
    def gate(self, pairs, **kwargs):
        return perf.serve_gate({"randomized-levels": pairs}, SERVE_METRICS,
                               **kwargs)

    def test_quartiles_interpolate_between_order_statistics(self):
        self.assertEqual(perf.quartiles([5, 1, 4, 2, 3]), (2, 3, 4))
        self.assertEqual(perf.quartiles([7.0]), (7.0, 7.0, 7.0))
        self.assertEqual(perf.quartiles(PARENT_NS), (1010.0, 1050.0, 1090.0))
        self.assertEqual(perf.quartiles([1, 2, 3, 4]), (1.75, 2.5, 3.25))

    def test_summary_counts_strict_wins_and_the_parent_iqr(self):
        change = [p - 10 for p in PARENT_NS[:8]] + PARENT_NS[8:]
        s = perf.serve_summary(serve_pairs(PARENT_NS, change),
                               "run_ns_per_req", "lower")
        self.assertEqual(s["wins"], 8)
        self.assertEqual(s["pairs"], 10)
        self.assertAlmostEqual(s["parent_iqr"], 80.0)
        self.assertAlmostEqual(s["ratio"], 1040.0 / 1050.0)
        higher = perf.serve_summary(serve_pairs(PARENT_NS, change),
                                    "run_ns_per_req", "higher")
        self.assertEqual(higher["wins"], 0)

    def test_identical_pairs_pass(self):
        self.assertEqual(self.gate(serve_pairs(PARENT_NS, PARENT_NS)), [])

    def test_incorrect_or_failed_run_fails(self):
        pairs = serve_pairs(PARENT_NS, PARENT_NS)
        pairs[3][1]["correct"] = False
        pairs[5][0]["failed"] = 2
        failures = self.gate(pairs)
        self.assertEqual(len(failures), 2)
        self.assertIn("pair 3: the change run", failures[0])
        self.assertIn("pair 5: the parent run", failures[1])

    def test_cost_differing_in_one_pair_fails_unless_declared(self):
        pairs = serve_pairs(PARENT_NS, PARENT_NS)
        pairs[2][1]["metrics"]["evict_cost_per_req"] = 2.5000001
        failures = self.gate(pairs)
        self.assertEqual(len(failures), 1)
        self.assertIn("pair 2: evict_cost_per_req", failures[0])
        self.assertEqual(self.gate(pairs, changes_cost=True), [])

    def test_median_past_the_bound_fails_unless_timing_is_not_gated(self):
        slower = [p * 1.3 for p in PARENT_NS]
        failures = self.gate(serve_pairs(PARENT_NS, slower))
        self.assertEqual(len(failures), 1)
        self.assertIn("run_ns_per_req", failures[0])
        self.assertIn("1.300x", failures[0])
        self.assertEqual(self.gate(serve_pairs(PARENT_NS, slower),
                                   gate_timing=False), [])
        inside = [p * 1.2 for p in PARENT_NS]
        self.assertEqual(self.gate(serve_pairs(PARENT_NS, inside)), [])

    def test_claim_needs_nine_of_ten_wins_and_a_gap_past_the_iqr(self):
        claim = [("randomized-levels", "run_ns_per_req")]
        won = [p - 200 for p in PARENT_NS[:9]] + [PARENT_NS[9] + 1]
        self.assertEqual(
            self.gate(serve_pairs(PARENT_NS, won), claims=claim), [])
        eight = [p - 200 for p in PARENT_NS[:8]] + PARENT_NS[8:]
        failures = self.gate(serve_pairs(PARENT_NS, eight), claims=claim)
        self.assertEqual(len(failures), 1)
        self.assertIn("won 8 of 10 pairs (need 9)", failures[0])
        narrow = [p - 50 for p in PARENT_NS]  # every pair, inside the IQR
        failures = self.gate(serve_pairs(PARENT_NS, narrow), claims=claim)
        self.assertEqual(len(failures), 1)
        self.assertIn("parent IQR of 80", failures[0])

    def test_claim_on_an_unknown_metric_or_workload_fails(self):
        pairs = serve_pairs(PARENT_NS, PARENT_NS)
        failures = self.gate(pairs, claims=[("randomized-levels", "hits")])
        self.assertIn("not an end-to-end metric", failures[0])
        failures = self.gate(pairs, claims=[("randomized-pages",
                                             "run_ns_per_req")])
        self.assertIn("did not run", failures[0])

    def test_table_prints_quartiles_ratio_wins_and_every_pair(self):
        change = [p - 100 for p in PARENT_NS]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            perf.print_serve_table(
                {"randomized-levels": serve_pairs(PARENT_NS, change)},
                SERVE_METRICS)
        text = out.getvalue()
        self.assertIn("randomized-levels: 10 pairs, seeds 0..9", text)
        row = next(l for l in text.splitlines()
                   if l.strip().startswith("run_ns_per_req "))
        self.assertIn("1010/1050/1090", row)
        self.assertIn("910/950/990", row)
        self.assertIn("0.905", row)
        self.assertIn("10/10", row)
        self.assertIn("run_ns_per_req per pair: 950->850; 1000->900", text)


# Stands in for a tree's servebench/run.py: echoes its arguments as a
# result line after a line of benchmark output, or fails like a build.
STUB_RUN_PY = """import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if args["--workload"] == "broken":
    sys.exit("servebench: build step failed")
print("# benchmark output")
print(json.dumps({"correct": True, "attempted": 7, "failed": 0,
                  "metrics": {"run_ns_per_req": {"value": 1000.5,
                                                 "unit": "ns"},
                              "argv": {"value": len(sys.argv),
                                       "unit": "n"}},
                  "args": args}))
"""


class ServeOnceTest(unittest.TestCase):
    def test_runs_the_trees_run_py_and_reads_its_last_line(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            (tree / "servebench").mkdir()
            (tree / "servebench" / "run.py").write_text(STUB_RUN_PY)
            result = perf.serve_once(tree, "randomized-levels", 42, 3.0)
            self.assertEqual(result["seed"], 42)
            self.assertEqual(result["metrics"],
                             {"run_ns_per_req": 1000.5, "argv": 9.0})
            self.assertEqual(result["args"], {
                "--workload": "randomized-levels", "--seed": "42",
                "--seconds": "3.0", "--trace": "0"})
            error = perf.serve_once(tree, "broken", 1, 3.0)
            self.assertIsInstance(error, str)
            self.assertIn("exited with status 1", error)
            self.assertIn("build step failed", error)


@unittest.skipUnless(shutil.which("git") and shutil.which("tar"),
                     "needs git and tar")
class ParentSourceTest(unittest.TestCase):
    """A changed parent must rebuild: its sources may not keep git
    archive's commit times, which can predate the previous parent's
    objects."""

    def commit(self, repo, text, date):
        (repo / "f.txt").write_text(text)
        env = dict(os.environ, GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@t",
                   GIT_COMMITTER_NAME="t", GIT_COMMITTER_EMAIL="t@t",
                   GIT_AUTHOR_DATE=date, GIT_COMMITTER_DATE=date)
        for cmd in (["add", "f.txt"], ["-c", "commit.gpgsign=false",
                                       "commit", "-q", "-m", text]):
            subprocess.run(["git", *cmd], cwd=repo, env=env, check=True)
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo,
                              env=env, check=True, capture_output=True,
                              text=True).stdout.strip()

    def test_each_new_parent_gets_fresh_file_times(self):
        with tempfile.TemporaryDirectory() as tmp:
            repo = Path(tmp) / "repo"
            repo.mkdir()
            subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
            old = self.commit(repo, "old", "2001-01-01T00:00:00Z")
            new = self.commit(repo, "new", "2002-01-01T00:00:00Z")
            with mock.patch.object(perf, "ROOT", repo), \
                    mock.patch.object(perf, "BUILD", Path(tmp) / "build"):
                for sha, text in ((new, "new"), (old, "old")):
                    start = time.time()
                    src = perf.parent_source(sha)
                    f = src / "f.txt"
                    self.assertEqual(f.read_text(), text)
                    # One second of slack for coarse file-time clocks.
                    self.assertGreaterEqual(f.stat().st_mtime, start - 1)


if __name__ == "__main__":
    unittest.main()
