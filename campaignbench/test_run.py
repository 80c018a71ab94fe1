"""Tests of the campaign benchmark's own parsing and checks.

    python3 campaignbench/test_run.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class RusageTest(unittest.TestCase):
    def test_spawn_reads_child_rusage(self):
        with tempfile.TemporaryDirectory() as d:
            # Touch 64 MiB and burn some CPU, then exit 3.
            prog = "b = bytearray(64 << 20)\nfor i in range(0, len(b), 4096): b[i] = 1\n" \
                   "sum(range(3000000))\nraise SystemExit(3)"
            code, wall, cpu, rss = run.spawn([sys.executable, "-c", prog], os.path.join(d, "o"),
                                             os.path.join(d, "e"), deadline=float("inf"))
        self.assertEqual(code, 3)
        self.assertGreater(wall, 0)
        self.assertGreater(cpu, 0)
        self.assertGreaterEqual(rss, 64)
        self.assertIsNone(run._child)


class ManifestTest(unittest.TestCase):
    manifest = {
        "status": "ok",
        "figures": [
            {"id": "tab1", "wall_seconds": 0.1, "rows": 8},
            {"id": "fig8", "error": "boom"},
            {"id": "fig10", "failed_cells": [{"cell": "fig10/kafka", "attempts": 1, "error": "x"}]},
        ],
        "cache": {"dir": "c", "kinds": {
            "plan": {"hits": 33, "misses": 55, "errors": 0},
            "trace": {"hits": 0, "misses": 33},
        }},
    }

    def test_manifest_failures(self):
        bad = run.manifest_failures(self.manifest, ["tab1", "fig8", "fig10", "fig21"])
        self.assertEqual(bad, {"fig8", "fig10", "fig21"})
        self.assertEqual(run.manifest_failures({}, ["tab1"]), {"tab1"})

    def test_cache_kinds_and_hit_ratio(self):
        kinds = run.cache_kinds(self.manifest)
        self.assertEqual(kinds, {"plan": (33, 55, 0), "trace": (0, 33, 0)})
        self.assertEqual(run.hit_ratio(kinds, "trace"), 0.0)
        self.assertAlmostEqual(run.hit_ratio(kinds, "plan"), 33 / 88)
        self.assertEqual(run.hit_ratio({"trace": (33, 0, 0)}, "trace"), 1.0)
        self.assertEqual(run.cache_kinds({}), {})
        self.assertEqual(run.hit_ratio({}, "trace"), 0.0)

    def test_cold_cache_problems(self):
        kinds = run.cache_kinds(self.manifest)
        self.assertEqual(run.cache_problems(kinds, None), [])
        # A trace hit means the cache was not empty; no misses means no work.
        self.assertEqual(len(run.cache_problems({"plan": (0, 5, 0), "trace": (1, 32, 0)}, None)), 1)
        self.assertEqual(len(run.cache_problems({"plan": (0, 0, 0), "trace": (0, 0, 0)}, None)), 2)
        self.assertEqual(len(run.cache_problems({"plan": (0, 5, 1), "trace": (0, 3, 0)}, None)), 1)

    def test_warm_cache_problems(self):
        want = {"plan": 88, "trace": 33}
        self.assertEqual(run.cache_problems({"plan": (88, 0, 0), "trace": (33, 0, 0)}, want), [])
        self.assertEqual(len(run.cache_problems({"plan": (87, 1, 0), "trace": (33, 0, 0)}, want)), 1)
        self.assertEqual(len(run.cache_problems({"plan": (88, 0, 0)}, want)), 1)
        self.assertEqual(len(run.cache_problems({"plan": (88, 0, 0), "trace": (33, 0, 2)}, want)), 1)


class OutputTest(unittest.TestCase):
    def test_check_failures(self):
        out = "== fig8 (1s) ==\nCHECK PASS fig8: ok\nCHECK FAIL fig8: FURBYS loses\n" \
              "CHECK FAIL sens-delay: x: y\n| CHECK FAIL tab1: not at line start |\n"
        self.assertEqual(run.check_failures(out), ["fig8", "sens-delay"])
        self.assertEqual(run.check_failures(""), [])

    def test_fingerprint_mismatches(self):
        with tempfile.TemporaryDirectory() as d:
            for name, body in (("tab1", b"a,b\n1,2\n"), ("fig8", b"x\n")):
                with open(os.path.join(d, name + ".csv"), "wb") as f:
                    f.write(body)
            want = {"tab1": run.sha256_file(os.path.join(d, "tab1.csv")), "fig8": "0" * 64, "fig21": "1" * 64}
            self.assertEqual(run.fingerprint_mismatches(d, ["tab1"], want), set())
            self.assertEqual(run.fingerprint_mismatches(d, ["tab1", "fig8", "fig21", "fig2"], want),
                             {"fig8", "fig21", "fig2"})

    def test_span_totals(self):
        doc = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0},
            {"name": "fig8", "cat": "experiment", "ph": "X", "ts": 0, "dur": 9000000},
            {"name": "fig8/kafka", "cat": "cell", "ph": "X", "ts": 1, "dur": 1500000},
            {"name": "fig8/tomcat", "cat": "cell", "ph": "X", "ts": 2, "dur": 500000},
            {"name": "k", "cat": "singleflight", "ph": "X", "ts": 3, "dur": 250000, "args": {"state": "wait"}},
            {"name": "k", "cat": "singleflight", "ph": "X", "ts": 3, "dur": 750000, "args": {"state": "compute"}},
            {"name": "k2", "cat": "singleflight", "ph": "X", "ts": 4, "args": {"state": "compute"}},
            {"name": "mark", "cat": "cell", "ph": "i", "ts": 5},
        ]}
        self.assertEqual(run.span_totals(doc), {"experiments.sf_wait_s": 0.25, "experiments.sf_compute_s": 0.75,
                                                "experiments.cell_s": 2.0})
        self.assertEqual(run.span_totals({})["experiments.cell_s"], 0)


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for name, unit in run.TRACE_METRICS.items():
            self.assertEqual(per_layer.get(name), unit, name)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(run.WORKLOADS))

    def test_fingerprints_cover_every_workload(self):
        with open(run.FINGERPRINTS) as f:
            fp = json.load(f)
        for name, wl in run.WORKLOADS.items():
            self.assertEqual(sorted(fp[name]), sorted(wl["ids"]), name)
        # Cold and warm runs of one campaign must produce the same bytes.
        self.assertEqual(fp["cold-campaign"], fp["warm-campaign"])


if __name__ == "__main__":
    unittest.main()
