#!/usr/bin/env python3
"""Fast self-check of the harness: report parsing, metric arithmetic, tracer.

    python3 perfbench/selfcheck.py

Runs in well under a second and does not import indexlab: the tracer is
checked on a small synthetic package.
"""

from __future__ import annotations

import json
import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402
import run  # noqa: E402
import steady  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from workloads import WORKLOADS, check_report  # noqa: E402


def _flow_report(n=2, directions=(1, 1)):
    return {"N": n, "method_counts": {"counting_function": n, "tracked_crossings": n},
            "crossings": [{"mu_lo": 0.0, "mu_hi": 1.0, "direction": d} for d in directions]}


def _bands(values, raw_offset=0.0):
    return [{"band": b + 1, "reports": {
        m: {"C": c, "raw_value": c + (raw_offset if m == "curvature" else 0.0)}
        for m in ("curvature", "clutching", "zeros")}} for b, c in enumerate(values)]


def _verify_report(n, bands, verdict="PASS"):
    return {"flow": _flow_report(n, [1] * n),
            "chern": {"C": n, "raw_value": float(n), "per_band": _bands(bands),
                      "agreement": True if bands else None},
            "verdict": verdict}


class ReportParsing(unittest.TestCase):
    def test_last_json_line(self):
        out = "human line\n{\"a\": 1}\n\n"
        self.assertEqual(run.parse_last_json(out), {"a": 1})

    def test_rejects_non_json_and_empty(self):
        for text in ("", "text only\n", "[1, 2]\n"):
            with self.assertRaises(run.HarnessError):
                run.parse_last_json(text)

    def test_result_line_shape(self):
        line = run.result_line(10, 1, {"wall_s": 1.25, "peak_rss_mb": 80.5, "flow.samples": 7})
        payload = json.loads(line)
        self.assertEqual(set(payload), {"correct", "attempted", "failed", "metrics"})
        self.assertFalse(payload["correct"])
        self.assertEqual(payload["metrics"]["wall_s"], {"value": 1.25, "unit": "s"})
        self.assertEqual(payload["metrics"]["peak_rss_mb"]["unit"], "MB")
        self.assertEqual(payload["metrics"]["flow.samples"]["unit"], "count")


class MetricArithmetic(unittest.TestCase):
    def test_e2e_per_invocation_medians(self):
        walls = {"a": [3.0, 1.0, 2.0], "b": [10.0, 30.0, 20.0]}
        solves = {"a": [2.0, 4.0], "b": [5.0, 7.0]}
        m = run.summarize_e2e(walls, solves, [0.9, 0.7, 0.8, 1.5, 0.85], [90.0, 95.0, 85.0])
        self.assertEqual(m, {"wall_s": 22.0, "solve_s": 9.0, "setup_s": 0.85, "peak_rss_mb": 95.0})

    def test_normalize(self):
        ref = calib.REFERENCE_S
        self.assertEqual(calib.normalize(3.0, ref, ref), 3.0)
        # twice the reference speed before, the reference speed after: 1.5x
        self.assertAlmostEqual(calib.normalize(2.0, ref / 2, ref), 3.0)

    def test_trace_medians_counts_and_overhead(self):
        def p(t, calls, traced, untraced, imp):
            return {"metrics": {"x.f_s": t, "x.f_calls": calls}, "counts": {"inv": {"f": calls}},
                    "import_s": imp, "traced_s": traced, "untraced_s": untraced}
        m, repeat = run.summarize_trace([p(1.0, 5, 10.0, 9.0, 0.5), p(3.0, 5, 12.0, 12.5, 0.7),
                                         p(2.0, 5, 11.0, 10.8, 0.6)])
        self.assertTrue(repeat)
        self.assertEqual(m["x.f_s"], 2.0)
        self.assertEqual(m["x.f_calls"], 5)
        self.assertEqual(m["cli.import_s"], 0.6)
        self.assertEqual(m["trace.solve_s"], 11.0)
        self.assertAlmostEqual(m["trace.overhead_s"], 0.2)
        _, repeat = run.summarize_trace([p(1.0, 5, 1, 1, 1), p(1.0, 6, 1, 1, 1)])
        self.assertFalse(repeat)

    def test_spread(self):
        self.assertAlmostEqual(steady.spread([1.0] * 4 + [2.0] * 2 + [3.0] * 4), 1.0)


class Oracle(unittest.TestCase):
    def setUp(self):
        self.flow = WORKLOADS["flow-sweep"].invocations[0]
        self.chern = WORKLOADS["chern-sphere"].invocations[2]
        self.verify = WORKLOADS["verify-presets"].invocations[1]
        self.constant = WORKLOADS["verify-presets"].invocations[4]

    def test_pinned_results_pass(self):
        self.assertEqual(check_report(self.flow, 0, _flow_report()), [])
        chern = {"C": [2, 0, -2], "bands": _bands([2, 0, -2]), "agreement": True}
        self.assertEqual(check_report(self.chern, 0, chern), [])
        self.assertEqual(check_report(self.verify, None, _verify_report(2, [2, 0, -2])), [])
        constant = _verify_report(0, [])
        constant["flow"]["crossings"] = []
        self.assertEqual(check_report(self.constant, 0, constant), [])

    def test_deviations_fail(self):
        self.assertTrue(check_report(self.flow, 3, _flow_report()))
        self.assertTrue(check_report(self.flow, 0, _flow_report(2, [1, -1])))
        self.assertTrue(check_report(self.flow, 0, None))
        self.assertTrue(check_report(self.flow, 0, {"N": 2}))
        chern = {"C": [2, 0, -2], "bands": _bands([2, 0, -2], raw_offset=1e-5), "agreement": True}
        self.assertTrue(check_report(self.chern, 0, chern))
        chern = {"C": [2, 0, -2], "bands": _bands([2, 0, -2]), "agreement": False}
        self.assertTrue(check_report(self.chern, 0, chern))
        self.assertTrue(check_report(self.verify, 0, _verify_report(2, [2, 0, -2], "FAIL")))

    def test_unpinned_fields_are_free(self):
        report = _flow_report()
        report["samples"] = 12345
        report["crossings"][0]["mu_lo"] = -99.0
        report["timings"] = {"seconds": 1e9}
        self.assertEqual(check_report(self.flow, 0, report), [])


class TracerArithmetic(unittest.TestCase):
    def setUp(self):
        pkg = types.ModuleType("fakepkg")
        a = types.ModuleType("fakepkg.a")
        b = types.ModuleType("fakepkg.b")

        def inner(points):
            return len(points)

        def outer(points):
            return b.inner(points) + b.inner(points)

        class Grid:
            @classmethod
            def build(cls, n):
                return n

        a.inner, a.outer, a.Grid = inner, outer, Grid
        b.inner = inner  # as ``from .a import inner`` would bind it
        self.modules = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
        sys.modules.update(self.modules)
        self.a = a
        ticks = iter(range(1000))
        self.tracer = Tracer(clock=lambda: float(next(ticks)))

    def tearDown(self):
        for name in self.modules:
            sys.modules.pop(name, None)

    def test_nesting_self_time_absent_targets_and_hooks(self):
        def count(extra, args, result):
            extra["a.points"] += len(args["points"])

        targets = (
            Target("fakepkg.a", "outer", "a.outer", "a.outer_s", runner=True),
            Target("fakepkg.a", "inner", "a.inner", "a.inner_s", "a.inner_calls",
                   hook=count, extra_metrics=("a.points",)),
            Target("fakepkg.a", "Grid.build", "a.grid", "a.grid_s", "a.grid_builds"),
            Target("fakepkg.a", "gone", "a.gone", "a.gone_s"),
            Target("fakepkg.missing", "f", "m.f", "m.f_s"),
        )
        self.tracer.install(targets, "fakepkg")
        self.assertEqual(self.a.outer([1, 2, 3]), 6)
        self.assertEqual(self.a.Grid.build(4), 4)
        m = self.tracer.metrics()
        # the fake clock advances 1 per reading: inner spans take 1 each,
        # outer reads at 0 and 5, so its self time is 5 - 2 = 3
        self.assertEqual(m["a.inner_calls"], 2)
        self.assertEqual(m["a.inner_s"], 2.0)
        self.assertEqual(m["a.outer_s"], 5.0)
        self.assertEqual(m["cli.self_s"], 3.0)
        self.assertEqual(self.tracer.runner_total, 5.0)
        self.assertEqual(m["a.points"], 6)
        self.assertEqual(m["a.grid_builds"], 1)
        self.assertNotIn("a.gone_s", m)
        self.assertNotIn("m.f_s", m)
        self.tracer.reset()
        self.assertEqual(self.tracer.metrics()["a.inner_calls"], 0)
        self.assertEqual(self.tracer.runner_total, 0.0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
