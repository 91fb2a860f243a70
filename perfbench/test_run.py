"""Self-tests of the benchmark's own logic (perfbench/run.py).

    python3 -m unittest perfbench/test_run.py

They need no build: each test feeds run.py synthetic harness records.
"""

import copy
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank_and_samples_beyond(self):
        values = list(range(1, 1001))
        self.assertEqual(run.nearest_rank(values, 50), (500, 500))
        self.assertEqual(run.nearest_rank(values, 99), (990, 10))
        self.assertEqual(run.nearest_rank([7], 99), (7, 0))

    def test_tail_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(1000), 99)
        self.assertEqual(run.tail_percentile(999), 98)
        self.assertEqual(run.tail_percentile(72), 86)
        for n in (20, 72, 500, 999, 1000, 5000):
            value, q, beyond = run.tail(list(range(n)))
            self.assertGreaterEqual(beyond, run.TAIL_BEYOND, n)
            self.assertEqual(run.tail_percentile(n), q)
        self.assertEqual(run.tail_percentile(5), 50)
        self.assertEqual(run.tail(list(range(1000)), cap=90)[1:], (90, 100))


def open_loop(n=1000, rate=100.0, service=0.005, stall_at=None,
              stall=0.0, slowdown=0.0):
    """Records of a synthetic open loop: submits due every 1/rate s, each
    served in `service` s once dispatched.  A generator stall holds back
    every submit due in [stall_at, stall_at + stall) until the stall ends;
    `slowdown` adds that much service time per submit (overload)."""
    records, free = [], 0.0
    for i in range(n):
        due = i / rate
        dispatch = due
        if stall_at is not None and stall_at <= due < stall_at + stall:
            dispatch = stall_at + stall
        start = max(dispatch, free)
        free = start + service + slowdown * i
        records.append({"due": due, "dispatch": dispatch, "done": free})
    return records


class OpenLoopHealth(unittest.TestCase):
    def test_steady_loop_is_valid_and_on_time(self):
        health = run.open_loop_health(open_loop())
        self.assertFalse(health["backlog_grew"])
        self.assertEqual(max(health["late_s"]), 0.0)
        self.assertLessEqual(health["backlog_end"], 1)

    def test_injected_stall_shows_as_lateness_not_growth(self):
        records = open_loop(stall_at=4.0, stall=0.5)
        health = run.open_loop_health(records)
        late_p99 = run.nearest_rank(health["late_s"], 99)[0]
        self.assertAlmostEqual(max(health["late_s"]), 0.5, places=6)
        self.assertGreater(late_p99, 0.3)
        # Latency is timed from when a submit was due, so the stall shows.
        worst = max(r["done"] - r["due"] for r in records)
        self.assertGreater(worst, 0.5)
        self.assertFalse(health["backlog_grew"])

    def test_sustained_overload_marks_the_run_invalid(self):
        health = run.open_loop_health(open_loop(slowdown=0.00002))
        self.assertTrue(health["backlog_grew"])
        self.assertGreater(health["backlog_end"], run.CONNECTIONS)


REPORT = ('{"schema":"intro-run-report-v1","deterministic":{"job":"%s",'
          '"outcome":{"total_seconds":%s,"attempts":[{"seconds":%s}]}},'
          '%s"timing":{"total_seconds":%s}}')


def report(name, seconds, cache=""):
    return REPORT % (name, seconds, seconds, cache, seconds)


def submit(name, **overrides):
    record = {"name": name, "ok": True, "error": "", "state": "done",
              "class": "clean", "report": report(name, 0.25,
                                                 '"cache":{"hits":1},')}
    record.update(overrides)
    return record


class FailureCounting(unittest.TestCase):
    def doc(self, submits):
        return {"passes": [{"traced": False, "submits": submits}],
                "local_reports": {s["name"]: report(s["name"], 0.5)
                                  for s in submits}}

    def test_clean_submits_match_local_runs_after_the_scrub(self):
        self.assertEqual(run.check_serve(self.doc(
            [submit("a"), submit("b")])), [])

    def test_each_bad_submit_counts_once(self):
        submits = [
            submit("ok"),
            submit("refused", ok=False, error="server busy"),
            submit("errored", ok=False, error="connection reset"),
            submit("cancelled", state="cancelled"),
            submit("crashed", **{"class": "signalled"}),
            submit("mismatch"),
        ]
        doc = self.doc(submits)
        doc["local_reports"]["mismatch"] = report("other", 0.5)
        failures = run.check_serve(doc)
        self.assertEqual(len(failures), 5)
        self.assertTrue(all("ok" != f.split(":")[0] for f in failures))

    def test_batch_counts_class_mismatches(self):
        jobs = [{"name": "a", "class": "clean", "expected": "clean"},
                {"name": "b", "class": "bad_input", "expected": "bad_input"},
                {"name": "c", "class": "signalled", "expected": "clean"}]
        failures = run.check_batch({"passes": [{"jobs": jobs}]})
        self.assertEqual(failures, ["c: class signalled, want clean"])


class GoldenCheck(unittest.TestCase):
    def sweep_doc(self):
        """A sweep document whose cells equal the pinned counters."""
        cells = []
        for (figure, subject, kind), want in run.expected_sweep_cells(
        ).items():
            final = {k: want[k] for k in run.GOLDEN_FIELDS
                     if k not in ("analysis", "status")}
            cells.append({"figure": figure, "subject": subject,
                          "kind": kind, "analysis": want["analysis"],
                          "status": want["status"], "final": final})
        return {"passes": [{"traced": False, "cells": cells}]}

    def test_pinned_counters_pass(self):
        doc = self.sweep_doc()
        self.assertEqual(len(doc["passes"][0]["cells"]), 72)
        self.assertEqual(run.check_sweep(doc, run.expected_sweep_cells()), [])

    def test_one_flipped_counter_is_caught(self):
        expected = run.expected_sweep_cells()
        for field in ("worklist_pops", "tuples", "call_graph_edges"):
            doc = copy.deepcopy(self.sweep_doc())
            doc["passes"][0]["cells"][17]["final"][field] += 1
            failures = run.check_sweep(doc, expected)
            self.assertEqual(len(failures), 1, field)

    def test_golden_file_is_the_repo_one(self):
        with open(run.GOLDEN_FIG5) as f:
            self.assertEqual(len(json.load(f)["bench"]["attempts"]), 24)


class Scrub(unittest.TestCase):
    def test_only_wall_clock_values_are_pinned(self):
        line = report("j", 0.123)
        slice_ = run.deterministic_slice(line)
        self.assertTrue(slice_.startswith('{"job":"j"'))
        self.assertNotIn("cache", slice_)
        self.assertEqual(run.scrub_wall_clock(slice_),
                         run.scrub_wall_clock(
                             run.deterministic_slice(report("j", 9.5))))
        self.assertNotEqual(run.scrub_wall_clock(slice_),
                            run.scrub_wall_clock(
                                run.deterministic_slice(report("k", 0.123))))


class CachedPassA(unittest.TestCase):
    def record(self, hits):
        rows = [{"level": level, "seconds": 0.01} for level in
                ("insensitive", "introB")]
        line = json.dumps({"deterministic": {"outcome": {
            "metric_seconds": 0.001, "attempts": rows}},
            "timing": {"total_seconds": 0.02}})
        return {"report": line, "cache": {"hits": hits}}

    def test_a_hit_marks_only_its_insensitive_row_cached(self):
        rows, _, totals = run.report_outcomes(
            [self.record(1), self.record(0), {"report": ""}])
        self.assertEqual([(r["level"], r["cached"]) for r in rows],
                         [("insensitive", True), ("introB", False),
                          ("insensitive", False), ("introB", False)])
        self.assertEqual(len(totals), 2)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent(self):
        spans = [{"name": "supervise.x", "start": 0.0, "end": 1.0,
                  "parent": -1},
                 {"name": "frontend.parseProgram", "start": 0.1, "end": 0.3,
                  "parent": 0},
                 {"name": "cache.probe", "start": 0.5, "end": 0.6,
                  "parent": 0}]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs["supervise.x"], 0.7)
        self.assertAlmostEqual(selfs["frontend.parseProgram"], 0.2)
        self.assertAlmostEqual(selfs["cache.probe"], 0.1)


if __name__ == "__main__":
    unittest.main()
