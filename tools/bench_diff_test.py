#!/usr/bin/env python3
"""Unit tests for bench_diff.py's guard threshold logic.

Registered in CTest (bench_diff_guard_test) so the perf gate's
fail/pass behaviour is itself regression-tested: the guard must trip
on a >5% regression of a storage-layout metric, stay quiet under the
threshold, ignore time-domain metrics entirely, and never reward a
regression hidden behind a missing baseline.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_diff


def metrics(**kwargs):
    """{metric: value} -> bench_diff's flattened shape."""
    return {
        name: (value, bench_diff.HIGHER_IS_BETTER.get(
            name.rsplit("/", 1)[-1], False))
        for name, value in kwargs.items()
    }


class GuardViolationsTest(unittest.TestCase):
    def test_trips_on_bytes_per_line_regression_over_threshold(self):
        baseline = metrics(bytes_per_line=1000.0)
        fresh = metrics(bytes_per_line=1060.0)  # +6%
        violations = bench_diff.guard_violations(baseline, fresh)
        self.assertEqual(len(violations), 1)
        self.assertEqual(violations[0][0], "bytes_per_line")
        self.assertAlmostEqual(violations[0][1], 6.0)

    def test_trips_on_peak_rss_regression(self):
        baseline = metrics(peak_rss_bytes=2.0e9)
        fresh = metrics(peak_rss_bytes=2.2e9)  # +10%
        self.assertEqual(
            [m for m, _ in bench_diff.guard_violations(baseline, fresh)],
            ["peak_rss_bytes"])

    def test_quiet_under_threshold(self):
        baseline = metrics(bytes_per_line=1000.0,
                           peak_rss_bytes=1.0e9)
        fresh = metrics(bytes_per_line=1040.0,   # +4%
                        peak_rss_bytes=1.05e9)   # exactly +5%: not over
        self.assertEqual(bench_diff.guard_violations(baseline, fresh),
                         [])

    def test_improvement_never_violates(self):
        baseline = metrics(bytes_per_line=1000.0)
        fresh = metrics(bytes_per_line=100.0)
        self.assertEqual(bench_diff.guard_violations(baseline, fresh),
                         [])

    def test_time_domain_metrics_are_report_only(self):
        baseline = metrics(lines_per_second=200000.0,
                           steady_lines_per_second=200000.0,
                           warmup_seconds=1.0,
                           wall_seconds=1.0)
        fresh = metrics(lines_per_second=1000.0,  # catastrophic, but
                        steady_lines_per_second=1000.0,  # not guarded
                        warmup_seconds=50.0,
                        wall_seconds=50.0)
        self.assertEqual(bench_diff.guard_violations(baseline, fresh),
                         [])

    def test_point_prefixed_metrics_are_guarded(self):
        baseline = metrics(**{"lines=262144/bytes_per_line": 835.0})
        fresh = metrics(**{"lines=262144/bytes_per_line": 900.0})
        self.assertEqual(
            [m for m, _ in bench_diff.guard_violations(baseline, fresh)],
            ["lines=262144/bytes_per_line"])

    def test_one_sided_metrics_are_skipped(self):
        baseline = metrics(bytes_per_line=1000.0)
        fresh = metrics(peak_rss_bytes=9.9e9)
        self.assertEqual(bench_diff.guard_violations(baseline, fresh),
                         [])

    def test_custom_threshold(self):
        baseline = metrics(bytes_per_line=1000.0)
        fresh = metrics(bytes_per_line=1020.0)  # +2%
        self.assertEqual(
            bench_diff.guard_violations(baseline, fresh,
                                        threshold_pct=1.0),
            [("bytes_per_line", 2.0)])

    def test_zero_baseline_is_not_a_violation(self):
        baseline = metrics(bytes_per_line=0.0)
        fresh = metrics(bytes_per_line=5000.0)
        self.assertEqual(bench_diff.guard_violations(baseline, fresh),
                         [])


class FlattenDerivationTest(unittest.TestCase):
    def test_warmup_rate_derived_for_old_baselines(self):
        # Baselines that predate the warm-up/steady split carry only
        # warmup_seconds; flatten() must synthesize the rate so the
        # warm-up acceptance gate still has something to compare.
        doc = {"points": [{"lines": 16384, "warmup_seconds": 2.0}]}
        flat = bench_diff.flatten(doc)
        self.assertIn("lines=16384/warmup_lines_per_second", flat)
        value, higher_better = flat["lines=16384/warmup_lines_per_second"]
        self.assertAlmostEqual(value, 8192.0)
        self.assertTrue(higher_better)

    def test_recorded_warmup_rate_wins_over_derivation(self):
        doc = {"points": [{"lines": 16384, "warmup_seconds": 2.0,
                           "warmup_lines_per_second": 9999.0}]}
        flat = bench_diff.flatten(doc)
        self.assertAlmostEqual(
            flat["lines=16384/warmup_lines_per_second"][0], 9999.0)

    def test_no_derivation_without_warmup_seconds(self):
        doc = {"points": [{"lines": 16384, "bytes_per_line": 835.0}]}
        self.assertNotIn("lines=16384/warmup_lines_per_second",
                         bench_diff.flatten(doc))

    def test_sweep_baselines_keep_their_guarded_layout_metrics(self):
        # The checked-in sweep baselines are single micro_scale
        # points; the guard must still see their recorded layout.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for name, lines in (("BENCH_micro_sweep.json", 4096),
                            ("BENCH_micro_sweep_errorheavy.json", 2048)):
            with open(os.path.join(root, name)) as fh:
                doc = json.load(fh)
            flat = bench_diff.flatten(doc)
            for metric in ("bytes_per_line", "peak_rss_bytes"):
                key = "lines=%d/%s" % (lines, metric)
                self.assertIn(key, flat, name)
                self.assertTrue(bench_diff.is_guarded(key))


class SkippedPointsTest(unittest.TestCase):
    def test_skipped_points_parsed_with_reason(self):
        doc = {"points": [{"lines": 16384, "bytes_per_line": 800.0}],
               "skipped_points": [{"lines": 4194304,
                                   "reason": "rss_budget",
                                   "projected_gib": 5.2}]}
        self.assertEqual(bench_diff.skipped_prefixes(doc),
                         {"lines=4194304/": "rss_budget"})

    def test_absent_or_malformed_records_yield_nothing(self):
        self.assertEqual(bench_diff.skipped_prefixes({}), {})
        self.assertEqual(
            bench_diff.skipped_prefixes(
                {"skipped_points": ["garbage", {"reason": "?"}]}),
            {})

    def test_skipped_point_never_guard_violates(self):
        # Baseline has the big point; the fresh run RSS-gated it, so
        # its metrics are absent from fresh — one-sided metrics are
        # skipped by the guard, and the skip record explains why.
        baseline = metrics(**{"lines=4194304/bytes_per_line": 835.0})
        fresh = metrics(**{"lines=16384/bytes_per_line": 835.0})
        self.assertEqual(bench_diff.guard_violations(baseline, fresh),
                         [])


class RegressionPctTest(unittest.TestCase):
    def test_lower_is_better_sign(self):
        self.assertAlmostEqual(
            bench_diff.regression_pct("bytes_per_line", 100.0, 110.0,
                                      False), 10.0)

    def test_higher_is_better_sign(self):
        self.assertAlmostEqual(
            bench_diff.regression_pct("lines_per_second", 100.0, 90.0,
                                      True), 10.0)

    def test_improvement_is_negative(self):
        self.assertAlmostEqual(
            bench_diff.regression_pct("bytes_per_line", 100.0, 90.0,
                                      False), -10.0)


def experiments(**runs):
    """{binary: (digest, {threads: (median, [q1, q3] or None)})} ->
    a BENCH_experiments.json document."""
    binaries = []
    for name, (digest, by_threads) in runs.items():
        record = {"name": name, "digest": digest, "runs": {}}
        for threads, (seconds, iqr) in by_threads.items():
            run = {"seconds": seconds, "digest": digest}
            if iqr is not None:
                run["seconds_iqr"] = iqr
            record["runs"][str(threads)] = run
        binaries.append(record)
    return {"schema": bench_diff.EXPERIMENTS_SCHEMA, "binaries": binaries}


class ExperimentsSpreadTest(unittest.TestCase):
    def test_delta_inside_combined_iqr_is_not_flagged(self):
        # 0.3 s apart, IQR widths 0.2 + 0.2 = 0.4 s.
        pct, verdict = bench_diff.spread_verdict(
            {"seconds": 10.0, "seconds_iqr": [9.9, 10.1]},
            {"seconds": 10.3, "seconds_iqr": [10.2, 10.4]})
        self.assertEqual(verdict, "within spread")
        self.assertAlmostEqual(pct, 3.0)

    def test_delta_past_combined_iqr_is_flagged_both_ways(self):
        base = {"seconds": 10.0, "seconds_iqr": [9.9, 10.1]}
        self.assertEqual(bench_diff.spread_verdict(
            base, {"seconds": 10.5, "seconds_iqr": [10.4, 10.6]})[1],
            "slower")
        self.assertEqual(bench_diff.spread_verdict(
            base, {"seconds": 6.0, "seconds_iqr": [5.9, 6.1]})[1],
            "faster")

    def test_single_sample_records_have_no_spread(self):
        self.assertEqual(bench_diff.spread_verdict(
            {"seconds": 1.0}, {"seconds": 1.01})[1], "slower")

    def test_table_rows_and_digest_column(self):
        baseline = experiments(
            fig_a=("d1", {1: (4.0, [3.9, 4.1]), 4: (2.0, [1.9, 2.1])}),
            tab_b=("d2", {1: (1.0, [0.95, 1.05])}),
            fig_gone=("d3", {1: (1.0, None)}))
        fresh = experiments(
            fig_a=("d1", {1: (3.0, [2.9, 3.1]), 4: (2.1, [2.0, 2.2])}),
            tab_b=("changed", {1: (1.0, [0.95, 1.05])}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            bench_diff.diff_experiments(baseline, fresh, "old.json")
        rows = [line for line in out.getvalue().splitlines()
                if line.startswith("| fig_") or line.startswith("| tab_")]
        self.assertEqual(len(rows), 3)
        self.assertIn("-25.0% faster", rows[0])
        self.assertIn("| same |", rows[0])
        self.assertIn("within spread", rows[1])
        self.assertIn("DIFFERS", rows[2])
        self.assertIn("missing from fresh run: fig_gone", out.getvalue())

    def test_main_reads_experiment_records_report_only(self):
        baseline = experiments(fig_a=("d1", {1: (1.0, [1.0, 1.0])}))
        fresh = experiments(fig_a=("d1", {1: (9.0, [9.0, 9.0])}))
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("old.json", baseline),
                              ("new.json", fresh)):
                path = os.path.join(tmp, name)
                with open(path, "w") as fh:
                    json.dump(doc, fh)
                paths.append(path)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = bench_diff.main(["bench_diff.py", "--guard"] + paths)
        self.assertEqual(code, 0)
        self.assertIn("slower", out.getvalue())


if __name__ == "__main__":
    unittest.main()
