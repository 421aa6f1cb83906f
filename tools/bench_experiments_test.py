#!/usr/bin/env python3
"""Unit tests for bench_experiments.py's repeated-sample aggregation.

Registered in CTest (bench_experiments_test): --repeat must alternate
1-thread and N-thread runs, record the median and the inclusive
interquartile range per thread count, keep each thread count's digest,
and flag a digest that changes between repeats.
"""

import os
import sys
import unittest
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_experiments


class SummarizeTest(unittest.TestCase):
    def test_single_sample_is_its_own_median_and_iqr(self):
        self.assertEqual(bench_experiments.summarize([2.5]),
                         (2.5, [2.5, 2.5]))

    def test_odd_count(self):
        median, iqr = bench_experiments.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
        self.assertEqual(median, 3.0)
        self.assertEqual(iqr, [2.0, 4.0])

    def test_even_count_interpolates(self):
        median, iqr = bench_experiments.summarize([1.0, 2.0, 3.0, 4.0])
        self.assertEqual(median, 2.5)
        self.assertEqual(iqr, [1.75, 3.25])


class FakeRunner:
    """Stands in for run_once: scripted seconds and stdout per call."""

    def __init__(self, seconds, outputs=None):
        self.seconds = list(seconds)
        self.outputs = list(outputs) if outputs else None
        self.calls = []

    def __call__(self, binary, threads, timeout):
        self.calls.append(threads)
        stdout = self.outputs.pop(0) if self.outputs else b"table\n"
        return 0, self.seconds.pop(0), stdout


class MeasureTest(unittest.TestCase):
    binary = Path("bench/tab_example")

    def test_repeats_alternate_thread_counts(self):
        runner = FakeRunner([1.0, 0.5, 1.2, 0.6, 1.1, 0.4])
        record, problems = bench_experiments.measure(
            self.binary, [1, 4], 60.0, repeat=3, runner=runner)
        self.assertEqual(runner.calls, [1, 4, 1, 4, 1, 4])
        self.assertEqual(problems, [])
        serial = record["runs"]["1"]
        self.assertEqual(serial["seconds"], 1.1)
        self.assertEqual(serial["seconds_iqr"], [1.05, 1.15])
        self.assertEqual(serial["samples"], [1.0, 1.2, 1.1])
        self.assertEqual(record["runs"]["4"]["seconds"], 0.5)
        self.assertEqual(record["digest"], serial["digest"])

    def test_single_run_keeps_the_plain_record(self):
        runner = FakeRunner([2.0, 1.0])
        record, problems = bench_experiments.measure(
            self.binary, [1, 4], 60.0, runner=runner)
        self.assertEqual(problems, [])
        self.assertEqual(record["runs"]["1"].keys(), {"seconds", "digest"})

    def test_digest_change_between_repeats_is_a_problem(self):
        runner = FakeRunner([1.0, 1.0, 1.0, 1.0],
                            [b"a\n", b"a\n", b"b\n", b"a\n"])
        _, problems = bench_experiments.measure(
            self.binary, [1, 4], 60.0, repeat=2, runner=runner)
        self.assertEqual(len(problems), 1)
        self.assertIn("repeats", problems[0])


if __name__ == "__main__":
    unittest.main()
