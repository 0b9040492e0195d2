"""Self-tests of the benchmark's statistics on planted inputs.

    python3 perfbench/test_stats.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_odd_and_even_medians(self):
        self.assertEqual(stats.median([5, 1, 3]), 3)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_the_statistics_module(self):
        values = [7.0, 1.0, 3.0, 9.0, 5.0, 11.0, 13.0, 15.0, 2.0, 4.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_planted_quartiles(self):
        # Exclusive method on 1..7: positions (n+1)p = 2, 4, 6.
        self.assertEqual(stats.quartiles([1, 2, 3, 4, 5, 6, 7]), (2, 4, 6))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([3.5]), (3.5, 3.5, 3.5))


class TailPercentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([42], 99), 42)

    def test_p99_needs_a_thousand_samples(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.tail_percentile(values), (99.0, 990, 10))
        # One sample short: p99 has only 9 beyond it, so p95 is reported.
        self.assertEqual(stats.tail_percentile(values[:999]),
                         (95.0, 950, 49))

    def test_cap_limits_the_percentile(self):
        values = list(range(1, 100001))
        self.assertEqual(stats.tail_percentile(values, cap=99.9),
                         (99.9, 99900, 100))
        self.assertEqual(stats.tail_percentile(values), (99.0, 99000, 1000))

    def test_small_sample_falls_back(self):
        self.assertEqual(stats.tail_percentile(list(range(40))),
                         (75.0, 29, 10))
        self.assertEqual(stats.tail_percentile([3, 9, 4]), (100.0, 9, 0))

    def test_planted_outliers_show(self):
        values = [100] * 990 + [5000] * 10
        self.assertEqual(stats.tail_percentile(values), (99.0, 100, 10))
        values = [100] * 989 + [5000] * 11
        self.assertEqual(stats.tail_percentile(values)[1], 5000)


class FailureCounting(unittest.TestCase):
    def test_counts_against_attempted(self):
        failures = stats.Failures()
        failures.add(1000)
        failures.add(1000, 250, "stream 2 disconnected")
        self.assertEqual((failures.attempted, failures.failed), (2000, 250))
        self.assertEqual(failures.success_frac(), 0.875)
        self.assertEqual(failures.reasons, ["stream 2 disconnected"])

    def test_failed_run_fails_every_query_once(self):
        failures = stats.Failures()
        failures.add(500, 900, "exit code 1")
        self.assertEqual((failures.attempted, failures.failed), (500, 500))
        self.assertEqual(failures.success_frac(), 0.0)

    def test_nothing_attempted(self):
        self.assertEqual(stats.Failures().success_frac(), 0.0)


if __name__ == "__main__":
    unittest.main()
