"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s tsgbench -p 'test_*.py'
"""

import random
import unittest

import benchstats as bs


class NearestRank(unittest.TestCase):
    def test_ranks(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(bs.nearest_rank(values, 50), 50)
        self.assertEqual(bs.nearest_rank(values, 99), 99)
        self.assertEqual(bs.nearest_rank(values, 100), 100)
        self.assertEqual(bs.nearest_rank(values, 0.5), 1)

    def test_small_and_unsorted(self):
        self.assertEqual(bs.nearest_rank([5, 1, 3], 50), 3)
        self.assertEqual(bs.nearest_rank([5, 1, 3], 34), 3)
        self.assertEqual(bs.nearest_rank([5, 1, 3], 33), 1)
        self.assertEqual(bs.nearest_rank([7.5], 99), 7.5)

    def test_returns_a_sample(self):
        # no interpolation, no buckets: the answer is always a raw sample
        rng = random.Random(3)
        values = [rng.random() for _ in range(37)]
        for p in (1, 25, 50, 75, 90, 99, 100):
            self.assertIn(bs.nearest_rank(values, p), values)

    def test_rejects(self):
        with self.assertRaises(ValueError):
            bs.nearest_rank([], 50)
        with self.assertRaises(ValueError):
            bs.nearest_rank([1], 0)

    def test_tail_percentile(self):
        self.assertEqual(bs.tail_percentile(1000), 99)
        self.assertEqual(bs.tail_percentile(999), 90)
        self.assertEqual(bs.tail_percentile(100), 90)
        self.assertEqual(bs.tail_percentile(40), 75)
        self.assertEqual(bs.tail_percentile(20), 50)
        self.assertIsNone(bs.tail_percentile(19))

    def test_interquartile_mean(self):
        # sorted: -50 1 | 2 3 3 3 | 4 100
        self.assertEqual(bs.interquartile_mean([1, 2, 3, 4, 100, -50, 3, 3]), 2.75)
        self.assertEqual(bs.interquartile_mean([7]), 7)
        self.assertEqual(bs.interquartile_mean([1, 2, 3]), 2)
        with self.assertRaises(ValueError):
            bs.interquartile_mean([])

    def test_summary(self):
        s = bs.summary([4, 1, 3, 2])
        self.assertEqual(s, {"n": 4, "median": 2, "q1": 1, "q3": 3})


def span(i, parent, name, start, end):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end}


class SelfTime(unittest.TestCase):
    def test_children_subtracted(self):
        spans = [
            span(0, -1, "root", 0.0, 10.0),
            span(1, 0, "a", 1.0, 3.0),
            span(2, 0, "b", 4.0, 8.0),
            span(3, 2, "c", 5.0, 6.0),
        ]
        t = bs.self_times(spans)
        self.assertAlmostEqual(t["root"], 4.0)
        self.assertAlmostEqual(t["a"], 2.0)
        self.assertAlmostEqual(t["b"], 3.0)
        self.assertAlmostEqual(t["c"], 1.0)

    def test_grandchildren_not_subtracted_twice(self):
        spans = [
            span(0, -1, "root", 0.0, 4.0),
            span(1, 0, "mid", 0.0, 4.0),
            span(2, 1, "leaf", 0.0, 4.0),
        ]
        t = bs.self_times(spans)
        self.assertEqual((t["root"], t["mid"], t["leaf"]), (0.0, 0.0, 4.0))

    def test_overlap_and_overhang_counted_once(self):
        spans = [
            span(0, -1, "p", 0.0, 10.0),
            span(1, 0, "x", 2.0, 6.0),
            span(2, 0, "y", 4.0, 8.0),
            span(3, 0, "z", 9.0, 12.0),
        ]
        self.assertAlmostEqual(bs.self_times(spans)["p"], 10.0 - 6.0 - 1.0)

    def test_same_name_summed(self):
        spans = [
            span(0, -1, "g", 0.0, 2.0),
            span(1, 0, "o", 0.5, 1.0),
            span(2, -1, "g", 3.0, 4.0),
        ]
        self.assertAlmostEqual(bs.self_times(spans)["g"], 2.5)


class ErrorRate(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(bs.error_rate(10, 0), 0.0)
        self.assertEqual(bs.error_rate(8, 2), 0.25)

    def test_rejects(self):
        with self.assertRaises(ValueError):
            bs.error_rate(0, 0)
        with self.assertRaises(ValueError):
            bs.error_rate(3, 4)

    def test_failure_misses_every_limit(self):
        lat = bs.latencies_from_due([0.0, 1.0, 2.0], [0.001, None, 2.002])
        self.assertEqual(lat[1], None)
        self.assertAlmostEqual(lat[2], 0.002)
        self.assertTrue(bs.meets_limit([0.001, 0.002, 0.003], 99, 0.01))
        self.assertFalse(bs.meets_limit([0.001, None, 0.003], 99, 10.0))
        self.assertFalse(bs.meets_limit([], 50, 1.0))


class Schedule(unittest.TestCase):
    def test_seeded_and_bounded(self):
        a = bs.poisson_schedule(random.Random(7), 200.0, 5.0)
        b = bs.poisson_schedule(random.Random(7), 200.0, 5.0)
        self.assertEqual(a, b)
        self.assertTrue(all(0.0 <= t < 5.0 for t in a))
        self.assertEqual(a, sorted(a))

    def test_rate(self):
        due = bs.poisson_schedule(random.Random(11), 500.0, 20.0)
        self.assertAlmostEqual(len(due) / 20.0, 500.0, delta=25.0)
        gaps = [b - a for a, b in zip(due, due[1:])]
        self.assertAlmostEqual(sum(gaps) / len(gaps), 1 / 500.0, delta=1e-4)

    def test_latency_counts_from_due_not_send(self):
        # the generator sent request 1 late (at 1.5 instead of 1.0); its
        # latency still runs from 1.0
        lat = bs.latencies_from_due([0.0, 1.0], [0.1, 1.6])
        self.assertAlmostEqual(lat[1], 0.6)

    def test_rejects(self):
        with self.assertRaises(ValueError):
            bs.poisson_schedule(random.Random(1), 0.0, 1.0)


if __name__ == "__main__":
    unittest.main()
