"""Self-tests of the benchmark's helpers: `python3 -m unittest discover -s perfbench`."""

import json
import unittest

import benchlib


def span(id, parent, start, end, name="s"):
    return {"id": id, "parent": parent, "name": name, "start_ns": start, "end_ns": end}


class OrderStatistics(unittest.TestCase):
    def test_median_of_odd_and_even_samples(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_the_exclusive_method(self):
        # statistics.quantiles(n=4) on 1..9: positions 2.5, 5, 7.5.
        self.assertEqual(benchlib.quartiles(list(range(1, 10))), (2.5, 5.0, 7.5))
        self.assertEqual(benchlib.quartiles([7]), (7, 7, 7))

    def test_iqr_share_is_relative_to_the_median(self):
        self.assertAlmostEqual(benchlib.iqr_share(list(range(1, 10))), 5.0 / 5.0)
        self.assertEqual(benchlib.iqr_share([2.0] * 10), 0.0)

    def test_percentiles_interpolate_between_ranks(self):
        sample = list(range(1, 101))
        self.assertEqual(benchlib.percentile(sample, 0.0), 1)
        self.assertEqual(benchlib.percentile(sample, 1.0), 100)
        self.assertAlmostEqual(benchlib.percentile(sample, 0.5), 50.5)
        self.assertAlmostEqual(benchlib.percentile(sample, 0.99), 99.01)
        self.assertEqual(benchlib.percentile([5], 0.99), 5)


class Spans(unittest.TestCase):
    def test_union_counts_overlaps_once(self):
        self.assertEqual(benchlib.union_length([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(benchlib.union_length([]), 0)

    def test_self_time_subtracts_covered_child_intervals(self):
        spans = [
            span(0, None, 0, 100),
            span(1, 0, 10, 30),
            span(2, 0, 20, 50),  # overlaps child 1: 10..50 covered once
            span(3, 0, 90, 120),  # runs past its parent: clipped to 90..100
            span(4, 1, 12, 18),
        ]
        selfs = benchlib.self_times(spans)
        self.assertEqual(selfs[0], 100 - 40 - 10)
        self.assertEqual(selfs[1], 20 - 6)
        self.assertEqual(selfs[2], 30)
        self.assertEqual(selfs[4], 6)

    def test_layer_totals_group_by_name(self):
        spans = [
            span(0, None, 0, 100, "pass"),
            span(1, 0, 0, 40, "ipm.solve"),
            span(2, 0, 50, 70, "ipm.solve"),
        ]
        totals = benchlib.layer_totals(spans)
        self.assertEqual(totals["ipm.solve"], (2, 60, 60))
        self.assertEqual(totals["pass"], (1, 40, 100))

    def test_descendants_walk_every_depth(self):
        spans = [span(0, None, 0, 9), span(1, 0, 0, 5), span(2, 1, 0, 2), span(3, None, 9, 10)]
        self.assertEqual(sorted(s["id"] for s in benchlib.descendants(spans, 0)), [1, 2])


class SeededInputs(unittest.TestCase):
    SUITE = json.dumps(
        {"name": "gen-1", "scenarios": [{"name": f"s{i}"} for i in range(20)]}
    )

    def test_shuffle_is_pure_in_the_seed(self):
        self.assertEqual(
            benchlib.shuffled_suite(self.SUITE, 5), benchlib.shuffled_suite(self.SUITE, 5)
        )
        self.assertNotEqual(
            benchlib.shuffled_suite(self.SUITE, 5), benchlib.shuffled_suite(self.SUITE, 6)
        )

    def test_shuffle_keeps_every_scenario(self):
        shuffled = json.loads(benchlib.shuffled_suite(self.SUITE, 9))
        self.assertEqual(shuffled["name"], "gen-1")
        self.assertEqual(
            sorted(s["name"] for s in shuffled["scenarios"]),
            sorted(s["name"] for s in json.loads(self.SUITE)["scenarios"]),
        )


class Counters(unittest.TestCase):
    def test_drift_names_every_disagreeing_counter(self):
        self.assertEqual(benchlib.counter_drift({"a": 1, "b": 2}, {"a": 1, "b": 2}), [])
        self.assertEqual(
            benchlib.counter_drift({"a": 1, "b": 2}, {"a": 1, "b": 3, "c": 0}), ["b", "c"]
        )

    def test_tree_digest_depends_on_paths_and_contents(self):
        base = [("a.rs", b"x"), ("b.rs", b"y")]
        self.assertEqual(benchlib.tree_digest(base), benchlib.tree_digest(list(reversed(base))))
        self.assertNotEqual(benchlib.tree_digest(base), benchlib.tree_digest([("a.rs", b"z"), ("b.rs", b"y")]))


if __name__ == "__main__":
    unittest.main()
