"""Unit tests of the compare verdicts: python3 -m unittest discover perfbench"""

import unittest

import compare


class VerdictTest(unittest.TestCase):
    def test_within_bound_is_unchanged(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.05]
        head = [10.3, 10.2, 10.4, 10.25, 10.3]
        self.assertEqual(compare.verdict(base, head, 0.1, lower_better=True), "unchanged")

    def test_worse_beyond_bound(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.05]
        head = [12.0, 12.1, 11.9, 12.0, 12.2]
        self.assertEqual(compare.verdict(base, head, 0.1, lower_better=True), "worse")
        self.assertEqual(compare.verdict(head, base, 0.1, lower_better=False), "worse")

    def test_better_beyond_base_spread(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.05]
        head = [9.0, 9.1, 8.9, 9.0, 9.05]
        self.assertEqual(compare.verdict(base, head, 0.1, lower_better=True), "better")

    def test_wide_spread_is_unresolved_unless_disjoint(self):
        base = [10.0, 14.0, 7.0, 12.0, 9.0]
        head = [11.0, 15.0, 8.0, 13.0, 10.0]
        self.assertEqual(compare.verdict(base, head, 0.1, lower_better=True), "unresolved")
        far = [v + 20 for v in base]
        self.assertEqual(compare.verdict(base, far, 0.1, lower_better=True), "worse")

    def test_counts_must_repeat(self):
        run = lambda v: {"workload": "w", "result": {"metrics": {
            "c": {"value": v, "unit": "count"}}}}
        rows = compare.compare({"runs": [run(3), run(3)]}, {"runs": [run(3), run(3)]}, {})
        self.assertEqual(rows[0].verdict, "same")
        rows = compare.compare({"runs": [run(3), run(3)]}, {"runs": [run(3), run(4)]}, {})
        self.assertEqual(rows[0].verdict, "differs")

    def test_quartiles_follow_statistics_quantiles(self):
        self.assertEqual(compare.quartiles([1, 2, 3, 4]), (1.25, 2.5, 3.75))
        self.assertEqual(compare.quartiles([5]), (5, 5, 5))


if __name__ == "__main__":
    unittest.main()
