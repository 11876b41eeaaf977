"""Tests of the benchmark's own code: corpus, checker, tracer and the
reference-loop timing.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import json
import os
import sys
import tempfile
import unittest
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import corpus  # noqa: E402

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
    EXPECTED = json.load(fh)

MAJORITY = check.parse_input("weighted\nquota: 2\nweights: 1 1 1\n")


def _read_dir(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


class CorpusTest(unittest.TestCase):
    def test_same_seed_gives_identical_files(self):
        for workload in corpus.PARTS:
            with tempfile.TemporaryDirectory() as a, \
                    tempfile.TemporaryDirectory() as b:
                corpus.write(corpus.generate(workload, 7), a)
                corpus.write(corpus.generate(workload, 7), b)
                self.assertEqual(_read_dir(a), _read_dir(b))

    def test_other_seed_gives_other_files(self):
        one = [i["text"] for i in corpus.generate("nakamura", 1)]
        two = [i["text"] for i in corpus.generate("nakamura", 2)]
        self.assertNotEqual(one, two)

    def test_items_respect_their_ranges(self):
        for workload, parts in corpus.PARTS.items():
            items = corpus.generate(workload, 3)
            for spec in parts:
                got = [i for i in items if i["part"] == spec["part"]]
                self.assertEqual(len(got), spec["items"])
                for item in got:
                    props = item["props"]
                    lo, hi = spec["players"]
                    self.assertTrue(lo <= props["players"] <= hi)
                    if "strata" in spec:
                        key, lo, hi, _ = spec["strata"]
                        self.assertTrue(lo <= props[key] <= hi)

    def test_weighted_counts_match_brute_force(self):
        for quota, weights in [(2, [1, 1, 1]), (7, [5, 3, 3, 2, 1]),
                               (9, [4, 4, 2, 2, 2, 1]), (1, [3, 1])]:
            n = len(weights)
            win = {m for m in range(1 << n)
                   if sum(w for i, w in enumerate(weights) if m >> i & 1)
                   >= quota}
            minimal = sum(1 for m in win
                          if all(m & ~(1 << i) not in win
                                 for i in range(n) if m >> i & 1))
            maximal = sum(1 for m in range(1 << n) if m not in win
                          and all(m | 1 << i in win
                                  for i in range(n) if not m >> i & 1))
            self.assertEqual(corpus.weighted_counts(quota, weights),
                             (minimal, maximal))

    def test_complete_coalitions_by_enumeration(self):
        sizes, rows = [2, 3], [[1, 2], [2, 0]]
        game = check.parse_input("complete\nclasses: 2 3\nrow: 2 0\nrow: 1 2\n")
        players = range(1, 6)
        win = [frozenset(c) for k in range(6)
               for c in combinations(players, k)
               if check.is_winning(game, frozenset(c))]
        minimal = [c for c in win if not any(o < c for o in win)]
        self.assertEqual(corpus.complete_coalitions(sizes, rows), len(minimal))


class CheckTest(unittest.TestCase):
    def test_accepts_a_valid_witness(self):
        self.assertIsNone(check.check_nakamura(MAJORITY, "3\n1 2\n1 3\n2 3\n"))

    def test_rejects_corrupted_witnesses(self):
        for bad in ("3\n1\n1 3\n2 3\n",        # a losing coalition
                    "3\n1 2\n1 3\n1 2 3\n",    # common player 1
                    "3\n1 2\n1 3\n",           # fewer coalitions than value
                    "2\n1 2\n2 3\n",           # value below the witness
                    "inf\n"):                  # no vetoer in majority
            self.assertIsNotNone(check.check_nakamura(MAJORITY, bad), bad)

    def test_complete_and_simple_witnesses(self):
        complete = check.parse_input("complete\nclasses: 2 2\nrow: 1 1\n")
        # winning: a player of class 1 and two players in all
        self.assertIsNone(check.check_nakamura(complete, "2\n1 3\n2 4\n"))
        self.assertIsNotNone(check.check_nakamura(complete, "2\n1 2\n3 4\n"))
        simple = check.parse_input("simple\nplayers: 3\n1 2\n2 3\n1 3\n")
        self.assertIsNone(check.check_nakamura(simple, "3\n1 2\n2 3\n1 3\n"))
        self.assertIsNotNone(check.check_nakamura(simple, "2\n1 2\n3\n"))

    def test_analyze_bounds_must_sandwich_the_value(self):
        report = {"nakamura": {"value": "3", "witness": [[1, 2], [1, 3], [2, 3]]},
                  "game": {"players": 3},
                  "bounds": [{"method": "weighted", "lower": "2", "upper": "3"}]}
        self.assertIsNone(check.check_analyze(MAJORITY, json.dumps(report)))
        report["bounds"][0]["lower"] = "4"
        self.assertIsNotNone(check.check_analyze(MAJORITY, json.dumps(report)))
        report["bounds"][0].update(lower="2", upper="2")
        self.assertIsNotNone(check.check_analyze(MAJORITY, json.dumps(report)))

    def test_rejects_a_changed_census_count(self):
        name = "census 1 16 complete_r1"
        good = EXPECTED[name]
        self.assertIsNone(check.check_fixed(good, good))
        self.assertIsNone(check.check_census_totals(good))
        lines = good.splitlines()
        fields = lines[6].split(",")
        fields[2] = str(int(fields[2]) + 1)
        lines[6] = ",".join(fields)
        changed = "\n".join(lines) + "\n"
        self.assertIsNotNone(check.check_fixed(changed, good))
        self.assertIsNotNone(check.check_census_totals(changed))

    def test_count_r1_matches_the_package(self):
        from nakamura.census import count_r1

        for n in range(1, 17):
            self.assertEqual(check.count_r1(n), count_r1(n))


class TracerTest(unittest.TestCase):
    def test_patches_every_binding_site_and_counts_raises(self):
        import nakamura.cli
        import nakamura.games
        import nakamura.lp
        import tracing

        original = nakamura.games.structure_flags
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(nakamura.cli.structure_flags, original)
            self.assertIs(nakamura.cli.structure_flags,
                          nakamura.games.structure_flags)
            with self.assertRaises(ValueError):
                nakamura.lp.solve_lp([1, 1], [([1], "<=", 1)])
        finally:
            tracer.uninstall()
        self.assertIs(nakamura.cli.structure_flags, original)
        self.assertEqual(tracer.counts["lp.solve_lp.raised.ValueError"], 1)
        self.assertEqual(tracer.per_function()["lp.solve_lp"]["calls"], 1)


class ReferenceTimingTest(unittest.TestCase):
    def test_scale_is_nominal_at_the_reference_speed(self):
        import run

        self.assertAlmostEqual(run.scale(2.0, [run.REF_NOMINAL_S] * 3), 2.0)
        # a host running the reference loop half as fast halves the reading
        self.assertAlmostEqual(run.scale(2.0, [2 * run.REF_NOMINAL_S]), 1.0)

    def test_sampler_samples_while_running_then_times_out(self):
        import time

        import run

        sampler = run.Sampler()
        start = time.perf_counter()
        with self.assertRaises(run.ItemTimeout):
            sampler.start(0.3)
            try:
                while time.perf_counter() - start < 5:
                    pass
            finally:
                sampler.stop()
        self.assertLess(time.perf_counter() - start, 1.0)
        self.assertGreaterEqual(len(sampler.samples), 3)
        self.assertGreater(sampler.spent, 0)


class RecordTest(unittest.TestCase):
    def test_record_repeats_the_corpus_ranges(self):
        with open(os.path.join(HERE, "record.json"), encoding="utf-8") as fh:
            record = json.load(fh)
        self.assertEqual(record["corpus"]["parts"], corpus.PARTS)


if __name__ == "__main__":
    unittest.main()
