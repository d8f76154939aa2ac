"""Tests of the benchmark's own logic.

    python3 bench/selftest.py

Covers the self-time arithmetic, the tail-percentile rule, the scaling to
the reference speed, the output oracle, the patching done by the tracer,
and the agreement between BENCHMARK.json and the metrics the benchmark
prints.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import unittest
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import prepare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        # 0 root [0, 10]
        #   1 [1, 4]        2 [3, 6] overlaps 1      4 [9, 12] sticks out of 0
        #     3 [2, 3] inside 1
        start = array("d", [0, 1, 3, 2, 9])
        end = array("d", [10, 4, 6, 3, 12])
        parent = array("i", [-1, 0, 0, 1, 0])
        got = tracing.self_times(start, end, parent)
        # Root: children cover [1, 6] and [9, 10], so 10 - 5 - 1.
        self.assertEqual(got, [4.0, 2.0, 3.0, 1.0, 3.0])

    def test_leaf_and_empty(self):
        self.assertEqual(tracing.self_times(array("d"), array("d"), array("i")), [])
        self.assertEqual(tracing.self_times(array("d", [2.0]), array("d", [2.5]), array("i", [-1])),
                         [0.5])


class TailTest(unittest.TestCase):
    def test_small_counts_fall_back_to_median(self):
        for n in (1, 2, 5, 11, 19):
            samples = [float(k) for k in range(n, 0, -1)]
            value, pct, beyond = run.tail(samples)
            self.assertEqual((value, pct, beyond), ((n + 1) / 2, 50.0, n // 2), n)

    def test_ten_samples_beyond(self):
        for n, pct in ((20, 50.0), (100, 90.0), (1000, 99.0)):
            samples = [float(k) for k in range(n)]
            value, got_pct, beyond = run.tail(samples)
            self.assertEqual(sum(s > value for s in samples), 10)
            self.assertEqual((got_pct, beyond), (pct, 10))


class ScaleTest(unittest.TestCase):
    def test_nominal_blocks_leave_times_alone(self):
        nominal = run.REF_NOMINAL_S
        self.assertEqual(run.scaled([2.0, 3.0], [[nominal]] * 3), [2.0, 3.0])

    def test_each_time_uses_the_blocks_around_it(self):
        nominal = run.REF_NOMINAL_S
        blocks = [[nominal], [nominal, 3 * nominal], [nominal]]
        # Time 0 sees blocks averaging 5/3 of nominal, time 1 the same.
        got = run.scaled([5.0, 10.0], blocks)
        self.assertAlmostEqual(got[0], 3.0)
        self.assertAlmostEqual(got[1], 6.0)

    def test_median_ignores_a_spike(self):
        nominal = run.REF_NOMINAL_S
        blocks = [[nominal, nominal], [nominal, 8 * nominal]]
        self.assertEqual(run.scaled([2.0], blocks, statistics.median), [2.0])

    def test_reference_blocks_run_at_least_the_minimum(self):
        blocks = run.reference_blocks(0.0)
        self.assertEqual(len(blocks), run.REF_MIN_BLOCKS)
        self.assertTrue(all(b > 0.0 for b in blocks))


class OracleTest(unittest.TestCase):
    def oml_expectations(self):
        with tempfile.TemporaryDirectory() as tmp:
            (op,) = prepare.oml_ops(7, Path(tmp))
        return {c["tag"]: c["expect"] for c in op["calls"]}

    def output(self, distributive: bool) -> str:
        return ("CHECK oml.order_antisymmetric 0.000e+00 0.0e+00 PASS\nRESULT PASS\n"
                f"INFO elements 64 modular True distributive {distributive}\n")

    def test_accepts_right_verdicts(self):
        expect = self.oml_expectations()
        self.assertIsNone(run.check_call(expect["boolean64"], 0, self.output(True)))
        self.assertIsNone(run.check_call(expect["mo64"], 0, self.output(False)))

    def test_rejects_wrong_info_verdict(self):
        expect = self.oml_expectations()
        self.assertIn("missing line", run.check_call(expect["mo64"], 0, self.output(True)))
        self.assertIn("missing line", run.check_call(expect["boolean64"], 0, self.output(False)))

    def test_rejects_failed_check_and_exit_code(self):
        expect = self.oml_expectations()["boolean64"]
        failing = self.output(True).replace("PASS\nRESULT PASS", "FAIL\nRESULT FAIL")
        self.assertIsNotNone(run.check_call(expect, 1, failing))
        self.assertIsNotNone(run.check_call(expect, 0, failing))

    def test_equiv_verdict_follows_block_ranks(self):
        with tempfile.TemporaryDirectory() as tmp:
            ops = prepare.witness_ops(3, Path(tmp))
        for op in ops[:4]:
            equivs = [c for c in op["calls"] if c["tag"] == "equiv"]
            equal = [re_ == rf for re_, rf in op["ranks"]]
            self.assertEqual(equal, [True, False])
            self.assertEqual([c["expect"]["exit"] for c in equivs], [0, 1])


class TracerTest(unittest.TestCase):
    def test_patches_every_namespace_and_restores(self):
        import synalg.cli
        import synalg.lattice
        import synalg.oml  # noqa: F401

        join = synalg.lattice.join
        with tracing.Tracer() as tr:
            self.assertIsNot(synalg.cli.join, join)
            self.assertIs(synalg.cli.join, synalg.lattice.join)
            lat = tr.call("boolean64", synalg.oml.boolean_oml, 2)
            self.assertTrue(tr.call("boolean64", synalg.oml.is_distributive, lat))
        self.assertIs(synalg.cli.join, join)
        self.assertIs(synalg.lattice.join, join)
        m = tracing.aggregate(tr)
        self.assertEqual(m["oml.calls"], 3)  # boolean_oml, is_distributive, bound tables
        self.assertGreater(m["oml.distributive_s.boolean64"], 0.0)
        self.assertGreater(m["oml.bound_tables_s.boolean64"], 0.0)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_lists_match(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(prepare.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, tracing.METRICS)


if __name__ == "__main__":
    unittest.main()
