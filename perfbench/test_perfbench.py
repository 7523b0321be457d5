"""Tests of the benchmark's own code.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import mix  # noqa: E402
from measure import (Tally, Trace, check_metric_name, median,  # noqa: E402
                     median_pass, percentile, result_payload, self_time,
                     union_length)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(percentile(samples, 50, min_beyond=0), 50)
        self.assertEqual(percentile(samples, 90, min_beyond=10), 90)
        self.assertEqual(percentile([3, 1, 2], 100, min_beyond=0), 3)
        self.assertEqual(median([5, 1, 4, 2]), 2)  # a sample, not an average
        self.assertEqual(median([7]), 7)

    def test_refuses_with_fewer_than_ten_beyond(self):
        samples = list(range(1000))
        self.assertEqual(percentile(samples, 99), 989)  # exactly 10 beyond
        with self.assertRaises(ValueError):
            percentile(samples[:999], 99)  # 9 beyond
        with self.assertRaises(ValueError):
            percentile(list(range(50)), 90)
        with self.assertRaises(ValueError):
            percentile([], 50, min_beyond=0)


    def test_median_pass(self):
        def sweep_pass(rest, *calls):
            return {"wall_s": rest + sum(calls),
                    "calls": [{"wall_s": c} for c in calls]}
        # Pass 2 had a slow spell in call 0 and pass 3 in call 1: each
        # call's median drops it, where the median pass (1.3) would not.
        passes = [sweep_pass(0.1, 1.0, 1.0), sweep_pass(0.2, 3.0, 1.0),
                  sweep_pass(0.1, 1.0, 2.0)]
        self.assertAlmostEqual(median_pass(passes, "wall_s"), 2.1)
        self.assertEqual(median_pass([{"wall_s": 3.0}, {"wall_s": 1.0},
                                      {"wall_s": 2.0}], "wall_s"), 2.0)

class SelfTimeTest(unittest.TestCase):
    def test_union(self):
        self.assertEqual(union_length([]), 0)
        self.assertEqual(union_length([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(union_length([(0, 10), (2, 3)]), 10)

    def test_nested_children(self):
        self.assertEqual(self_time((0, 10), [(1, 3), (4, 6)]), 6)

    def test_overlapping_children_count_once(self):
        self.assertEqual(self_time((0, 10), [(1, 5), (3, 7), (6, 8)]), 3)

    def test_children_clipped_to_parent(self):
        self.assertEqual(self_time((2, 10), [(0, 4), (9, 12)]), 5)

    def test_trace_self_and_uncovered(self):
        def span(i, parent, name, ts, dur):
            return {"ph": "X", "name": name, "ts": ts, "dur": dur,
                    "args": {"id": i, "parent": parent, "group": 0}}
        trace = Trace([span(0, -1, "bench.pass", 0, 100),
                       span(1, 0, "bench.layer", 0, 60),
                       span(2, 1, "sim.execute", 10, 30),
                       span(3, 1, "tensor.reference", 30, 20),
                       span(4, 0, "core.search", 70, 20)])
        self.assertAlmostEqual(trace.self_s(trace.by_id[1]), 20e-6)
        # 40 + 20 covered by library calls out of 100
        self.assertAlmostEqual(trace.uncovered_s(trace.by_id[0]), 40e-6)
        self.assertAlmostEqual(trace.module_self_s("sim"), 30e-6)


class MetricNameTest(unittest.TestCase):
    def test_valid(self):
        for name in ["wall_s", "vgg13.sim.execute.s", "core.search.vw-sdk.s",
                     "1x", "a" * 64]:
            self.assertEqual(check_metric_name(name), name)

    def test_invalid(self):
        for name in ["", "has space", "slash/x", ".leading", "-x", "a" * 65,
                     "unit%"]:
            with self.assertRaises(ValueError):
                check_metric_name(name)

    def test_benchmark_json_names(self):
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            check_metric_name(name)


class TallyTest(unittest.TestCase):
    def test_failed_frac(self):
        tally = Tally()
        tally.op(True)
        tally.op(False, "bad")
        tally.op(True)
        tally.op(True)
        self.assertEqual((tally.attempted, tally.failed), (4, 1))
        self.assertEqual(tally.failed_frac, 0.25)
        self.assertEqual(tally.reasons, ["bad"])

    def test_no_operations_is_total_failure(self):
        self.assertEqual(Tally().failed_frac, 1.0)

    def test_serve_replies(self):
        tally = Tally()
        ok = '{"v":1,"id":"1","op":"map","ok":true,"result":{"a":1}}'
        self.assertTrue(tally.reply(ok, '{"a":1}'))
        self.assertTrue(tally.reply(ok))
        self.assertFalse(tally.reply(ok, '{"a":2}'))
        overloaded = ('{"v":1,"id":"2","ok":false,"error":'
                      '{"code":"overloaded","message":"busy"}}')
        self.assertFalse(tally.reply(overloaded))
        self.assertEqual((tally.attempted, tally.failed), (4, 2))
        self.assertEqual(tally.reasons[1], "serve reply overloaded")

    def test_result_payload(self):
        line = '{"v":1,"id":"x","op":"stats","ok":true,"result":{"b":[1,2]}}'
        self.assertEqual(result_payload(line), '{"b":[1,2]}')
        self.assertIsNone(result_payload('{"v":1,"id":"x","ok":false}'))


class MixTest(unittest.TestCase):
    def test_same_seed_same_stream(self):
        self.assertEqual(mix.request_stream(7), mix.request_stream(7))
        self.assertNotEqual(mix.request_stream(7), mix.request_stream(8))
        self.assertEqual(mix.sweep_queries(3), mix.sweep_queries(3))

    def test_composition_is_fixed(self):
        for seed in [1, 2]:
            stream = mix.request_stream(seed)
            self.assertEqual(len(stream), mix.STREAM_LENGTH)
            ops = [r["op"] for r in stream]
            for op, count in mix.OP_COUNTS.items():
                self.assertEqual(ops.count(op), count)
            self.assertEqual(ops.count("stats"),
                             mix.STREAM_LENGTH // mix.STATS_EVERY)

    def test_stream_keys_are_warmed(self):
        warm = {(r["net"], r["mapper"], r["array"], r["objective"])
                for r in mix.warm_requests()}
        for request in mix.request_stream(4):
            if request["op"] == "map":
                self.assertIn((request["net"], request["mapper"],
                               request["array"], request["objective"]), warm)
            if request["op"] == "compare":
                for mapper in request["mappers"]:
                    self.assertIn((request["net"], mapper, request["array"],
                                   request["objective"]), warm)

    def test_encode(self):
        self.assertEqual(mix.encode({"op": "ping"}, "7"),
                         '{"v":1,"id":"7","op":"ping"}')


class CompareTest(unittest.TestCase):
    def test_claimed_gain(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
        change = [v * 0.8 for v in parent]
        verdict = compare.judge("lower", 0.1, parent, change, True)
        self.assertEqual(verdict, "improved")

    def test_claim_not_shown_when_wins_are_few(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
        change = parent[:5] + [v * 0.8 for v in parent[5:]]
        verdict = compare.judge("lower", 0.1, parent, change, True)
        self.assertEqual(verdict, "not shown")

    def test_regression_and_unresolved(self):
        parent = [10.0] * 5 + [10.1] * 5
        self.assertEqual(compare.judge("lower", 0.1, parent,
                                       [v * 1.2 for v in parent], False),
                         "regressed")
        self.assertEqual(compare.judge("lower", 0.1, parent,
                                       [v * 1.05 for v in parent], False),
                         "within bound")
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertEqual(compare.judge("lower", 0.1, noisy,
                                       noisy[::-1], False), "unresolved")


if __name__ == "__main__":
    unittest.main()
