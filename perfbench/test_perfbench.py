"""Self-tests for the benchmark's own metric code.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q`` (or
``python3 -m unittest`` from ``perfbench/``).
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import spec  # noqa: E402
from tracing import Tracer, merge  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.nearest_rank(values, 0.5), 50)
        self.assertEqual(metrics.nearest_rank(values, 0.99), 99)
        self.assertEqual(metrics.nearest_rank(values, 1.0), 100)
        self.assertEqual(metrics.nearest_rank([7], 0.99), 7)
        with self.assertRaises(ValueError):
            metrics.nearest_rank([], 0.5)

    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertEqual(metrics.beyond_count(1000, 0.99), 10)
        self.assertEqual(metrics.beyond_count(999, 0.99), 9)
        self.assertIsNone(metrics.supported_percentile(range(999), 0.99))
        self.assertEqual(metrics.supported_percentile(range(1000), 0.99), 989)

    def test_median_needs_twenty_samples(self):
        self.assertIsNone(metrics.supported_percentile(range(19), 0.5))
        self.assertEqual(metrics.supported_percentile(range(20), 0.5), 9)
        # Input order does not matter.
        self.assertEqual(metrics.supported_percentile(reversed(range(20)), 0.5), 9)


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # due, ready, sent, done: the second request waited for a busy
        # connection, the third was sent late by the generator itself.
        records = [
            (0.0, 0.0, 0.0, 1.0),
            (0.5, 1.0, 1.0, 2.0),
            (3.0, 2.0, 3.2, 3.5),
        ]
        latencies, lateness = metrics.open_loop_latencies(records)
        for got, want in zip(latencies, [1.0, 1.5, 0.5]):
            self.assertAlmostEqual(got, want)
        for got, want in zip(lateness, [0.0, 0.0, 0.2]):
            self.assertAlmostEqual(got, want)

    def test_backlog(self):
        self.assertFalse(metrics.backlog_grows([0.001] * 100, 0.002))
        growing = [0.001 * i for i in range(100)]
        self.assertTrue(metrics.backlog_grows(growing, 0.002))
        self.assertTrue(metrics.backlog_grows([], 0.002))


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_nested_children(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        tracer.enter("eval")          # t=0
        clock.now = 1.0
        tracer.enter("eval_one")      # t=1
        clock.now = 3.0
        tracer.exit()                 # eval_one: 2 s
        tracer.enter("eval_one")      # t=3
        clock.now = 4.0
        tracer.enter("bfs")           # t=4
        clock.now = 4.5
        tracer.exit()                 # bfs: 0.5 s
        clock.now = 5.0
        tracer.exit()                 # eval_one: 2 s, 1.5 s self
        clock.now = 6.0
        tracer.exit(items=7)          # eval: 6 s, 2 s self
        self.assertEqual(tracer.total, {"eval": 6.0, "eval_one": 4.0, "bfs": 0.5})
        self.assertEqual(tracer.self_time, {"eval": 2.0, "eval_one": 3.5, "bfs": 0.5})
        self.assertEqual(tracer.calls, {"eval": 1, "eval_one": 2, "bfs": 1})
        self.assertEqual(tracer.items, {"eval": 7})
        self.assertEqual(tracer.covered, 6.0)

    def test_recursion_is_not_counted_twice(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        tracer.enter("flow")
        clock.now = 1.0
        tracer.enter("flow")
        clock.now = 2.0
        tracer.exit()
        clock.now = 3.0
        tracer.exit()
        self.assertEqual(tracer.total["flow"], 3.0)
        self.assertEqual(tracer.self_time["flow"], 3.0)

    def test_wrap_and_restore(self):
        class Layer:
            def work(self, n):
                return list(range(n))

        original = Layer.__dict__["work"]
        tracer = Tracer()
        tracer.wrap(Layer, "work", "layer.work", items=len)
        self.assertEqual(Layer().work(3), [0, 1, 2])
        self.assertEqual(tracer.calls, {"layer.work": 1})
        self.assertEqual(tracer.items, {"layer.work": 3})
        tracer.restore()
        self.assertIs(Layer.__dict__["work"], original)

    def test_generator_spans_cover_each_next(self):
        clock = FakeClock()

        class Source:
            def run(self):
                for step in range(3):
                    clock.now += 1.0
                    yield step

        tracer = Tracer(clock=clock)
        tracer.wrap_generator(Source, "run", "dispatch")
        seen = []
        for item in Source().run():
            clock.now += 10.0  # the consumer's time is not the generator's
            seen.append(item)
        tracer.restore()
        self.assertEqual(seen, [0, 1, 2])
        self.assertEqual(tracer.total["dispatch"], 3.0)
        self.assertEqual(tracer.calls["dispatch"], 4)  # three items + the end

    def test_merge_sums_processes(self):
        merged = merge([
            {"total": {"a": 1.0}, "self": {"a": 1.0}, "calls": {"a": 2}, "items": {}},
            {"total": {"a": 0.5, "b": 2.0}, "self": {}, "calls": {"b": 1}, "items": {"b": 4}},
        ])
        self.assertEqual(merged["total"], {"a": 1.5, "b": 2.0})
        self.assertEqual(merged["calls"], {"a": 2, "b": 1})
        self.assertEqual(merged["items"], {"b": 4})


class ProcTest(unittest.TestCase):
    STAT = (
        "4242 (python3 (x) y) S 1 4242 4242 0 -1 4194304 1500 0 0 0 "
        "250 50 0 0 20 0 1 0 100 1000000 2000 18446744073709551615 "
        "1 1 0 0 0 0 0 16781312 2 0 0 0 17 1 0 0 0 0 0"
    )

    def test_cpu_seconds_from_stat(self):
        self.assertEqual(metrics.parse_proc_stat(self.STAT, 100), 3.0)

    def test_running_cpu_from_stat(self):
        self.assertIsNone(metrics.parse_running_cpu(self.STAT))
        running = self.STAT.replace(") S ", ") R ")
        self.assertEqual(metrics.parse_running_cpu(running), 1)

    def test_peak_rss_from_status(self):
        status = "Name:\tpython3\nVmPeak:\t  300000 kB\nVmHWM:\t   40960 kB\nVmRSS:\t 1 kB\n"
        self.assertEqual(metrics.parse_vm_hwm_mb(status), 40.0)

    def test_live_process(self):
        self.assertGreater(metrics.proc_cpu_s(os.getpid()), 0.0)
        self.assertGreater(metrics.proc_peak_rss_mb(os.getpid()), 1.0)


class DefinitionTest(unittest.TestCase):
    def test_benchmark_json_matches_the_definition(self):
        import json

        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "BENCHMARK.json")
        with open(path, encoding="utf-8") as handle:
            self.assertEqual(json.load(handle), spec.benchmark_json())

    def test_names_are_unique_and_valid(self):
        names = [w["name"] for w in spec.WORKLOADS]
        names += [m["name"] for m in spec.END_TO_END + spec.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for workload in spec.WORKLOADS:
            self.assertLessEqual(len(workload["why"]), 200)
        for metric in spec.END_TO_END + spec.PER_LAYER:
            self.assertRegex(metric["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
        self.assertTrue(all(m["bound"] <= 0.25 for m in spec.END_TO_END))
        self.assertIn("setup_s", [m["name"] for m in spec.END_TO_END])


if __name__ == "__main__":
    unittest.main()
