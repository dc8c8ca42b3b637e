"""Unit tests of the benchmark itself: oracle, percentiles, self-time arithmetic.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py      # the same tests under pytest
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys
import threading
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import metrics  # noqa: E402
import workloads  # noqa: E402
from oracle import answer_digest, check_schedule, load_expected  # noqa: E402
from tracer import (  # noqa: E402
    Tracer,
    covered_seconds,
    layer_totals,
    root_durations,
    self_times,
    union_length,
)
from workloads import Graph, legal_recolors  # noqa: E402

GRAPH = Graph(
    "g",
    (("a1", "a"), ("b1", "b"), ("a2", "a")),
    (("a1", "a2"),),
)


def valid_answer() -> dict:
    return {
        "dfg": {
            "name": "g",
            "nodes": [{"name": n, "color": c, "attrs": {}} for n, c in GRAPH.nodes],
            "edges": [list(e) for e in GRAPH.edges],
        },
        "schedule": {
            "library": {"patterns": [["a", "b"], ["a"]], "capacity": 2, "budget": 32},
            "cycles": [
                {"cycle": 1, "chosen": 0, "scheduled": ["a1", "b1"]},
                {"cycle": 2, "chosen": 1, "scheduled": ["a2"]},
            ],
            "assignment": {"a1": 1, "b1": 1, "a2": 2},
        },
    }


class OracleTest(unittest.TestCase):
    def problems(self, answer: dict, capacity: int = 2, pdef: int = 2) -> "list[str]":
        return check_schedule(GRAPH, answer, capacity=capacity, pdef=pdef)

    def test_valid_schedule_passes(self) -> None:
        self.assertEqual(self.problems(valid_answer()), [])

    def test_node_scheduled_twice(self) -> None:
        answer = valid_answer()
        answer["schedule"]["cycles"][1]["scheduled"] = ["a2", "b1"]
        self.assertTrue(any("scheduled in cycles" in p for p in self.problems(answer)))

    def test_missing_node(self) -> None:
        answer = valid_answer()
        answer["schedule"]["cycles"][1]["scheduled"] = []
        del answer["schedule"]["assignment"]["a2"]
        self.assertTrue(any("never scheduled" in p for p in self.problems(answer)))

    def test_edge_must_go_forward(self) -> None:
        answer = valid_answer()
        cycles = answer["schedule"]["cycles"]
        cycles[0]["scheduled"], cycles[1]["scheduled"] = ["a2", "b1"], ["a1"]
        answer["schedule"]["assignment"] = {"a2": 1, "b1": 1, "a1": 2}
        self.assertTrue(any("edge a1->a2" in p for p in self.problems(answer)))

    def test_cycle_colors_must_fit_the_pattern(self) -> None:
        answer = valid_answer()
        answer["schedule"]["cycles"][1]["chosen"] = 0
        answer["schedule"]["library"]["patterns"] = [["b", "b"], ["a"]]
        self.assertTrue(any("beyond pattern" in p for p in self.problems(answer)))

    def test_capacity_and_pdef(self) -> None:
        answer = valid_answer()
        answer["schedule"]["library"]["patterns"] = [["a", "b", "c"], ["a"], ["b"]]
        problems = self.problems(answer, capacity=2, pdef=2)
        self.assertTrue(any("capacity is 2" in p for p in problems))
        self.assertTrue(any("pdef is 2" in p for p in problems))

    def test_assignment_and_echo_must_agree(self) -> None:
        answer = valid_answer()
        answer["schedule"]["assignment"]["a2"] = 3
        answer["dfg"]["edges"] = []
        problems = self.problems(answer)
        self.assertTrue(any("assignment disagrees" in p for p in problems))
        self.assertTrue(any("not the submitted graph" in p for p in problems))

    def test_digest_is_key_order_independent(self) -> None:
        answer = valid_answer()
        shuffled = json.loads(json.dumps(answer, sort_keys=True))
        self.assertEqual(answer_digest(answer), answer_digest(shuffled))
        changed = copy.deepcopy(answer)
        changed["schedule"]["cycles"][0]["chosen"] = 1
        self.assertNotEqual(answer_digest(answer), answer_digest(changed))

    def test_program_answer_matches_oracle_and_pin(self) -> None:
        from repro.service import SchedulerService

        spec = workloads.registered("small-example")
        with SchedulerService() as service:
            answer = service.submit(spec.request()).answer_dict()
        self.assertEqual(check_schedule(spec.input_graph(), answer, capacity=5, pdef=4), [])
        self.assertEqual(answer_digest(answer), load_expected()["small-example"]["sha256"])


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation(self) -> None:
        self.assertEqual(metrics.percentile([4, 1, 3, 2], 0.5), 2.5)
        self.assertAlmostEqual(metrics.percentile(list(range(101)), 0.9), 90.0)
        self.assertEqual(metrics.percentile([7.0], 0.99), 7.0)

    def test_failed_jobs_miss_every_limit(self) -> None:
        samples = [0.001] * 8 + [math.inf] * 2
        self.assertAlmostEqual(metrics.latency_ms(samples, 0.5), 1.0)
        self.assertEqual(metrics.latency_ms(samples, 0.9), metrics.FAILED_LATENCY_MS)

    def test_p99_needs_ten_samples_beyond_it(self) -> None:
        self.assertFalse(metrics.p99_reported(999))
        self.assertTrue(metrics.p99_reported(1000))

    def test_spread_is_iqr_over_median(self) -> None:
        self.assertAlmostEqual(metrics.spread([1, 2, 3, 4, 5]), 1.0)
        self.assertEqual(metrics.spread([2.0] * 6), 0.0)


def span(sid, layer, t0, t1, parent=None, job=0, value=None) -> tuple:
    return (sid, layer, t0, t1, parent, job, value)


class SelfTimeTest(unittest.TestCase):
    def test_union_length(self) -> None:
        self.assertEqual(union_length([(5, 6), (0, 2), (1, 3)]), 4)
        self.assertEqual(union_length([]), 0)

    def test_self_time_counts_parallel_children_once(self) -> None:
        records = [
            span(0, "outer", 0, 10),
            span(1, "rpc", 1, 3, parent=0),
            span(2, "rpc", 2, 6, parent=0),
            span(3, "late", 8, 12, parent=0),
            span(4, "inner", 2, 3, parent=1),
        ]
        selfs = self_times(records)
        self.assertEqual(selfs[0], 10 - 5 - 2)
        self.assertEqual(selfs[1], 1)
        totals = layer_totals(records)
        self.assertEqual(totals["rpc"]["calls"], 2)
        self.assertEqual(totals["rpc"]["self_s"], 1 + 4)

    def test_coverage_uses_roots_inside_each_job_window(self) -> None:
        records = [
            span(0, "a", 1, 4, job=0),
            span(1, "b", 3, 5, job=0),
            span(2, "child", 3.5, 4.5, parent=1, job=0),
            span(3, "a", 20, 30, job=1),
        ]
        windows = {0: (0.0, 10.0), 1: (21.0, 25.0)}
        self.assertEqual(covered_seconds(records, windows), 4 + 4)
        self.assertEqual(root_durations(records, "a"), 13)
        self.assertEqual(root_durations(records), 15)

    def test_per_layer_normalises_per_job(self) -> None:
        totals = {
            "exec.classify": {"self_s": 0.5, "calls": 10, "value": 0},
            "service.serialize.result_encode": {"self_s": 0.1, "calls": 4, "value": 400},
        }
        counters = {name: 0.0 for name in metrics.PER_LAYER}
        for name in list(metrics.TIMED_LAYERS) + list(metrics.COUNTED_LAYERS):
            counters.pop(name)
        for name in ("core.catalog_attempts", "core.catalog_useful_ratio",
                     "service.serialize.result_bytes", "service.store.put_bytes"):
            counters.pop(name)
        out = metrics.per_layer(totals, jobs=5, counters=counters)
        self.assertEqual(list(out), list(metrics.PER_LAYER))
        self.assertAlmostEqual(out["exec.classify_ms"], 100.0)
        self.assertEqual(out["exec.classify_calls"], 2)
        self.assertEqual(out["service.serialize.result_bytes"], 100)
        with self.assertRaises(KeyError):
            metrics.per_layer(totals, jobs=5, counters={})


class TracerTest(unittest.TestCase):
    def test_nesting_errors_and_generators(self) -> None:
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: 1)
        outer = tracer.wrap("outer", lambda: inner() + 1)

        def boom():
            raise ValueError("x")

        failing = tracer.wrap("failing", boom)

        def numbers():
            yield inner()
            yield 2

        stream = tracer.wrap("stream", numbers)
        tracer.begin_job(7)
        self.assertEqual(outer(), 2)
        with self.assertRaises(ValueError):
            failing()
        self.assertEqual(list(stream()), [1, 2])
        tracer.end_job()
        by_layer = {}
        for rec in tracer.records:
            by_layer.setdefault(rec[1], []).append(rec)
        (outer_rec,) = by_layer["outer"]
        (stream_rec,) = by_layer["stream"]
        parents = sorted(rec[4] for rec in by_layer["inner"])
        self.assertEqual(parents, sorted([outer_rec[0], stream_rec[0]]))
        self.assertEqual(len(by_layer["failing"]), 1)
        self.assertTrue(all(rec[5] == 7 for rec in tracer.records))

    def test_helper_threads_adopt_the_open_span(self) -> None:
        tracer = Tracer()
        leaf = tracer.wrap("leaf", lambda: None)

        def fan_out():
            worker = threading.Thread(target=leaf)
            worker.start()
            worker.join(timeout=10)
            self.assertFalse(worker.is_alive())

        parent = tracer.wrap("parent", fan_out)
        tracer.begin_job(0)
        parent()
        tracer.end_job()
        recs = {rec[1]: rec for rec in tracer.records}
        self.assertEqual(recs["leaf"][4], recs["parent"][0])

    def test_install_rebinds_callers_and_uninstall_restores(self) -> None:
        import repro.dfg.io
        import repro.service.service as service_module
        from repro.service import SchedulerService

        original = repro.dfg.io.dfg_digest
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(service_module.dfg_digest, original)
            with SchedulerService() as service:
                tracer.begin_job(0)
                service.submit(workloads.registered("small-example").request())
                tracer.end_job()
        finally:
            tracer.uninstall()
        self.assertIs(service_module.dfg_digest, original)
        layers = {rec[1] for rec in tracer.records}
        for layer in ("service.submit", "dfg.digest", "exec.classify", "core.catalog",
                      "core.selection", "scheduling.schedule", "analysis.metrics"):
            self.assertIn(layer, layers)


class WorkloadTest(unittest.TestCase):
    def test_recolors_keep_first_seen_color_order(self) -> None:
        graph = Graph("g", (("x", "a"), ("y", "b"), ("z", "a"), ("w", "b")), ())
        edits = legal_recolors(graph)
        self.assertEqual(edits, [("z", "b"), ("w", "a")])
        for node, color in edits:
            edited = graph.recolor(node, color)
            order = list(dict.fromkeys(c for _, c in edited.nodes))
            self.assertEqual(order, ["a", "b"])

    def test_decks_fix_the_mix_and_the_seed_fixes_the_inputs(self) -> None:
        def shape(deck):
            return sorted(spec.key or "graph" for spec in deck)

        first, again, other = (next(workloads.cold_decks(s)) for s in (1, 1, 2))
        self.assertEqual(first, again)
        self.assertEqual(shape(first), shape(other))
        self.assertNotEqual([s.graph for s in first if s.graph], [s.graph for s in other if s.graph])
        served = next(workloads.served_decks(3))
        self.assertEqual(sorted(s.key for s in served), sorted(s.key for s in workloads.SERVED_DECK))

    def test_every_fleet_run_opens_with_the_reference_session(self) -> None:
        for seed in (1, 2):
            self.assertEqual(next(workloads.fleet_sessions(seed)), workloads.REFERENCE_SESSION)


class HostSpeedTest(unittest.TestCase):
    def setUp(self) -> None:
        import run

        self.run = run
        self.saved = run.probe_s
        # One probe (two loops) at the reference speed, then half speed.
        times = iter([run.REFERENCE_PROBE_S] * 2 + [run.REFERENCE_PROBE_S * 2] * 6)
        run.probe_s = lambda: next(times)

    def tearDown(self) -> None:
        self.run.probe_s = self.saved

    def test_jobs_and_setups_scale_by_the_mean_factor_around_them(self) -> None:
        phase = self.run.Phase()
        _, error, t0, t1 = self.run.timed_call(phase, None, lambda: None)
        self.assertIsNone(error)
        phase.record(t0, t0 + 0.010, None)
        self.assertAlmostEqual(phase.latencies[0], 0.010 * (1.0 + 0.5) / 2)
        self.assertAlmostEqual(phase.raw[0], 0.010)
        host = self.run.HostSpeed()
        self.assertEqual(host.around(lambda: ("server", 2.0)), ("server", 1.0))
        self.assertEqual(len(host.factors), 2)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self) -> None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, metrics.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, metrics.PER_LAYER)
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(workloads.PARAMETERS))

    def test_every_fixed_spec_is_pinned(self) -> None:
        from pin import pinned_specs

        pinned = load_expected()
        for spec in pinned_specs() + [workloads.INFEASIBLE]:
            self.assertIn(spec.key, pinned)


if __name__ == "__main__":
    unittest.main()
