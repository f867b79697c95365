"""Tests of the benchmark itself; they need no ghg package.

    python3 -m unittest discover -s bench/tests
"""
import functools
import json
import sys
from collections import namedtuple
import time
import unittest
from pathlib import Path
from types import ModuleType, SimpleNamespace
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    MIN_BEYOND,
    WORKLOADS,
    WrongAnswer,
    check_cold_cli,
    check_verify,
    checked_only,
    make_queries,
    tail,
)


def answer(*ranks):
    """A stand-in for a SequenceResult with groups of the given ranks."""
    groups = [SimpleNamespace(rank=r) for r in ranks]
    if len(groups) == 1:
        return SimpleNamespace(is_resolved=True, resolved=groups[0], candidates=())
    return SimpleNamespace(is_resolved=False, resolved=None, candidates=tuple(groups))


def run_queries(queries, solve, rational_rank, deadline):
    """worker.run_queries on a clock of its own, with latencies converted."""
    clock = speed.Clock(period=worker.TICK_PERIOD_S)
    try:
        report = worker.run_queries(queries, solve, rational_rank, deadline, clock)
    finally:
        clock.close()
    return worker.latencies(report, clock)


def spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class QueryListTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for w in WORKLOADS:
            a = json.dumps(make_queries(w, 7)).encode()
            b = json.dumps(make_queries(w, 7)).encode()
            self.assertEqual(a, b, w)

    def test_seed_changes_order_not_content(self):
        for w in ("cold_cli", "sweep", "genus"):
            a, b = make_queries(w, 1), make_queries(w, 2)
            self.assertNotEqual(a, b, w)
            key = lambda q: json.dumps(q, sort_keys=True)  # noqa: E731
            self.assertEqual(sorted(map(key, a)), sorted(map(key, b)), w)

    def test_verify_times_the_default_seed_and_checks_drawn_seeds(self):
        self.assertEqual(set(make_queries("verify", 3)), {None})
        self.assertEqual(checked_only("verify", 3), checked_only("verify", 3))
        self.assertNotEqual(checked_only("verify", 3), checked_only("verify", 4))
        self.assertEqual(checked_only("sweep", 3), [])


class TailTest(unittest.TestCase):
    def test_leaves_min_beyond_samples_above(self):
        for n in (MIN_BEYOND + 1, 49, 56, 470):
            samples = list(range(n))
            value, pct = tail(samples)
            self.assertEqual(sum(1 for s in samples if s > value), MIN_BEYOND)
            self.assertAlmostEqual(pct, 100.0 * (n - MIN_BEYOND) / n)

    def test_refuses_too_few_samples(self):
        with self.assertRaises(ValueError):
            tail(list(range(MIN_BEYOND)))

    def test_order_of_samples_does_not_matter(self):
        samples = [5.0, 1.0, 9.0] * 10
        self.assertEqual(tail(samples), tail(sorted(samples)))


class AnswerCheckTest(unittest.TestCase):
    def test_planted_wrong_rank_aborts(self):
        queries = [{"q": 0}, {"q": 1}, {"q": 2}]
        wrong = {0: answer(2), 1: answer(2, 3), 2: answer(2)}
        with self.assertRaises(WrongAnswer):
            run_queries(queries, lambda q: wrong[q["q"]], lambda q: 2, None)

    def test_right_ranks_pass(self):
        report = run_queries([{"q": 0}, {"q": 1}], lambda q: answer(1, 1), lambda q: 1, None)
        self.assertEqual(report["failed"], 0)
        self.assertEqual(report["status"], ["ok", "ok"])

    def test_cold_cli_output(self):
        check_cold_cli({"class": [6]}, 0, "Z/6\n")
        check_cold_cli({"class": [1]}, 0, "0\n")
        check_cold_cli({"class": [0]}, 0, "Z/12\n")
        with self.assertRaises(WrongAnswer):
            check_cold_cli({"class": [6]}, 0, "Z/3\n")
        with self.assertRaises(WrongAnswer):
            check_cold_cli({"class": [6]}, 2, "Z/6\n")

    def test_verify_output(self):
        good = "".join(f"PASS c{i}: ok\n" for i in range(14)) + "14/14 checks passed\n"
        self.assertEqual(check_verify(None, 0, good), 14)
        bad = good.replace("PASS c3", "FAIL c3").replace("14/14", "13/14")
        with self.assertRaises(WrongAnswer):
            check_verify(None, 3, bad)
        with self.assertRaises(WrongAnswer):
            check_verify(None, 0, "PASS c0: ok\n1/1 checks passed\n")


class DeadlineTest(unittest.TestCase):
    def test_planted_slow_query_fails_at_the_deadline(self):
        deadline = 0.05

        def solve(q):
            if q["slow"]:
                spin(10 * deadline)
            return answer(0)

        queries = [{"slow": False}, {"slow": True}, {"slow": False}, {"slow": False}]
        report = run_queries(queries, solve, lambda q: 0, deadline)
        self.assertEqual(report["status"], ["ok", "timeout", "ok", "ok"])
        self.assertEqual(report["failed"], 1)
        self.assertEqual(report["latencies"][1], deadline)
        self.assertLess(max(report["latencies"][i] for i in (0, 2, 3)), deadline)
        self.assertEqual(report["failed"] / len(queries), 0.25)

    def test_deadline_is_in_reference_seconds(self):
        deadline = 0.1

        def solve(q):
            spin(q["raw_s"])
            return answer(0)

        # at half the reference speed, 0.15 raw seconds are 0.075 reference
        # seconds (answered) and 0.6 raw seconds are 0.3 (past the deadline)
        with mock.patch.object(speed, "loop_time", lambda: 2 * speed.REFERENCE_S):
            report = run_queries([{"raw_s": 0.15}, {"raw_s": 0.6}], solve, lambda q: 0, deadline)
        self.assertEqual(report["status"], ["ok", "timeout"])
        self.assertAlmostEqual(report["latencies"][0], 0.075, delta=0.01)
        self.assertEqual(report["latencies"][1], deadline)


Group = namedtuple("Group", "torsion_order")


def fake_package():
    """ghg-like modules: fgab defines hom_decompose and a cached
    subgroup_quotient_pairs, exactseq and verify import copies."""
    fgab = ModuleType("ghg.fgab")
    exactseq = ModuleType("ghg.exactseq")
    verify = ModuleType("ghg.verify")

    def hom_decompose(x):
        return x + 1

    @functools.lru_cache(maxsize=None)
    def subgroup_quotient_pairs(group):
        return exactseq.hom_decompose(group.torsion_order)

    def resolve_extension(x):
        return answer(0)

    def check_one(catalog, rng):
        return verify.hom_decompose(1)

    fgab.hom_decompose = hom_decompose
    exactseq.hom_decompose = hom_decompose
    exactseq.subgroup_quotient_pairs = subgroup_quotient_pairs
    exactseq.resolve_extension = resolve_extension
    verify.hom_decompose = hom_decompose
    verify.CHECKS = [("one", check_one)]
    return {"ghg.fgab": fgab, "ghg.exactseq": exactseq, "ghg.verify": verify}


class TracerTest(unittest.TestCase):
    def test_wraps_every_namespace_and_reports_absent_names(self):
        modules = fake_package()
        with mock.patch.dict(sys.modules, modules):
            tracer = Tracer()
            tracer.install()
            fgab, exactseq, verify = (modules[k] for k in ("ghg.fgab", "ghg.exactseq", "ghg.verify"))
            self.assertIs(fgab.hom_decompose, exactseq.hom_decompose)
            self.assertIs(fgab.hom_decompose, verify.hom_decompose)
            self.assertTrue(hasattr(exactseq.subgroup_quotient_pairs, "cache_info"))
            exactseq.subgroup_quotient_pairs(Group(4))
            exactseq.subgroup_quotient_pairs(Group(4))
            verify.CHECKS[0][1](None, None)
            summary = tracer.summary()
        spans = summary["spans"]
        self.assertEqual(spans["fgab.hom_decompose"]["calls"], 2)
        self.assertEqual(spans["exactseq.subgroup_quotient_pairs"]["calls"], 2)
        self.assertEqual(spans["exactseq.subgroup_quotient_pairs"]["hits"], 1)
        self.assertEqual(spans["exactseq.subgroup_quotient_pairs"]["misses"], 1)
        self.assertEqual(spans["exactseq.subgroup_quotient_pairs"]["max_order"], 4)
        self.assertEqual(spans["verify.one"]["calls"], 1)
        self.assertIn("fgab.snf", summary["absent"])
        self.assertIn("cli.run", summary["absent"])
        self.assertNotIn("fgab.hom_decompose", summary["absent"])

    def test_self_time_excludes_children(self):
        tracer = Tracer()

        def inner():
            time.sleep(0.02)

        inner_t = tracer.wrap("fgab.inner", inner)

        def outer():
            time.sleep(0.01)
            inner_t()

        tracer.wrap("gaugecalc.outer", outer)()
        spans = tracer.summary()["spans"]
        outer_s = spans["gaugecalc.outer"]
        self.assertAlmostEqual(
            outer_s["self_s"], outer_s["s"] - spans["fgab.inner"]["s"], places=9)
        self.assertLess(outer_s["self_s"], spans["fgab.inner"]["s"])


    def test_span_times_are_reference_seconds(self):
        tracer = Tracer()
        tracer.spans = [["fgab.snf", 1.0, 3.0, None, None, None],
                        ["fgab.canonicalize", 1.5, 2.0, 0, None, None]]
        clock = speed.Clock()
        # half the reference speed throughout
        clock.events = [(0.0, 0.0, 2 * speed.REFERENCE_S), (4.0, 4.0, 2 * speed.REFERENCE_S)]
        spans = tracer.summary(clock)["spans"]
        self.assertAlmostEqual(spans["fgab.snf"]["s"], 1.0)
        self.assertAlmostEqual(spans["fgab.snf"]["self_s"], 0.75)
        self.assertAlmostEqual(spans["fgab.canonicalize"]["s"], 0.25)


class ClockTest(unittest.TestCase):
    def test_scales_each_piece_and_leaves_out_loop_runs(self):
        ref = speed.REFERENCE_S
        clock = speed.Clock()
        clock.events = [(0.0, 0.001, ref), (1.0, 1.001, 2 * ref), (3.0, 3.001, 2 * ref)]
        # 0.5..1.0 between loops of ref and 2 ref, 1.001..2.0 at half speed
        self.assertAlmostEqual(clock.scaled(0.5, 2.0), 0.5 * 2 / 3 + 0.999 * 0.5)
        self.assertAlmostEqual(clock.scaled(0.1, 0.4), 0.3 * 2 / 3)

    def test_periodic_ticks_track_a_long_interval(self):
        clock = speed.Clock(period=0.01)
        start = time.perf_counter()
        end = start + 0.2
        while time.perf_counter() < end:
            pass
        end = time.perf_counter()
        clock.close()
        self.assertGreater(len(clock.events), 5)
        inside = sum(e - s for s, e, _ in clock.events if start < s < end)
        loops = [loop for s, _, loop in clock.events]
        lo = (end - start - inside) * speed.REFERENCE_S / max(loops)
        hi = (end - start - inside) * speed.REFERENCE_S / min(loops)
        self.assertTrue(lo <= clock.scaled(start, end) <= hi)


class LayerMetricsTest(unittest.TestCase):
    def test_sums_processes_and_derives_ratios(self):
        def trace(calls, tested, cands, hits, misses):
            return {"import_s": 0.5, "trace": {"absent": [], "spans": {
                "exactseq.resolve_extension": {
                    "calls": calls, "s": 1.0, "self_s": 0.25, "enumerated": 1,
                    "types_tested": tested, "candidates": cands},
                "exactseq.subgroup_quotient_pairs": {
                    "calls": tested, "s": 0.5, "self_s": 0.5, "max_order": tested,
                    "hits": hits, "misses": misses},
            }}}

        out = run.layer_metrics([trace(2, 4, 1, 1, 3), trace(1, 6, 2, 3, 3)])
        self.assertEqual(out["cli.import_s"], 1.0)
        self.assertEqual(out["exactseq.resolve_extension.calls"], 3)
        self.assertEqual(out["exactseq.resolve_extension.yield"], 3 / 10)
        self.assertEqual(out["exactseq.subgroup_quotient_pairs.max_order"], 6)
        self.assertEqual(out["exactseq.subgroup_quotient_pairs.hit_ratio"], 4 / 10)
        self.assertEqual(out["layer.exactseq.self_s"], 1.5)


class FinalLineTest(unittest.TestCase):
    def test_unmeasured_metrics_are_listed(self):
        spec = {"per_layer": [{"name": "fgab.snf.calls", "unit": "count"},
                              {"name": "verify.one.s", "unit": "s"}]}
        r = {"workload": "genus", "attempted": 3, "failed": 0,
             "per_layer": {"fgab.snf.calls": 5}}
        self.assertEqual(run.not_measured(r, spec, True), ["verify.one.s"])
        line = run.final_line([r], spec, True)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), {"fgab.snf.calls", "verify.one.s"})
        self.assertEqual(line["metrics"]["fgab.snf.calls"]["value"], 5)


if __name__ == "__main__":
    unittest.main()
