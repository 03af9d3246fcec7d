"""Self-tests of the benchmark's own logic.

    python3 perfbench/test_perfbench.py
"""

import hashlib
import json
import threading
import unittest
from concurrent.futures import ThreadPoolExecutor

import layers
import run
from spans import Span, Tracer, covered, instrument, self_times

E = run.import_ergolab()


def span(sid, parent, start, end, name="x"):
    return Span(sid, parent, name, start, end, 0, 1)


class SelfTime(unittest.TestCase):
    def test_union_of_overlapping_and_clipped_intervals(self):
        self.assertEqual(covered([], 0.0, 10.0), 0.0)
        self.assertEqual(covered([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)], 0.0, 10.0), 6.0)
        self.assertEqual(covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0), 2.0)
        self.assertEqual(covered([(2.0, 3.0), (2.0, 3.0)], 0.0, 10.0), 1.0)

    def test_self_time_subtracts_children_once(self):
        spans = [span(1, 0, 0.0, 10.0),
                 span(2, 1, 1.0, 4.0),   # child on the submitting thread
                 span(3, 1, 3.0, 6.0),   # child on a worker, overlapping span 2
                 span(4, 2, 2.0, 3.0)]   # grandchild: counts against span 2 only
        own = self_times(spans)
        self.assertAlmostEqual(own[1], 5.0)
        self.assertAlmostEqual(own[2], 2.0)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[4], 1.0)

    def test_worker_spans_take_the_submitting_span_as_parent(self):
        tracer = Tracer()
        tracer.activate()
        leaf = tracer.wrap("leaf", lambda: threading.get_ident())

        def submit():
            with ThreadPoolExecutor(max_workers=2) as pool:
                return list(pool.map(lambda _: leaf(), range(4)))

        outer = tracer.wrap("outer", submit)
        outer()
        leaf()
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s.name, []).append(s)
        (top,) = by_name["outer"]
        self.assertEqual(top.parent, 0)
        parents = [s.parent for s in by_name["leaf"]]
        self.assertEqual(parents.count(top.sid), 4)
        self.assertEqual(parents.count(0), 1)


class Tail(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = [float(v) for v in range(40, 0, -1)]
        self.assertEqual(run.tail(values), (30.0, 75.0))
        value, pct = run.tail([float(v) for v in range(1, 101)])
        self.assertEqual((value, pct), (90.0, 90.0))
        self.assertEqual(sum(v > value for v in range(1, 101)), 10)

    def test_too_few_samples_give_the_maximum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))
        self.assertEqual(run.tail([float(v) for v in range(11)]), (0.0, 100.0 / 11))


class ReportHash(unittest.TestCase):
    def test_hash_excludes_timings(self):
        a = E.runner.Report(data={"verdict": "inconclusive", "x": [1, 2]},
                            timings={"cover": 1.25})
        b = E.runner.Report(data=dict(a.data), timings={"cover": 9.5, "flow": 0.1})
        self.assertEqual(run.report_hash(a), run.report_hash(b))
        want = hashlib.sha256(E.report_json(a, include_timings=False).encode()).hexdigest()
        self.assertEqual(run.report_hash(a), want)
        c = E.runner.Report(data={"verdict": "bound-holds", "x": [1, 2]}, timings={})
        self.assertNotEqual(run.report_hash(a), run.report_hash(c))

    def test_checker_counts_every_mismatch(self):
        chk = run.Checker(reference=None, verdict="v")
        self.assertTrue(chk.check("h1", "v"))
        self.assertFalse(chk.check("h2", "v"))
        self.assertFalse(chk.check("h1", "w"))
        self.assertFalse(chk.count("ValueError: boom"))
        self.assertEqual((chk.attempted, chk.failed), (4, 3))
        ref = run.Checker(reference="r", verdict=None)
        self.assertFalse(ref.check("h1", None))
        self.assertTrue(ref.check("r", None))


class Instrument(unittest.TestCase):
    def test_traced_report_matches_untraced_and_patches_are_undone(self):
        cfg = E.ExperimentConfig(alphas=(0.6,), n_min=8, n_max=20, n_stride=4,
                                 sample_count=4000, space_samples=4000,
                                 cover_n_min=6, cover_n_max=9, lemma_pairs=200,
                                 flow_enabled=True, flow_samples=4)
        plain = E.run_pipeline(cfg, threads=2)
        before = (E.runner.get_system, E.flows.flow_step, E.systems.raw_blocks)
        tracer = Tracer()
        with instrument(tracer):
            traced = E.run_pipeline(cfg, threads=2)
        self.assertEqual((E.runner.get_system, E.flows.flow_step, E.systems.raw_blocks),
                         before)
        self.assertEqual(run.report_hash(traced), run.report_hash(plain))
        m = layers.layer_metrics(tracer.spans, traced, 1.0, 0.0, 1)
        self.assertEqual(m["dimension.cover.examined_cells"],
                         traced.data["cover"]["examined_cells"])
        self.assertGreater(m["systems.ensemble.sample_steps"], 0)
        self.assertGreater(m["dimension.cover.point_evals"], 0)
        self.assertGreater(m["flows.time_average.calls"], 0)
        names = {n for n, _, _ in layers.PER_LAYER}
        self.assertEqual(set(m) | {"dimension.cover.thread_scaling", "trace.overhead_frac"},
                         names)


class BenchmarkJson(unittest.TestCase):
    def test_metric_and_workload_names_agree(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(layers.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
