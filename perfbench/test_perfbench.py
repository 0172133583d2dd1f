"""Self-tests of the benchmark: checks catch wrong answers, failures are
counted apart from mismatches, inputs are reproducible, and the tracer sees
calls made through every namespace.

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import lzl.cli as cli  # noqa: E402

import driver  # noqa: E402
import inputs  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def run_jobs(*job_list, seed=jobs.DEFAULT_SEED, tracer=None):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = inputs.write_inputs(seed, tmp)
        adjacency = driver.read_inputs(manifest)
        outcomes = driver.run_segment(cli, jobs.Segment(tuple(job_list)), manifest,
                                      adjacency, tracer)
    return outcomes


class KnownAnswers(unittest.TestCase):
    def test_wrong_expected_answer_is_a_mismatch(self):
        right = jobs.Job("spider", ("zeta", "solve", "--graph", "spider:3,3,3"),
                         jobs.equals({"zeta1": 2}, "paper"))
        wrong = jobs.Job("spider-wrong", right.argv, jobs.equals({"zeta1": 3}, "paper"))
        self.assertEqual(run.tally(run_jobs(right)), (0, 0))
        self.assertEqual(run.tally(run_jobs(right, wrong)), (0, 1))

    def test_failing_job_is_failed_not_mismatched(self):
        bad = jobs.Job("missing", ("zeta", "solve", "--graph", "no-such-family:3"),
                       jobs.equals({"zeta1": 1}, "paper"))
        self.assertEqual(run.tally(run_jobs(bad)), (1, 0))

    def test_laws_judge_other_seeds(self):
        prox = jobs.Job("prox-rand10", ("prox", "solve", "--graph", "{rand10}"),
                        jobs.pinned_or_law("rand10", {"prox1": 99}, jobs.prox_law("rand10")))
        zeta_wrong = jobs.Job("zeta-rand10", ("zeta", "solve", "--graph", "{rand10}"),
                              jobs.pinned_or_law("rand10", {"zeta1": 3},
                                                 lambda results, ctx: False))
        default = run_jobs(prox, seed=jobs.DEFAULT_SEED)
        self.assertEqual((default[0]["ok"], default[0]["basis"]), (False, "pinned"))
        other = run_jobs(prox, zeta_wrong, seed=jobs.DEFAULT_SEED + 1)
        self.assertEqual([(o["ok"], o["basis"]) for o in other],
                         [(True, "law"), (False, "law")])

    def test_default_seed_answers_hold(self):
        # Every segment that runs without its own environment; the
        # 2-worker profile segment needs LZL_THREADS and a fresh process.
        for segments in jobs.WORKLOADS.values():
            for segment in segments:
                if segment.env:
                    continue
                small = [j for j in segment.jobs if "complete9" not in j.id]
                outcomes = run_jobs(*small)
                self.assertEqual(run.tally(outcomes), (0, 0), outcomes)
                self.assertNotIn("law", {o["basis"] for o in outcomes})


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            first = inputs.write_inputs(7, a)
            self.assertEqual({k: v["sha256"] for k, v in first.items()},
                             {k: v["sha256"] for k, v in inputs.write_inputs(7, b).items()})
            other = inputs.write_inputs(8, b)
            self.assertNotEqual(first["rand10"]["sha256"], other["rand10"]["sha256"])

    def test_default_seed_inputs_are_pinned(self):
        with tempfile.TemporaryDirectory() as tmp:
            manifest = inputs.write_inputs(jobs.DEFAULT_SEED, tmp)
        for name, sha in jobs.DEFAULT_SHA256.items():
            self.assertEqual(manifest[name]["sha256"], sha, name)

    def test_shapes(self):
        for seed in range(1, 6):
            graphs = inputs.make_inputs(seed)
            for name, (n, edges) in graphs.items():
                self.assertTrue(all(a < b for a, b in edges), name)
                self.assertTrue(all(inputs.degrees(n, edges)), name)
            self.assertEqual(len(graphs["rand20"][1]), 48)
            self.assertEqual(len(graphs["tree512"][1]), 511)


class Declaration(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
        layer_names = list(spans.layer_metrics([])) + ["trace.overhead_ratio"]
        self.assertEqual([m["name"] for m in declared["per_layer"]], layer_names)
        self.assertEqual([m["name"] for m in declared["end_to_end"]],
                         ["norm_wall_s", "setup_s", "peak_rss_mib"])
        for m in declared["per_layer"] + declared["end_to_end"]:
            self.assertEqual(run.unit_of(m["name"]), m["unit"], m["name"])
        self.assertEqual([w["name"] for w in declared["workloads"]], list(jobs.WORKLOADS))


class Tracing(unittest.TestCase):
    def test_spans_cover_imported_names(self):
        tracer = spans.Tracer()
        tracer.install()
        try:
            outcomes = run_jobs(
                jobs.Job("zeta", ("zeta", "solve", "--graph", "spider:3,3,3"),
                         jobs.equals({"zeta1": 2}, "paper")),
                jobs.Job("depth", ("strat", "tree-depth", "--graph", "kary:2,4"),
                         jobs.equals({"cleared": True}, "closed-form")),
                tracer=tracer,
            )
        finally:
            for name, module in list(sys.modules.items()):
                if name == "lzl" or name.startswith("lzl."):
                    for attr, value in list(vars(module).items()):
                        if getattr(value, "__wrapped__", None) is not None:
                            setattr(module, attr, value.__wrapped__)
        self.assertEqual(run.tally(outcomes), (0, 0))
        m = spans.layer_metrics(tracer.spans)
        # zeta_number tries k = 1 then k = 2; the call reaches zeta_winnable
        # through lzl.zeta's own namespace, run_schedule through lzl.cli's.
        self.assertEqual(m["zeta.winnable_calls"], 2)
        self.assertEqual(m["prox.rounds_verified"], 32)  # two per leaf path
        self.assertEqual(m["graphs.vertices_built"], 10 + 31)
        self.assertGreater(m["cli.self_s"], 0)
        self.assertLessEqual(m["zeta.winnable_s"], sum(
            s[spans.END] - s[spans.START] for s in tracer.spans if s[spans.NAME] == "cli.main"))


if __name__ == "__main__":
    unittest.main()
