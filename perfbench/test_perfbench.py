"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sphereforge import cli, constructions, geometry, topology  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_innermost_span_owns_each_instant(self):
        spans = [
            ("a", 0.0, 10.0, 0),
            ("b", 1.0, 4.0, 1),
            ("a", 2.0, 3.0, 2),  # a inside b inside a
            ("c", 3.5, 6.0, 1),  # overlaps its sibling b
            ("a", 7.0, 9.0, 1),  # a directly inside a
            ("a", 7.5, 8.0, 2),
        ]
        got = tracing.layer_self_times(spans)
        # a: [0,1] [2,3] [6,10]; b: [1,2] [3,3.5]; c: [3.5,6]
        self.assertEqual(got, {"a": 6.0, "b": 1.5, "c": 2.5})
        self.assertEqual(sum(got.values()), 10.0)

    def test_nested_spans_of_one_layer_count_once(self):
        spans = [("a", 0.0, 4.0, 0), ("a", 1.0, 3.0, 1), ("a", 1.5, 2.0, 2)]
        self.assertEqual(tracing.layer_self_times(spans), {"a": 4.0})

    def test_overlapping_children_are_not_double_counted(self):
        spans = [("a", 0.0, 10.0, 0), ("b", 1.0, 5.0, 1), ("b", 3.0, 6.0, 1)]
        self.assertEqual(tracing.layer_self_times(spans), {"a": 5.0, "b": 5.0})

    def test_a_child_starting_with_its_parent_owns_the_tie(self):
        spans = [("a", 0.0, 2.0, 0), ("b", 0.0, 1.0, 1)]
        self.assertEqual(tracing.layer_self_times(spans), {"a": 1.0, "b": 1.0})


class WrapperTest(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=run.WORK)

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_call_counts_of_a_small_generate(self):
        tracer = tracing.Tracer()
        with tracer:
            code, out, _ = workloads.call_cli(
                cli, ["generate", "holes4", "--n", "9", "-o", os.path.join(self.dir, "h.json")]
            )
        self.assertEqual(code, 0)
        self.assertIn("certificate sphere(3)", out)
        # 4 band balls certified through BallInComplex.certify_ball, which
        # imports certify at call time, and the closed sphere through cli
        self.assertEqual(tracer.calls, {
            "cli.main.generate": 1,
            "constructions.build_holes4": 1,
            "grid.join_of_paths": 1,
            "grid.diagonal_band": 5,
            "complexes.SimplicialComplex.from_facets": 11,
            "complexes.PolyComplex.from_cells": 6,
            "complexes.boundary_complex": 5,
            "carvefill.BallInComplex.of": 4,
            "carvefill.CompatibleFamily.of": 4,
            "carvefill.carve_and_fill": 1,
            "carvefill.realize": 1,
            "topology.certify": 5,
            "io.save_complex": 2,
            "io.save_manifest": 1,
            "io.dumps": 4,
            "io.write_text": 4,
        })
        self.assertEqual(tracer.work, {
            "topology.certify.facets": 205,
            "carvefill.realize.facets": 142,
            "io.write_text.bytes": 34006,
        })
        self.assertEqual(len(tracer.spans), sum(tracer.calls.values()))

    def test_geometry_calls_through_its_module_globals_are_seen(self):
        tracer = tracing.Tracer()
        path = os.path.join(self.dir, "lift.json")
        with tracer:
            code, _, _ = workloads.call_cli(cli, ["lift", "aztec", "--k", "3", "--l", "1", "-o", path])
        self.assertEqual(code, 0)
        self.assertEqual(tracer.calls["geometry.eps_search"], 1)
        self.assertEqual(tracer.calls["constructions.build_aztec"], 1)
        # eps_search rejects eps = 1/2 and certifies eps = 1/4
        self.assertEqual(tracer.calls["geometry.verify_regular"], 2)

    def test_uninstall_restores_every_binding(self):
        before = (cli.main, cli.certify, constructions.certify, topology.certify,
                  geometry.verify_regular, dict(constructions.BUILDERS),
                  constructions.BallInComplex.__dict__["of"])
        with tracing.Tracer():
            self.assertIsNot(cli.certify, before[1])
            self.assertIs(cli.certify, constructions.certify)
            self.assertIsNot(constructions.BUILDERS["aztec"], before[5]["aztec"])
        after = (cli.main, cli.certify, constructions.certify, topology.certify,
                 geometry.verify_regular, dict(constructions.BUILDERS),
                 constructions.BallInComplex.__dict__["of"])
        self.assertEqual(before, after)


class FakeWorkload:
    name = "fake"
    jobs = ("good",)
    parts: dict[str, int] = {}

    def __init__(self, ops):
        self.ops = ops

    def pass_ops(self, rng):
        return list(self.ops)


class AnswerCheckTest(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=run.WORK)
        self.path = os.path.join(self.dir, "artifact.json")
        with open(self.path, "w") as fh:
            fh.write("{}\n")

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_tampered_artifact_and_wrong_verdict_fail(self):
        digest = workloads.sha256_file(self.path)
        cert = SimpleNamespace(kind="neither", dim=3)

        def boom():
            raise ValueError("boom")

        ok = workloads.Op("good", "good", lambda: (0, "done\n", ""),
                          workloads.check_cli(0, "done\n", {self.path: digest}))
        tampered = workloads.Op("good", "tampered", lambda: (0, "done\n", ""),
                                workloads.check_cli(0, "done\n", {self.path: "0" * 64}))
        wrong_code = workloads.Op(None, "code", lambda: (0, "", ""), workloads.check_cli(2, ""))
        verdict = workloads.Op(None, "verdict", lambda: cert, workloads.expect_kind("sphere(3)"))
        raised = workloads.Op(None, "raised", boom, workloads.expect_kind("sphere(3)"))
        r = run.Run(FakeWorkload([ok, tampered, wrong_code, verdict, raised]))
        r.run_pass(None, None)
        self.assertEqual((r.attempted, r.failed), (5, 4))
        self.assertEqual(workloads.expect_kind("neither(3)")(cert), None)


class ContractTest(unittest.TestCase):
    def setUp(self):
        with open(ROOT / "BENCHMARK.json") as fh:
            self.spec = json.load(fh)

    def _run_with_samples(self, workload) -> run.Run:
        r = run.Run(workload)
        r.job_samples = {job: [1.0, 2.0] for job in workload.jobs}
        r.job_refs = {job: [10.0, 20.0] for job in workload.jobs}
        r.pass_walls = {False: [3.0], True: [3.5]}
        r.traced_passes = 1
        return r

    def test_reported_metrics_are_the_declared_ones(self):
        e2e = [m["name"] for m in self.spec["end_to_end"]]
        per_layer = [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual(sorted(self.spec["paths"]), ["perfbench"])
        self.assertEqual({w["name"] for w in self.spec["workloads"]}, set(workloads.WORKLOADS))
        for cls in workloads.WORKLOADS.values():
            r = self._run_with_samples(cls())
            self.assertEqual(sorted(run.end_to_end_metrics(r, [0.5])), sorted(e2e))
            self.assertEqual(sorted(run.per_layer_metrics(r)), sorted(per_layer))
        self.assertLessEqual(len(per_layer), 128)
        units = {m["name"]: m["unit"] for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        r = self._run_with_samples(workloads.Generate())
        for name, (_, unit) in {**run.end_to_end_metrics(r, [0.5]), **run.per_layer_metrics(r)}.items():
            self.assertEqual(units[name], unit, name)

    def test_exits_nonzero_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, *self.spec["command"][1:], "--workload", "generate",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
