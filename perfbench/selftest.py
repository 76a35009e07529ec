"""Tests of the benchmark itself, not of the library.

    python3 perfbench/selftest.py

They pin each workload's op count, show that a wrong answer or an exception
is counted as a failed op without stopping the pass, that seeded inputs
repeat, and that BENCHMARK.json names the metrics the runner reports.
"""

from __future__ import annotations

import ast
import json
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cold_pass import load_library, run_pass  # noqa: E402
from tracing import Tracer, instrumented  # noqa: E402

EXPECTED_OPS = {"intertwiner": 121, "exhaustive": 180, "sampled-queries": 480}


class InputTests(unittest.TestCase):
    def test_op_count_of_each_workload(self):
        for name, make in workloads.WORKLOADS.items():
            for seed in (0, 1, 12345):
                self.assertEqual(len(make(seed)), EXPECTED_OPS[name], name)

    def test_pinned_workloads_do_not_depend_on_the_seed(self):
        for name in ("intertwiner", "exhaustive"):
            make = workloads.WORKLOADS[name]
            self.assertEqual(make(0), make(7), name)

    def test_same_seed_regenerates_identical_queries(self):
        self.assertEqual(workloads.sampled_inputs(7), workloads.sampled_inputs(7))
        self.assertNotEqual(workloads.sampled_inputs(7), workloads.sampled_inputs(8))

    def test_sampled_queries_cover_every_closed_form_branch(self):
        specs = workloads.sampled_inputs(3)
        for n in workloads.SAMPLED_NS:
            kinds = [s[0] for s in specs if s[1] == n]
            for kind in ("orbit", "spherical", "conjugation"):
                self.assertEqual(kinds.count(kind), workloads.QUERIES_PER_KIND)
        spherical = [s for s in specs if s[0] == "spherical"]
        families = {tuple(k[:3] for k, _ in s[2]) for s in spherical}
        self.assertEqual(families, set(workloads.SPHERICAL_FAMILIES))
        for parity in (0, 1):
            full = {n: (1 << n) - 1 for n in workloads.SAMPLED_NS}
            t2_t3 = [
                (s[3][1][1], s[3][2][1], full[s[1]])
                for s in spherical
                if s[1] % 2 == parity
            ]
            self.assertTrue(any(a == b for a, b, _ in t2_t3))
            self.assertTrue(any(a == f ^ b for a, b, f in t2_t3))

    def test_no_assert_statements(self):
        for path in HERE.glob("*.py"):
            if path.name == Path(__file__).name:
                continue
            tree = ast.parse(path.read_text())
            self.assertFalse(
                any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name
            )


class BenchmarkJsonTests(unittest.TestCase):
    def test_metric_lists_match_the_runner(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, metrics.END_TO_END
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, metrics.PER_LAYER
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_runner_refuses_a_tree_without_the_library(self):
        with self.assertRaises(run.BenchError):
            run.run("sampled-queries", 0, 1, 0, HERE)


class FailureCountingTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lib = load_library(ROOT)

    def stub(self, module, **overrides):
        """The library with some functions of one module replaced."""
        mod = getattr(self.lib, module)
        fake = SimpleNamespace(**{**vars(mod), **overrides})
        return SimpleNamespace(**{**vars(self.lib), module: fake})

    def specs(self, kind, n=3, count=6):
        rng_specs = [s for s in workloads.sampled_inputs(5) if s[0] == kind]
        # re-degree the first queries to a small n
        out = []
        for s in rng_specs[:count]:
            if kind == "orbit":
                _, _, sa, a, sb, b = s
                out.append(("orbit", n, sa, a % (1 << n), sb, b % (1 << n)))
            else:
                _, _, labs, point = s
                labs = tuple((k, m % (1 << n)) for k, m in labs)
                labs = tuple(("rho+", 0) if k == "rho" else (k, m) for k, m in labs)
                point = tuple((sg, m % (1 << n)) for sg, m in point)
                out.append(("spherical", n, labs, point))
        return out

    def test_correct_answers_pass(self):
        res = run_pass(self.specs("orbit") + self.specs("spherical"), self.lib)
        self.assertEqual((res["attempted"], res["failed"]), (12, 0))

    def test_injected_wrong_answer_is_counted(self):
        real = self.lib.orbits.predicted_orbit

        def wrong(pair, n):
            x, y = pair
            flipped = (self.lib.elements.CliffordElement(n, -x.sign, x.mask), y)
            return real(flipped, n) if x.mask == 0 else real(pair, n)

        specs = self.specs("orbit", count=8)
        expected = sum(1 for s in specs if s[3] == 0)
        self.assertGreater(expected, 0)
        res = run_pass(specs, self.stub("orbits", predicted_orbit=wrong))
        self.assertEqual((res["attempted"], res["failed"]), (len(specs), expected))
        self.assertEqual(len(res["latencies_ms"]), len(specs))

    def test_exception_is_counted_and_the_pass_goes_on(self):
        def broken(q):
            raise ZeroDivisionError("injected")

        specs = self.specs("spherical", count=4)
        res = run_pass(specs, self.stub("orbits", spherical_value=broken))
        self.assertEqual((res["attempted"], res["failed"]), (4, 4))
        self.assertIn("ZeroDivisionError", res["failures"][0])

    def test_traced_pass_attributes_the_nullspace_solve(self):
        specs = workloads.intertwiner_inputs(0)[:3]  # (1,1) triples
        tr = Tracer()
        with instrumented(tr, self.lib):
            res = run_pass(specs, self.lib, tr)
        self.assertEqual(res["failed"], 0)
        self.assertIs(self.lib.matrix_models.sparse_nullspace, self.lib.linalg.sparse_nullspace)
        # hom_triple_eta, hom_res_theta_prime and invariant_tensors each solve once
        self.assertEqual(tr.stats["linalg.sparse_nullspace.calls"], 9)
        self.assertGreater(tr.stats["matrix_models.constraint_rows"], 0)
        self.assertLess(
            tr.stats["matrix_models.constraint_rows"], tr.stats["linalg.sparse_nullspace.rows"]
        )
        self.assertLessEqual(tr.covered_s, res["wall_s"])


if __name__ == "__main__":
    unittest.main()
