"""The benchmark's own tests.

Usage (from the root of a checkout): python3 bench/selftest.py

They show that a wrong value is counted as failed, that the seed alone
fixes the inputs, that traced and untraced runs report exactly the metrics
named in BENCHMARK.json, and that the benchmark refuses to run outside a
checkout.  The traced runs take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from chiralis.exactnum import GaussRational  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    CONFIG = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def failures_for(kind, params, perturb):
    """Run one check, perturb its output, and verify it as a worker does."""
    ctx = checks.Context("current-sl2" if kind in ("npt", "aff") else "fields-axioms")
    prep, run_check, _ = checks.KINDS[kind]
    x = prep(params, ctx)
    ok_out = run_check(x, ctx)
    generated = [(kind, params)] * 2
    results = [(True, ok_out), (True, perturb(ok_out))]
    failures, _ = worker.verify_pass(generated, [x, x], results, ctx, checks.KINDS, "cold")
    return failures


class WrongValuesFail(unittest.TestCase):
    def test_off_by_one_virasoro_central_term(self):
        failures = failures_for("vir", {"l": 3, "m": -3}, lambda c: c + 1)
        self.assertEqual(failures, ["cold #1 vir: wrong output"])

    def test_off_by_one_affine_central_term(self):
        failures = failures_for("aff", {"a": "e", "l": 2, "b": "f", "m": -2}, lambda c: c + 1)
        self.assertEqual(failures, ["cold #1 aff: wrong output"])

    def test_perturbed_boson_npoint(self):
        pts = [(refs.F(k), refs.F(0)) for k in (0, 1, 3, 7)]
        tiny = GaussRational(0, refs.F(1, 10 ** 9))
        failures = failures_for("bnpt", {"points": pts}, lambda o: (o[0], o[1] + tiny))
        self.assertEqual(failures, ["cold #1 bnpt: wrong output"])

    def test_perturbed_fermion_npoint(self):
        pts = [(refs.F(k, 2), refs.F(1)) for k in (0, 1, 3, 7)]
        failures = failures_for("fnpt", {"points": pts}, lambda o: (o[0] * 2, o[1]))
        self.assertEqual(failures, ["cold #1 fnpt: wrong output"])

    def test_raising_check_is_a_failure_and_makes_the_run_incorrect(self):
        # virasoro_bracket_check raises AssertionError when the bracket is not central
        import chiralis.symmetry as symmetry

        def not_central(l, m, max_degree):
            raise AssertionError("bracket is not central")

        ctx = checks.Context("boson-modes")
        generated = [("vir", {"l": 3, "m": -3})] * 2
        run_fns = {kind: fns[1] for kind, fns in checks.KINDS.items()}
        original = symmetry.virasoro_bracket_check
        symmetry.virasoro_bracket_check = not_central
        try:
            _, _, results = worker.timed_pass(generated, [{"l": 3, "m": -3}] * 2, ctx, run_fns)
        finally:
            symmetry.virasoro_bracket_check = original
        failures, _ = worker.verify_pass(generated, [None] * 2, results, ctx, checks.KINDS, "cold")
        self.assertEqual(failures, ["cold #0 vir: raised AssertionError('bracket is not central')",
                                    "cold #1 vir: raised AssertionError('bracket is not central')"])
        result = run.outcome([{"attempted": 2}], failures, {})
        self.assertEqual(result["failed"], 2)
        self.assertFalse(result["correct"])
        self.assertTrue(run.outcome([{"attempted": 2}], [], {})["correct"])

    def test_sympy_mismatch_is_a_failure(self):
        child = {"sympy_values": {"cold": {"3": ["1/2", "0"]}, "warm": {"3": ["1/3", "0"]}}}
        self.assertEqual(run.sympy_mismatches([child], {"3": ["1/2", "0"]}),
                         ["process 0 warm #3: ['1/3', '0'] != sympy ['1/2', '0']"])


class Seeds(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in gen.WORKLOADS:
            self.assertEqual(gen.generate(workload, 7), gen.generate(workload, 7))

    def test_other_seed_other_inputs(self):
        for workload in gen.WORKLOADS:
            a, b = gen.generate(workload, 7), gen.generate(workload, 8)
            self.assertNotEqual(a, b)
            self.assertEqual([k for k, _ in a], [k for k, _ in b])

    def test_inputs_do_not_depend_on_hash_seed(self):
        code = "import gen; print(repr([gen.generate(w, 5) for w in gen.WORKLOADS]))"
        outs = {subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True,
                               env=dict(os.environ, PYTHONHASHSEED=str(h))).stdout for h in (1, 2)}
        self.assertEqual(len(outs), 1)

    def test_every_workload_has_at_least_100_checks(self):
        for workload in gen.WORKLOADS:
            self.assertGreaterEqual(len(gen.generate(workload, 1)), 100)


class ReferenceSeconds(unittest.TestCase):
    def test_a_check_is_scaled_by_the_probes_around_it(self):
        ref = worker.PROBE_REF_S
        self.assertEqual(worker.reference_seconds([0.5, 0.5], [ref, ref, 3 * ref]), [0.5, 0.25])


class Reports(unittest.TestCase):
    def test_traced_run_reports_every_per_layer_metric(self):
        names = [m["name"] for m in CONFIG["per_layer"]]
        for workload in gen.WORKLOADS:
            proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(list(result["metrics"]), names)
            self.assertEqual(result["failed"], 0)
            self.assertTrue(result["correct"])

    def test_untraced_run_reports_every_end_to_end_metric(self):
        proc = bench("--workload", "fields-axioms", "--seed", "3", "--seconds", "0", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(list(result["metrics"]), [m["name"] for m in CONFIG["end_to_end"]])
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_refuses_to_run_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "boson-modes",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
