"""Self-tests of the benchmark: negative controls for every gate, fixed work
across seeds, and complete span coverage of the traced layers.

Run from the root of a checkout (takes a few seconds):

    python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cartcodes as cc  # noqa: E402

import gates  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(run.EXPECTED) as _fh:
    EXPECTED = json.load(_fh)
SCRATCH = HERE / "out" / "selftest"


def cli_stdout(argv):
    return worker.Pass(None).cli(argv)


def small_sweep_case():
    q, sets, d = 3, ((0, 1, 2), (0, 2)), 2
    budget = cc.oracle.OracleBudget(max_words=workloads.SWEEP_WORD_CAP)
    return worker.sweep_case(q, sets, d, cc.field_for_order(q), budget)


class SweepGate(unittest.TestCase):
    def setUp(self):
        self.rec = json.loads(json.dumps(small_sweep_case()))
        self.expected = {"work": {"cases": 1, "words": 3 ** self.rec["dim"]}}

    def test_true_results_pass(self):
        v = gates.gate_sweep({"ops": [self.rec]}, self.expected)
        self.assertEqual((v.attempted, v.failed), (2, 0))

    def test_wrong_oracle_value_fails(self):
        for key in ("brute_delta", "brute_dim", "max_zeros", "extremal_weight"):
            rec = dict(self.rec, **{key: self.rec[key] + 1})
            v = gates.gate_sweep({"ops": [rec]}, self.expected)
            self.assertEqual(v.failed, 1, key)
            self.assertEqual(v.checks["fail"], 1, key)

    def test_changed_work_fails(self):
        v = gates.gate_sweep({"ops": [self.rec, self.rec]}, self.expected)
        self.assertEqual(v.failed, 1)


class VerifyGate(unittest.TestCase):
    q, sets = "4", "fullx3"

    @classmethod
    def setUpClass(cls):
        cls.key = workloads.grid_key(cls.q, cls.sets)
        cls.rc, cls.out = cli_stdout(["verify", "--q", cls.q, "--sets", cls.sets, "--dall"])
        cls.expected = {"grids": {cls.key: EXPECTED["verify"]["grids"][cls.key]}}
        cls.validate = staticmethod(run.schema_validator(ROOT))

    def gate(self, rc, report):
        op = {"grid": self.key, "rc": rc, "stdout": json.dumps(report)}
        return gates.gate_verify({"ops": [op]}, self.expected, self.validate)

    def report(self):
        return json.loads(self.out)

    def test_recorded_counts_pass(self):
        v = self.gate(self.rc, self.report())
        self.assertEqual((v.attempted, v.failed), (1, 0))
        self.assertEqual(v.checks["skipped"], self.expected["grids"][self.key]["skipped"])

    def test_fail_check_fails(self):
        report = self.report()
        check = next(c for c in report["checks"] if c["status"] == "pass")
        check["status"], report["ok"] = "fail", False
        self.assertEqual(self.gate(1, report).failed, 1)

    def test_extra_skip_fails(self):
        report = self.report()
        check = next(c for c in report["checks"] if c["status"] == "pass")
        check["status"], check["oracle"] = "skipped", None
        self.assertEqual(self.gate(0, report).failed, 1)

    def test_schema_violation_fails(self):
        report = self.report()
        report["checks"][0]["unexpected"] = 1
        self.assertEqual(self.gate(0, report).failed, 1)

    def test_missing_grid_fails(self):
        v = gates.gate_verify({"ops": []}, self.expected, self.validate)
        self.assertEqual(v.failed, 1)


class LargefieldGate(unittest.TestCase):
    argv = ["matrix", "--q", "9", "--sets", "fullx4", "--d", "8", "--out", "f9.mat"]

    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)
        cwd = os.getcwd()
        os.chdir(SCRATCH)
        try:
            rc, out = cli_stdout(self.argv)
        finally:
            os.chdir(cwd)
        self.op = {"kind": "cli", "argv": self.argv, "rc": rc, "stdout": out}
        key = " ".join(self.argv)
        self.expected = {"outputs": {key: EXPECTED["largefield"]["outputs"][key]}}

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def gate(self, *ops):
        return gates.gate_largefield({"ops": list(ops)}, self.expected, SCRATCH)

    def test_recorded_digests_pass(self):
        self.assertEqual(self.gate(self.op).failed, 0)

    def test_corrupted_matrix_fails(self):
        path = SCRATCH / "f9.mat"
        data = bytearray(path.read_bytes())
        data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
        path.write_bytes(bytes(data))
        self.assertEqual(self.gate(self.op).failed, 1)

    def test_changed_stdout_fails(self):
        self.assertEqual(self.gate(dict(self.op, stdout=self.op["stdout"] + " ")).failed, 1)

    def test_wrong_extremal_weight_and_rank_fail(self):
        ext = {"kind": "extremal", "d": 3, "delta": 10, "weight": 11, "degree": 3}
        rank = {"kind": "rank", "dim": 10, "rank": 9}
        v = self.gate(self.op, ext, rank)
        self.assertEqual((v.attempted, v.failed), (3, 2))


class FixedWork(unittest.TestCase):
    def test_sweep_work_is_seed_independent(self):
        a = workloads.sweep_cases(1, cc.dimension_formula)
        b = workloads.sweep_cases(2, cc.dimension_formula)
        self.assertNotEqual([c[1] for c in a], [c[1] for c in b])

        def work(cases):
            return len(cases), sum(q ** cc.dimension_formula(sorted(map(len, s)), d)
                                   for q, s, d in cases)

        self.assertEqual(work(a), work(b))
        self.assertEqual(dict(zip(("cases", "words"), work(a))), EXPECTED["sweep"]["work"])

    def test_largefield_work_is_seed_independent(self):
        for spec in (workloads.LARGEFIELD_EXTREMAL, workloads.LARGEFIELD_RANK):
            a, b = workloads.seeded_sets(1, spec, 0), workloads.seeded_sets(2, spec, 0)
            self.assertNotEqual(a, b)
            self.assertEqual([len(s) for s in a], [len(s) for s in b])


class TraceCoverage(unittest.TestCase):
    def test_every_binding_site_is_traced(self):
        tracer = spans.Tracer()
        saved = spans.install(tracer)
        try:
            originals = {id(orig) for _, _, orig in saved}
            for name, mod in list(sys.modules.items()):
                if name == "cartcodes" or name.startswith("cartcodes."):
                    left = [a for a, val in vars(mod).items() if id(val) in originals]
                    self.assertEqual(left, [], name)
            small_sweep_case()
        finally:
            spans.uninstall(saved)
        parents = {tracer.spans[s[3]][0] for s in tracer.spans
                   if s[0] == "poly.monomial_rows" and s[3] is not None}
        self.assertIn("code.generator_matrix", parents)
        self.assertIn("code.extremal_codeword", parents)
        self.assertTrue(any(p.startswith("oracle.") for p in parents), parents)
        metrics = spans.layer_metrics(tracer, 1.0)
        self.assertEqual(metrics["kernels.scan_calls"], 1)
        self.assertEqual(metrics["oracle.scan_cache_hits"], 0.5)
        self.assertIs(cc.oracle.monomial_rows, cc.poly.monomial_rows)
        self.assertNotIn("traced", cc.poly.monomial_rows.__name__)

    def test_verify_scan_reuse_is_counted(self):
        tracer = spans.Tracer()
        saved = spans.install(tracer)
        try:
            rc, _ = cli_stdout(["verify", "--q", "3", "--sets", "fullx2", "--dall"])
        finally:
            spans.uninstall(saved)
        self.assertEqual(rc, 0)
        metrics = spans.layer_metrics(tracer, 1.0)
        self.assertGreater(metrics["kernels.scan_calls"], 0)
        self.assertEqual(metrics["oracle.scan_cache_hits"], 0.5)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
