"""Self-test of the benchmark; runs in seconds at the smoke sizes.

Usage: ``python3 perfbench/selftest.py`` from the root of a checkout.

Checks that the correctness gate behind ``fail_ratio`` catches a tampered
digest, a failing verify report line and a non-zero exit code, that both
run modes print exactly the metrics BENCHMARK.json declares, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

PASS = b'{"id": "x", "params": {}, "status": "pass"}\n'
FAIL = b'{"id": "y", "params": {}, "status": "fail"}\n'


def verify_result(lines, exit_code=0, sha256="d"):
    cmd = run.Command(("verify", "all"), "verify all")
    return run.Result(cmd, 1.0, 1.0, 1.0, exit_code, sha256, list(lines))


def table_result(exit_code=0, sha256="d"):
    cmd = run.Command(("table", "A", "--n", "4"), "table A --n 4", "miss")
    return run.Result(cmd, 1.0, 1.0, 1.0, exit_code, sha256)


def bench(*args, cwd=run.ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout.splitlines(), done.stderr


class GateTest(unittest.TestCase):
    REF = {"verify all": {"sha256": "d", "lines": 3}, "table A --n 4": {"sha256": "d"}}

    def test_clean_results_pass(self):
        self.assertEqual(run.judge(verify_result([PASS] * 3), self.REF), (3, 0))
        self.assertEqual(run.judge(table_result(), self.REF), (1, 0))

    def test_tampered_digest_fails(self):
        self.assertEqual(run.judge(verify_result([PASS] * 3, sha256="e"), self.REF), (3, 1))
        self.assertEqual(run.judge(table_result(sha256="e"), self.REF), (1, 1))

    def test_failing_report_line_fails(self):
        self.assertEqual(run.judge(verify_result([PASS, FAIL, PASS]), self.REF), (3, 1))
        self.assertEqual(run.judge(verify_result([PASS, b"not json\n", PASS]), self.REF), (3, 1))

    def test_missing_report_lines_fail(self):
        self.assertEqual(run.judge(verify_result([PASS]), self.REF), (3, 2))

    def test_nonzero_exit_fails(self):
        self.assertEqual(run.judge(verify_result([PASS] * 3, exit_code=1), self.REF), (3, 1))
        self.assertEqual(run.judge(table_result(exit_code=-9), self.REF), (1, 1))

    def test_unrecorded_command_fails(self):
        self.assertEqual(run.judge(table_result(), {}), (1, 1))


class RunTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads(run.SPEC.read_text(encoding="utf-8"))

    def check_metrics(self, trace, section):
        code, out, err = bench("--workload", "all", "--smoke", "--seconds", "0", "--trace", trace)
        self.assertEqual(code, 0, err)
        result = json.loads(out[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        names = {m["name"] for m in self.spec[section]}
        for workload in run.WORKLOADS:
            got = {k.split("/", 1)[1] for k in result["metrics"] if k.startswith(workload + "/")}
            self.assertEqual(got, names)
        return result["metrics"]

    def test_end_to_end_metrics(self):
        metrics = self.check_metrics("0", "end_to_end")
        self.assertTrue(all(v["value"] > 0 for v in metrics.values()))

    def test_per_layer_metrics(self):
        metrics = self.check_metrics("1", "per_layer")
        self.assertGreater(metrics["verify-all/tables.oracle_all.misses"]["value"], 0)
        self.assertGreater(metrics["series-o40/ring.mul.calls"]["value"], 0)
        self.assertGreater(metrics["tables-n14/cli.cache.hits"]["value"], 0)


class CheckoutTest(unittest.TestCase):
    def copy_bench(self, root: Path) -> None:
        shutil.copy(run.SPEC, root / "BENCHMARK.json")
        shutil.copytree(run.BENCH_DIR, root / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.copy_bench(Path(tmp))
            code, out, _ = bench("--workload", "series-o40", "--seed", "1", "--seconds", "1",
                                 "--trace", "0", cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertEqual(out, [])

    def test_tampered_reference_raises_fail_ratio(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            self.copy_bench(root)
            shutil.copytree(run.SRC, root / "src", ignore=shutil.ignore_patterns("__pycache__"))
            ref_path = root / "perfbench" / "reference.json"
            ref = json.loads(ref_path.read_text(encoding="utf-8"))
            ref["series tan_q --order 6 --format json"]["sha256"] = "0" * 64
            ref_path.write_text(json.dumps(ref), encoding="utf-8")
            code, out, _ = bench("--workload", "series-o40", "--smoke", "--seconds", "0", cwd=root)
        result = json.loads(out[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"] // 2)


if __name__ == "__main__":
    unittest.main()
