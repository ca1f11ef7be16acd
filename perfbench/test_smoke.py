"""Smoke test for the benchmark itself: every workload at tiny size, seed 7.

    python3 -m unittest perfbench/test_smoke.py

Checks that each metric BENCHMARK.json names is printed with its unit, that
failed_share is computed from the counts, that the counts are per case, that
a known-defect label excuses only a wrong answer, and that the benchmark
refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import Call, Tally, Unexpected, run_pass  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, cwd=ROOT, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def printed_metrics(stdout):
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split("#")[0].split()
            out[name] = (float(value), unit)
    return out


class SmokeTest(unittest.TestCase):
    def check_workload(self, workload):
        for trace, declared in ((0, DECLARED["end_to_end"]), (1, DECLARED["per_layer"])):
            with self.subTest(workload=workload, trace=trace):
                proc = run(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(set(result), RESULT_KEYS)
                self.assertGreaterEqual(result["attempted"], 1)
                printed = printed_metrics(proc.stdout)
                for metric in declared:
                    name = metric["name"]
                    self.assertIn(name, printed)
                    self.assertEqual(printed[name][1], metric["unit"], name)
                    self.assertEqual(result["metrics"][name], {"value": printed[name][0], "unit": metric["unit"]})
                self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
                if trace == 0:
                    share, unit = printed["failed_share"]
                    self.assertEqual(unit, "ratio")
                    self.assertAlmostEqual(share, result["failed"] / result["attempted"])

    def test_grid_sweeps(self):
        self.check_workload("grid-sweeps")

    def test_boundary_certs(self):
        self.check_workload("boundary-certs")

    def test_cli_cold(self):
        self.check_workload("cli-cold")

    def test_known_defect_excuses_only_wrong_answers(self):
        def boom():
            raise RuntimeError("boom")

        def unexpected(result):
            raise Unexpected("differs")

        tally = Tally()
        run_pass([
            Call("wrong", lambda: 1.0, lambda r: "1.0, reference 2.0", "A"),
            Call("raised", boom, lambda r: "ok", "A"),
            Call("unexpected", lambda: 1.0, unexpected, "A"),
            Call("untagged", lambda: 1.0, lambda r: "1.0, reference 2.0"),
        ], tally)
        self.assertEqual(len(tally.failures), 4)
        self.assertEqual([o.name for o in tally.unexpected], ["raised", "unexpected", "untagged"])

    def test_counts_are_per_case(self):
        tally = Tally()
        for _ in range(3):
            run_pass([
                Call("right", lambda: 1.0, lambda r: "ok"),
                Call("wrong", lambda: 1.0, lambda r: "1.0, reference 2.0", "A"),
            ], tally)
        self.assertEqual((tally.attempted, len(tally.failures), len(tally.outcomes)), (2, 1, 6))
        self.assertEqual(tally.unexpected, [])

    def test_refuses_without_sources(self):
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
            tmp = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("grid-sweeps", 0, cwd=tmp, root=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
