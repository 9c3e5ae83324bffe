"""The benchmark's own tests. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Every workload runs in tiny-input mode, so the whole suite takes well
under a minute once the benchmark is built.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*extra, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *extra],
        cwd=cwd, capture_output=True, text=True, env=env, check=False,
    )


def tiny(workload, trace, *extra):
    done = run_bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                     "--trace", str(trace), "--tiny", *extra)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in BENCH[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = tiny(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_a_corrupted_pin_fails_the_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = tiny(workload, 0, "--corrupt-pin")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLessEqual(result["failed"], result["attempted"])


class BareDirectory(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        # Only BENCHMARK.json and the benchmark's own files: the crates
        # it links are missing, so the build must fail.
        bare = ROOT / ".bench_build" / "bare-check"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=str(bare / "target"))
            done = run_bench("--workload", "simulate", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare, env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
