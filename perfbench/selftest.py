"""Self-test of the benchmark: every workload at tiny scale, with the
default and the held-out seed, timed and traced.

    python3 perfbench/selftest.py          # from the checkout root

Each run must exit 0, end stdout with a valid result line, report no
failure (checksums and counts agree with golden.json), and emit every
metric BENCHMARK.json declares for its mode, with a valid name and the
declared unit.  A copy of the benchmark without the program must fail
without printing a result.  The file is not named ``test_*`` so the
repository's own test suite does not collect it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench_util import DEFAULT_SEED, HELD_OUT_SEED  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


class Declaration(unittest.TestCase):
    def test_names_and_units_are_valid(self):
        names = []
        for key in ("workloads", "end_to_end", "per_layer"):
            for entry in SPEC[key]:
                self.assertRegex(entry["name"], NAME)
                names.append(entry["name"])
                if "unit" in entry:
                    self.assertRegex(entry["unit"], UNIT)
                    self.assertIn(entry["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        bounds = [m["bound"] for m in SPEC["end_to_end"]]
        self.assertTrue(all(0 < b <= 0.25 for b in bounds))
        self.assertEqual(setup[0]["bound"], max(bounds))


class Workloads(unittest.TestCase):
    def test_every_workload_both_seeds_both_modes(self):
        declared = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
        for workload in (w["name"] for w in SPEC["workloads"]):
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                for trace in (0, 1):
                    with self.subTest(workload=workload, seed=seed,
                                      trace=trace):
                        out = run(workload, seed, trace)
                        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
                        doc = json.loads(out.stdout.strip().splitlines()[-1])
                        self.assertEqual(
                            set(doc), {"correct", "attempted", "failed",
                                       "metrics"})
                        self.assertTrue(doc["correct"], out.stderr[-3000:])
                        self.assertEqual(doc["failed"], 0)
                        self.assertGreaterEqual(doc["attempted"], 1)
                        metrics = doc["metrics"]
                        self.assertEqual(set(metrics), set(declared[trace]))
                        for name, value in metrics.items():
                            self.assertRegex(name, NAME)
                            self.assertEqual(value["unit"],
                                             declared[trace][name])
                            self.assertIsInstance(value["value"], float)
                        if trace == 0:
                            for name, value in metrics.items():
                                self.assertGreater(value["value"], 0, name)


class WithoutProgram(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run("covert-sweep", DEFAULT_SEED, 0, cwd=Path(tmp))
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
