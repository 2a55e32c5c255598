"""The benchmark's own tests (about 1 minute on 2 cores).

    python3 perfbench/selftest.py

Not named ``test_*.py`` on purpose: the repository's test suite does not
collect it, because it runs the workloads.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, cli_seed  # noqa: E402


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_the_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(tracing.PER_LAYER))
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], tracing.unit(m["name"]), m["name"])
        self.assertEqual(
            [m["name"] for m in spec["end_to_end"]],
            ["wall_s", "peak_rss_mb", "setup_s"],
        )


class Fingerprints(unittest.TestCase):
    def test_tolerance(self):
        want = {"metrics.csv": {"power_vv": [3, 0, -150.0, 150.0, -100.0, -70.0]}}
        near = copy.deepcopy(want)
        near["metrics.csv"]["power_vv"][4] *= 1 + 1e-12
        far = copy.deepcopy(want)
        far["metrics.csv"]["power_vv"][4] *= 1 + 1e-6
        self.assertEqual(checks.compare_fingerprints(near, want), [])
        self.assertEqual(len(checks.compare_fingerprints(far, want)), 1)

    def test_counts_of_non_finite_values_must_match(self):
        want = {"power_split.csv": {"scattered_dbm": [2, 0, -60.0, 60.0, -45.0, -30.0]}}
        got = {"power_split.csv": {"scattered_dbm": [2, 1, -60.0, 60.0, -45.0, -30.0]}}
        self.assertEqual(len(checks.compare_fingerprints(got, want)), 1)


class Mutations(unittest.TestCase):
    """Real outputs pass the check against reference.json; outputs with
    values moved to another place, which keep every plain sum, fail it."""

    SEED = 3

    @classmethod
    def setUpClass(cls):
        from railchan.cli import main

        cls.tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
        reference = json.loads((HERE / "reference.json").read_text())
        cls.runs = {}
        for name in ("interp_run", "pylon_study"):
            out = cls.tmp / name
            argv = [*WORKLOADS[name].argv, "--seed", str(cli_seed(cls.SEED)), "--output-dir", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            cls.runs[name] = (out, manifest, reference[checks.record_key(name, cli_seed(cls.SEED))])

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def _problems(self, name: str, file: str | None = None, mutate=None) -> list[str]:
        out, manifest, want = self.runs[name]
        if file is not None:
            out = self.tmp / f"{name}-mutated"
            shutil.rmtree(out, ignore_errors=True)
            shutil.copytree(self.runs[name][0], out)
            with open(out / file, newline="") as fh:
                header, *rows = list(csv.reader(fh))
            mutate(rows)
            with open(out / file, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        return checks.check(out, manifest, want, checks.digests(out))

    def test_outputs_pass(self):
        self.assertEqual(self._problems("interp_run"), [])
        self.assertEqual(self._problems("pylon_study"), [])

    def test_last_bit_change_passes_on_the_fingerprint(self):
        def nudge(rows):
            rows[5][3] = repr(float(rows[5][3]) * (1 + 1e-15))

        self.assertEqual(self._problems("interp_run", "trace.csv", nudge), [])

    def test_swapped_rows_fail(self):
        def swap(rows):
            rows[0], rows[40] = rows[40], rows[0]

        self.assertTrue(self._problems("interp_run", "trace.csv", swap))

    def test_value_paired_with_another_row_fails(self):
        def swap_column(rows):
            rows[0][3], rows[40][3] = rows[40][3], rows[0][3]

        self.assertTrue(self._problems("interp_run", "trace.csv", swap_column))

    def test_tvcir_taps_shifted_by_one_fail(self):
        def shift(rows):
            values = [r[1:] for r in rows]
            for r, v in zip(rows, values[-1:] + values[:-1]):
                r[1:] = v

        self.assertTrue(self._problems("pylon_study", "tvcir_total.csv", shift))

    def test_tvcir_snapshots_shifted_by_one_fail(self):
        def shift(rows):
            for r in rows:
                r[1:] = r[3:] + r[1:3]

        self.assertTrue(self._problems("pylon_study", "tvcir_total.csv", shift))


class Tracing(unittest.TestCase):
    def test_renamed_entry_point_is_absent_and_originals_come_back(self):
        from railchan.specular import SpecularTracer

        original = SpecularTracer.trace
        missing = ("railchan.specular:no_such_entry_point", "specular.trace")
        recorder = tracing.SpanRecorder()
        with mock.patch.object(tracing, "ENTRY_POINTS", tracing.ENTRY_POINTS + (missing,)):
            recorder.install()
            self.assertIsNot(SpecularTracer.trace, original)
            recorder.uninstall()
        self.assertIs(SpecularTracer.trace, original)
        self.assertEqual(recorder.absent, [missing[0]])


class Harness(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run(["--workload", "dense_run", "--seed", "1", "--seconds", "1"], cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_traced_runs_repeat_their_counters_and_cover_the_wall(self):
        args = ["--workload", "interp_run", "--seed", "3", "--seconds", "1", "--trace", "1"]
        runs = []
        for _ in range(2):
            proc = _run(args)
            result = _result(proc)
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), set(tracing.PER_LAYER))
            lines = proc.stdout.splitlines()
            counters = json.loads(next(ln for ln in lines if "counters: " in ln).split(": ", 1)[1])
            timings = json.loads(next(ln for ln in lines if "timings: " in ln).split(": ", 1)[1])
            self_times = sum(timings[m] for m in set(tracing.SELF_TIME.values()))
            self.assertAlmostEqual(self_times, timings["trace.wall_s"], delta=1e-6)
            self.assertEqual(counters["trace.absent_entry_points"], 0)
            self.assertGreater(counters["dynamics.interpolate_calls"], 0)
            runs.append(counters)
        self.assertEqual(runs[0], runs[1])


if __name__ == "__main__":
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    unittest.main()
