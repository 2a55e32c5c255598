"""Benchmark of the railchan CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload dense_run --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a railchan checkout; the program is imported from its
``src/``.  Each workload runs in a fresh single-threaded child process
(``worker.py``): one discarded, checked warm-up iteration of the CLI
command, then measured iterations until ``--seconds`` have passed.  Set-up
time is measured in separate fresh processes (``setup_probe.py``).

``--trace 0`` reports the end-to-end metrics ``wall_s``, ``peak_rss_mb``
and ``setup_s``, and prints ``snapshots_per_s`` (the workload's fixed
snapshot count over ``wall_s``, so it carries no information of its own and
has no bound) and ``failed_frac``.  ``wall_s`` and ``setup_s`` are medians
of times scaled to the reference machine speed (``speed.py``): on the shared
2-core machine where the benchmark was defined, unscaled medians of
separate runs differed by up to 20 %, because the CPU speed the process got
changed from second to second.  The unscaled figures are printed beside
them.

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of ``tracing.py``.  ``--workload all`` runs every workload with
tracing off and prints one table.  The last line of stdout is a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``failed / attempted`` is the share of iterations whose output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# set before numpy loads: the calibration kernel around each set-up probe
# runs in this process and must be single-threaded, as it is in the workers
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5  # after one discarded probe that fills the bytecode cache
# time a workload may take beyond --seconds: set-up probes, the warm-up,
# the iteration running when the time is up, and the checks
MARGIN_S = 120.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RAILCHAN_THREADS"}
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(script: str, args: list[str], deadline: float) -> dict:
    """Run a benchmark script in a fresh interpreter; its last stdout line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} {' '.join(args)} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{script} {' '.join(args)} exited with {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def measure_setup(deadline: float) -> tuple[list[float], list[float]]:
    """Set-up times of fresh probe processes, and the kernel times around each."""
    run_child("setup_probe.py", [], deadline)
    times, kernels = [], []
    for _ in range(SETUP_PROBES):
        before = speed.kernel_s()
        times.append(run_child("setup_probe.py", [], deadline)["setup_s"])
        kernels.append((before + speed.kernel_s()) / 2)
    return times, kernels


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for mod in ("numpy", "scipy"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
        "loadavg_at_start": list(os.getloadavg()),
    }


def end_to_end(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    setup, setup_kernels = measure_setup(deadline)
    res = run_child("worker.py", _worker_args(name, seed, seconds, 0), deadline)
    wall = speed.scaled_median(res["walls"], res["kernels"])
    metrics = {
        "wall_s": (wall, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (speed.scaled_median(setup, setup_kernels), "s"),
    }
    res["snapshots_per_s"] = res["n_snapshots"] / wall
    res["setup_unscaled_s"] = statistics.median(setup)
    return metrics, res


def per_layer(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    res = run_child("worker.py", _worker_args(name, seed, seconds, 1), deadline)
    values = {**res["timings"], **res["counters"]}
    return {m: (values[m], tracing.unit(m)) for m in tracing.PER_LAYER}, res


def _worker_args(name: str, seed: int, seconds: float, trace: int) -> list[str]:
    return ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]


def _print_run(name: str, metrics: dict, res: dict) -> None:
    att, failed = res["attempted"], res["failed"]
    walls = res["walls"]
    print(f"{name}: {len(walls)} measured iterations, {att} attempted, {failed} failed")
    if len(walls) >= 2:
        q1, q2, q3 = statistics.quantiles(walls, n=4)
        print(f"  iteration wall s: min {min(walls):.4f} q1 {q1:.4f} median {q2:.4f} q3 {q3:.4f}")
    if "kernels" in res:
        k1, k2, k3 = statistics.quantiles(res["kernels"], n=4)
        print(f"  kernel s: q1 {k1:.4f} median {k2:.4f} q3 {k3:.4f} (reference {speed.KERNEL_REF_S})")
        print(f"  unscaled setup s: median {res['setup_unscaled_s']:.4f}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:34s} {value:14.6g} {unit}")
    if "snapshots_per_s" in res:
        print(f"  {'snapshots_per_s':34s} {res['snapshots_per_s']:14.6g} 1/s")
    print(f"  {'failed_frac':34s} {failed / att:14.6g} ratio")
    for problem in res["problems"]:
        print(f"  check failed: {problem}")
    if "counters" in res:
        print("  counters: " + json.dumps(res["counters"], sort_keys=True))
        print("  timings: " + json.dumps(res["timings"], sort_keys=True))
        if res["absent"]:
            print("  absent entry points (layer reads 0): " + ", ".join(res["absent"]))
        print(f"  spans: {res['spans_file']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload != "all" and args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "railchan" / "cli.py").is_file():
        print(f"error: no railchan source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("machine: " + json.dumps(machine_info()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            deadline = time.monotonic() + args.seconds + MARGIN_S
            m, res = measure(name, args.seed, args.seconds, deadline)
            _print_run(name, m, res)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
            attempted += res["attempted"]
            failed += res["failed"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
