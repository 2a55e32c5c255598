"""One workload in one fresh process: warm-up, measured iterations, checks.

``run.py`` starts this with ``PYTHONPATH`` set to the checkout's ``src``,
BLAS thread pools pinned to 1 and ``RAILCHAN_THREADS`` unset.  Each
iteration calls ``railchan.cli.main`` in process with its ``--output-dir``
in a temporary directory under ``.perfbench_out/`` that is removed again.
The first (warm-up) iteration is not timed into the result; its outputs
are checked against the stored reference, and every later iteration must
reproduce them byte for byte.

The last line of stdout is a JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import checks
import speed
import tracing
from workloads import WORKLOADS, cli_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
MIN_MEASURED = 3  # measured iterations of an untraced run
MIN_PAIRS = 2  # untraced + traced iteration pairs of a traced run


class Session:
    """Iterations of one workload with one seed, and their check results."""

    def __init__(self, name: str, seed: int, scratch: Path):
        from railchan.cli import main  # the CLI entry point users run

        self.main = main
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.cli_seed = cli_seed(seed)
        key = checks.record_key(name, self.cli_seed)
        records = json.loads((HERE / "reference.json").read_text())
        if key not in records:
            raise SystemExit(f"reference.json has no record {key}")
        self.reference = records[key]
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests: dict | None = None
        self.first_ok = False
        self.n_snapshots = 0
        self.peak_rss_mb = 0.0

    def iteration(self, recorder: tracing.SpanRecorder | None = None) -> tuple[float, float]:
        """Run the command once; returns (wall s, CPU s)."""
        k = self.attempted
        self.attempted += 1
        out = self.scratch / f"iter-{k}"
        argv = [*self.workload.argv, "--seed", str(self.cli_seed), "--output-dir", str(out)]
        gc.collect()
        sink = io.StringIO()
        root = recorder.root() if recorder is not None else contextlib.nullcontext()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), root:
            code = self.main(argv)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if k == 0:
            # what a user's one-command process peaks at, before any checking
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        try:
            self._check(k, code, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return wall, cpu

    def _check(self, k: int, code: int, out: Path) -> None:
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            manifest = json.loads((out / "manifest.json").read_text())
            self.n_snapshots = int(manifest["n_snapshots"])
            got = checks.digests(out)
            if self.first_digests is None:
                problems = checks.check(out, manifest, self.reference, got)
                self.first_digests = got
                self.first_ok = not problems
            elif got != self.first_digests:
                problems = ["outputs differ from the first iteration with the same seed"]
            else:
                problems = [] if self.first_ok else ["same outputs as the failed first iteration"]
        if problems:
            self.failed += 1
            self.problems.extend(f"iteration {k}: {p}" for p in problems)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_ROOT))
    try:
        session = Session(name, seed, scratch)
        session.iteration()  # warm-up: caches, lazy imports; checked, not timed
        if trace:
            return _measure_traced(session, seconds)
        walls, kernels = [], []
        start = time.perf_counter()
        while len(walls) < MIN_MEASURED or time.perf_counter() - start < seconds:
            before = speed.kernel_s()
            walls.append(session.iteration()[0])
            kernels.append((before + speed.kernel_s()) / 2)
        return {
            **_common(session),
            "walls": walls,
            "kernels": kernels,
            "peak_rss_mb": session.peak_rss_mb,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure_traced(session: Session, seconds: float) -> dict:
    """Alternate untraced and traced iterations; report the traced iteration
    with the median traced wall, whose self times add up to its wall."""
    recorder = tracing.SpanRecorder()
    walls, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_PAIRS or time.perf_counter() - start < seconds:
        walls.append(session.iteration()[0])
        k = session.attempted
        recorder.begin(k)
        recorder.install()
        try:
            wall, cpu = session.iteration(recorder)
        finally:
            recorder.uninstall()
        timings, counters, root = tracing.layer_metrics(recorder, k)
        traced.append((wall, k, cpu, timings, counters, root))
    if any(t[4] != traced[0][4] for t in traced):
        session.failed += 1
        session.problems.append("counters differ between traced iterations with the same seed")
    ordered = sorted(traced)
    wall, k, cpu, timings, counters, root = ordered[(len(ordered) - 1) // 2]
    timings["cli.cpu_s"] = cpu
    timings["trace.wall_s"] = root
    timings["trace.overhead_s"] = statistics.median(t[0] for t in traced) - statistics.median(walls)
    trace_dir = OUT_ROOT / "trace"
    trace_dir.mkdir(exist_ok=True)
    stem = f"{session.workload.name}-seed{session.seed}"
    recorder.write_spans(trace_dir / f"{stem}.spans.csv.gz")
    return {
        **_common(session),
        "walls": walls,
        "traced_walls": [t[0] for t in traced],
        "reported_iteration": k,
        "timings": timings,
        "counters": counters,
        "absent": recorder.absent,
        "spans_file": str((trace_dir / f"{stem}.spans.csv.gz").relative_to(ROOT)),
    }


def _common(session: Session) -> dict:
    return {
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
        "n_snapshots": session.n_snapshots,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    import railchan

    if not Path(railchan.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"railchan was imported from {railchan.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
