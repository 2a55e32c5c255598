"""Regenerate ``reference.json`` from the program in this checkout.

    python3 perfbench/make_reference.py

Runs every workload once per CLI seed ``0 .. N_SEEDS - 1`` (about seven
minutes on 2 cores) and stores what ``checks.py`` compares against: one full
record per workload and seed.  Regenerate only on a commit whose outputs are
known to be right, and say so in the change that does.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
os.environ.pop("RAILCHAN_THREADS", None)

import checks  # noqa: E402
from run import BLAS_THREAD_VARS  # noqa: E402
from workloads import N_SEEDS, WORKLOADS  # noqa: E402

os.environ.update({var: "1" for var in BLAS_THREAD_VARS})


def record(main, argv, out: Path) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--output-dir", str(out)])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    manifest = json.loads((out / "manifest.json").read_text())
    return {
        "counts": checks.counts(out, manifest),
        "digests": checks.digests(out),
        "fingerprint": checks.fingerprint(out),
    }


def main() -> int:
    from railchan.cli import main as cli_main

    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".perfbench_out"))
    records = {}
    try:
        for name, workload in WORKLOADS.items():
            for seed in range(N_SEEDS):
                key = checks.record_key(name, seed)
                out = scratch / key
                records[key] = record(cli_main, [*workload.argv, "--seed", str(seed)], out)
                shutil.rmtree(out)
                print(f"{key}: {records[key]['counts']}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # one line per record keeps the file small and its diffs readable
    lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in records.items())
    (HERE / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
