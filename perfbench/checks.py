"""Output checks for one CLI iteration.

An iteration passes when its exit code is 0, its counts match the stored
reference exactly, and its output files either carry the stored SHA-256
digests or agree with the stored numeric fingerprint within ``RTOL``.

The reference (``reference.json``, written by ``make_reference.py``) holds
one full record per workload and CLI seed (``workloads.cli_seed``), keyed by
``record_key``: counts, digests and the fingerprint of every numeric output.
Counts are snapshots, path rows, distinct paths and exact solves, as the
manifest reports them, plus the scatter path rows of ``scatter_summary.csv``.

The fingerprint reduces each numeric column of a file to a few sums.
Columns named ``<name>@<timestamp>`` (the TV-CIR grids, one column per
snapshot) form one group ``<name>``.  Besides the plain sums, two weighted
sums tie every value to its place: one weights a cell by its row position,
the other by a low-discrepancy weight of its cell index (row-major).  Swapped
or shifted rows, taps or snapshots change them, where plain sums would not.
Row order is part of the output.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

RTOL = 1e-9
COUNT_KEYS = ("n_snapshots", "n_path_rows", "n_distinct_paths", "rt_invocations")
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# fingerprint of one column group: [cells, non-finite cells, then the sums]
SUMS = ("sum", "sum|x|", "sum x*row/rows", "sum x*frac(cell*golden)")


def record_key(workload: str, seed: int) -> str:
    return f"{workload}@{seed}"


def output_names(out_dir: Path) -> list[str]:
    """Produced files, without the manifest (it records wall times)."""
    return sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.json")


def digests(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in output_names(out_dir)
    }


def counts(out_dir: Path, manifest: dict) -> dict[str, int]:
    got = {k: int(manifest[k]) for k in COUNT_KEYS if k in manifest}
    summary = out_dir / "scatter_summary.csv"
    if summary.is_file():
        with open(summary, newline="") as fh:
            got["scatter_path_rows"] = sum(int(r["n_path_rows"]) for r in csv.DictReader(fh))
    return got


def _file_fingerprint(path: Path) -> dict[str, list]:
    """Per column group: [cells, non-finite cells, *SUMS]."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        groups = [name.split("@", 1)[0] for name in next(reader)]
        width = len(groups)
        acc: dict[str, list] = {}
        n_rows = 0
        for r, row in enumerate(reader):
            n_rows += 1
            for c, (group, cell) in enumerate(zip(groups, row)):
                try:
                    x = float(cell)
                except ValueError:
                    continue  # signatures and tags
                a = acc.setdefault(group, [0, 0, 0.0, 0.0, 0.0, 0.0])
                a[0] += 1
                if not math.isfinite(x):
                    a[1] += 1
                    continue
                a[2] += x
                a[3] += abs(x)
                a[4] += x * (r + 1)
                a[5] += x * ((r * width + c + 1) * GOLDEN % 1.0)
    for a in acc.values():
        a[4] /= n_rows
    return acc


def fingerprint(out_dir: Path) -> dict:
    """Numeric fingerprint of every output file."""
    return {name: _file_fingerprint(out_dir / name) for name in output_names(out_dir)}


def compare_fingerprints(got: dict, want: dict, rtol: float = RTOL) -> list[str]:
    """Every weight is at most 1, so each sum is bounded by sum|x|; a sum
    passes when it is within ``rtol * sum|x|`` of the reference."""
    problems = []
    if sorted(got) != sorted(want):
        return [f"output files {sorted(got)} != reference {sorted(want)}"]
    for name, groups in want.items():
        if sorted(groups) != sorted(got[name]):
            problems.append(f"{name}: columns differ from the reference")
            continue
        for group, ref in groups.items():
            new = got[name][group]
            scale = rtol * max(ref[3], new[3]) + 1e-300
            if new[:2] != ref[:2]:
                problems.append(
                    f"{name}:{group}: (cells, non-finite) = {tuple(new[:2])}, reference {tuple(ref[:2])}"
                )
            problems.extend(
                f"{name}:{group}: {label} = {g!r}, reference {w!r}"
                for label, g, w in zip(SUMS, new[2:], ref[2:])
                if abs(g - w) > scale
            )
    return problems


def check(out_dir: Path, manifest: dict, want: dict, got_digests: dict) -> list[str]:
    """Problems found in one iteration's outputs against the reference
    record ``want``; empty when they pass."""
    got_counts = counts(out_dir, manifest)
    problems = [
        f"count {k} = {got_counts.get(k)}, reference {v}"
        for k, v in want["counts"].items()
        if got_counts.get(k) != v
    ]
    if want["digests"] == got_digests:
        return problems
    return problems + compare_fingerprints(fingerprint(out_dir), want["fingerprint"])
