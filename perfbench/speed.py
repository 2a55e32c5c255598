"""The machine's speed at the moment, from a fixed calibration kernel.

On a shared machine the CPU speed a process gets changes from one second to
the next, by up to 1.5x on the 2-core machine where the benchmark was
defined.  A time measured there says as much about the neighbours as about
the program.  The benchmark therefore runs a fixed kernel, which uses no
railchan code, right before and right after each timed command, and scales
the command's time by how fast the kernel ran around it:

    scaled = measured * KERNEL_REF_S / (mean of the two kernel times)

``KERNEL_REF_S`` is the kernel's median time on the machine where the
benchmark was defined, so a scaled time reads in seconds of that machine.
The kernel has two parts of about equal time: Python-level loops over small
numpy arrays with dict and list work, and dense numpy array arithmetic.
Railchan's commands mix both, in shares that differ by workload.  In two
sets of 10 runs of 30 s per workload on the machine above, the run-to-run
spread (quartile distance over median) of a run's median iteration time was
11-22 % unscaled and 3.3-4.6 % scaled, in the same runs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

KERNEL_REF_S = 0.1
_N = 7500
_POINTS = np.random.default_rng(0).random((64, 3))
_MATRIX = np.random.default_rng(1).random((192, 192))


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(_N):
        v = _POINTS[i % 64]
        w = _POINTS[(i * 7) % 64]
        length = float(np.linalg.norm(w - v))
        acc += length * float(np.dot(v, w))
        table[i % 97] = (length, acc)
        acc += sum(a * b for a, b in zip(v.tolist(), w.tolist()))
    for _ in range(48):
        acc += float((np.sin(_MATRIX) @ _MATRIX)[0, 0])
    return time.perf_counter() - t0


def scaled_median(times: list[float], kernels: list[float]) -> float:
    """Median of the times, each scaled to the reference kernel speed."""
    return statistics.median(t * KERNEL_REF_S / k for t, k in zip(times, kernels))
