#!/usr/bin/env python3
"""Desk-scale version of the accuracy/cost study behind the `sweep` command.

One exact reference (a solve every 10 ms step) is compared against keyframed
runs whose exact solves sit 20..500 ms apart.  The table reproduces the two
headline trends on a 5 s leg: interpolation error (NRMSE, normalized by the
Q90-Q10 span of the reference) grows with the keyframe interval, while
compute cost collapses because only the keyframes pay for ray tracing.

Usage: python3 demos/interval_error_study.py  (runs ~1 minute)
"""

import time

from railchan.config import load_preset
from railchan.dynamics import stream_snapshots
from railchan.em import CarrierConfig
from railchan.metrics import compare_streams

cfg = load_preset(overrides={"duration_s": 5.0, "scatter_mode": "off"})
scene = cfg.load_scene()
carrier = CarrierConfig(cfg.carrier_hz)


def run(kf_interval):
    t0 = time.perf_counter()
    res = stream_snapshots(
        scene,
        cfg.trajectory(),
        cfg.tx_position,
        carrier,
        cfg.update_step_s,
        kf_interval,
        limits=cfg.limits,
        scatter_mode="off",
        seed=cfg.seed,
    )
    return res, time.perf_counter() - t0


reference, ref_wall = run(cfg.update_step_s)
print(f"reference: {reference.rt_invocations} exact solves in {ref_wall:.1f} s\n")
print(f"{'kf/ms':>6} {'solves':>6} {'NRMSE vv':>9} {'NRMSE delay':>11} {'time/s':>7} {'vs exact':>8}")

for kf in (0.02, 0.05, 0.1, 0.2, 0.5):
    test, wall = run(kf)
    errors = compare_streams(reference.snapshots, test.snapshots, cfg.tx_power_dbm)
    print(
        f"{kf * 1e3:>6.0f} {test.rt_invocations:>6} "
        f"{errors['power_vv'].nrmse:>9.4f} "
        f"{errors['mean_delay'].nrmse:>11.4f} "
        f"{wall:>7.2f} {wall / ref_wall:>8.3f}"
    )

print("\nerror rises with the interval; compute falls as 1/interval.")
