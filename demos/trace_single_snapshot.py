#!/usr/bin/env python3
"""Traces the bundled canyon at one instant and prints every path found.

The receiver sits 470 m down the track, deep in non-line-of-sight: the
direct ray is blocked by the north row, so the channel is carried by facade
reflections, vertical-edge diffractions and rooftop knife-edge paths.  Move
``T_SECONDS`` to 30.0 to see the line-of-sight window open up in front of
the base station.

Usage: python3 demos/trace_single_snapshot.py [seconds-into-run]
"""

import math
import sys

import numpy as np

from railchan.config import load_preset
from railchan.em import CarrierConfig
from railchan.specular import SpecularTracer
from railchan.scatter import ScatterEngine

T_SECONDS = float(sys.argv[1]) if len(sys.argv) > 1 else 17.0

cfg = load_preset()
scene = cfg.load_scene()
carrier = CarrierConfig(cfg.carrier_hz)
traj = cfg.trajectory()
rx = traj.position(T_SECONDS)

specular = SpecularTracer(scene, carrier, cfg.tx_position).trace(rx[None], cfg.limits)[0]
rows = specular.concat(ScatterEngine(scene, carrier, cfg.tx_position).paths(rx[None])[0])
# each row's Frobenius-squared transfer power
power = np.sum(np.abs(rows.transfer) ** 2, axis=(1, 2))

print(f"t = {T_SECONDS:.2f} s, receiver at ({rx[0]:.1f}, {rx[1]:.1f}, {rx[2]:.1f}) m")
print(f"{len(rows)} paths\n")
print(f"{'signature':<42} {'delay ns':>9} {'gain dB':>8} {'AoA az':>7} {'AoA el':>7}")
for k in np.argsort(rows.delay_s, kind="stable").tolist():
    gain = 10.0 * math.log10(power[k]) if power[k] > 0 else -math.inf
    az, el = rows.aoa[k].tolist()
    print(
        f"{rows.signature[k]:<42} {rows.delay_s[k] * 1e9:>9.1f} {gain:>8.1f} "
        f"{math.degrees(az):>6.1f}° {math.degrees(el):>6.1f}°"
    )

total = abs(rows.transfer[:, 0, 0].sum())
if total > 0:
    print(f"\ncoherent V->V sum: {cfg.tx_power_dbm + 20 * math.log10(total):.1f} dBm")
