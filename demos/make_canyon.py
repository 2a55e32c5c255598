#!/usr/bin/env python3
"""Regenerates the bundled urban-canyon preset scene.

A 1.67 km straight track on y = 0 is flanked by two building rows with
periodic gaps (pitch 80 m: 60 m block + 20 m gap, the south row staggered by
40 m).  The base station stands at (833.33, 20, 20.5) in a widened gap of
the north row, so the receiver sees a line-of-sight window of roughly
130 m around x = 833 and non-line-of-sight elsewhere — constant path churn
for the birth/death machinery.  Six 0.375 m x 8.2 m catenary poles stand at
30 m spacing on y = -5 over x = 515..665, which the receiver passes between
t = 18.5 s and 23.9 s at 100 km/h.  The two north blocks west of the base
station gap are lowered to 10 m so the station-to-pole legs clear their
rooftops and the poles stay illuminated across the whole window.

Usage: python3 demos/make_canyon.py [output.json]
"""

import json
import sys
from pathlib import Path

NORTH_HEIGHTS = [12.0, 18.0, 24.0, 15.0, 21.0]
SOUTH_HEIGHTS = [16.0, 22.0, 13.0, 19.0, 24.0]
PITCH = 80.0
BLOCK = 60.0
TRACK_END = 1700.0


def block_footprint(x0, y0, y1):
    return [[x0, y0], [x0 + BLOCK, y0], [x0 + BLOCK, y1], [x0, y1]]


def build_scene():
    buildings = []
    # north row: y in [8, 28]; skip block 10 to open the base-station gap
    k = 0
    x = 0.0
    while x + BLOCK <= TRACK_END:
        if k != 10:
            if k in (8, 9):
                height = 10.0  # keep the station-to-pole legs clear
            else:
                height = NORTH_HEIGHTS[k % len(NORTH_HEIGHTS)]
            buildings.append(
                {
                    "id": 100 + k,
                    "footprint": block_footprint(x, 8.0, 28.0),
                    "height": height,
                }
            )
        k += 1
        x += PITCH
    # south row: y in [-28, -8], staggered by half a pitch
    k = 0
    x = 40.0
    while x + BLOCK <= TRACK_END:
        buildings.append(
            {
                "id": 200 + k,
                "footprint": block_footprint(x, -28.0, -8.0),
                "height": SOUTH_HEIGHTS[k % len(SOUTH_HEIGHTS)],
            }
        )
        k += 1
        x += PITCH
    scatterers = [
        {
            "id": 301 + i,
            "base": [515.0 + 30.0 * i, -5.0, 0.0],
            "radius": 0.375,
            "height": 8.2,
            "material": "metal",
        }
        for i in range(6)
    ]
    return {
        "version": 1,
        "materials": {
            "concrete": {"eps_r": 5.0, "sigma": 0.1},
            "metal": {"pec": True},
        },
        "buildings": buildings,
        "scatterers": scatterers,
    }


def main():
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parents[1] / "src" / "railchan" / "presets" / "urban_canyon.scene.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    scene = build_scene()
    out.write_text(json.dumps(scene, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(scene['buildings'])} buildings, {len(scene['scatterers'])} scatterers)")


if __name__ == "__main__":
    main()
