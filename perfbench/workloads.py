"""The benchmark's workloads: railchan CLI argv on the bundled preset.

Each workload is one CLI command on the ``urban_canyon`` preset.  The
benchmark seed ``n`` goes in as ``--seed cli_seed(n)``, one of ``N_SEEDS``
CLI seeds, each with a full record in ``reference.json``.  Geometry,
durations and windows stay fixed, so the cost of a solve does not drift with
the seed.  Only the birth/death ramp activations of interpolated snapshots
depend on it.

Lengths are chosen so that one command takes about 1.2-2 s on a 2-core
x86 machine, so a 30 s run holds a discarded warm-up and 14-20 measured
iterations, and the 70 runs of a full benchmark pass stay under an hour.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    why: str


N_SEEDS = 64


def cli_seed(seed: int) -> int:
    """The CLI ``--seed`` a benchmark seed runs with."""
    return seed % N_SEEDS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense_run",
            argv=("run", "--duration", "0.2"),
            why=(
                "run --duration 0.2: keyframe at every step (21 exact solves, exact "
                "scatter); time is in specular, em and scene occlusion, none in interpolation"
            ),
        ),
        Workload(
            name="interp_run",
            argv=("run", "--duration", "1.5", "--kf-interval", "0.5", "--scatter", "interpolated"),
            why=(
                "run --duration 1.5 --kf-interval 0.5 --scatter interpolated: 4 solves, "
                "151 snapshots; time is in dynamics tracking/interpolation, trace.csv and metrics"
            ),
        ),
        Workload(
            name="pylon_study",
            argv=("scatter-study", "--kf-interval", "0.5", "--window", "20.5:21.0"),
            why=(
                "scatter-study --kf-interval 0.5 --window 20.5:21.0: pylon facet sum at all "
                "51 snapshots and the only synthesize_tv_cir and power_decomposition calls"
            ),
        ),
    )
}
