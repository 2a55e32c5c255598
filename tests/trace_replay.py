"""Trace-file reader for tests: restores ``trace.csv`` rows to the attribute
set the metrics read, so metrics can be recomputed from a written trace."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from railchan.traceio import TRACE_COLUMNS


@dataclass
class ReplayPath:
    """A trace-file row restored to the attribute set the metrics use."""

    path_id: int
    signature: str
    delay_s: float
    aod: tuple[float, float]
    aoa: tuple[float, float]
    doppler_hz: float
    transfer: np.ndarray
    tag: str

    @property
    def power(self) -> float:
        return float(np.sum(np.abs(self.transfer) ** 2))


@dataclass
class ReplaySnapshot:
    timestamp: float
    paths: list


def read_trace_csv(path) -> list[ReplaySnapshot]:
    """Re-group trace rows into snapshots (consecutive equal timestamps)."""
    snapshots: list[ReplaySnapshot] = []
    current_key: str | None = None
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if tuple(header or ()) != TRACE_COLUMNS:
            raise ValueError(f"{path}: not a trace file (unexpected header)")
        for row in r:
            (
                ts_s,
                pid,
                sig,
                delay,
                aod_az,
                aod_el,
                aoa_az,
                aoa_el,
                doppler,
                vv_re,
                vv_im,
                vh_re,
                vh_im,
                hv_re,
                hv_im,
                hh_re,
                hh_im,
                tag,
            ) = row
            if ts_s != current_key:
                snapshots.append(ReplaySnapshot(timestamp=float(ts_s), paths=[]))
                current_key = ts_s
            transfer = np.array(
                [
                    [complex(float(vv_re), float(vv_im)), complex(float(vh_re), float(vh_im))],
                    [complex(float(hv_re), float(hv_im)), complex(float(hh_re), float(hh_im))],
                ]
            )
            snapshots[-1].paths.append(
                ReplayPath(
                    path_id=int(pid),
                    signature=sig,
                    delay_s=float(delay),
                    aod=(float(aod_az), float(aod_el)),
                    aoa=(float(aoa_az), float(aoa_el)),
                    doppler_hz=float(doppler),
                    transfer=transfer,
                    tag=tag,
                )
            )
    return snapshots
