"""Deterministic CSV / JSON writers for simulation products.

Every float is rendered with repr-faithful precision (%.17g), so a value
survives a write/read round trip bit-for-bit and two identical runs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from .metrics import METRIC_NAMES, TVCir

TRACE_COLUMNS = (
    "timestamp_s",
    "path_id",
    "signature",
    "delay_s",
    "aod_az_rad",
    "aod_el_rad",
    "aoa_az_rad",
    "aoa_el_rad",
    "doppler_hz",
    "t_vv_re",
    "t_vv_im",
    "t_vh_re",
    "t_vh_im",
    "t_hv_re",
    "t_hv_im",
    "t_hh_re",
    "t_hh_im",
    "tag",
)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def write_trace_csv(path, snapshots) -> dict[str, int]:
    """Write one row per (snapshot, path); returns the signature -> id map.

    Path ids number each distinct signature in order of first appearance, so
    a physical path keeps one id for its whole life.  Transfer entries are
    [out, in] with V=row/column 0: vv = T[0,0], vh = T[0,1] (H in, V out).
    """
    ids: dict[str, int] = {}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        for snap in snapshots:
            ts = _fmt(snap.timestamp)
            for p in snap.paths:
                sig = p.signature
                pid = ids.setdefault(sig, len(ids))
                t = p.transfer
                w.writerow(
                    (
                        ts,
                        pid,
                        sig,
                        _fmt(p.delay_s),
                        _fmt(p.aod[0]),
                        _fmt(p.aod[1]),
                        _fmt(p.aoa[0]),
                        _fmt(p.aoa[1]),
                        _fmt(p.doppler_hz),
                        _fmt(t[0, 0].real),
                        _fmt(t[0, 0].imag),
                        _fmt(t[0, 1].real),
                        _fmt(t[0, 1].imag),
                        _fmt(t[1, 0].real),
                        _fmt(t[1, 0].imag),
                        _fmt(t[1, 1].real),
                        _fmt(t[1, 1].imag),
                        p.tag,
                    )
                )
    return ids


def write_metrics_csv(path, timestamps, series: dict) -> None:
    """Per-snapshot metric table: timestamp_s plus one column per metric."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("timestamp_s",) + tuple(METRIC_NAMES))
        for i, ts in enumerate(timestamps):
            w.writerow([_fmt(ts)] + [_fmt(series[name][i]) for name in METRIC_NAMES])


def write_tvcir_csv(path, cir: TVCir) -> None:
    """Delay-bin rows; per-timestamp re/im column pairs."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["delay_s"]
        for t in cir.times:
            stamp = "%.6f" % t
            header.append(f"re@{stamp}")
            header.append(f"im@{stamp}")
        w.writerow(header)
        for i, d in enumerate(cir.delays):
            row = [_fmt(d)]
            for j in range(len(cir.times)):
                a = cir.amplitude[i, j]
                row.append(_fmt(a.real))
                row.append(_fmt(a.imag))
            w.writerow(row)


def write_nrmse_csv(path, rows) -> None:
    """Long-format sweep errors: one row per (interval, metric)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            (
                "kf_interval_s",
                "metric",
                "rmse",
                "q10",
                "q90",
                "nrmse",
                "degenerate",
                "n_samples",
                "n_excluded",
            )
        )
        for interval, report in rows:
            for name in METRIC_NAMES:
                m = report.metrics[name]
                w.writerow(
                    (
                        _fmt(interval),
                        name,
                        _fmt(m.rmse),
                        _fmt(m.q10),
                        _fmt(m.q90),
                        _fmt(m.nrmse),
                        int(m.degenerate),
                        m.n_samples,
                        m.n_excluded,
                    )
                )


def write_timing_csv(path, rows) -> None:
    """Per-interval compute cost relative to the exact reference.

    ``rows`` hold (kf_interval_s, reference_seconds, test_seconds,
    normalized_compute_time, rt_invocations_reference, rt_invocations_test).
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            (
                "kf_interval_s",
                "reference_seconds",
                "test_seconds",
                "normalized_compute_time",
                "rt_invocations_reference",
                "rt_invocations_test",
            )
        )
        for *floats, rt_reference, rt_test in rows:
            w.writerow((*map(_fmt, floats), rt_reference, rt_test))


def write_error_cdf_csv(path, rows) -> None:
    """Long-format error quantiles: one row per (interval, metric, level)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("kf_interval_s", "metric", "quantile_pct", "abs_error"))
        for interval, report in rows:
            for name in METRIC_NAMES:
                m = report.metrics[name]
                for level, value in m.quantiles.items():
                    w.writerow((_fmt(interval), name, level, _fmt(value)))


def write_power_split_csv(path, decomp) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            (
                "timestamp_s",
                "specular_dbm",
                "scattered_dbm",
                "total_dbm",
                "specular_fraction",
                "scattered_fraction",
            )
        )
        for i, ts in enumerate(decomp.timestamps):
            w.writerow(
                (
                    _fmt(ts),
                    _fmt(decomp.specular_dbm[i]),
                    _fmt(decomp.scattered_dbm[i]),
                    _fmt(decomp.total_dbm[i]),
                    _fmt(decomp.specular_fraction),
                    _fmt(decomp.scattered_fraction),
                )
            )


def write_scatter_summary_csv(path, rows) -> None:
    """Per-scatterer aggregates over the studied window."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            (
                "scatterer_id",
                "n_path_rows",
                "n_snapshots_visible",
                "mean_power_dbm",
                "mean_excess_delay_ns",
            )
        )
        for r in rows:
            w.writerow(
                (
                    r["scatterer_id"],
                    r["n_path_rows"],
                    r["n_snapshots_visible"],
                    _fmt(r["mean_power_dbm"]),
                    _fmt(r["mean_excess_delay_ns"]),
                )
            )


def write_bench_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("stage", "repeat", "units", "seconds", "per_unit_ms"))
        for r in rows:
            w.writerow(
                (
                    r["stage"],
                    r["repeat"],
                    r["units"],
                    _fmt(r["seconds"]),
                    _fmt(r["per_unit_ms"]),
                )
            )


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
