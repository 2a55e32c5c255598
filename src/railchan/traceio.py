"""Deterministic CSV / JSON writers for simulation products.

Every float is rendered with repr-faithful precision (%.17g), so a value
survives a write/read round trip bit-for-bit and two identical runs produce
byte-identical files.  Each row is formatted whole, by one ``%`` template
applied to Python floats (from ``.tolist()`` of a per-snapshot or per-table
float block), and written as it is made, ending in ``\r\n``; the bytes are
those of formatting each cell with ``%.17g`` and joining the cells with a
``csv`` writer.  No text field (signature, tag, metric or stage name)
contains a comma, a quote or a line break, so no field needs quoting.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain, repeat
from pathlib import Path

import numpy as np

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

_EOL = "\r\n"


def _floats(n: int) -> str:
    """Template cells for ``n`` comma-separated floats."""
    return ",".join(("%.17g",) * n)


def _write_table(path, header, template: str, rows) -> None:
    """The header line, then ``template % row`` for each tuple ``row``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + _EOL)
        fh.writelines(template % row for row in rows)


def write_trace_csv(path, snapshots) -> dict[str, int]:
    """Write one row per (snapshot, path); returns the signature -> id map.

    Path ids number each distinct signature in order of first appearance, so
    a physical path keeps one id for its whole life.  Transfer entries are
    [out, in] with V=row/column 0: vv = T[0,0], vh = T[0,1] (H in, V out).
    Each snapshot's rows come from the columns of its path block, zipped
    into one tuple per row.
    """
    ids: dict[str, int] = {}
    # delay, aod (2), aoa (2), doppler, then re/im of T00, T01, T10, T11
    template = "%s,%d,%s," + _floats(14) + ",%s" + _EOL

    def blocks():
        for snap in snapshots:
            rows = snap.paths
            block = np.empty((14, len(rows)))
            block[0] = rows.delay_s
            block[1:3] = rows.aod.T
            block[3:5] = rows.aoa.T
            block[5] = rows.doppler_hz
            block[6:] = rows.transfer.reshape(-1, 4).view(float).T
            sigs = rows.signature.tolist()
            pids = [ids.setdefault(sig, len(ids)) for sig in sigs]
            yield zip(repeat("%.17g" % snap.timestamp), pids, sigs, *block.tolist(), rows.tag.tolist())

    _write_table(path, TRACE_COLUMNS, template, chain.from_iterable(blocks()))
    return ids


def write_metrics_csv(path, timestamps, series: dict) -> None:
    """Per-snapshot metric table: timestamp_s plus one column per metric."""
    block = np.column_stack([np.asarray(timestamps, dtype=float)] + [series[n] for n in METRIC_NAMES])
    template = _floats(1 + len(METRIC_NAMES)) + _EOL
    _write_table(
        path,
        ("timestamp_s",) + tuple(METRIC_NAMES),
        template,
        (tuple(row.tolist()) for row in block),
    )


def write_tvcir_csv(path, cir: TVCir) -> None:
    """Delay-bin rows; per-timestamp re/im column pairs."""
    header = ["delay_s"]
    for t in cir.times:
        stamp = "%.6f" % t
        header.append(f"re@{stamp}")
        header.append(f"im@{stamp}")
    n_times = len(cir.times)
    block = np.empty((len(cir.delays), 2 * n_times + 1))
    block[:, 0] = cir.delays
    block[:, 1::2] = cir.amplitude.real
    block[:, 2::2] = cir.amplitude.imag
    template = _floats(2 * n_times + 1) + _EOL
    _write_table(path, header, template, (tuple(row.tolist()) for row in block))


def write_nrmse_csv(path, rows) -> None:
    """Long-format sweep errors: one row per (interval, metric)."""
    header = (
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

    def cells():
        for interval, report in rows:
            for name in METRIC_NAMES:
                m = report.metrics[name]
                yield (interval, name, m.rmse, m.q10, m.q90, m.nrmse, m.degenerate, m.n_samples, m.n_excluded)

    _write_table(path, header, "%.17g,%s," + _floats(4) + ",%d,%d,%d" + _EOL, cells())


def write_timing_csv(path, rows) -> None:
    """Per-interval compute cost relative to the exact reference.

    ``rows`` hold (kf_interval_s, reference_seconds, test_seconds,
    normalized_compute_time, rt_invocations_reference, rt_invocations_test).
    """
    header = (
        "kf_interval_s",
        "reference_seconds",
        "test_seconds",
        "normalized_compute_time",
        "rt_invocations_reference",
        "rt_invocations_test",
    )
    _write_table(path, header, _floats(4) + ",%d,%d" + _EOL, (tuple(r) for r in rows))


def write_error_cdf_csv(path, rows) -> None:
    """Long-format error quantiles: one row per (interval, metric, level)."""
    _write_table(
        path,
        ("kf_interval_s", "metric", "quantile_pct", "abs_error"),
        "%.17g,%s,%d,%.17g" + _EOL,
        (
            (interval, name, level, value)
            for interval, report in rows
            for name in METRIC_NAMES
            for level, value in report.metrics[name].quantiles.items()
        ),
    )


def write_power_split_csv(path, decomp) -> None:
    header = (
        "timestamp_s",
        "specular_dbm",
        "scattered_dbm",
        "total_dbm",
        "specular_fraction",
        "scattered_fraction",
    )
    block = np.column_stack(
        (decomp.timestamps, decomp.specular_dbm, decomp.scattered_dbm, decomp.total_dbm)
    )
    fractions = (decomp.specular_fraction, decomp.scattered_fraction)
    _write_table(
        path, header, _floats(6) + _EOL, ((*row, *fractions) for row in block.tolist())
    )


def write_scatter_summary_csv(path, rows) -> None:
    """Per-scatterer aggregates over the studied window."""
    header = (
        "scatterer_id",
        "n_path_rows",
        "n_snapshots_visible",
        "mean_power_dbm",
        "mean_excess_delay_ns",
    )
    _write_table(
        path,
        header,
        "%d,%d,%d,%.17g,%.17g" + _EOL,
        (
            (
                r["scatterer_id"],
                r["n_path_rows"],
                r["n_snapshots_visible"],
                r["mean_power_dbm"],
                r["mean_excess_delay_ns"],
            )
            for r in rows
        ),
    )


def write_bench_csv(path, rows) -> None:
    _write_table(
        path,
        ("stage", "repeat", "units", "seconds", "per_unit_ms"),
        "%s,%d,%d,%.17g,%.17g" + _EOL,
        ((r["stage"], r["repeat"], r["units"], r["seconds"], r["per_unit_ms"]) for r in rows),
    )


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
