"""The CSV writers against per-cell oracles.

The ``oracle_*`` writers below format every cell on its own with ``%.17g``
and join the cells with a ``csv`` writer, as the writers did before they
formatted whole rows.  Each writer must give the same bytes on real streams
(a ``run`` stream and the pylon window of ``scatter-study``) and on crafted
values: signed zeros, subnormals, huge values, NaN, infinities, a 17-digit
tie, a neighbour of a power of ten, a value whose digits carry to the next
power of ten, and snapshots without paths.
"""

from __future__ import annotations

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from path_oracle import Interaction, RayPath, interactions_of, read_rows, rows_of
from path_oracle import signature_of as oracle_signature_of
from preset_streams import preset_stream, pylon_window

from railchan.cli import _scatter_summary
from railchan.dynamics import ChannelSnapshot, whole_steps
from railchan.metrics import (
    METRIC_NAMES,
    TVCir,
    compare_series,
    metric_series,
    power_decomposition,
    synthesize_tv_cir,
)
from railchan.rays import (
    EDGE_DIFFRACTION,
    REFLECTION,
    ROOFTOP_DIFFRACTION,
    SCATTERING,
    TAG_SCATTER,
    TAG_SPECULAR,
    PathRows,
    signature_of,
    token,
)
from railchan.traceio import (
    TRACE_COLUMNS,
    write_bench_csv,
    write_error_cdf_csv,
    write_metrics_csv,
    write_nrmse_csv,
    write_power_split_csv,
    write_scatter_summary_csv,
    write_timing_csv,
    write_trace_csv,
    write_tvcir_csv,
)

ODD_VALUES = (
    -0.0,
    0.0,
    5e-324,
    -5e-324,
    1e308,
    -1e308,
    math.nan,
    math.inf,
    -math.inf,
    0.1,
    -1.0,
    # an exact 17-digit tie (n + 1/4 below 2**51), which the block formatter
    # leaves to ``%``
    1234567890123456.25,
    # the double above 1e23
    math.nextafter(1e23, math.inf),
    # the double nearest 10**98 lies below it, and its 17 digits round up
    # to 10**17: a carry to the next power of ten
    1e98,
)
#: characters a csv writer would quote a field for
SPECIAL = (",", '"', "\r", "\n")
#: every interaction kind a path record can carry
KINDS = (REFLECTION, EDGE_DIFFRACTION, ROOFTOP_DIFFRACTION, SCATTERING)


# ----------------------------------------------------------------------
# per-cell oracles
# ----------------------------------------------------------------------
def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def oracle_write_trace_csv(path, snapshots) -> dict[str, int]:
    ids: dict[str, int] = {}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        for snap in snapshots:
            ts = _fmt(snap.timestamp)
            for p in read_rows(snap.paths):
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


def oracle_write_metrics_csv(path, table) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("timestamp_s",) + tuple(METRIC_NAMES))
        for i, ts in enumerate(table["timestamp_s"]):
            w.writerow([_fmt(ts)] + [_fmt(table[name][i]) for name in METRIC_NAMES])


def oracle_write_tvcir_csv(path, cir) -> None:
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


def oracle_write_nrmse_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ("kf_interval_s", "metric", "rmse", "q10", "q90", "nrmse", "degenerate", "n_samples", "n_excluded")
        )
        for interval, errors in rows:
            for name in METRIC_NAMES:
                m = errors[name]
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


def oracle_write_timing_csv(path, rows) -> None:
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


def oracle_write_error_cdf_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("kf_interval_s", "metric", "quantile_pct", "abs_error"))
        for interval, errors in rows:
            for name in METRIC_NAMES:
                for level, value in errors[name].quantiles.items():
                    w.writerow((_fmt(interval), name, level, _fmt(value)))


def oracle_write_power_split_csv(path, decomp) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ("timestamp_s", "specular_dbm", "scattered_dbm", "total_dbm", "specular_fraction", "scattered_fraction")
        )
        for i, ts in enumerate(decomp.timestamp_s):
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


def oracle_write_scatter_summary_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("scatterer_id", "n_path_rows", "n_snapshots_visible", "mean_power_dbm", "mean_excess_delay_ns"))
        for sid, n_rows, n_snaps, power, excess in rows:
            w.writerow((sid, n_rows, n_snaps, _fmt(power), _fmt(excess)))


def oracle_write_bench_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("stage", "repeat", "units", "seconds", "per_unit_ms"))
        for stage, repeat, units, seconds, per_unit_ms in rows:
            w.writerow((stage, repeat, units, _fmt(seconds), _fmt(per_unit_ms)))


def assert_same_bytes(tmp_path, writer, oracle, *args):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    result = writer(got, *args)
    assert result == oracle(want, *args)
    assert got.read_bytes() == want.read_bytes()
    return got


# ----------------------------------------------------------------------
# streams
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def run_stream():
    """A ``run --duration 0.4 --kf-interval 0.1`` stream, exact scatter."""
    cfg, result = preset_stream(duration_s=0.4, kf_interval_s=0.1)
    return cfg, result.snapshots


@pytest.fixture(scope="module")
def pylon_stream():
    cfg, result = pylon_window()
    return cfg, result.snapshots


def _path(delay, aod, aoa, doppler, transfer, interactions=(), tag=TAG_SPECULAR):
    return RayPath(
        interactions=interactions,
        vertices=np.zeros((2, 3)),
        delay_s=delay,
        aod=aod,
        aoa=aoa,
        transfer=np.asarray(transfer, dtype=complex),
        tag=tag,
        doppler_hz=doppler,
    )


def crafted_snapshots():
    """Snapshots without paths around two whose rows put every odd value
    into every float column; timestamps include -0.0 and 1e308."""
    n = len(ODD_VALUES)
    paths = []
    for k in range(n):
        v = [ODD_VALUES[(k + i) % n] for i in range(14)]
        transfer = np.array([complex(v[i], v[i + 1]) for i in range(6, 14, 2)]).reshape(2, 2)
        inter = (Interaction(KINDS[k % len(KINDS)], k, k + 1),) * (k % 3)
        tag = (TAG_SPECULAR, TAG_SCATTER)[k % 2]
        paths.append(_path(v[0], (v[1], v[2]), (v[3], v[4]), v[5], transfer, inter, tag))
    return [
        ChannelSnapshot(0.0, PathRows.empty()),
        ChannelSnapshot(0.01, rows_of(paths)),
        ChannelSnapshot(-0.0, rows_of(paths[::-1])),
        ChannelSnapshot(1e308, PathRows.empty()),
    ]


# ----------------------------------------------------------------------
# trace.csv and metrics.csv
# ----------------------------------------------------------------------
def test_trace_csv_matches_oracle_on_run_stream(tmp_path, run_stream):
    _, snaps = run_stream
    got = assert_same_bytes(tmp_path, write_trace_csv, oracle_write_trace_csv, snaps)
    assert got.read_bytes().count(b"\r\n") == 1 + sum(len(s.paths) for s in snaps)


def test_trace_csv_matches_oracle_on_pylon_stream(tmp_path, pylon_stream):
    _, snaps = pylon_stream
    assert_same_bytes(tmp_path, write_trace_csv, oracle_write_trace_csv, snaps)


def test_trace_csv_matches_oracle_on_crafted_values(tmp_path):
    assert_same_bytes(tmp_path, write_trace_csv, oracle_write_trace_csv, crafted_snapshots())


def test_trace_csv_without_paths(tmp_path):
    snaps = [ChannelSnapshot(0.0, PathRows.empty())]
    got = assert_same_bytes(tmp_path, write_trace_csv, oracle_write_trace_csv, snaps)
    assert got.read_bytes() == (",".join(TRACE_COLUMNS) + "\r\n").encode()
    assert_same_bytes(tmp_path, write_trace_csv, oracle_write_trace_csv, [])


def test_metrics_csv_matches_oracle_on_run_stream(tmp_path, run_stream):
    cfg, snaps = run_stream
    table = metric_series(snaps, cfg.tx_power_dbm)
    assert_same_bytes(tmp_path, write_metrics_csv, oracle_write_metrics_csv, table)


def test_metrics_csv_matches_oracle_on_crafted_values(tmp_path):
    # empty snapshots give -inf powers and NaN statistics
    snaps = [s for s in crafted_snapshots() if not s.paths]
    table = metric_series(snaps, 43.0)
    assert np.isneginf(table["power_vv"][0]) and np.isnan(table["mean_delay"][0])
    assert_same_bytes(tmp_path, write_metrics_csv, oracle_write_metrics_csv, table)
    odd = {"timestamp_s": np.array(ODD_VALUES)}
    odd.update((name, np.roll(ODD_VALUES, k)) for k, name in enumerate(METRIC_NAMES))
    assert_same_bytes(tmp_path, write_metrics_csv, oracle_write_metrics_csv, odd)
    empty = {name: v[:0] for name, v in odd.items()}
    assert_same_bytes(tmp_path, write_metrics_csv, oracle_write_metrics_csv, empty)


# ----------------------------------------------------------------------
# scatter-study outputs
# ----------------------------------------------------------------------
def test_scatter_study_csvs_match_oracle_on_pylon_stream(tmp_path, pylon_stream):
    cfg, snaps = pylon_stream
    cir = synthesize_tv_cir(snaps, cfg.bandwidth_hz, cfg.rolloff)
    for written in (cir, replace(cir, amplitude=cir.scattered)):
        assert_same_bytes(tmp_path, write_tvcir_csv, oracle_write_tvcir_csv, written)
    decomp = power_decomposition(snaps, cfg.tx_power_dbm)
    assert_same_bytes(tmp_path, write_power_split_csv, oracle_write_power_split_csv, decomp)
    summary = _scatter_summary(cfg.load_scene(), snaps, cfg.tx_power_dbm)
    assert_same_bytes(tmp_path, write_scatter_summary_csv, oracle_write_scatter_summary_csv, summary)


def test_tvcir_csv_matches_oracle_on_crafted_values(tmp_path):
    vals = np.array(ODD_VALUES)
    column = np.array([complex(a, b) for a, b in zip(vals, np.roll(vals, 3))])
    amp = np.column_stack((column, np.roll(column, 5), column[::-1]))
    cir = TVCir(
        times=np.array([0.0, -0.0, 20.505]),
        delays=np.roll(vals, 1),
        amplitude=amp,
        scattered=np.zeros_like(amp),
    )
    assert_same_bytes(tmp_path, write_tvcir_csv, oracle_write_tvcir_csv, cir)
    no_times = replace(cir, times=np.zeros(0), amplitude=np.zeros((len(vals), 0), dtype=complex))
    assert_same_bytes(tmp_path, write_tvcir_csv, oracle_write_tvcir_csv, no_times)


def test_power_split_and_summary_match_oracle_on_crafted_values(tmp_path):
    with np.errstate(invalid="ignore", over="ignore"):
        decomp = power_decomposition(crafted_snapshots(), 43.0)
    assert_same_bytes(tmp_path, write_power_split_csv, oracle_write_power_split_csv, decomp)
    odd = replace(
        decomp,
        timestamp_s=np.array(ODD_VALUES),
        specular_dbm=np.roll(ODD_VALUES, 1),
        scattered_dbm=np.roll(ODD_VALUES, 2),
        total_dbm=np.roll(ODD_VALUES, 3),
        specular_fraction=math.nan,
        scattered_fraction=-0.0,
    )
    assert_same_bytes(tmp_path, write_power_split_csv, oracle_write_power_split_csv, odd)
    rows = [(k, 2 * k, k, v, ODD_VALUES[-1 - k]) for k, v in enumerate(ODD_VALUES)]
    assert_same_bytes(tmp_path, write_scatter_summary_csv, oracle_write_scatter_summary_csv, rows)


# ----------------------------------------------------------------------
# sweep and bench outputs
# ----------------------------------------------------------------------
def test_sweep_csvs_match_oracle(tmp_path, run_stream):
    cfg, snaps = run_stream
    # a test stream with one snapshot emptied: excluded samples, NaN errors
    test = [replace(s, paths=PathRows.empty()) if i == 3 else s for i, s in enumerate(snaps)]
    reference = metric_series(snaps, cfg.tx_power_dbm)
    rows = [
        (0.1, compare_series(reference, metric_series(test, cfg.tx_power_dbm))),
        (0.5, compare_series(metric_series(snaps), metric_series(snaps))),
    ]
    assert any(m.degenerate for _, errors in rows for m in errors.values())
    assert_same_bytes(tmp_path, write_nrmse_csv, oracle_write_nrmse_csv, rows)
    assert_same_bytes(tmp_path, write_error_cdf_csv, oracle_write_error_cdf_csv, rows)
    timing = [
        (0.1, 5.0, 1.25, 0.25, 101, 21),
        (0.5, -0.0, math.inf, math.nan, 101, 3),
        (1e308, 5e-324, 0.0, 0.1, 0, 0),
    ]
    assert_same_bytes(tmp_path, write_timing_csv, oracle_write_timing_csv, timing)


def test_bench_csv_matches_oracle(tmp_path):
    stages = ("scene_load", "specular_trace", "tvcir_snapshot")
    rows = [
        (stage, k, k + 1, v, v * 1e3 / (k + 1))
        for k, (stage, v) in enumerate(zip(stages, ODD_VALUES[1:]))
    ]
    assert_same_bytes(tmp_path, write_bench_csv, oracle_write_bench_csv, rows)


def test_signature_is_built_once_and_equals_signature_of(run_stream, pylon_stream):
    # keyframe, interpolated, held and scatter rows of both streams, and
    # the crafted rows built without a tracer
    paths = [p for _, snaps in (run_stream, pylon_stream) for s in snaps for p in read_rows(s.paths)]
    paths += [p for s in crafted_snapshots() for p in read_rows(s.paths)]
    for p in paths:
        # the records the signature names give it back in the oracle's format
        assert oracle_signature_of(interactions_of(p.signature)) == p.signature
    # interpolation builds no signature: a row between keyframes carries the
    # very object of its row in a keyframe of its bracket, the left one's
    # when both have it; with exact scatter, the specular rows between
    # keyframes are the interpolated ones
    n_interpolated = 0
    for cfg, snaps in (run_stream, pylon_stream):
        assert cfg.scatter_mode == "exact"
        stride = whole_steps(cfg.kf_interval_s, cfg.update_step_s)
        last = len(snaps) - 1
        for i, s in enumerate(snaps):
            left = i // stride * stride
            if i in (left, last):
                continue
            keyframe = {}
            for k in (min(left + stride, last), left):
                keyframe.update((sig, sig) for sig in snaps[k].paths.signature.tolist())
            for sig in s.paths.signature[s.paths.tag == TAG_SPECULAR].tolist():
                assert sig is keyframe[sig], sig
                n_interpolated += 1
    assert n_interpolated > 1000


# ----------------------------------------------------------------------
# text fields never need quoting
# ----------------------------------------------------------------------
def _plain(text: str) -> bool:
    return not any(c in text for c in SPECIAL)


def test_text_fields_need_no_quoting(run_stream, pylon_stream):
    texts = set(METRIC_NAMES) | set(TRACE_COLUMNS) | {TAG_SPECULAR, TAG_SCATTER}
    for _, snaps in (run_stream, pylon_stream):
        for s in snaps:
            for p in read_rows(s.paths):
                texts.update((p.signature, p.tag))
    # a signature is built from interaction kinds and integer ids only
    texts.add(signature_of([token(kind, -12, 345) for kind in KINDS]))
    bad = sorted(t for t in texts if not _plain(t))
    assert bad == []
