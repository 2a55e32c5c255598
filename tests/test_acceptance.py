"""Acceptance gate: twelve oracle and property checks for the simulator.

Run with ``pytest -v`` to get one PASSED/FAILED line per check.  Each test
also prints its measured numbers, visible with ``-rA`` or on failure.

The canyon study shared by checks 5-7 and 9 runs the bundled preset for a
20 s leg with discrete scatterers disabled; the exact reference alone takes
on the order of a minute, so it is computed once per module.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np
import pytest

from railchan.cli import main as cli_main
from railchan.config import load_preset
from railchan.dynamics import StepSchedule, Trajectory, stream_snapshots
from railchan.em import CarrierConfig
from railchan.metrics import (
    compare_streams,
    metric_series,
    raised_cosine_pulse,
    synthesize_tv_cir,
)
from railchan.rays import LOS_SIGNATURE, TAG_SCATTER, TAG_SPECULAR, polyline_lengths
from railchan.scene import Building, Scene
from railchan.specular import SpecularTracer, TraceLimits
from railchan.scatter import mesh_cylinder, mesh_plate, po_scattered_matrix
from railchan.scene import CylinderScatterer
from railchan.traceio import write_trace_csv
from path_oracle import RayPath, rows_of
from trace_replay import read_trace_csv

F19 = CarrierConfig(1.9e9)
LAM = F19.wavelength
EMPTY = Scene(buildings=[])
SWEEP_INTERVALS = (0.02, 0.05, 0.1, 0.2, 0.5)


def db(x: float) -> float:
    return 10.0 * math.log10(x)


def rcs_from_transfer(t_entry: complex, r_i: float, r_s: float) -> float:
    """Invert the link-budget form of the scattered transfer entry back to
    a radar cross section for oracle comparison."""
    return abs(t_entry) ** 2 * (4.0 * math.pi) ** 3 * r_i**2 * r_s**2 / LAM**2


def plate_rcs(side: float, max_edge: float, distance: float) -> float:
    mesh = mesh_plate(
        center=np.zeros(3),
        normal=np.array([1.0, 0.0, 0.0]),
        tan_u=np.array([0.0, 1.0, 0.0]),
        width=side,
        height=side,
        max_edge=max_edge,
    )
    p = np.array([distance, 0.0, 0.0])
    t = po_scattered_matrix(mesh, p, p, F19)
    return rcs_from_transfer(t[0, 0], distance, distance)


# ----------------------------------------------------------------------
# shared canyon study (checks 5-7, 9)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def canyon_cfg():
    return load_preset(overrides={"duration_s": 20.0, "scatter_mode": "off"})


@pytest.fixture(scope="module")
def canyon_study(canyon_cfg):
    cfg = canyon_cfg
    scene = cfg.load_scene()
    carrier = CarrierConfig(cfg.carrier_hz)
    traj = cfg.trajectory()

    def run(kf):
        t0 = time.perf_counter()
        res = stream_snapshots(
            scene,
            traj,
            cfg.tx_position,
            carrier,
            cfg.update_step_s,
            kf,
            limits=cfg.limits,
            scatter_mode="off",
            seed=cfg.seed,
        )
        return res, time.perf_counter() - t0

    reference, ref_wall = run(cfg.update_step_s)
    streams = {kf: run(kf) for kf in SWEEP_INTERVALS}
    return {"reference": reference, "ref_wall": ref_wall, "streams": streams}


# ----------------------------------------------------------------------
# 1-3: physical-optics oracles
# ----------------------------------------------------------------------
def test_01_plate_rcs_matches_flat_plate_formula():
    side = 10.0 * LAM
    distance = 100.0  # beyond the 2 D^2 / lambda far-field bound (63 m)
    t0 = time.perf_counter()
    sigma = plate_rcs(side, LAM / 2.0, distance)
    elapsed = time.perf_counter() - t0
    sigma_ref = 4.0 * math.pi * (side * side) ** 2 / LAM**2
    err_db = abs(db(sigma) - db(sigma_ref))
    print(
        f"PASS 01 plate RCS {db(sigma):.2f} dBsm vs {db(sigma_ref):.2f} dBsm "
        f"(|err| {err_db:.3f} dB) in {elapsed:.2f} s"
    )
    assert err_db < 0.5, f"plate RCS off by {err_db:.3f} dB"
    assert elapsed < 5.0, f"plate oracle took {elapsed:.1f} s"


def test_02_cylinder_rcs_matches_broadside_formula():
    cyl = CylinderScatterer(id=1, base_center=np.zeros(3), radius=0.375, height=8.2)
    t0 = time.perf_counter()
    mesh = mesh_cylinder(cyl, F19)
    obs = np.array([1000.0, 0.0, 0.5 * cyl.height])
    t = po_scattered_matrix(mesh, obs, obs, F19)
    elapsed = time.perf_counter() - t0
    sigma = rcs_from_transfer(t[0, 0], 1000.0, 1000.0)
    sigma_ref = 2.0 * math.pi * cyl.radius * cyl.height**2 / LAM
    err_db = abs(db(sigma) - db(sigma_ref))
    print(
        f"PASS 02 cylinder RCS {db(sigma):.2f} dBsm vs {db(sigma_ref):.2f} dBsm "
        f"(|err| {err_db:.3f} dB) in {elapsed:.2f} s"
    )
    assert err_db < 1.0, f"cylinder RCS off by {err_db:.3f} dB"
    assert elapsed < 30.0, f"cylinder oracle took {elapsed:.1f} s"


def test_03_plate_rcs_converged_at_quarter_wavelength_mesh():
    side = 10.0 * LAM
    coarse = plate_rcs(side, LAM / 2.0, 100.0)
    fine = plate_rcs(side, LAM / 4.0, 100.0)
    delta_db = abs(db(coarse) - db(fine))
    print(f"PASS 03 mesh refinement moves plate RCS by {delta_db:.4f} dB")
    assert delta_db < 0.2, f"mesh refinement moved RCS by {delta_db:.3f} dB"


# ----------------------------------------------------------------------
# 4: image-method oracle
# ----------------------------------------------------------------------
def test_04_two_wall_street_returns_five_paths_with_exact_lengths():
    def wall(bid, y0, y1):
        fp = np.array([[-200.0, y0], [200.0, y0], [200.0, y1], [-200.0, y1]])
        return Building(id=bid, footprint=fp, height=30.0)

    scene = Scene(buildings=[wall(1, 10.0, 12.0), wall(2, -12.0, -10.0)])
    tx = np.array([-50.0, 2.0, 5.0])
    rx = np.array([60.0, -3.0, 5.0])
    limits = TraceLimits(max_reflections=2, max_vertical_diffractions=0, rooftop=False)
    (paths,) = SpecularTracer(scene, F19, tx).trace(rx[None], limits)

    # mirror the receiver across the inner faces y = +10 / y = -10 by hand
    dx = rx[0] - tx[0]

    def length(y_image):
        return math.hypot(dx, y_image - tx[1])

    s_top = lambda y: 20.0 - y
    s_bot = lambda y: -20.0 - y
    expected = sorted(
        [
            length(rx[1]),              # direct
            length(s_top(rx[1])),       # one bounce, +y wall
            length(s_bot(rx[1])),       # one bounce, -y wall
            length(s_top(s_bot(rx[1]))),  # two bounces, -y then +y
            length(s_bot(s_top(rx[1]))),  # two bounces, +y then -y
        ]
    )
    got = sorted(polyline_lengths(p.vertices) for p in paths)
    assert len(paths) == 5, f"expected 5 paths, got {len(paths)}"
    worst = max(abs(a - b) for a, b in zip(got, expected))
    print(f"PASS 04 five street paths, worst length error {worst:.2e} m")
    assert worst < 1e-9, f"path length error {worst:.2e} m"


# ----------------------------------------------------------------------
# 5-7: keyframe interpolation on the bundled canyon
# ----------------------------------------------------------------------
def test_05_interpolated_snapshots_pin_to_exact_solves_at_keyframes(canyon_study, canyon_cfg):
    reference = canyon_study["reference"]
    test = canyon_study["streams"][0.1][0]
    schedule = StepSchedule(canyon_cfg.update_step_s, 0.1, 0, canyon_cfg.duration_s)
    assert len(test.snapshots) == len(reference.snapshots) == len(schedule.snapshots)
    n_paths = 0
    worst = 0.0
    n_kf = 0
    for i in schedule.keyframes:
        snap = test.snapshots[i]
        n_kf += 1
        exact = reference.snapshots[i]
        assert snap.timestamp == exact.timestamp
        by_sig_exact = {p.signature: p for p in exact.paths}
        by_sig_test = {p.signature: p for p in snap.paths}
        assert by_sig_exact.keys() == by_sig_test.keys(), (
            f"path sets differ at t={snap.timestamp}"
        )
        for sig, p in by_sig_test.items():
            q = by_sig_exact[sig]
            assert p.delay_s == q.delay_s, f"delay not exact at t={snap.timestamp} for {sig}"
            scale = float(np.abs(q.transfer).max())
            if scale > 0.0:
                worst = max(
                    worst,
                    float(np.abs(np.abs(p.transfer) - np.abs(q.transfer)).max()) / scale,
                )
            n_paths += 1
    print(
        f"PASS 05 {n_kf} keyframe snapshots, {n_paths} paths pinned; "
        f"worst relative magnitude difference {worst:.2e}"
    )
    assert n_kf >= 100
    assert worst <= 1e-10, f"transfer magnitudes differ by {worst:.2e} relative"


def test_06_narrowband_power_error_grows_with_keyframe_interval(canyon_study, canyon_cfg):
    reference = canyon_study["reference"]
    nrmse = {}
    for kf in SWEEP_INTERVALS:
        res = canyon_study["streams"][kf][0]
        errors = compare_streams(reference.snapshots, res.snapshots, canyon_cfg.tx_power_dbm)
        nrmse[kf] = errors["power_vv"].nrmse
    values = [nrmse[kf] for kf in SWEEP_INTERVALS]
    pretty = ", ".join(f"{kf * 1e3:.0f} ms: {v:.4f}" for kf, v in nrmse.items())
    print(f"PASS 06 VV-power NRMSE by keyframe interval — {pretty}")
    assert values[0] < 0.05, f"NRMSE at 20 ms is {values[0]:.4f}"
    for a, b, ka, kb in zip(values, values[1:], SWEEP_INTERVALS, SWEEP_INTERVALS[1:]):
        assert a <= b, f"NRMSE fell from {a:.4f} at {ka}s to {b:.4f} at {kb}s"


def test_07_exact_solve_count_and_wall_clock_scale_down(canyon_study, canyon_cfg):
    reference = canyon_study["reference"]
    ref_wall = canyon_study["ref_wall"]
    update = canyon_cfg.update_step_s
    n_intervals = reference.rt_invocations - 1
    for kf in SWEEP_INTERVALS:
        res = canyon_study["streams"][kf][0]
        k = round(kf / update)
        assert n_intervals % k == 0
        assert res.rt_invocations - 1 == n_intervals // k, (
            f"at kf={kf}: {res.rt_invocations} exact solves, "
            f"expected {n_intervals // k + 1}"
        )
    wall_10 = canyon_study["streams"][0.1][1]
    ratio = wall_10 / ref_wall
    print(
        f"PASS 07 exact solves {reference.rt_invocations} -> "
        f"{[canyon_study['streams'][kf][0].rt_invocations for kf in SWEEP_INTERVALS]}; "
        f"wall at 100 ms {wall_10:.1f} s vs exact {ref_wall:.1f} s (ratio {ratio:.3f})"
    )
    assert ratio < 0.5, f"keyframed run took {ratio:.2f}x the exact run"


# ----------------------------------------------------------------------
# 8: Doppler oracles
# ----------------------------------------------------------------------
def test_08_doppler_matches_head_on_and_broadside_geometry():
    v = 100.0 / 3.6
    limits = TraceLimits(max_reflections=0, max_vertical_diffractions=0, rooftop=False)

    head_on = stream_snapshots(
        EMPTY,
        Trajectory(waypoints=np.array([[0.0, 0.0, 2.0], [500.0, 0.0, 2.0]]), speed=v, duration=2.0),
        np.array([1000.0, 0.0, 2.0]),
        F19,
        0.1,
        0.1,
        limits=limits,
        scatter_mode="off",
        seed=7,
    )
    mean_head_on = float(np.mean([s.paths[0].doppler_hz for s in head_on.snapshots]))

    broadside = stream_snapshots(
        EMPTY,
        Trajectory(waypoints=np.array([[400.0, 0.0, 2.0], [600.0, 0.0, 2.0]]), speed=v, duration=7.2),
        np.array([500.0, 50.0, 10.0]),
        F19,
        0.1,
        0.1,
        limits=limits,
        scatter_mode="off",
        seed=7,
    )
    mean_broadside = float(np.mean([s.paths[0].doppler_hz for s in broadside.snapshots]))

    print(
        f"PASS 08 mean Doppler head-on {mean_head_on:.3f} Hz, "
        f"broadside {mean_broadside:.2e} Hz"
    )
    assert mean_head_on == pytest.approx(176.05, abs=0.1)
    assert mean_broadside == pytest.approx(0.0, abs=0.5)


# ----------------------------------------------------------------------
# 9: metric oracles against the trace CSV
# ----------------------------------------------------------------------
def _brute_force_metrics(paths):
    """Recompute every per-snapshot statistic from replayed CSV rows using
    only the textbook definitions."""
    out = {}
    sums = {
        "vv": sum(p.transfer[0, 0] for p in paths),
        "vh": sum(p.transfer[0, 1] for p in paths),
        "hv": sum(p.transfer[1, 0] for p in paths),
        "hh": sum(p.transfer[1, 1] for p in paths),
    }
    for pol, total in sums.items():
        out[f"power_{pol}"] = (
            20.0 * math.log10(abs(total)) if abs(total) > 0.0 else -math.inf
        )
    w = np.array([float(np.sum(np.abs(p.transfer) ** 2)) for p in paths])
    wn = w / w.sum()
    delays = np.array([p.delay_s for p in paths])
    out["mean_delay"] = float(np.sum(wn * delays))
    out["delay_spread"] = math.sqrt(max(float(np.sum(wn * (delays - out["mean_delay"]) ** 2)), 0.0))
    az = np.array([p.aoa[0] for p in paths])
    el = np.array([p.aoa[1] for p in paths])
    resultant = complex(np.sum(wn * np.exp(1j * az)))
    out["mean_haoa"] = float(np.angle(resultant))
    out["haoa_spread"] = math.sqrt(2.0 * (1.0 - min(abs(resultant), 1.0)))
    out["mean_vaoa"] = float(np.sum(wn * el))
    out["vaoa_spread"] = math.sqrt(max(float(np.sum(wn * (el - out["mean_vaoa"]) ** 2)), 0.0))
    dop = np.array([p.doppler_hz for p in paths])
    out["mean_doppler"] = float(np.sum(wn * dop))
    out["doppler_spread"] = math.sqrt(max(float(np.sum(wn * (dop - out["mean_doppler"]) ** 2)), 0.0))
    return out


def test_09_metrics_match_brute_force_recomputation_from_csv(canyon_study, tmp_path):
    snapshots = canyon_study["reference"].snapshots[:501]
    csv_path = tmp_path / "trace.csv"
    write_trace_csv(csv_path, snapshots)
    replayed = read_trace_csv(csv_path)
    assert len(replayed) == len(snapshots)

    series = metric_series(snapshots, tx_power_dbm=0.0)
    rng = np.random.default_rng(20260822)
    picks = rng.choice(len(replayed), size=100, replace=False)
    worst = 0.0
    for idx in picks:
        brute = _brute_force_metrics(replayed[idx].paths)
        for name, value in brute.items():
            have = series[name][idx]
            if math.isinf(value) or math.isinf(have):
                assert value == have, f"{name} at snapshot {idx}: {have} vs {value}"
                continue
            denom = max(abs(value), 1e-30)
            rel = abs(have - value) / denom
            worst = max(worst, rel)
            assert rel < 1e-9, f"{name} at snapshot {idx}: {have} vs brute {value}"

    errors = compare_streams(snapshots, snapshots, tx_power_dbm=0.0)
    for name, metric in errors.items():
        if not metric.degenerate:
            assert metric.nrmse == 0.0, f"self-comparison NRMSE of {name} is {metric.nrmse}"
        assert metric.rmse == 0.0
    print(
        f"PASS 09 100 sampled snapshots re-derived from CSV, worst relative "
        f"difference {worst:.2e}; self-comparison NRMSE identically zero"
    )


# ----------------------------------------------------------------------
# 10: band-limited impulse response
# ----------------------------------------------------------------------
def test_10_tv_cir_resolves_two_paths_50ns_apart():
    def tap(delay, amp):
        return RayPath(
            vertices=np.zeros((2, 3)),
            interactions=(),
            transfer=np.eye(2) * amp,
            delay_s=delay,
            aod=(0.0, 0.0),
            aoa=(0.0, 0.0),
            doppler_hz=0.0,
            tag=TAG_SPECULAR,
        )

    class Snap:
        def __init__(self, timestamp, paths):
            self.timestamp = timestamp
            self.paths = paths

    snap = Snap(0.0, rows_of([tap(100e-9, 1.0), tap(150e-9, 0.8)]))
    cir = synthesize_tv_cir([snap], bandwidth=100e6, rolloff=0.95, pol_pair="vv")
    mag = np.abs(cir.amplitude[:, 0])
    i1 = int(np.argmin(np.abs(cir.delays - 100e-9)))
    i2 = int(np.argmin(np.abs(cir.delays - 150e-9)))
    assert mag[i1] > mag[i1 - 1] and mag[i1] > mag[i1 + 1], "first tap is not a local peak"
    assert mag[i2] > mag[i2 - 1] and mag[i2] > mag[i2 + 1], "second tap is not a local peak"
    valley = float(mag[i1 + 1 : i2].min())
    smaller = min(mag[i1], mag[i2])
    depth_db = 20.0 * math.log10(smaller / valley)
    peak0 = raised_cosine_pulse(0.0, 100e6, 0.95)
    print(
        f"PASS 10 two taps resolved, valley {depth_db:.1f} dB below the smaller "
        f"peak; pulse peak h(0) = {peak0}"
    )
    assert depth_db >= 3.0, f"valley only {depth_db:.2f} dB below the smaller peak"
    assert peak0 == 1.0


# ----------------------------------------------------------------------
# 11: determinism of the command-line runner
# ----------------------------------------------------------------------
def test_11_cli_run_is_byte_identical_across_reruns(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = cli_main(
            [
                "run",
                "--duration",
                "0.4",
                "--kf-interval",
                "0.1",
                "--output-dir",
                str(out),
            ]
        )
        assert rc == 0
        outs.append(hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest())
    print(f"PASS 11 two runs, identical trace digest {outs[0][:16]}…")
    assert outs[0] == outs[1], "trace CSVs differ between identical runs"


# ----------------------------------------------------------------------
# 12: discrete-scatterer geometry and clean disable
# ----------------------------------------------------------------------
def test_12_scatter_paths_arrive_late_and_disable_cleanly():
    cfg = load_preset(overrides={"duration_s": 19.5, "scatter_mode": "exact"})
    scene = cfg.load_scene()
    carrier = CarrierConfig(cfg.carrier_hz)

    def run(mode):
        return stream_snapshots(
            scene,
            cfg.trajectory(),
            cfg.tx_position,
            carrier,
            cfg.update_step_s,
            cfg.kf_interval_s,
            limits=cfg.limits,
            scatter_mode=mode,
            seed=cfg.seed,
            start_step=1900,
        )

    with_scatter = run("exact")
    without = run("off")

    n_scatter = 0
    for snap in with_scatter.snapshots:
        los = [p for p in snap.paths if p.signature == LOS_SIGNATURE]
        scat = [p for p in snap.paths if p.tag == TAG_SCATTER]
        assert los, f"no direct path at t={snap.timestamp}"
        n_scatter += len(scat)
        for p in scat:
            assert p.delay_s > los[0].delay_s, (
                f"scatter path at t={snap.timestamp} arrives before the direct path"
            )
    assert n_scatter > 0, "the study window produced no scatter paths"

    for a, b in zip(with_scatter.snapshots, without.snapshots):
        sum_spec = sum(p.transfer[0, 0] for p in a.paths if p.tag != TAG_SCATTER)
        sum_off = sum(p.transfer[0, 0] for p in b.paths)
        assert sum_spec == sum_off, f"specular series differs at t={a.timestamp}"
    print(
        f"PASS 12 {n_scatter} scatter paths all arrive after the direct path; "
        f"disabling scatterers reproduces the specular series bit-for-bit"
    )
