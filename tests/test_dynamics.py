"""Time-axis tests: trajectory, keyframes, tracking, interpolation, streaming.

The Doppler oracle value 176.05 Hz is (100/3.6 m/s) * 1.9 GHz / c.  Keyframe
pinning is structural: snapshots that land on a keyframe step reuse the exact
keyframe path set, so delays match bitwise and magnitudes to fp noise.

``oracle_row`` below is the scalar oracle of the batched
``interpolate_bracket``: one bracket entry at one time, with the delay and
angles of each row computed one vector at a time.  The batch must reproduce
it bit for bit.
"""

import inspect
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from interp_oracle import bracket_paths, oracle_interior
from path_oracle import RayPath, interactions_of, path_key, rows_of

from railchan import dynamics
from railchan.config import load_preset
from railchan.dynamics import (
    RAMP_FRACTION,
    SCATTER_MODES,
    Bracket,
    StepSchedule,
    Trajectory,
    interpolate_bracket,
    match_paths,
    stream_snapshots,
    track_interval,
)
from railchan.em import C0, CarrierConfig
from railchan.rays import LOS_SIGNATURE, PathRows, norms, path_order, polyline_lengths
from railchan.scatter import ScatterEngine
from railchan.scene import Building, CylinderScatterer, Scene
from railchan.specular import SpecularTracer, TraceLimits

F19 = CarrierConfig(frequency_hz=1.9e9)
V100 = 100.0 / 3.6
DOPPLER_MAX = V100 * 1.9e9 / C0  # 176.0477... Hz
LOS_ONLY = TraceLimits(max_reflections=0, max_vertical_diffractions=0, rooftop=False)
FULL = TraceLimits(max_reflections=2, max_vertical_diffractions=1, rooftop=True)


def straight_traj(p0, p1, speed, duration=None):
    return Trajectory(waypoints=np.array([p0, p1], dtype=float), speed=speed, duration=duration)


def _oracle_segment(traj, t: float) -> int:
    idx = int(np.searchsorted(traj._cum_time, t, side="right")) - 1
    return min(max(idx, 0), len(traj._seg_unit) - 1)


def oracle_position(traj, t: float) -> np.ndarray:
    """``traj``'s position at the one time ``t``, a Python float."""
    idx = _oracle_segment(traj, t)
    return traj.waypoints[idx] + traj._seg_unit[idx] * ((t - traj._cum_time[idx]) * traj.speed)


def oracle_velocity(traj, t: float) -> np.ndarray:
    return traj._seg_unit[_oracle_segment(traj, t)] * traj.speed


# ----------------------------------------------------------------------
# scalar oracle of interpolate_bracket
# ----------------------------------------------------------------------
def _scalar_angles(direction):
    d = direction / np.linalg.norm(direction)
    return float(np.arctan2(d[1], d[0])), float(np.arcsin(np.clip(d[2], -1.0, 1.0)))


def _scalar_path(interactions, verts, transfer, tag, doppler):
    return RayPath(
        interactions=interactions,
        vertices=verts,
        delay_s=float(np.sum(np.linalg.norm(np.diff(verts, axis=0), axis=1))) / C0,
        aod=_scalar_angles(verts[1] - verts[0]),
        aoa=_scalar_angles(verts[-2] - verts[-1]),
        transfer=transfer,
        tag=tag,
        doppler_hz=doppler,
    )


def _held_path(source, factor):
    return replace(source, transfer=source.transfer * factor, doppler_hz=0.0)


def bracket_entries(bracket):
    """``(kind, entry)`` for every entry of a bracket, in bracket order."""
    matched, births, deaths = bracket_paths(bracket)
    return [("matched", e) for e in matched] + [("birth", e) for e in births] + [("death", e) for e in deaths]


def oracle_row(bracket, kind, entry, t, rx_position, rx_velocity, carrier):
    """State of one bracket entry at time ``t``, or ``None`` while a birth
    has not activated / after a death has completed.  ``entry`` is a
    ``(path_a, path_b)`` pair for ``kind`` "matched", else ``(path,
    activation)``."""
    if t < bracket.t_a - 1e-9 or t > bracket.t_b + 1e-9:
        raise ValueError(f"time {t} outside tracked interval [{bracket.t_a}, {bracket.t_b}]")
    ramp = RAMP_FRACTION * (bracket.t_b - bracket.t_a)
    if kind == "birth":
        path, act = entry
        if t <= act:
            return None
        if t < act + ramp:
            return _held_path(path, (t - act) / ramp)
        return _held_path(path, 1.0)
    if kind == "death":
        path, act = entry
        if t < act:
            return _held_path(path, 1.0)
        if t < act + ramp:
            return _held_path(path, 1.0 - (t - act) / ramp)
        return None

    pa, pb = entry
    span = bracket.t_b - bracket.t_a
    alpha = (t - bracket.t_a) / span
    va = pa.vertices
    vb = pb.vertices
    if va.shape != vb.shape:
        raise ValueError(f"matched paths {pa.signature!r} differ in vertex count")
    verts = va + alpha * (vb - va)
    verts[-1] = rx_position
    seg = np.diff(verts, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    delay = float(np.sum(seg_len)) / C0

    vel = np.zeros_like(verts)
    if verts.shape[0] > 2:
        vel[1:-1] = (vb[1:-1] - va[1:-1]) / span
    vel[-1] = rx_velocity
    with np.errstate(invalid="ignore"):
        units = seg / seg_len[:, None]
    rate = float(np.sum(np.einsum("ij,ij->i", units, np.diff(vel, axis=0))))
    doppler = -carrier.frequency_hz * rate / C0

    mag = (1.0 - alpha) * np.abs(pa.transfer) + alpha * np.abs(pb.transfer)
    phase = np.angle(pa.transfer) - 2.0 * math.pi * carrier.frequency_hz * (delay - pa.delay_s)
    transfer = mag * np.exp(1j * phase)
    return _scalar_path(pa.interactions, verts, transfer, pa.tag, doppler)


def matched_bracket(t_a, t_b, rows_a, rows_b, pair):
    """A bracket of the keyframe blocks ``rows_a`` and ``rows_b`` holding
    the one matched row pair ``(i, j)``."""
    none = np.zeros(0, dtype=np.intp)
    return Bracket(t_a, t_b, rows_a, rows_b, np.array([pair], dtype=np.intp), none, none, np.zeros(0), np.zeros(0))


def matched_rows(bracket):
    """The rows of the one matched pair of ``bracket``."""
    ((i, j),) = bracket.matched.tolist()
    return bracket.rows_a[i], bracket.rows_b[j]


def interpolate_one(bracket, t, traj, carrier=F19):
    """The batched routine at a single time on a one-entry bracket: one path
    or ``None``."""
    (row,) = interpolate_bracket(bracket, [t], [traj.position(t)], [traj.velocity(t)], carrier)
    return row[0] if row else None


class TestTrajectory:
    def test_endpoints_and_distance(self):
        traj = straight_traj([0, 0, 4.5], [1666.7, 0, 4.5], V100, duration=60.0)
        np.testing.assert_allclose(traj.position(0.0), [0, 0, 4.5])
        p = traj.position(60.0)
        assert p[0] == pytest.approx(V100 * 60.0, abs=1e-9)  # 1666.67 m
        p = traj.position(0.01)
        assert p[0] == pytest.approx(0.27778, abs=1e-4)  # 27.8 cm per 10 ms

    def test_domain_errors(self):
        traj = straight_traj([0, 0, 0], [100, 0, 0], 10.0, duration=5.0)
        with pytest.raises(ValueError, match=r"^time -0\.01 outside \[0, 5\.0\]$"):
            traj.position(-0.01)
        with pytest.raises(ValueError, match=r"^time 5\.01 outside \[0, 5\.0\]$"):
            traj.velocity(5.01)
        # an array names its first time outside the track
        for call in (traj.position, traj.velocity):
            with pytest.raises(ValueError, match=r"^time 5\.02 outside \[0, 5\.0\]$"):
                call([0.0, 5.02, -0.5, 6.0])

    def test_times_as_an_array_are_the_per_time_rule(self):
        # the 601 keyframe times of the full preset at kf 0.1 s, and a track
        # with a corner at 2 s
        cfg = load_preset()
        traj = cfg.trajectory()
        sched = StepSchedule(cfg.update_step_s, 0.1, 0, traj.duration)
        times = sched.seconds(sched.keyframes)
        assert len(times) == 601
        corner = Trajectory(np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [10.0, 10.0, 1.0]]), speed=5.0)
        for track, ts in ((traj, times), (corner, np.linspace(0.0, corner.duration, 97).tolist() + [2.0])):
            got_p, got_v = track.position(ts), track.velocity(ts)
            want_p = np.array([oracle_position(track, t) for t in ts])
            want_v = np.array([oracle_velocity(track, t) for t in ts])
            assert got_p.tobytes() == want_p.tobytes() and got_v.tobytes() == want_v.tobytes()
            for t, p, v in zip(ts, want_p, want_v):
                assert track.position(t).tobytes() == p.tobytes() and track.velocity(t).tobytes() == v.tobytes()

    def test_duration_longer_than_polyline_rejected(self):
        with pytest.raises(ValueError):
            straight_traj([0, 0, 0], [10, 0, 0], 10.0, duration=2.0)

    def test_default_duration_covers_polyline(self):
        traj = straight_traj([0, 0, 0], [100, 0, 0], 20.0)
        assert traj.duration == pytest.approx(5.0)

    def test_corner_and_velocity(self):
        traj = Trajectory(
            waypoints=np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [10.0, 10.0, 0.0]]),
            speed=5.0,
        )
        np.testing.assert_allclose(traj.position(3.0), [10, 5, 0], atol=1e-12)
        np.testing.assert_allclose(traj.velocity(1.0), [5, 0, 0], atol=1e-12)
        np.testing.assert_allclose(traj.velocity(3.0), [0, 5, 0], atol=1e-12)
        # right-continuous at the corner
        np.testing.assert_allclose(traj.velocity(2.0), [0, 5, 0], atol=1e-12)


def keyframes(scene, traj, tx, kf_interval, update_step=None, limits=LOS_ONLY):
    """``(step, snapshot)`` of each keyframe of a stream, at the keyframe
    steps of its :class:`StepSchedule`; the stream solves each of them
    once."""
    update_step = update_step or kf_interval
    res = stream_snapshots(scene, traj, tx, F19, update_step=update_step, kf_interval=kf_interval, limits=limits)
    steps = StepSchedule(update_step, kf_interval, 0, traj.duration).keyframes
    assert res.counters["exact_solves"] == len(steps)
    return [(i, res.snapshots[i]) for i in steps]


class Keyframe(NamedTuple):
    timestamp: float
    rx_position: np.ndarray
    paths: PathRows


def tracked_keyframes(scene, traj, tx, kf_interval, update_step=None, limits=LOS_ONLY):
    """The keyframes of a stream as tracking reads them: the solved blocks,
    each with its time and receiver."""
    schedule = StepSchedule(update_step or kf_interval, kf_interval, 0, traj.duration)
    times = schedule.seconds(schedule.keyframes)
    rx = np.array([traj.position(t) for t in times])
    solved = SpecularTracer(scene, F19, tx).trace(rx, limits)
    return [Keyframe(t, r, paths) for t, r, paths in zip(times, rx, solved)]


class TestKeyframes:
    def test_count_601(self):
        scene = Scene(buildings=[])
        traj = straight_traj([10, 0, 4.5], [2000, 0, 4.5], V100, duration=60.0)
        kfs = [snap for _, snap in keyframes(scene, traj, np.array([0.0, 20.0, 20.5]), 0.1)]
        assert len(kfs) == 601
        assert kfs[0].timestamp == 0.0
        assert kfs[-1].timestamp == 60.0
        assert kfs[7].timestamp == 7 * 0.1

    def test_final_partial_interval_included(self):
        scene = Scene(buildings=[])
        traj = straight_traj([10, 0, 4.5], [100, 0, 4.5], 10.0, duration=1.05)
        kfs = keyframes(scene, traj, np.array([0.0, 20.0, 20.5]), 0.5, update_step=0.05)
        assert [i for i, _ in kfs] == [0, 10, 20, 21]
        assert [k.timestamp for _, k in kfs] == pytest.approx([0.0, 0.5, 1.0, 1.05], abs=1e-12)

    def test_rx_positions_and_paths(self):
        scene = Scene(buildings=[])
        traj = straight_traj([10, 0, 4.5], [100, 0, 4.5], 10.0, duration=2.0)
        tx = np.array([0.0, 20.0, 20.5])
        kfs = keyframes(scene, traj, tx, 1.0)
        for _, k in kfs:
            # the one path is the direct ray to the receiver at its time
            assert len(k.paths) == 1
            assert k.paths[0].signature == "LOS"
            assert k.paths[0].delay_s == pytest.approx(np.linalg.norm(traj.position(k.timestamp) - tx) / C0, rel=1e-15)


class TestMatch:
    def test_matched_and_death(self):
        wall = Building(id=1, footprint=np.array([[-2.0, 10.0], [2.0, 10.0], [2.0, 20.0], [-2.0, 20.0]]), height=30.0)
        scene = Scene(buildings=[wall])
        tx = np.array([0.0, 30.0, 10.0])
        traj = straight_traj([-30, 0, 2], [30, 0, 2], 20.0, duration=3.0)
        kfs = tracked_keyframes(scene, traj, tx, 1.5)
        # t=0: rx at, x=-30 -> LoS clear; t=1.5: rx at x=0 -> blocked
        matched, births, deaths = match_paths(kfs[0].paths, kfs[1].paths)
        assert len(matched) == 0
        assert len(births) == 0
        assert len(deaths) == 1
        assert kfs[0].paths.signature[deaths[0]] == "LOS"
        matched2, births2, deaths2 = match_paths(kfs[1].paths, kfs[2].paths)
        assert kfs[2].paths.signature[births2].tolist() == ["LOS"]

    def test_all_matched_identical(self):
        scene = Scene(buildings=[])
        tx = np.array([0.0, 20.0, 20.0])
        traj = straight_traj([10, 0, 2], [30, 0, 2], 10.0, duration=2.0)
        kfs = tracked_keyframes(scene, traj, tx, 1.0)
        matched, births, deaths = match_paths(kfs[0].paths, kfs[1].paths)
        assert len(matched) == 1 and len(births) == 0 and len(deaths) == 0

    def test_duplicate_signatures_pair_in_order(self):
        scene = Scene(buildings=[])
        traj = straight_traj([10, 0, 2], [30, 0, 2], 10.0, duration=2.0)
        kf_a, kf_b = tracked_keyframes(scene, traj, np.array([0.0, 20.0, 20.0]), 2.0)
        # the right keyframe's one row twice: the first copy is matched,
        # the second born
        matched, births, deaths = match_paths(kf_a.paths, kf_b.paths.take([0, 0]))
        assert matched.tolist() == [[0, 0]]
        assert births.tolist() == [1]
        assert len(deaths) == 0


class TestInterpolateLoS:
    def make(self):
        scene = Scene(buildings=[])
        tx = np.array([0.0, 30.0, 10.0])
        traj = straight_traj([-20, 0, 2], [20, 0, 2], 20.0, duration=2.0)
        kfs = tracked_keyframes(scene, traj, tx, 1.0)
        matched, _, _ = match_paths(kfs[0].paths, kfs[1].paths)
        return scene, tx, traj, matched_bracket(kfs[0].timestamp, kfs[1].timestamp, kfs[0].paths, kfs[1].paths, matched[0])

    def test_left_keyframe_identity(self):
        scene, tx, traj, br = self.make()
        pa, pb = matched_rows(br)
        p = interpolate_one(br, br.t_a, traj)
        assert (p.aod, p.aoa) == (pa.aod, pa.aoa)
        assert p.delay_s == pa.delay_s
        np.testing.assert_allclose(p.transfer, pa.transfer, rtol=1e-12)

    def test_colinear_los_exact_at_all_times(self):
        scene, tx, traj, br = self.make()
        for t in np.linspace(0.0, 1.0, 11):
            rx = traj.position(t)
            p = interpolate_one(br, t, traj)
            exact_delay = float(np.linalg.norm(rx - tx)) / C0
            assert p.delay_s == pytest.approx(exact_delay, abs=1e-15)

    def test_phase_law(self):
        scene, tx, traj, br = self.make()
        pa, pb = matched_rows(br)
        t = 0.37
        p = interpolate_one(br, t, traj)
        dtau = p.delay_s - pa.delay_s
        for idx in [(0, 0), (1, 1)]:
            want = np.angle(pa.transfer[idx]) - 2.0 * math.pi * 1.9e9 * dtau
            got = np.angle(p.transfer[idx])
            assert math.cos(got - want) == pytest.approx(1.0, abs=1e-10)

    def test_magnitude_linear(self):
        scene, tx, traj, br = self.make()
        pa, pb = matched_rows(br)
        t = 0.25
        p = interpolate_one(br, t, traj)
        a = np.abs(pa.transfer)
        b = np.abs(pb.transfer)
        np.testing.assert_allclose(np.abs(p.transfer), 0.75 * a + 0.25 * b, rtol=1e-12)

    def test_outside_interval_rejected(self):
        scene, tx, traj, br = self.make()
        times = [0.5, 1.5]
        rx = [traj.position(t) for t in times]
        v = [traj.velocity(t) for t in times]
        with pytest.raises(ValueError, match="outside tracked interval"):
            interpolate_bracket(br, times, rx, v, F19)

    def test_empty_bracket_rejects_outside_times(self):
        # a bracket with no paths still has an interval to check against
        scene, tx, traj, br = self.make()
        empty = replace(br, matched=np.zeros((0, 2), dtype=np.intp))
        times = [0.5, 1.5]
        rx = [traj.position(t) for t in times]
        v = [traj.velocity(t) for t in times]
        with pytest.raises(ValueError, match="outside tracked interval"):
            interpolate_bracket(empty, times, rx, v, F19)
        assert [len(rows) for rows in interpolate_bracket(empty, times[:1], rx[:1], v[:1], F19)] == [0]

    def test_vertex_count_mismatch_rejected(self):
        scene, tx, traj, br = self.make()
        pa, pb = matched_rows(br)
        bent = RayPath.from_polyline(interactions_of(pb.signature), np.insert(pb.vertices, 1, [0.0, 10.0, 5.0], axis=0), pb.transfer)
        br = replace(br, rows_b=rows_of([bent]), matched=np.array([[br.matched[0, 0], 0]]))
        with pytest.raises(ValueError, match="cannot interpolate"):
            interpolate_bracket(br, [0.5], [traj.position(0.5)], [traj.velocity(0.5)], F19)


@pytest.fixture(scope="module", params=[0.1, 0.5], ids=lambda kf: f"kf{kf}")
def preset_brackets(request):
    """Every tracked bracket of a 2 s preset stream with tracked scatter
    paths, each with its snapshot times on the stream's step clock,
    keyframes included."""
    kf = request.param
    cfg = load_preset(overrides={"duration_s": 2.0})
    carrier = CarrierConfig(frequency_hz=cfg.carrier_hz)
    traj = cfg.trajectory()
    scene = cfg.load_scene()
    kfs = tracked_keyframes(scene, traj, cfg.tx_position, kf, limits=cfg.limits)
    echoes = ScatterEngine(scene, carrier, cfg.tx_position).paths(np.array([k.rx_position for k in kfs]))
    kfs = [k._replace(paths=k.paths.concat(found)) for k, found in zip(kfs, echoes)]
    rng = np.random.default_rng(cfg.seed)
    step = cfg.update_step_s
    brackets = []
    for a, b in zip(kfs[:-1], kfs[1:]):
        steps = range(round(a.timestamp / step), round(b.timestamp / step) + 1)
        brackets.append((track_interval(a.timestamp, a.paths, b.timestamp, b.paths, rng), [i * step for i in steps]))
    return carrier, traj, brackets


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


class TestBracketAgainstOracle:
    def test_bit_identical_to_scalar_oracle(self, preset_brackets):
        carrier, traj, brackets = preset_brackets
        rows_by_kind = {"matched": 0, "birth": 0, "death": 0}
        in_ramp = {"birth": 0, "death": 0}
        for bracket, times in brackets:
            ramp = RAMP_FRACTION * (bracket.t_b - bracket.t_a)
            rx = [traj.position(t) for t in times]
            v = [traj.velocity(t) for t in times]
            got_rows = interpolate_bracket(bracket, times, rx, v, carrier)
            assert len(got_rows) == len(times)
            for t, r, vel, got in zip(times, rx, v, got_rows):
                want = [
                    (kind, entry, oracle_row(bracket, kind, entry, t, r, vel, carrier))
                    for kind, entry in bracket_entries(bracket)
                ]
                # the rows come in the bracket's one row order
                want = sorted((w for w in want if w[2] is not None), key=lambda w: path_key(w[2]))
                assert len(got) == len(want)
                for p, (kind, entry, q) in zip(got, want):
                    assert p.signature == q.signature
                    assert p.tag == q.tag
                    for field in ("delay_s", "aod", "aoa", "doppler_hz", "transfer"):
                        assert _bits(getattr(p, field)) == _bits(getattr(q, field)), (field, q.signature, t)
                    rows_by_kind[kind] += 1
                    if kind != "matched" and entry[1] < t < entry[1] + ramp:
                        in_ramp[kind] += 1
        print(f"rows per kind {rows_by_kind}, inside a ramp {in_ramp}")
        assert min(rows_by_kind.values()) > 0, rows_by_kind
        assert min(in_ramp.values()) > 0, in_ramp


class TestDoppler:
    def test_head_on_176hz(self):
        scene = Scene(buildings=[])
        tx = np.array([0.0, 0.0, 1.5])
        traj = straight_traj([200, 0, 1.5], [100, 0, 1.5], V100, duration=3.0)
        res = stream_snapshots(scene, traj, tx, F19, update_step=0.01, kf_interval=0.01, limits=LOS_ONLY)
        for snap in res.snapshots[::50]:
            assert snap.paths[0].doppler_hz == pytest.approx(DOPPLER_MAX, abs=0.05)

    def test_broadside_zero(self):
        scene = Scene(buildings=[])
        tx = np.array([0.0, 50.0, 1.5])
        traj = straight_traj([-10, 0, 1.5], [10, 0, 1.5], V100, duration=0.72)
        res = stream_snapshots(scene, traj, tx, F19, update_step=0.01, kf_interval=0.01, limits=LOS_ONLY)
        i_mid = int(round((10.0 / V100) / 0.01))
        assert abs(res.snapshots[i_mid].paths[0].doppler_hz) < 0.5

    def test_interpolated_phase_consistency(self):
        scene = Scene(buildings=[])
        tx = np.array([0.0, 30.0, 10.0])
        traj = straight_traj([-40, 0, 2], [40, 0, 2], V100, duration=2.5)
        res = stream_snapshots(scene, traj, tx, F19, update_step=0.01, kf_interval=0.1, limits=LOS_ONLY)
        snaps = res.snapshots
        keyframe_steps = StepSchedule(0.01, 0.1, 0, traj.duration).keyframes
        checked = 0
        for i in range(1, len(snaps) - 1):
            trio = [snaps[i - 1], snaps[i], snaps[i + 1]]
            # stay strictly inside one bracket
            if any(j in keyframe_steps for j in (i - 1, i, i + 1)):
                continue
            taus = [s.paths[0].delay_s for s in trio]
            numeric = -1.9e9 * (taus[2] - taus[0]) / 0.02
            assert snaps[i].paths[0].doppler_hz == pytest.approx(numeric, abs=1.0)
            checked += 1
        assert checked > 50


class TestStream:
    def wall_scene(self):
        wall = Building(id=1, footprint=np.array([[-2.0, 10.0], [2.0, 10.0], [2.0, 20.0], [-2.0, 20.0]]), height=30.0)
        side = Building(id=2, footprint=np.array([[-40.0, -12.0], [40.0, -12.0], [40.0, -10.0], [-40.0, -10.0]]), height=25.0)
        return Scene(buildings=[wall, side])

    def test_snapshot_count_and_timestamps(self):
        scene = Scene(buildings=[])
        traj = straight_traj([10, 0, 2], [60, 0, 2], 20.0, duration=1.0)
        res = stream_snapshots(scene, traj, np.array([0.0, 20.0, 20.0]), F19, update_step=0.01, kf_interval=0.1, limits=LOS_ONLY)
        assert len(res.snapshots) == 101
        assert res.snapshots[0].timestamp == 0.0
        assert res.snapshots[-1].timestamp == 100 * 0.01
        assert res.rt_invocations == 11

    def test_rt_invocations_independent_of_update_step(self):
        scene = Scene(buildings=[])
        traj = straight_traj([10, 0, 2], [60, 0, 2], 20.0, duration=1.0)
        tx = np.array([0.0, 20.0, 20.0])
        a = stream_snapshots(scene, traj, tx, F19, update_step=0.01, kf_interval=0.05, limits=LOS_ONLY)
        b = stream_snapshots(scene, traj, tx, F19, update_step=0.025, kf_interval=0.05, limits=LOS_ONLY)
        assert a.rt_invocations == b.rt_invocations == 21

    def test_rt_invocations_non_divisor_interval(self):
        scene = Scene(buildings=[])
        traj = straight_traj([10, 0, 2], [60, 0, 2], 20.0, duration=1.0)
        res = stream_snapshots(scene, traj, np.array([0.0, 20.0, 20.0]), F19, update_step=0.01, kf_interval=0.03, limits=LOS_ONLY)
        assert res.rt_invocations == math.ceil(1.0 / 0.03) + 1  # 35, final step appended

    def test_degenerate_interval_equals_exact(self):
        scene = self.wall_scene()
        traj = straight_traj([-30, 0, 2], [30, 0, 2], 20.0, duration=1.0)
        tx = np.array([0.0, 30.0, 10.0])
        a = stream_snapshots(scene, traj, tx, F19, update_step=0.02, kf_interval=0.02, limits=FULL, seed=7)
        b = stream_snapshots(scene, traj, tx, F19, update_step=0.02, kf_interval=0.02, limits=FULL, seed=99)
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert [p.signature for p in sa.paths] == [p.signature for p in sb.paths]
            for pa, pb in zip(sa.paths, sb.paths):
                np.testing.assert_array_equal(pa.transfer, pb.transfer)
                assert pa.delay_s == pb.delay_s

    def test_keyframe_pinning_against_exact(self):
        scene = self.wall_scene()
        traj = straight_traj([-30, 0, 2], [30, 0, 2], 20.0, duration=1.0)
        tx = np.array([0.0, 30.0, 10.0])
        exact = stream_snapshots(scene, traj, tx, F19, update_step=0.02, kf_interval=0.02, limits=FULL)
        interp = stream_snapshots(scene, traj, tx, F19, update_step=0.02, kf_interval=0.1, limits=FULL)
        stride = 5
        keyframe_steps = StepSchedule(0.02, 0.1, 0, traj.duration).keyframes
        for i in range(0, len(exact.snapshots), stride):
            se, si = exact.snapshots[i], interp.snapshots[i]
            assert i in keyframe_steps
            assert [p.signature for p in se.paths] == [p.signature for p in si.paths]
            for pe, pi in zip(se.paths, si.paths):
                assert pe.delay_s == pi.delay_s
                assert (pe.aod, pe.aoa) == (pi.aod, pi.aoa)
                np.testing.assert_allclose(np.abs(pi.transfer), np.abs(pe.transfer), rtol=1e-10)

    def test_interpolated_paths_share_keyframe_records(self):
        scene = self.wall_scene()
        traj = straight_traj([-30, 0, 2], [30, 0, 2], 20.0, duration=1.0)
        tx = np.array([0.0, 30.0, 10.0])
        kf_a, kf_b = tracked_keyframes(scene, traj, tx, 0.5, update_step=0.05, limits=FULL)[:2]
        bracket = track_interval(kf_a.timestamp, kf_a.paths, kf_b.timestamp, kf_b.paths, np.random.default_rng(0))
        assert any(sig != LOS_SIGNATURE for sig in bracket.rows_a.signature[bracket.matched[:, 0]])
        for i, j in bracket.matched.tolist():
            pa = bracket.rows_a[i]
            one = matched_bracket(bracket.t_a, bracket.t_b, bracket.rows_a, bracket.rows_b, (i, j))
            for t in (0.1, 0.25, 0.4):
                p = interpolate_one(one, t, traj)
                assert p.signature is pa.signature
            p = interpolate_one(one, one.t_a, traj)
            assert p.signature is pa.signature and p.tag == pa.tag
            assert p.delay_s == pa.delay_s
            assert (p.aod, p.aoa) == (pa.aod, pa.aoa)
            np.testing.assert_allclose(p.transfer, pa.transfer, rtol=1e-12)

    def test_continuity_kinematic_bound(self):
        scene = self.wall_scene()
        traj = straight_traj([-30, 0, 2], [30, 0, 2], 20.0, duration=1.0)
        tx = np.array([0.0, 30.0, 10.0])
        res = stream_snapshots(scene, traj, tx, F19, update_step=0.01, kf_interval=0.1, limits=FULL, seed=3)
        bound = 2.0 * 20.0 * 0.01 / C0
        snaps = res.snapshots
        for s0, s1 in zip(snaps[:-1], snaps[1:]):
            d0 = {p.signature: p for p in s0.paths}
            for p in s1.paths:
                q = d0.get(p.signature)
                if q is None:
                    continue
                assert abs(p.delay_s - q.delay_s) <= bound

    def test_birth_death_ramp_and_determinism(self):
        scene = self.wall_scene()
        traj = straight_traj([-30, 0, 2], [30, 0, 2], 20.0, duration=3.0)
        tx = np.array([0.0, 30.0, 10.0])
        r1 = stream_snapshots(scene, traj, tx, F19, update_step=0.01, kf_interval=0.1, limits=LOS_ONLY, seed=5)
        r2 = stream_snapshots(scene, traj, tx, F19, update_step=0.01, kf_interval=0.1, limits=LOS_ONLY, seed=5)
        mags1 = [sum(np.abs(p.transfer[0, 0]) for p in s.paths if p.signature == "LOS") for s in r1.snapshots]
        mags2 = [sum(np.abs(p.transfer[0, 0]) for p in s.paths if p.signature == "LOS") for s in r2.snapshots]
        assert mags1 == mags2  # determinism
        # LoS present at start, vanishes in the middle, returns near the end
        assert mags1[0] > 0
        assert min(mags1[140:160]) == 0.0
        assert mags1[-1] > 0
        # ramps: magnitude transitions pass through strictly intermediate values
        full = mags1[0]
        assert any(0.0 < m < 0.9 * full for m in mags1)

    def test_birth_death_seed_changes_schedule(self):
        scene = self.wall_scene()
        traj = straight_traj([-30, 0, 2], [30, 0, 2], 20.0, duration=3.0)
        tx = np.array([0.0, 30.0, 10.0])
        r1 = stream_snapshots(scene, traj, tx, F19, update_step=0.01, kf_interval=0.1, limits=LOS_ONLY, seed=5)
        r3 = stream_snapshots(scene, traj, tx, F19, update_step=0.01, kf_interval=0.1, limits=LOS_ONLY, seed=6)
        mags1 = [sum(np.abs(p.transfer[0, 0]) for p in s.paths if p.signature == "LOS") for s in r1.snapshots]
        mags3 = [sum(np.abs(p.transfer[0, 0]) for p in s.paths if p.signature == "LOS") for s in r3.snapshots]
        assert mags1 != mags3


class TestScatterModes:
    def pylon_scene(self):
        return Scene(
            buildings=[],
            scatterers=[CylinderScatterer(id=9, base_center=np.array([0.0, 10.0, 0.0]), radius=0.375, height=8.2)],
        )

    def test_exact_scatter_every_snapshot(self):
        scene = self.pylon_scene()
        tx = np.array([0.0, 30.0, 10.0])
        traj = straight_traj([-20, 0, 2], [20, 0, 2], 20.0, duration=2.0)
        res = stream_snapshots(scene, traj, tx, F19, update_step=0.05, kf_interval=0.25, limits=LOS_ONLY, scatter_mode="exact")
        for s in res.snapshots:
            tags = [p.tag for p in s.paths]
            assert tags.count("scatter") == 1
            assert tags == sorted(tags, key=lambda x: x == "scatter")  # scatter after specular
        # Doppler sign flips as the receiver passes the pylon
        first = res.snapshots[0].paths[-1].doppler_hz
        last = res.snapshots[-1].paths[-1].doppler_hz
        assert first > 0 > last

    def test_scatter_off_specular_bitwise_identical(self):
        scene = self.pylon_scene()
        tx = np.array([0.0, 30.0, 10.0])
        traj = straight_traj([-20, 0, 2], [20, 0, 2], 20.0, duration=2.0)
        on = stream_snapshots(scene, traj, tx, F19, update_step=0.05, kf_interval=0.25, limits=LOS_ONLY, scatter_mode="exact", seed=11)
        off = stream_snapshots(scene, traj, tx, F19, update_step=0.05, kf_interval=0.25, limits=LOS_ONLY, scatter_mode="off", seed=11)
        for s_on, s_off in zip(on.snapshots, off.snapshots):
            spec_on = [p for p in s_on.paths if p.tag == "specular"]
            assert len(spec_on) == len(s_off.paths)
            for pa, pb in zip(spec_on, s_off.paths):
                assert pa.signature == pb.signature
                np.testing.assert_array_equal(pa.transfer, pb.transfer)
                assert pa.delay_s == pb.delay_s
                assert pa.doppler_hz == pb.doppler_hz

    def test_interpolated_scatter_tracked(self):
        scene = self.pylon_scene()
        tx = np.array([0.0, 30.0, 10.0])
        traj = straight_traj([-20, 0, 2], [20, 0, 2], 20.0, duration=1.0)
        res = stream_snapshots(scene, traj, tx, F19, update_step=0.05, kf_interval=0.25, limits=LOS_ONLY, scatter_mode="interpolated")
        assert all(any(p.tag == "scatter" for p in s.paths) for s in res.snapshots)

    def test_timings_recorded(self):
        scene = self.pylon_scene()
        tx = np.array([0.0, 30.0, 10.0])
        traj = straight_traj([-20, 0, 2], [20, 0, 2], 20.0, duration=0.5)
        res = stream_snapshots(scene, traj, tx, F19, update_step=0.05, kf_interval=0.25, limits=LOS_ONLY, scatter_mode="exact")
        assert res.keyframe_seconds > 0.0
        assert res.scatter_seconds > 0.0
        assert res.interpolation_seconds > 0.0

    def test_each_timer_keeps_its_scope(self):
        # the scatter timer holds exact scatter alone: the engine an
        # interpolated stream builds and calls counts to its keyframes; and
        # a stream with a keyframe at every step interpolates nothing
        tx = np.array([0.0, 30.0, 10.0])
        traj = straight_traj([-20, 0, 2], [20, 0, 2], 20.0, duration=0.5)

        def stream(scene, kf_interval, mode):
            return stream_snapshots(scene, traj, tx, F19, 0.05, kf_interval, LOS_ONLY, scatter_mode=mode)

        for scene, mode in ((self.pylon_scene(), "off"), (self.pylon_scene(), "interpolated"), (Scene(buildings=[]), "exact")):
            res = stream(scene, 0.25, mode)
            assert res.scatter_seconds == 0.0, mode
            assert res.keyframe_seconds > 0.0 and res.interpolation_seconds > 0.0, mode
        for mode in SCATTER_MODES:
            res = stream(self.pylon_scene(), 0.05, mode)
            assert res.interpolation_seconds == 0.0, mode
            assert res.keyframe_seconds > 0.0 and (res.scatter_seconds > 0.0) == (mode == "exact"), mode

    def test_rows_in_path_order_with_echoes_after_every_specular_row(self):
        # as text "S(10:0)" sorts before "S(9:0)": the engine keeps its
        # pylons in that order, so each receiver's echoes join as a tail in
        # both modes, and the stream relies on the tracer's order for the
        # specular rows
        wall = Building(id=1, footprint=np.array([[-30.0, 40.0], [30.0, 40.0], [30.0, 42.0], [-30.0, 42.0]]), height=30.0)
        pylons = [
            CylinderScatterer(id=sid, base_center=np.array([x, 10.0, 0.0]), radius=0.375, height=8.2)
            for sid, x in ((9, -5.0), (10, 5.0))
        ]
        scene = Scene(buildings=[wall], scatterers=pylons)
        tx = np.array([0.0, 30.0, 10.0])
        traj = straight_traj([-20, 0, 2], [20, 0, 2], 20.0, duration=1.0)
        found = ScatterEngine(scene, F19, tx).paths(np.array([traj.position(0.5)]))
        assert [p.signature for p in found[0]] == ["S(10:0)", "S(9:0)"]
        for mode in ("exact", "interpolated"):
            res = stream_snapshots(scene, traj, tx, F19, 0.05, 0.25, FULL, scatter_mode=mode)
            n_both = 0
            for snap in res.snapshots:
                assert path_order(snap.paths).tolist() == list(range(len(snap.paths))), (mode, snap.timestamp)
                tags = snap.paths.tag.tolist()
                n_echoes = tags.count("scatter")
                assert tags[len(tags) - n_echoes :] == ["scatter"] * n_echoes, (mode, snap.timestamp)
                n_both += snap.paths.signature.tolist()[-2:] == ["S(10:0)", "S(9:0)"]
                assert len(set(snap.paths.signature[: len(tags) - n_echoes])) > 1
            assert n_both == len(res.snapshots), mode


# ----------------------------------------------------------------------
# keyframe Doppler against the path-by-path rule
# ----------------------------------------------------------------------
def oracle_radial_doppler(path, rx_velocity, carrier):
    """Doppler of an exactly traced path from the last-segment radial rate,
    one path at a time: the rule the stream applied path by path."""
    u = path.vertices[-1] - path.vertices[-2]
    n = float(np.linalg.norm(u))
    if n <= 0.0:
        return 0.0
    return -carrier.frequency_hz * float(np.dot(u, rx_velocity)) / (n * C0)


def snapshot_bits(snap):
    """Everything a snapshot carries, as comparable bytes and records."""
    return np.array([snap.timestamp]).tobytes(), [
        (
            p.signature,
            p.tag,
            p.transfer.tobytes(),
            np.array([p.delay_s, *p.aod, *p.aoa, p.doppler_hz]).tobytes(),
        )
        for p in snap.paths
    ]


class TestKeyframeDoppler:
    def test_every_keyframe_path_of_the_preset_t0_to_2s(self):
        # kf = update step: every snapshot is a keyframe, its specular paths
        # and its exact scatter echoes filled in by the array pass
        # and emitted as the sorted solve followed by its sorted echoes
        cfg = load_preset(overrides={"duration_s": 2.0})
        traj = cfg.trajectory()
        carrier = CarrierConfig(cfg.carrier_hz)
        scene = cfg.load_scene()
        res = stream_snapshots(scene, traj, cfg.tx_position, carrier, cfg.update_step_s, cfg.update_step_s, cfg.limits)
        assert len(res.snapshots) == 201
        rx = np.array([traj.position(s.timestamp) for s in res.snapshots])
        solved = SpecularTracer(scene, carrier, cfg.tx_position).trace(rx, cfg.limits)
        echoes = ScatterEngine(scene, carrier, cfg.tx_position).paths(rx)
        tags = set()
        for snap, paths, found in zip(res.snapshots, solved, echoes):
            v = traj.velocity(snap.timestamp)
            paths = sorted(paths, key=path_key) + sorted(found, key=path_key)
            assert snap.paths.signature.tolist() == [p.signature for p in paths]
            want = np.array([oracle_radial_doppler(p, v, carrier) for p in paths])
            assert snap.paths.doppler_hz.tobytes() == want.tobytes(), snap.timestamp
            tags.update(snap.paths.tag)
        assert tags == {"specular", "scatter"}

    def test_zero_length_last_segment_has_no_doppler(self):
        p = RayPath.from_polyline((), np.array([[0.0, 0.0, 1.0], [5.0, 0.0, 1.0]]), np.eye(2, dtype=complex))
        q = replace(p, vertices=np.array([[0.0, 0.0, 1.0], [5.0, 0.0, 1.0], [5.0, 0.0, 1.0]]))
        rows = rows_of([p, q])
        snap = dynamics._fill_doppler(rows, np.array([3.0, 4.0, 0.0]), F19)
        assert snap.doppler_hz.tolist() == [oracle_radial_doppler(p, np.array([3.0, 4.0, 0.0]), F19), 0.0]
        assert snap.doppler_hz[0] != 0.0
        # the snapshot rows drop the polylines; the solved block keeps its own
        # columns, Doppler included
        assert snap.vertices.tolist() == [None, None] and snap.signature is rows.signature
        assert rows.doppler_hz.tolist() == [0.0, 0.0] and rows.vertices[1] is q.vertices


# ----------------------------------------------------------------------
# keyframes solved in chunks against keyframes solved one at a time
# ----------------------------------------------------------------------
class TestKeyframeChunks:
    @pytest.mark.parametrize(
        "duration, kf_interval",
        [(0.4, 0.01), (2.0, 0.1), (3.0, 0.5), (2.0, 0.07)],
        ids=["kf0.01", "kf0.1", "kf0.5", "kf0.07_final_step_appended"],
    )
    @pytest.mark.parametrize("scatter_mode", ["exact", "interpolated"])
    def test_streams_equal_one_keyframe_per_solve(self, monkeypatch, duration, kf_interval, scatter_mode):
        # chunks of 3 and of the default size put chunk boundaries inside
        # the stream, so brackets span two chunks, and chunks of the default
        # size leave a short last chunk
        cfg = load_preset(overrides={"duration_s": duration})
        args = (cfg.load_scene(), cfg.trajectory(), cfg.tx_position, CarrierConfig(cfg.carrier_hz), cfg.update_step_s, kf_interval)
        kwargs = dict(limits=cfg.limits, scatter_mode=scatter_mode, seed=cfg.seed)
        runs = {}
        for chunk in (1, 3, dynamics.SOLVE_CHUNK):
            monkeypatch.setattr(dynamics, "SOLVE_CHUNK", chunk)
            runs[chunk] = stream_snapshots(*args, **kwargs)
        want = runs.pop(1)
        assert want.rt_invocations > 3
        for got in runs.values():
            assert got.rt_invocations == want.rt_invocations
            assert got.counters == want.counters
            assert [snapshot_bits(s) for s in got.snapshots] == [snapshot_bits(s) for s in want.snapshots]

    def test_one_tracer_and_one_engine_call_per_chunk(self, monkeypatch):
        # interpolated scatter: the keyframe engine evaluates each chunk's
        # receivers in one call, beside the tracer's one call
        cfg = load_preset(overrides={"duration_s": 2.0})
        calls = {"trace": [], "scatter": []}
        for name, owner, method in (("trace", SpecularTracer, "trace"), ("scatter", ScatterEngine, "paths")):
            original = getattr(owner, method)

            def spy(self, receivers, *rest, _log=calls[name], _original=original):
                _log.append(len(receivers))
                return _original(self, receivers, *rest)

            monkeypatch.setattr(owner, method, spy)
        monkeypatch.setattr(dynamics, "SOLVE_CHUNK", 8)
        stream_snapshots(
            cfg.load_scene(), cfg.trajectory(), cfg.tx_position, CarrierConfig(cfg.carrier_hz), cfg.update_step_s,
            0.1, cfg.limits, scatter_mode="interpolated", seed=cfg.seed,
        )
        assert calls == {"trace": [8, 8, 5], "scatter": [8, 8, 5]}

    def test_tracer_and_engine_hold_one_transmitter(self):
        # the transmitter is fixed at construction: no solve takes one, and
        # no table is keyed by one
        cfg = load_preset()
        scene, carrier = cfg.load_scene(), CarrierConfig(cfg.carrier_hz)
        for obj, method in (
            (SpecularTracer(scene, carrier, cfg.tx_position), "trace"),
            (ScatterEngine(scene, carrier, cfg.tx_position), "paths"),
        ):
            assert "tx" not in inspect.signature(getattr(obj, method)).parameters
            assert list(inspect.signature(getattr(obj, method)).parameters)[0] == "receivers"
            assert not hasattr(obj, "_tx_key")
            assert obj.tx.tobytes() == np.asarray(cfg.tx_position, dtype=float).tobytes()


class TestNorms:
    def test_bits_of_linalg_norm_on_random_rows(self):
        rng = np.random.default_rng(2402)
        rows = rng.normal(size=(400_000, 3)) * np.exp(rng.uniform(-20.0, 20.0, size=(400_000, 1)))
        assert norms(rows).tobytes() == np.linalg.norm(rows, axis=-1).tobytes()
        stacked = rows.reshape(1000, 100, 4, 3)
        assert norms(stacked).tobytes() == np.linalg.norm(stacked, axis=-1).tobytes()

    def test_polyline_lengths_of_the_preset_paths(self, monkeypatch):
        # the stream's rows keep no vertices: its keyframe paths, and the
        # per-path interior of its brackets, whose rows the stream's rows
        # equal bit for bit (test_path_rows), carry them
        cfg = load_preset(overrides={"duration_s": 2.0})
        brackets = []
        original = dynamics.interpolate_bracket

        def spy(bracket, *args):
            brackets.append((bracket, args))
            return original(bracket, *args)

        monkeypatch.setattr(dynamics, "interpolate_bracket", spy)
        stream_snapshots(
            cfg.load_scene(), cfg.trajectory(), cfg.tx_position, CarrierConfig(cfg.carrier_hz),
            cfg.update_step_s, 0.1, cfg.limits, scatter_mode="interpolated", seed=cfg.seed,
        )
        paths = [bracket.rows_b[j] for bracket, _ in brackets for j in bracket.matched[:, 1].tolist()]
        paths += [p for bracket, args in brackets for rows in oracle_interior(bracket, *args) for p in rows]
        for p in paths:
            old = np.sum(np.linalg.norm(np.diff(p.vertices, axis=-2), axis=-1), axis=-1)
            assert polyline_lengths(p.vertices).tobytes() == old.tobytes()
            # every row's delay, interpolated or held, is its length's
            assert p.delay_s == float(old) / C0
        assert len(paths) > 10_000
