"""Time axis: receiver trajectory, keyframe solves, tracking, interpolation.

The receiver follows a polyline track at one constant speed.  The stream
works on an integer step clock.  Snapshots live at ``i * update_step``;
keyframes at every ``stride``-th step (``stride = kf_interval /
update_step``) plus the final step.  A snapshot that lands on a keyframe
step reuses the keyframe path set directly, so keyframe timestamps are
reproduced bit-for-bit by construction rather than through an interpolation
that happens to hit the endpoints.

Between keyframes, paths matched by signature are interpolated: interior
vertices move linearly, the receiver vertex follows the exact trajectory,
the delay is recomputed from the interpolated polyline, per-entry transfer
magnitudes are blended linearly, and the phase advances from the left
keyframe by ``-2*pi*f*(tau(t) - tau_left)``.  Doppler is the analytic
derivative of the interpolated polyline length, never a finite difference
of outputs.  Interpolation runs once per bracket (the interval between two
keyframes): :func:`interpolate_bracket` stacks the bracket's matched paths
of each vertex count into one (paths, times, vertices, 3) array and
evaluates all of its snapshot times at once.  Paths present on only one
side of an interval are ramped in or out over half the interval
(``RAMP_FRACTION``), from a seeded random activation time chosen so the
linear ramp finishes inside the interval; during a ramp the geometry is held
frozen from the keyframe where the path exists, so the held path has zero
Doppler.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .em import C0, CarrierConfig
from .rays import TAG_SPECULAR, RayPath
from .scatter import LEG_POLICIES, ScatterEngine
from .scene import Scene
from .specular import SpecularTracer, TraceLimits

_T_EPS = 1e-9

#: share of a keyframe interval that a birth or death ramp takes
RAMP_FRACTION = 0.5

SCATTER_MODES = ("off", "exact", "interpolated")


# ----------------------------------------------------------------------
# trajectory
# ----------------------------------------------------------------------
@dataclass
class Trajectory:
    """Piecewise-linear receiver track followed at one constant speed.

    waypoints : (M, 3) polyline, M >= 2
    speed : m/s, positive
    duration : seconds simulated; defaults to the full traversal time and
        may be shorter (the tail of the polyline is then unused)
    """

    waypoints: np.ndarray
    speed: float
    duration: float | None = None

    def __post_init__(self):
        pts = np.asarray(self.waypoints, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise ValueError("waypoints must be an (M, 3) array with M >= 2")
        seg = np.diff(pts, axis=0)
        seg_len = np.linalg.norm(seg, axis=1)
        if np.any(seg_len <= 0.0):
            raise ValueError("duplicate consecutive waypoints")
        speed = float(self.speed)
        if not speed > 0.0:
            raise ValueError("speed must be positive")
        seg_time = seg_len / speed
        cum_time = np.concatenate([[0.0], np.cumsum(seg_time)])
        total = float(cum_time[-1])
        if self.duration is None:
            self.duration = total
        dur = float(self.duration)
        if dur <= 0.0:
            raise ValueError("duration must be positive")
        if dur > total + _T_EPS:
            raise ValueError(
                f"duration {dur} s exceeds the {total:.6f} s needed to traverse the polyline"
            )
        self.waypoints = pts
        self.speed = speed
        self._seg_unit = seg / seg_len[:, None]
        self._cum_time = cum_time

    def _segment(self, t: float) -> int:
        if t < -_T_EPS or t > self.duration + _T_EPS:
            raise ValueError(f"time {t} outside [0, {self.duration}]")
        idx = int(np.searchsorted(self._cum_time, t, side="right")) - 1
        return min(max(idx, 0), len(self._seg_unit) - 1)

    def position(self, t: float) -> np.ndarray:
        idx = self._segment(t)
        local = (t - self._cum_time[idx]) * self.speed
        return self.waypoints[idx] + self._seg_unit[idx] * local

    def velocity(self, t: float) -> np.ndarray:
        """Velocity vector; right-continuous at waypoint corners."""
        idx = self._segment(t)
        return self._seg_unit[idx] * self.speed


# ----------------------------------------------------------------------
# snapshots and keyframes
# ----------------------------------------------------------------------
@dataclass
class ChannelSnapshot:
    """Full path set at one update instant.

    A keyframe is the snapshot of an exact solve (``at_keyframe``); the
    stream reuses its path set with the Doppler shifts filled in.
    """

    index: int
    timestamp: float
    rx_position: np.ndarray
    paths: list
    at_keyframe: bool


def _solve_keyframes(
    tracer: SpecularTracer,
    traj: Trajectory,
    tx: np.ndarray,
    steps: list[int],
    update_step: float,
    limits: TraceLimits,
    engine: ScatterEngine | None,
) -> list[ChannelSnapshot]:
    keyframes = []
    for i in steps:
        t = i * update_step
        rx = traj.position(t)
        paths = tracer.trace(tx, rx, limits)
        if engine is not None:
            paths = paths + engine.paths(tx, rx)
        keyframes.append(
            ChannelSnapshot(index=i, timestamp=t, rx_position=rx, paths=paths, at_keyframe=True)
        )
    return keyframes


# ----------------------------------------------------------------------
# tracking
# ----------------------------------------------------------------------
def match_paths(kf_a: ChannelSnapshot, kf_b: ChannelSnapshot):
    """Pair paths of two keyframes by signature.

    Returns ``(matched, births, deaths)``: matched is a list of ``(path_a,
    path_b)`` pairs in the order of ``kf_a``; births are paths present only
    in ``kf_b``, in its order; deaths only in ``kf_a``.  Paths that share a
    signature pair up in order, so a surplus on the right side is born.
    """
    by_sig: dict[str, list] = {}
    for p in kf_b.paths:
        by_sig.setdefault(p.signature, []).append(p)
    matched = []
    deaths = []
    for p in kf_a.paths:
        bucket = by_sig.get(p.signature)
        if bucket:
            matched.append((p, bucket.pop(0)))
        else:
            deaths.append(p)
    unmatched = {id(p) for bucket in by_sig.values() for p in bucket}
    births = [p for p in kf_b.paths if id(p) in unmatched]
    return matched, births, deaths


@dataclass
class TrackedPath:
    """A path followed across one keyframe interval.

    kind is ``matched`` (present at both ends), ``birth`` (right end only)
    or ``death`` (left end only).  Births and deaths carry an activation
    time and a ramp duration chosen by :func:`apply_birth_death`.
    """

    signature: str
    kind: str
    t_a: float
    t_b: float
    path_a: RayPath | None = None
    path_b: RayPath | None = None
    activation: float | None = None
    ramp_duration: float = 0.0


def apply_birth_death(
    births: list,
    deaths: list,
    t_a: float,
    t_b: float,
    rng: np.random.Generator,
) -> list[TrackedPath]:
    """Schedule ramps for paths that appear or disappear in ``[t_a, t_b]``.

    Each ramp takes ``RAMP_FRACTION`` of the interval.  Activation times are
    drawn uniformly from the sub-interval that lets the linear ramp finish
    before the right keyframe, so snapshots that land on keyframes never see
    a partially ramped path.  Births ramp 0 -> 1 starting at the activation;
    deaths hold full amplitude and ramp 1 -> 0 from it.  Draw order is
    deterministic: births sorted by signature, then deaths.
    """
    interval = t_b - t_a
    ramp = RAMP_FRACTION * interval
    window = interval - ramp
    out: list[TrackedPath] = []
    for p in sorted(births, key=lambda q: q.signature):
        act = t_a + float(rng.random()) * window
        out.append(
            TrackedPath(
                signature=p.signature,
                kind="birth",
                t_a=t_a,
                t_b=t_b,
                path_b=p,
                activation=act,
                ramp_duration=ramp,
            )
        )
    for p in sorted(deaths, key=lambda q: q.signature):
        act = t_a + float(rng.random()) * window
        out.append(
            TrackedPath(
                signature=p.signature,
                kind="death",
                t_a=t_a,
                t_b=t_b,
                path_a=p,
                activation=act,
                ramp_duration=ramp,
            )
        )
    return out


def track_interval(
    kf_a: ChannelSnapshot,
    kf_b: ChannelSnapshot,
    rng: np.random.Generator,
) -> list[TrackedPath]:
    """Paths tracked across the interval from ``kf_a`` to ``kf_b``.

    Matched pairs come first, in the order of ``kf_a``, followed by the
    births and deaths scheduled by :func:`apply_birth_death`.
    """
    matched, births, deaths = match_paths(kf_a, kf_b)
    tracks = [
        TrackedPath(
            signature=pa.signature,
            kind="matched",
            t_a=kf_a.timestamp,
            t_b=kf_b.timestamp,
            path_a=pa,
            path_b=pb,
        )
        for pa, pb in matched
    ]
    tracks.extend(
        apply_birth_death(births, deaths, kf_a.timestamp, kf_b.timestamp, rng)
    )
    return tracks


# ----------------------------------------------------------------------
# interpolation
# ----------------------------------------------------------------------
def _held_path(source: RayPath, factor: float) -> RayPath:
    return replace(source, transfer=source.transfer * factor, doppler_hz=0.0)


def _held_factor(tracked: TrackedPath, t: float) -> float | None:
    """Ramp factor of a birth or death at time ``t``, or ``None`` while a
    birth has not activated / after a death has completed."""
    act = tracked.activation
    ramp = tracked.ramp_duration
    if tracked.kind == "birth":
        if t <= act:
            return None
        if ramp > 0.0 and t < act + ramp:
            return (t - act) / ramp
        return 1.0
    if t < act:
        return 1.0
    if ramp > 0.0 and t < act + ramp:
        return 1.0 - (t - act) / ramp
    return None


def _interpolate_matched(
    tracks: list[TrackedPath],
    times: np.ndarray,
    rx_positions: np.ndarray,
    rx_velocities: np.ndarray,
    carrier: CarrierConfig,
) -> list[RayPath]:
    """Rows of M matched tracks with one vertex count at S times, track-major
    (row ``m * S + s`` is track m at time s)."""
    pa = [tr.path_a for tr in tracks]
    pb = [tr.path_b for tr in tracks]
    t_a = tracks[0].t_a
    span = tracks[0].t_b - t_a
    alpha = ((times - t_a) / span)[None, :, None, None]
    va = np.stack([p.vertices for p in pa])[:, None]  # (M, 1, n, 3)
    vb = np.stack([p.vertices for p in pb])[:, None]
    verts = va + alpha * (vb - va)  # (M, S, n, 3)
    verts[:, :, -1] = rx_positions
    seg = np.diff(verts, axis=-2)
    seg_len = np.linalg.norm(seg, axis=-1)
    lengths = np.sum(seg_len, axis=-1)  # (M, S)

    # analytic Doppler: per-vertex velocities are zero at the transmitter,
    # the keyframe difference quotient at interior vertices, and the true
    # trajectory velocity at the receiver
    vel = np.zeros_like(verts)
    vel[:, :, 1:-1] = (vb[:, :, 1:-1] - va[:, :, 1:-1]) / span
    vel[:, :, -1] = rx_velocities
    with np.errstate(invalid="ignore"):
        units = seg / seg_len[..., None]
    rate = np.sum(np.einsum("...ij,...ij->...i", units, np.diff(vel, axis=-2)), axis=-1)
    doppler = -carrier.frequency_hz * rate / C0

    ta = np.stack([p.transfer for p in pa])[:, None]  # (M, 1, 2, 2)
    tb = np.stack([p.transfer for p in pb])[:, None]
    delay_a = np.array([p.delay_s for p in pa])[:, None]
    mag = (1.0 - alpha) * np.abs(ta) + alpha * np.abs(tb)
    dtau = (lengths / C0 - delay_a)[..., None, None]
    phase = np.angle(ta) - 2.0 * math.pi * carrier.frequency_hz * dtau
    transfer = mag * np.exp(1j * phase)

    n_times = len(times)
    n_verts = verts.shape[-2]
    return RayPath.batch(
        [p.interactions for p in pa for _ in range(n_times)],
        verts.reshape(-1, n_verts, 3),
        lengths.reshape(-1),
        transfer.reshape(-1, 2, 2),
        [p.tag for p in pa for _ in range(n_times)],
        doppler.reshape(-1).tolist(),
    )


def interpolate_bracket(
    tracks: list[TrackedPath],
    times,
    rx_positions,
    rx_velocities,
    carrier: CarrierConfig,
) -> list[list[RayPath]]:
    """Path sets at every one of ``times`` inside one tracked bracket.

    ``tracks`` come from :func:`track_interval` and share its interval;
    ``rx_positions`` and ``rx_velocities`` are the trajectory at the S
    ``times``.  Entry s of the result holds the paths alive at ``times[s]``
    in track order: births before activation and deaths after their ramp
    are left out.  Matched tracks with equal vertex counts are evaluated as
    one array batch over all times.
    """
    times = np.asarray(times, dtype=float)
    if not tracks or not len(times):
        return [[] for _ in times]
    t_a, t_b = tracks[0].t_a, tracks[0].t_b
    outside = (times < t_a - _T_EPS) | (times > t_b + _T_EPS)
    if outside.any():
        raise ValueError(
            f"time {times[outside][0]} outside tracked interval [{t_a}, {t_b}]"
        )
    rows: list[list] = [[None] * len(tracks) for _ in times]

    groups: dict[int, list[int]] = {}
    for k, tracked in enumerate(tracks):
        if tracked.kind == "matched":
            n_a = tracked.path_a.vertices.shape[0]
            n_b = tracked.path_b.vertices.shape[0]
            if n_a != n_b:
                raise ValueError(
                    f"matched paths {tracked.signature!r} have {n_a} and "
                    f"{n_b} vertices; cannot interpolate"
                )
            groups.setdefault(n_a, []).append(k)
            continue
        source = tracked.path_b if tracked.kind == "birth" else tracked.path_a
        for row, t in zip(rows, times.tolist()):
            factor = _held_factor(tracked, t)
            if factor is not None:
                row[k] = _held_path(source, factor)

    rx_positions = np.asarray(rx_positions, dtype=float)
    rx_velocities = np.asarray(rx_velocities, dtype=float)
    n_times = len(times)
    for ks in groups.values():
        paths = _interpolate_matched(
            [tracks[k] for k in ks], times, rx_positions, rx_velocities, carrier
        )
        for m, k in enumerate(ks):
            for s in range(n_times):
                rows[s][k] = paths[m * n_times + s]
    return [[p for p in row if p is not None] for row in rows]


def _radial_doppler(path: RayPath, rx_velocity: np.ndarray, carrier: CarrierConfig) -> float:
    """Doppler of an exactly traced path from the last-segment radial rate.

    Specular reflection and edge-diffraction vertices sit at stationary
    points of the path length, so the length derivative reduces to the
    radial rate of the receiver segment alone.
    """
    u = path.vertices[-1] - path.vertices[-2]
    n = float(np.linalg.norm(u))
    if n <= 0.0:
        return 0.0
    return -carrier.frequency_hz * float(np.dot(u, rx_velocity)) / (n * C0)


# ----------------------------------------------------------------------
# streaming
# ----------------------------------------------------------------------
@dataclass
class StreamResult:
    """Snapshot stream plus bookkeeping for cost/accuracy studies."""

    snapshots: list
    rt_invocations: int
    keyframe_seconds: float = 0.0
    interpolation_seconds: float = 0.0
    scatter_seconds: float = 0.0


def _path_sort_key(p: RayPath):
    return (p.tag != TAG_SPECULAR, len(p.interactions), p.signature)


def stream_snapshots(
    scene: Scene,
    traj: Trajectory,
    tx_position,
    carrier: CarrierConfig,
    update_step: float,
    kf_interval: float,
    limits: TraceLimits | None = None,
    *,
    scatter_mode: str = "exact",
    leg_policy: str = "direct-only",
    seed: int = 0,
    start_step: int = 0,
) -> StreamResult:
    """Snapshot stream at ``update_step`` resolution from keyframe solves at
    ``kf_interval`` resolution.

    ``scatter_mode``: ``"exact"`` recomputes scatterer contributions at every
    snapshot (default), ``"interpolated"`` tracks them through keyframes like
    specular paths, ``"off"`` drops them.

    ``start_step`` starts the stream at snapshot index ``start_step`` (time
    ``start_step * update_step``) instead of 0, keeping the same absolute
    step clock; keyframes are anchored at the window start.
    """
    if scatter_mode not in SCATTER_MODES:
        raise ValueError(f"unknown scatter_mode {scatter_mode!r}; expected one of {SCATTER_MODES}")
    if leg_policy not in LEG_POLICIES:
        raise ValueError(f"unknown leg policy {leg_policy!r}; expected one of {LEG_POLICIES}")
    if update_step <= 0.0:
        raise ValueError("update_step must be positive")
    if kf_interval < update_step - _T_EPS:
        raise ValueError("kf_interval must be >= update_step")
    stride = max(1, int(round(kf_interval / update_step)))
    if abs(stride * update_step - kf_interval) > 1e-9:
        raise ValueError(
            f"kf_interval {kf_interval} must be an integer multiple of update_step {update_step}"
        )
    n_steps = int(round(traj.duration / update_step))
    if abs(n_steps * update_step - traj.duration) > 1e-6:
        raise ValueError(
            f"duration {traj.duration} must be an integer multiple of update_step {update_step}"
        )
    if not isinstance(start_step, int) or isinstance(start_step, bool) or start_step < 0:
        raise ValueError("start_step must be a non-negative integer")
    if start_step > n_steps:
        raise ValueError(f"start_step {start_step} lies beyond the final step {n_steps}")

    tx = np.asarray(tx_position, dtype=float)
    limits = limits if limits is not None else TraceLimits()

    kf_steps = list(range(start_step, n_steps + 1, stride))
    if kf_steps[-1] != n_steps:
        kf_steps.append(n_steps)

    tracer = SpecularTracer(scene, carrier)
    engine = None
    if scatter_mode != "off" and scene.scatterers:
        engine = ScatterEngine(scene, carrier, leg_policy)
    kf_engine = engine if scatter_mode == "interpolated" else None

    t0 = time.perf_counter()
    keyframes = _solve_keyframes(tracer, traj, tx, kf_steps, update_step, limits, kf_engine)
    keyframe_seconds = time.perf_counter() - t0

    # interior snapshots, one interpolate_bracket call per keyframe interval
    # (only when snapshots fall strictly inside an interval)
    interpolation_seconds = 0.0
    interior: dict[int, tuple] = {}
    if stride > 1:
        t0 = time.perf_counter()
        rng = np.random.default_rng(seed)
        for a, b in zip(keyframes[:-1], keyframes[1:]):
            tracks = track_interval(a, b, rng)
            steps = range(a.index + 1, b.index)
            times = [i * update_step for i in steps]
            rx = [traj.position(t) for t in times]
            v = [traj.velocity(t) for t in times]
            rows = interpolate_bracket(tracks, times, rx, v, carrier)
            interior.update(zip(steps, zip(rx, v, rows)))
        interpolation_seconds += time.perf_counter() - t0

    kf_pos = {s: i for i, s in enumerate(kf_steps)}
    scatter_seconds = 0.0
    snapshots: list[ChannelSnapshot] = []
    for i in range(start_step, n_steps + 1):
        t = i * update_step
        pos = kf_pos.get(i)
        if pos is not None:
            kf = keyframes[pos]
            rx = kf.rx_position
            v = traj.velocity(t)
            paths = [replace(p, doppler_hz=_radial_doppler(p, v, carrier)) for p in kf.paths]
            at_kf = True
        else:
            rx, v, paths = interior.pop(i)
            at_kf = False
        if engine is not None and scatter_mode == "exact":
            t0 = time.perf_counter()
            sp = engine.paths(tx, rx)
            paths.extend(replace(p, doppler_hz=_radial_doppler(p, v, carrier)) for p in sp)
            scatter_seconds += time.perf_counter() - t0
        paths.sort(key=_path_sort_key)
        snapshots.append(
            ChannelSnapshot(index=i, timestamp=t, rx_position=rx, paths=paths, at_keyframe=at_kf)
        )

    return StreamResult(
        snapshots=snapshots,
        rt_invocations=len(kf_steps),
        keyframe_seconds=keyframe_seconds,
        interpolation_seconds=interpolation_seconds,
        scatter_seconds=scatter_seconds,
    )
