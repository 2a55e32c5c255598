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
of outputs.  Paths present on only one side of an interval are ramped in or
out over half the interval (``RAMP_FRACTION``), from a seeded random
activation time chosen so the linear ramp finishes inside the interval;
during a ramp the geometry is held frozen from the keyframe where the path
exists, so the held path has zero Doppler.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
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


def interpolate_path(
    tracked: TrackedPath,
    t: float,
    rx_position: np.ndarray,
    rx_velocity: np.ndarray,
    carrier: CarrierConfig,
) -> RayPath | None:
    """Path state at time ``t`` inside the tracked interval, or ``None``
    while a birth has not activated / after a death has completed."""
    if t < tracked.t_a - _T_EPS or t > tracked.t_b + _T_EPS:
        raise ValueError(
            f"time {t} outside tracked interval [{tracked.t_a}, {tracked.t_b}]"
        )
    if tracked.kind == "birth":
        act = tracked.activation
        if t <= act:
            return None
        if tracked.ramp_duration > 0.0 and t < act + tracked.ramp_duration:
            return _held_path(tracked.path_b, (t - act) / tracked.ramp_duration)
        return _held_path(tracked.path_b, 1.0)
    if tracked.kind == "death":
        act = tracked.activation
        if t < act:
            return _held_path(tracked.path_a, 1.0)
        if tracked.ramp_duration > 0.0 and t < act + tracked.ramp_duration:
            return _held_path(tracked.path_a, 1.0 - (t - act) / tracked.ramp_duration)
        return None

    pa, pb = tracked.path_a, tracked.path_b
    span = tracked.t_b - tracked.t_a
    alpha = (t - tracked.t_a) / span
    va = pa.vertices
    vb = pb.vertices
    if va.shape != vb.shape:
        raise ValueError(
            f"matched paths {tracked.signature!r} have {va.shape[0]} and "
            f"{vb.shape[0]} vertices; cannot interpolate"
        )
    verts = va + alpha * (vb - va)
    verts[-1] = rx_position
    seg = np.diff(verts, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    delay = float(np.sum(seg_len)) / C0

    # analytic Doppler: per-vertex velocities are zero at the transmitter,
    # the keyframe difference quotient at interior vertices, and the true
    # trajectory velocity at the receiver
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

    return RayPath.from_polyline(pa.interactions, verts, transfer, pa.tag, doppler)


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

    # tracked path sets per keyframe interval (only needed when snapshots
    # fall strictly inside an interval)
    interpolation_seconds = 0.0
    brackets: list[list[TrackedPath]] = []
    if stride > 1:
        t0 = time.perf_counter()
        rng = np.random.default_rng(seed)
        for a, b in zip(keyframes[:-1], keyframes[1:]):
            brackets.append(track_interval(a, b, rng))
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
            t0 = time.perf_counter()
            j = bisect_right(kf_steps, i) - 1
            rx = traj.position(t)
            v = traj.velocity(t)
            paths = []
            for tracked in brackets[j]:
                p = interpolate_path(tracked, t, rx, v, carrier)
                if p is not None:
                    paths.append(p)
            interpolation_seconds += time.perf_counter() - t0
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
