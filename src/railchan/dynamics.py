"""Time axis: receiver trajectory, step clock, tracking, interpolation.

The receiver follows a polyline track at one constant speed.  The stream
works on an integer step clock: snapshots live at ``i * update_step``.
:func:`whole_steps` is the one rule that turns seconds into steps, and a
:class:`StepSchedule` is the one place that decides which steps a stream
visits: every step from its start to its stop, and keyframes at every
``stride``-th step (``stride = kf_interval / update_step``) plus the final
step.  A snapshot that lands on a keyframe step reuses the keyframe path set
directly, so keyframe timestamps are reproduced bit-for-bit by construction
rather than through an interpolation that happens to hit the endpoints.

The unit of tracking is the :class:`Bracket`, the interval between two
keyframes.  :func:`track_interval` builds it: paths matched by signature
at both ends, and paths present on only one side (births and deaths), each
with a seeded random activation time chosen so its linear ramp, half the
interval long (``RAMP_FRACTION``), finishes inside the interval.

:func:`interpolate_bracket` evaluates one bracket at all of its snapshot
times at once.  Matched paths of each vertex count are stacked into one
(paths, times, vertices, 3) array: interior vertices move linearly, the
receiver vertex follows the exact trajectory, the delay is recomputed from
the interpolated polyline, per-entry transfer magnitudes are blended
linearly, and the phase advances from the left keyframe by
``-2*pi*f*(tau(t) - tau_left)``.  Doppler is the analytic derivative of the
interpolated polyline length, never a finite difference of outputs.  A
birth or death keeps the geometry of the keyframe where it exists, with
zero Doppler and its transfer scaled by the ramp factor.  Each snapshot
gets one :class:`~railchan.rays.PathRows` block, filled straight from the
bracket's arrays in :func:`~railchan.rays.path_order`, sorted once per
bracket, so no per-row object is built and no snapshot is sorted on its
own.

:func:`stream_snapshots` walks the schedule once, bracket by bracket: it
emits the interior snapshots of the bracket a keyframe closes, then the
keyframe snapshot.  One look-ahead solves ``SOLVE_CHUNK`` receivers per call
ahead of the walk: the keyframes (with their echoes under interpolated
scatter) and, under exact scatter, the echoes of every snapshot step, so at
most one chunk of each and the last keyframe walked are held.  A keyframe is
held as its step, receiver and solver list, which tracking reads; its
snapshot is that list's rows with the Doppler filled in.  Echoes follow
every specular row, so the stream sorts only each receiver's echoes, as
they join.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .em import C0, CarrierConfig
from .rays import PathRows, _objects, norms, path_angles, path_order
from .scatter import SCATTER_COUNTERS, ScatterEngine
from .scene import Scene
from .specular import SpecularTracer, TraceLimits

_T_EPS = 1e-9

#: share of a keyframe interval that a birth or death ramp takes
RAMP_FRACTION = 0.5

SCATTER_MODES = ("off", "exact", "interpolated")

#: receivers per solve-ahead call of a stream: consecutive keyframes, or for
#: the exact scatter engine consecutive snapshot steps
SOLVE_CHUNK = 32


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

    ``paths`` is the snapshot's :class:`~railchan.rays.PathRows` block, in
    :func:`~railchan.rays.path_order`; ``at_keyframe`` marks the snapshot of
    an exact solve.
    """

    index: int
    timestamp: float
    rx_position: np.ndarray
    paths: PathRows
    at_keyframe: bool


def whole_steps(seconds: float, update_step: float) -> int | None:
    """``seconds`` as a number of ``update_step`` steps, or None when it is
    not a whole number of them.

    The one seconds-to-steps rule: the ratio must lie within 1e-9 of a
    non-negative integer, relative to the ratio once it exceeds 1.  A window
    start may be 0 steps; a caller that needs at least one step tests the
    result for truth.
    """
    ratio = seconds / update_step
    steps = round(ratio)
    if steps < 0 or abs(ratio - steps) > 1e-9 * max(1.0, abs(ratio)):
        return None
    return steps


class StepSchedule:
    """The steps a stream visits on the clock ``t = i * update_step``.

    ``snapshots`` runs from ``start_step`` to the step of ``stop_s``;
    ``keyframes``, the steps solved exactly, are every ``stride``-th of them
    from ``start_step`` (``stride`` is ``kf_interval`` in steps), plus the
    final step.  ValueError unless ``kf_interval`` and ``stop_s`` are whole
    numbers of steps (:func:`whole_steps`), ``kf_interval`` at least one,
    and ``start_step`` a non-negative integer no later than the stop.
    """

    def __init__(self, update_step: float, kf_interval: float, start_step: int, stop_s: float):
        if not update_step > 0.0:
            raise ValueError("update_step must be positive")
        stride = whole_steps(kf_interval, update_step)
        if not stride:
            raise ValueError(
                f"kf_interval {kf_interval} must be a positive whole number of update steps ({update_step} s)"
            )
        stop = whole_steps(stop_s, update_step)
        if stop is None:
            raise ValueError(f"duration {stop_s} must be a whole number of update steps ({update_step} s)")
        if not isinstance(start_step, int) or isinstance(start_step, bool) or start_step < 0:
            raise ValueError("start_step must be a non-negative integer")
        if start_step > stop:
            raise ValueError(f"start_step {start_step} lies beyond the final step {stop}")
        self.update_step = update_step
        self.stride = stride
        self.snapshots = range(start_step, stop + 1)
        self.keyframes = list(self.snapshots[::stride])
        if self.keyframes[-1] != stop:
            self.keyframes.append(stop)

    def seconds(self, steps) -> list[float]:
        """The times of ``steps``."""
        return [i * self.update_step for i in steps]


# ----------------------------------------------------------------------
# tracking
# ----------------------------------------------------------------------
def match_paths(paths_a: list, paths_b: list):
    """Pair the solved paths of two keyframes by signature.

    Returns ``(matched, births, deaths)``: matched is a list of ``(path_a,
    path_b)`` pairs in the order of ``paths_a``; births are paths present
    only in ``paths_b``, in its order; deaths only in ``paths_a``.  Paths
    that share a signature pair up in order, so a surplus on the right side
    is born.
    """
    by_sig: dict[str, list] = {}
    for p in paths_b:
        by_sig.setdefault(p.signature, []).append(p)
    matched = []
    deaths = []
    for p in paths_a:
        bucket = by_sig.get(p.signature)
        if bucket:
            matched.append((p, bucket.pop(0)))
        else:
            deaths.append(p)
    unmatched = {id(p) for bucket in by_sig.values() for p in bucket}
    births = [p for p in paths_b if id(p) in unmatched]
    return matched, births, deaths


@dataclass
class Bracket:
    """Paths tracked across one keyframe interval ``[t_a, t_b]``.

    ``matched`` holds ``(path_a, path_b)`` pairs present at both ends, in the
    order of the left keyframe.  ``births`` (right end only) and ``deaths``
    (left end only) hold ``(path, activation)`` pairs scheduled by
    :func:`apply_birth_death`, each sorted by signature.
    """

    t_a: float
    t_b: float
    matched: list
    births: list
    deaths: list


def _ramp_length(t_a: float, t_b: float) -> float:
    return RAMP_FRACTION * (t_b - t_a)


def apply_birth_death(
    births: list,
    deaths: list,
    t_a: float,
    t_b: float,
    rng: np.random.Generator,
) -> tuple[list, list]:
    """Schedule ramps for paths that appear or disappear in ``[t_a, t_b]``.

    Each ramp takes ``RAMP_FRACTION`` of the interval.  Activation times are
    drawn uniformly from the sub-interval that lets the linear ramp finish
    before the right keyframe, so snapshots that land on keyframes never see
    a partially ramped path.  Births ramp 0 -> 1 starting at the activation;
    deaths hold full amplitude and ramp 1 -> 0 from it.  Returns the
    ``(path, activation)`` lists of births and deaths.  Draw order is
    deterministic: births sorted by signature, then deaths.
    """
    window = (t_b - t_a) - _ramp_length(t_a, t_b)

    def schedule(paths):
        return [
            (p, t_a + float(rng.random()) * window)
            for p in sorted(paths, key=lambda q: q.signature)
        ]

    return schedule(births), schedule(deaths)


def track_interval(
    t_a: float,
    paths_a: list,
    t_b: float,
    paths_b: list,
    rng: np.random.Generator,
) -> Bracket:
    """The bracket from the keyframe solved as ``paths_a`` at ``t_a`` to the
    one solved as ``paths_b`` at ``t_b``: :func:`match_paths` pairs, with the
    births and deaths scheduled by :func:`apply_birth_death`."""
    matched, births, deaths = match_paths(paths_a, paths_b)
    births, deaths = apply_birth_death(births, deaths, t_a, t_b, rng)
    return Bracket(t_a, t_b, matched, births, deaths)


# ----------------------------------------------------------------------
# interpolation
# ----------------------------------------------------------------------
def _interpolate_matched(
    pairs: list,
    t_a: float,
    t_b: float,
    times: np.ndarray,
    rx_positions: np.ndarray,
    rx_velocities: np.ndarray,
    carrier: CarrierConfig,
) -> tuple:
    """``(delay, aod, aoa, doppler, transfer)`` of M matched pairs with one
    vertex count at S times, shaped (M, S), (M, S, 2), (M, S, 2), (M, S)
    and (M, S, 2, 2)."""
    pa, pb = zip(*pairs)
    span = t_b - t_a
    alpha = ((times - t_a) / span)[None, :, None, None]
    va = np.stack([p.vertices for p in pa])[:, None]  # (M, 1, n, 3)
    vb = np.stack([p.vertices for p in pb])[:, None]
    verts = va + alpha * (vb - va)  # (M, S, n, 3)
    verts[:, :, -1] = rx_positions
    seg = np.diff(verts, axis=-2)
    seg_len = norms(seg)
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

    # (M, S, departure/arrival, azimuth/elevation)
    angles = np.stack(path_angles(verts), axis=-1)
    return lengths / C0, angles[:, :, 0], angles[:, :, 1], doppler, transfer


def interpolate_bracket(
    bracket: Bracket,
    times,
    rx_positions,
    rx_velocities,
    carrier: CarrierConfig,
) -> list[PathRows]:
    """Path rows at every one of ``times`` inside ``bracket``.

    ``rx_positions`` and ``rx_velocities`` are the trajectory at the S
    ``times``.  Entry s of the result holds the rows alive at ``times[s]``
    in one order for the whole bracket: the bracket's paths (the matched
    pairs, then the births, then the deaths) sorted stably by
    :func:`~railchan.rays.path_order`, which is the order a stable sort of each
    snapshot's own rows gives.  Matched pairs with equal vertex counts are
    evaluated as one array batch over all times, and a row carries its
    left path's interactions, signature and tag.  A birth or death keeps its
    keyframe delay and angles with zero Doppler and its transfer scaled by
    the ramp factor; births are left out until their activation and deaths
    after their ramp.  No row keeps vertices.
    """
    t_a, t_b = bracket.t_a, bracket.t_b
    times = np.asarray(times, dtype=float)
    outside = (times < t_a - _T_EPS) | (times > t_b + _T_EPS)
    if outside.any():
        raise ValueError(
            f"time {times[outside][0]} outside tracked interval [{t_a}, {t_b}]"
        )
    n_times = len(times)
    if not n_times:
        return []
    held = bracket.births + bracket.deaths
    sources = [pa for pa, _ in bracket.matched] + [path for path, _ in held]
    n_rows = len(sources)
    # time-major columns of every row of the bracket, alive or not
    delay = np.empty((n_times, n_rows))
    aod = np.empty((n_times, n_rows, 2))
    aoa = np.empty((n_times, n_rows, 2))
    doppler = np.zeros((n_times, n_rows))
    transfer = np.empty((n_times, n_rows, 2, 2), dtype=complex)
    alive = np.ones((n_times, n_rows), dtype=bool)

    groups: dict[int, list[int]] = {}
    for k, (pa, pb) in enumerate(bracket.matched):
        n_a, n_b = len(pa.vertices), len(pb.vertices)
        if n_a != n_b:
            raise ValueError(
                f"matched paths {pa.signature!r} have {n_a} and {n_b} vertices; "
                "cannot interpolate"
            )
        groups.setdefault(n_a, []).append(k)
    rx_positions = np.asarray(rx_positions, dtype=float)
    rx_velocities = np.asarray(rx_velocities, dtype=float)
    for ks in groups.values():
        columns = _interpolate_matched(
            [bracket.matched[k] for k in ks], t_a, t_b, times, rx_positions, rx_velocities, carrier
        )
        for out, col in zip((delay, aod, aoa, doppler, transfer), columns):
            out[:, ks] = col.swapaxes(0, 1)

    # births and deaths: (alive, ramp factor) over all times
    ramp = _ramp_length(t_a, t_b)
    ramps = [
        (times > act, np.where(times < act + ramp, (times - act) / ramp, 1.0)) for _, act in bracket.births
    ] + [
        (times < act + ramp, np.where(times < act, 1.0, 1.0 - (times - act) / ramp)) for _, act in bracket.deaths
    ]
    for k, ((path, _), (on, factor)) in enumerate(zip(held, ramps), start=len(bracket.matched)):
        alive[:, k] = on
        delay[:, k] = path.delay_s
        aod[:, k] = path.aod
        aoa[:, k] = path.aoa
        transfer[:, k] = path.transfer * factor[:, None, None]

    order = sorted(range(n_rows), key=lambda k: path_order(sources[k]))
    ordered = [sources[k] for k in order]
    records = [_objects([getattr(p, name) for p in ordered]) for name in ("interactions", "signature", "tag")]
    columns = [x[:, order] for x in (delay, aod, aoa, doppler, transfer)]
    return [
        PathRows(*(r[keep] for r in records), *(x[s, keep] for x in columns))
        for s, keep in enumerate(alive[:, order])
    ]


# ----------------------------------------------------------------------
# streaming
# ----------------------------------------------------------------------
@dataclass
class StreamResult:
    """Snapshot stream plus bookkeeping for cost/accuracy studies.

    ``counters`` holds the stream's deterministic work counts, apart from
    the ``*_seconds`` timings: the specular tracer's per-family candidates
    generated, left clear and kept, the segments of each occlusion round
    (see :class:`~railchan.specular.SpecularTracer`), the exact solves,
    the ``matched`` pairs, ``births`` and ``deaths`` of all its brackets,
    its path ``rows`` over all snapshots, and under ``scatter`` the scatter
    engine's counters (see :class:`~railchan.scatter.ScatterEngine`; all 0
    when no engine ran).
    """

    snapshots: list
    rt_invocations: int
    counters: dict
    keyframe_seconds: float = 0.0
    interpolation_seconds: float = 0.0
    scatter_seconds: float = 0.0


def _fill_doppler(paths: list, rx_velocity: np.ndarray, carrier: CarrierConfig) -> list:
    """Fill in, in place, the Doppler of exactly traced paths from the radial
    rate of their last segment, and return them.

    Specular reflection and edge-diffraction vertices sit at stationary
    points of the path length, so the length derivative reduces to the
    radial rate of the receiver segment alone.  One array pass: ``vecdot``
    calls the dot kernel of a one-vector ``np.linalg.norm`` and ``np.dot``,
    so each path gets the bits a path-by-path evaluation gives.
    """
    if not paths:
        return paths
    u = np.array([p.vertices[-1] for p in paths]) - np.array([p.vertices[-2] for p in paths])
    n = np.sqrt(np.vecdot(u, u))
    with np.errstate(divide="ignore", invalid="ignore"):
        doppler = np.where(n > 0.0, -carrier.frequency_hz * np.vecdot(u, rx_velocity) / (n * C0), 0.0)
    for p, d in zip(paths, doppler.tolist()):
        p.doppler_hz = d
    return paths


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
    seed: int = 0,
    start_step: int = 0,
) -> StreamResult:
    """Snapshot stream at ``update_step`` resolution from keyframe solves at
    ``kf_interval`` resolution.

    ``scatter_mode``: ``"exact"`` recomputes scatterer contributions at every
    snapshot (default), one engine call per ``SOLVE_CHUNK`` consecutive
    steps; ``"interpolated"`` tracks them through keyframes like specular
    paths, one engine call per ``SOLVE_CHUNK`` keyframes; ``"off"`` drops
    them.

    ``start_step`` starts the stream at snapshot index ``start_step`` (time
    ``start_step * update_step``) instead of 0, keeping the same absolute
    step clock; keyframes are anchored at the window start.
    """
    if scatter_mode not in SCATTER_MODES:
        raise ValueError(f"unknown scatter_mode {scatter_mode!r}; expected one of {SCATTER_MODES}")
    schedule = StepSchedule(update_step, kf_interval, start_step, traj.duration)
    seconds = dict.fromkeys(("keyframe", "interpolation", "scatter"), 0.0)

    # each build counts to the stage whose solves read its tables
    t0 = time.perf_counter()
    tracer = SpecularTracer(scene, carrier, tx_position)
    seconds["keyframe"] += time.perf_counter() - t0
    engine = None
    if scatter_mode != "off" and scene.scatterers:
        t0 = time.perf_counter()
        engine = ScatterEngine(scene, carrier, tx_position)
        seconds["scatter" if scatter_mode == "exact" else "keyframe"] += time.perf_counter() - t0

    def solved(steps, solve, stage):
        """``(step, receiver, result)`` for each of ``steps`` in order, with
        ``solve`` called on the receivers of ``SOLVE_CHUNK`` steps at a time
        and timed to ``stage``."""
        for first in range(0, len(steps), SOLVE_CHUNK):
            t0 = time.perf_counter()
            chunk = steps[first : first + SOLVE_CHUNK]
            rx = np.array([traj.position(t) for t in schedule.seconds(chunk)])
            found = solve(rx)
            seconds[stage] += time.perf_counter() - t0
            yield from zip(chunk, rx, found)

    def solve_keyframes(rx):
        """The tracer's lists, each followed by its sorted echoes under interpolated scatter."""
        lists = tracer.trace(rx, limits)
        if scatter_mode == "interpolated" and engine is not None:
            for paths, found in zip(lists, engine.paths(rx)):
                paths += sorted(found, key=path_order)
        return lists

    echoes = None
    if scatter_mode == "exact" and engine is not None:
        echoes = solved(schedule.snapshots, engine.paths, "scatter")
    snapshots: list[ChannelSnapshot] = []
    counts = dict.fromkeys(("matched", "births", "deaths", "rows"), 0)

    def emit(i, rx, v, rows, at_kf):
        """Append the snapshot of step ``i`` from its ``rows``; under exact
        scatter its echoes, all scatter-tagged, follow every specular row,
        so they join sorted as a tail."""
        if echoes is not None:
            step, _, found = next(echoes)
            assert step == i, f"echoes of step {step} reached step {i}"
            t0 = time.perf_counter()
            tail = sorted(_fill_doppler(found, v, carrier), key=path_order)
            rows = rows.concat(PathRows.from_paths(tail))
            seconds["scatter"] += time.perf_counter() - t0
        counts["rows"] += len(rows)
        snapshots.append(
            ChannelSnapshot(index=i, timestamp=i * update_step, rx_position=rx, paths=rows, at_keyframe=at_kf)
        )

    # the look-ahead yields each keyframe as (step, receiver, solver list);
    # the snapshots strictly inside the bracket it closes (only when the
    # stride leaves room for them) come before it
    rng = np.random.default_rng(seed)
    i_a = paths_a = None
    for i_b, rx_b, paths_b in solved(schedule.keyframes, solve_keyframes, "keyframe"):
        if paths_a is not None and schedule.stride > 1:
            t0 = time.perf_counter()
            steps = range(i_a + 1, i_b)
            times = schedule.seconds(steps)
            rx = [traj.position(t) for t in times]
            v = [traj.velocity(t) for t in times]
            bracket = track_interval(i_a * update_step, paths_a, i_b * update_step, paths_b, rng)
            rows = interpolate_bracket(bracket, times, rx, v, carrier)
            seconds["interpolation"] += time.perf_counter() - t0
            for key in ("matched", "births", "deaths"):
                counts[key] += len(getattr(bracket, key))
            for i, r, vel, block in zip(steps, rx, v, rows):
                emit(i, r, vel, block, False)
        # the keyframe's own paths take their Doppler: tracking reads them in
        # solve order, never their Doppler
        v = traj.velocity(i_b * update_step)
        emit(i_b, rx_b, v, PathRows.from_paths(_fill_doppler(paths_b, v, carrier)), True)
        i_a, paths_a = i_b, paths_b

    return StreamResult(
        snapshots=snapshots,
        rt_invocations=len(schedule.keyframes),
        counters={
            **tracer.counters,
            "exact_solves": len(schedule.keyframes),
            **counts,
            "scatter": dict(engine.counters) if engine is not None else dict.fromkeys(SCATTER_COUNTERS, 0),
        },
        keyframe_seconds=seconds["keyframe"],
        interpolation_seconds=seconds["interpolation"],
        scatter_seconds=seconds["scatter"],
    )
