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
keyframes.  :func:`track_interval` builds it from the two keyframes' solved
:class:`~railchan.rays.PathRows` blocks: the row indices matched by
signature at both ends, and those present on only one side (births and
deaths), each with a seeded random activation time chosen so its linear
ramp, half the interval long (``RAMP_FRACTION``), finishes inside the
interval.

:func:`interpolate_bracket` evaluates one bracket at all of its snapshot
times at once.  Matched paths of each vertex count are stacked into one
(paths, times, vertices, 3) array: interior vertices move linearly, the
receiver vertex follows the exact trajectory, the delay is recomputed from
the interpolated polyline, per-entry transfer magnitudes are blended
linearly, and the phase advances from the left keyframe by
``-2*pi*f*(tau(t) - tau_left)``.  Doppler is the analytic derivative of the
interpolated polyline length, never a finite difference of outputs.  A
birth or death keeps the geometry of the keyframe where it exists, with
zero Doppler and its transfer scaled by the ramp factor.  The bracket's
rows are gathered by index from the keyframe blocks and ordered once by
:func:`~railchan.rays.path_order`, and each snapshot gets one block filled
straight from the bracket's arrays, so no per-row object is built and no
snapshot is sorted on its own.

:func:`stream_snapshots` walks the schedule once, bracket by bracket: it
emits the interior snapshots of the bracket a keyframe closes, then the
keyframe snapshot.  One look-ahead solves ``SOLVE_CHUNK`` receivers per call
ahead of the walk: the keyframes (with their echoes under interpolated
scatter) and, under exact scatter, the echoes of every snapshot step, so at
most one chunk of each and the last keyframe walked are held.  A keyframe is
held as its step and solved block, which tracking reads; its snapshot is
that block's rows with the Doppler filled in and the polylines dropped.
The tracer and the engine return their blocks in row order, and echoes
follow every specular row, so a keyframe's echoes and each exact echo set
join as a tail and nothing is sorted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .em import C0, CarrierConfig
from .rays import PathRows, norms, path_angles, path_order
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

    def _segment(self, t: np.ndarray) -> np.ndarray:
        """The polyline segment of each time of ``t``; a ValueError naming
        the first time outside the track."""
        outside = (t < -_T_EPS) | (t > self.duration + _T_EPS)
        if outside.any():
            raise ValueError(f"time {t[outside].flat[0]} outside [0, {self.duration}]")
        idx = np.searchsorted(self._cum_time, t, side="right") - 1
        return np.clip(idx, 0, len(self._seg_unit) - 1)

    def position(self, t) -> np.ndarray:
        """The position at time ``t``, (3,), or at each of an array of
        times, (..., 3)."""
        t = np.asarray(t, dtype=float)
        idx = self._segment(t)
        local = (t - self._cum_time[idx]) * self.speed
        return self.waypoints[idx] + self._seg_unit[idx] * local[..., None]

    def velocity(self, t) -> np.ndarray:
        """Velocity vector at time ``t`` or at each of an array of times, as
        :meth:`position`; right-continuous at waypoint corners."""
        idx = self._segment(np.asarray(t, dtype=float))
        return self._seg_unit[idx] * self.speed


# ----------------------------------------------------------------------
# snapshots and keyframes
# ----------------------------------------------------------------------
@dataclass
class ChannelSnapshot:
    """Full path set at one update instant: ``paths`` is the snapshot's
    :class:`~railchan.rays.PathRows` block, in
    :func:`~railchan.rays.path_order`."""

    timestamp: float
    paths: PathRows


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
def match_paths(rows_a: PathRows, rows_b: PathRows):
    """Pair the solved rows of two keyframes by signature.

    Returns ``(matched, births, deaths)``: matched is an (M, 2) array of
    ``(row of rows_a, row of rows_b)`` pairs in the order of ``rows_a``;
    births are the rows present only in ``rows_b``, in its order; deaths
    those only in ``rows_a``.  Rows that share a signature pair up in order,
    so a surplus on the right side is born.
    """
    by_sig: dict[str, list] = {}
    for j, sig in enumerate(rows_b.signature.tolist()):
        by_sig.setdefault(sig, []).append(j)
    matched = []
    deaths = []
    for i, sig in enumerate(rows_a.signature.tolist()):
        bucket = by_sig.get(sig)
        if bucket:
            matched.append((i, bucket.pop(0)))
        else:
            deaths.append(i)
    births = sorted(j for bucket in by_sig.values() for j in bucket)
    return (
        np.array(matched, dtype=np.intp).reshape(-1, 2),
        np.array(births, dtype=np.intp),
        np.array(deaths, dtype=np.intp),
    )


@dataclass
class Bracket:
    """Rows tracked across one keyframe interval ``[t_a, t_b]``.

    ``rows_a`` and ``rows_b`` are the solved blocks of its keyframes, and
    the rest index them: ``matched`` holds the :func:`match_paths` pairs
    present at both ends, ``births`` the rows of ``rows_b`` only and
    ``deaths`` those of ``rows_a`` only, with the activation times
    ``birth_at`` and ``death_at`` that :func:`apply_birth_death` drew.
    """

    t_a: float
    t_b: float
    rows_a: PathRows
    rows_b: PathRows
    matched: np.ndarray
    births: np.ndarray
    deaths: np.ndarray
    birth_at: np.ndarray
    death_at: np.ndarray


def _ramp_length(t_a: float, t_b: float) -> float:
    return RAMP_FRACTION * (t_b - t_a)


def apply_birth_death(
    births,
    deaths,
    t_a: float,
    t_b: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Schedule ramps for paths that appear or disappear in ``[t_a, t_b]``.

    ``births`` and ``deaths`` are the signatures of those paths.  Each ramp
    takes ``RAMP_FRACTION`` of the interval.  Activation times are drawn
    uniformly from the sub-interval that lets the linear ramp finish before
    the right keyframe, so snapshots that land on keyframes never see a
    partially ramped path.  Births ramp 0 -> 1 starting at the activation;
    deaths hold full amplitude and ramp 1 -> 0 from it.  Returns the
    activation of each birth and of each death, in the order given.  Draw
    order is deterministic: births sorted by signature, then deaths.
    """
    window = (t_b - t_a) - _ramp_length(t_a, t_b)

    def schedule(signatures):
        n = len(signatures)
        at = np.empty(n)
        at[sorted(range(n), key=signatures.__getitem__)] = t_a + rng.random(n) * window
        return at

    return schedule(list(births)), schedule(list(deaths))


def track_interval(
    t_a: float,
    rows_a: PathRows,
    t_b: float,
    rows_b: PathRows,
    rng: np.random.Generator,
) -> Bracket:
    """The bracket from the keyframe solved as ``rows_a`` at ``t_a`` to the
    one solved as ``rows_b`` at ``t_b``: :func:`match_paths` pairs, with the
    births and deaths scheduled by :func:`apply_birth_death`."""
    matched, births, deaths = match_paths(rows_a, rows_b)
    birth_at, death_at = apply_birth_death(rows_b.signature[births], rows_a.signature[deaths], t_a, t_b, rng)
    return Bracket(t_a, t_b, rows_a, rows_b, matched, births, deaths, birth_at, death_at)


# ----------------------------------------------------------------------
# interpolation
# ----------------------------------------------------------------------
def _interpolate_matched(
    rows_a: PathRows,
    rows_b: PathRows,
    t_a: float,
    t_b: float,
    times: np.ndarray,
    rx_positions: np.ndarray,
    rx_velocities: np.ndarray,
    carrier: CarrierConfig,
) -> tuple:
    """``(delay, aod, aoa, doppler, transfer)`` of the M matched rows
    ``rows_a`` and ``rows_b``, row for row, with one vertex count at S
    times, shaped (M, S), (M, S, 2), (M, S, 2), (M, S) and (M, S, 2, 2)."""
    span = t_b - t_a
    alpha = ((times - t_a) / span)[None, :, None, None]
    va = np.stack(rows_a.vertices)[:, None]  # (M, 1, n, 3)
    vb = np.stack(rows_b.vertices)[:, None]
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

    ta = rows_a.transfer[:, None]  # (M, 1, 2, 2)
    tb = rows_b.transfer[:, None]
    mag = (1.0 - alpha) * np.abs(ta) + alpha * np.abs(tb)
    dtau = (lengths / C0 - rows_a.delay_s[:, None])[..., None, None]
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
    in one order for the whole bracket: the bracket's rows (the matched
    pairs, then the births, then the deaths) gathered by index from its
    keyframe blocks and put in :func:`~railchan.rays.path_order`, which is
    the order a stable sort of each snapshot's own rows gives.  Matched
    pairs with equal vertex counts are evaluated as one array batch over
    all times, and a row carries its left row's signature and tag.  A
    birth or death keeps its keyframe delay and angles with zero Doppler
    and its transfer scaled by the ramp factor; births are left out until
    their activation and deaths after their ramp.  No row keeps vertices.
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
    rows_a, rows_b = bracket.rows_a, bracket.rows_b
    ia, ib = bracket.matched.T
    # every row of the bracket as its source row: matched rows from the
    # left keyframe, then the births, then the deaths
    sources = rows_a.take(ia).concat(rows_b.take(bracket.births), rows_a.take(bracket.deaths))
    n_matched, n_rows = len(ia), len(sources)
    # time-major columns of every row of the bracket, alive or not
    delay = np.empty((n_times, n_rows))
    aod = np.empty((n_times, n_rows, 2))
    aoa = np.empty((n_times, n_rows, 2))
    doppler = np.zeros((n_times, n_rows))
    transfer = np.empty((n_times, n_rows, 2, 2), dtype=complex)
    alive = np.ones((n_times, n_rows), dtype=bool)

    groups: dict[int, list[int]] = {}
    for k, (va, vb) in enumerate(zip(rows_a.vertices[ia], rows_b.vertices[ib])):
        if len(va) != len(vb):
            raise ValueError(
                f"matched paths {sources.signature[k]!r} have {len(va)} and {len(vb)} vertices; "
                "cannot interpolate"
            )
        groups.setdefault(len(va), []).append(k)
    rx_positions = np.asarray(rx_positions, dtype=float)
    rx_velocities = np.asarray(rx_velocities, dtype=float)
    for ks in groups.values():
        columns = _interpolate_matched(
            rows_a.take(ia[ks]), rows_b.take(ib[ks]), t_a, t_b, times, rx_positions, rx_velocities, carrier
        )
        for out, col in zip((delay, aod, aoa, doppler, transfer), columns):
            out[:, ks] = col.swapaxes(0, 1)

    # births and deaths: (alive, ramp factor) over all times
    ramp = _ramp_length(t_a, t_b)
    ramps = [
        (times > act, np.where(times < act + ramp, (times - act) / ramp, 1.0))
        for act in bracket.birth_at.tolist()
    ] + [
        (times < act + ramp, np.where(times < act, 1.0, 1.0 - (times - act) / ramp))
        for act in bracket.death_at.tolist()
    ]
    held = slice(n_matched, n_rows)
    delay[:, held] = sources.delay_s[held]
    aod[:, held] = sources.aod[held]
    aoa[:, held] = sources.aoa[held]
    for k, (on, factor) in enumerate(ramps, start=n_matched):
        alive[:, k] = on
        transfer[:, k] = sources.transfer[k] * factor[:, None, None]

    order = path_order(sources)
    records = [x[order] for x in (sources.signature, sources.tag)]
    columns = [x[:, order] for x in (delay, aod, aoa, doppler, transfer)]
    return [
        PathRows(*(r[keep] for r in records), *(x[s, keep] for x in columns), np.empty(keep.sum(), dtype=object))
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


def _fill_doppler(rows: PathRows, rx_velocity: np.ndarray, carrier: CarrierConfig) -> PathRows:
    """The snapshot rows of the exactly traced ``rows``: their columns, the
    Doppler filled in from the radial rate of each polyline's last segment,
    and no vertices.

    Specular reflection and edge-diffraction vertices sit at stationary
    points of the path length, so the length derivative reduces to the
    radial rate of the receiver segment alone.  One array pass: ``vecdot``
    calls the dot kernel of a one-vector ``np.linalg.norm`` and ``np.dot``,
    so each row gets the bits a row-by-row evaluation gives.
    """
    ends = np.array([v[-2:] for v in rows.vertices]).reshape(-1, 2, 3)
    u = ends[:, 1] - ends[:, 0]
    n = np.sqrt(np.vecdot(u, u))
    with np.errstate(divide="ignore", invalid="ignore"):
        doppler = np.where(n > 0.0, -carrier.frequency_hz * np.vecdot(u, rx_velocity) / (n * C0), 0.0)
    return replace(rows, doppler_hz=doppler, vertices=np.empty(len(rows), dtype=object))


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
        """``(step, result)`` for each of ``steps`` in order, with
        ``solve`` called on the receivers of ``SOLVE_CHUNK`` steps at a time
        and timed to ``stage``."""
        for first in range(0, len(steps), SOLVE_CHUNK):
            t0 = time.perf_counter()
            chunk = steps[first : first + SOLVE_CHUNK]
            rx = traj.position(schedule.seconds(chunk))
            found = solve(rx)
            seconds[stage] += time.perf_counter() - t0
            yield from zip(chunk, found)

    def solve_keyframes(rx):
        """The tracer's blocks, each followed by its echoes under interpolated scatter."""
        blocks = tracer.trace(rx, limits)
        if scatter_mode == "interpolated" and engine is not None:
            blocks = [rows.concat(found) for rows, found in zip(blocks, engine.paths(rx))]
        return blocks

    echoes = None
    if scatter_mode == "exact" and engine is not None:
        echoes = solved(schedule.snapshots, engine.paths, "scatter")
    snapshots: list[ChannelSnapshot] = []
    counts = dict.fromkeys(("matched", "births", "deaths", "rows"), 0)

    def emit(i, v, rows):
        """Append the snapshot of step ``i`` from its ``rows``, the receiver
        moving at ``v``; under exact scatter its echoes, all scatter-tagged,
        follow every specular row, so they join in their own order as a
        tail."""
        if echoes is not None:
            step, found = next(echoes)
            assert step == i, f"echoes of step {step} reached step {i}"
            t0 = time.perf_counter()
            rows = rows.concat(_fill_doppler(found, v, carrier))
            seconds["scatter"] += time.perf_counter() - t0
        counts["rows"] += len(rows)
        snapshots.append(ChannelSnapshot(i * update_step, rows))

    # the look-ahead yields each keyframe as (step, solved block);
    # the snapshots strictly inside the bracket it closes (only when the
    # stride leaves room for them) come before it
    rng = np.random.default_rng(seed)
    i_a = rows_a = None
    for i_b, rows_b in solved(schedule.keyframes, solve_keyframes, "keyframe"):
        if rows_a is not None and schedule.stride > 1:
            t0 = time.perf_counter()
            steps = range(i_a + 1, i_b)
            times = schedule.seconds(steps)
            rx, v = traj.position(times), traj.velocity(times)
            bracket = track_interval(i_a * update_step, rows_a, i_b * update_step, rows_b, rng)
            interior = interpolate_bracket(bracket, times, rx, v, carrier)
            seconds["interpolation"] += time.perf_counter() - t0
            for key in ("matched", "births", "deaths"):
                counts[key] += len(getattr(bracket, key))
            for i, vel, block in zip(steps, v, interior):
                emit(i, vel, block)
        # the keyframe's snapshot is its solved block with the Doppler filled
        # in; tracking reads the block itself, never its Doppler
        v = traj.velocity(i_b * update_step)
        emit(i_b, v, _fill_doppler(rows_b, v, carrier))
        i_a, rows_a = i_b, rows_b

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
