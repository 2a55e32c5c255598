"""Row blocks against the per-path records they replaced.

The tracer and the scatter engine return one ``PathRows`` block per
receiver, built from their family arrays; ``path_oracle`` keeps the lists
they built one ``RayPath`` at a time, sorted.  On the preset's 201 solves
at t = 0-2 s, and on the echoes of the pylon window in both scatter modes,
every block must be the oracle's list row for row and bit for bit,
polylines included.

The stream fills each interior snapshot's block straight from its
bracket's arrays, in one row order per bracket.  ``interp_oracle`` keeps the
interior as it was built one ``RayPath`` at a time, each snapshot sorted on
its own.  On the preset's 5 s stream at kf 0.5, in both scatter modes, every
interior row must carry the oracle's bits and records and every snapshot
the oracle's order, exact echoes included; the stream's counters must
repeat and add up.
"""

import numpy as np
import pytest
from interp_oracle import oracle_interior, oracle_snapshot
from path_oracle import (
    Interaction,
    RayPath,
    assert_same_rows,
    host_records,
    interactions_of,
    oracle_trace_lists,
    rows_of,
)
from preset_streams import preset_stream, pylon_window
from test_scatter import oracle_echoes

from railchan import dynamics
from railchan.config import load_preset
from railchan.dynamics import SOLVE_CHUNK, Bracket, StepSchedule, interpolate_bracket
from railchan.em import C0, CarrierConfig
from railchan.rays import EDGE_DIFFRACTION, REFLECTION, ROOFTOP_DIFFRACTION, SCATTERING, TAG_SCATTER, path_order
from railchan.scatter import ScatterEngine, mesh_cylinder
from railchan.specular import SpecularTracer


# ----------------------------------------------------------------------
# the solvers' blocks against their per-path lists
# ----------------------------------------------------------------------
def test_tracer_blocks_are_the_oracle_lists_bit_for_bit():
    cfg = load_preset()
    traj = cfg.trajectory()
    receivers = np.array([traj.position(i * cfg.update_step_s) for i in range(201)])
    tracer = SpecularTracer(cfg.load_scene(), CarrierConfig(cfg.carrier_hz), cfg.tx_position)
    n_rows = 0
    for first in range(0, len(receivers), SOLVE_CHUNK):
        chunk = receivers[first : first + SOLVE_CHUNK]
        got = tracer.trace(chunk, cfg.limits)
        want = oracle_trace_lists(tracer, chunk, cfg.limits)
        assert len(got) == len(want) == len(chunk)
        for rows, paths in zip(got, want):
            assert_same_rows(rows, paths, vertices=True)
            n_rows += len(rows)
    assert n_rows > 10 * len(receivers)


def test_every_host_token_is_the_oracle_token_on_the_preset():
    # every facade and wedge of the tracer's tables and every pylon of the
    # engine, hosts that no solved row reaches included
    cfg = load_preset()
    scene, carrier = cfg.load_scene(), CarrierConfig(cfg.carrier_hz)
    tracer = SpecularTracer(scene, carrier, cfg.tx_position)
    assert tracer._tokens.keys() == {REFLECTION, ROOFTOP_DIFFRACTION, EDGE_DIFFRACTION}
    for kind, tokens in tracer._tokens.items():
        want = [rec.token() for rec in host_records(scene, kind)]
        assert tokens == want and len(want) == (scene.n_wedges if kind == EDGE_DIFFRACTION else scene.n_facades)
    engine = ScatterEngine(scene, carrier, cfg.tx_position)
    want = sorted(Interaction(SCATTERING, s.id, 0).token() for s in scene.scatterers)
    assert engine._signatures == want and len(want) == len(scene.scatterers) > 1


@pytest.mark.parametrize("scatter_mode", ["exact", "interpolated"])
def test_engine_blocks_are_the_oracle_lists_bit_for_bit(monkeypatch, scatter_mode):
    # every engine call of the pylon window's stream, each receiver's block
    # against the oracle's echoes in the row order
    calls = []
    original = ScatterEngine.paths

    def spy(self, receivers):
        rows = original(self, receivers)
        calls.append((self, receivers, rows))
        return rows

    monkeypatch.setattr(ScatterEngine, "paths", spy)
    cfg, result = pylon_window(scatter_mode=scatter_mode)
    (engine, _, _), *_ = calls
    meshes = [mesh_cylinder(s, engine.carrier) for s in engine.scene.scatterers]
    receivers = np.concatenate([rx for _, rx, _ in calls])
    echoes = 0
    for _, rx, blocks in calls:
        for r, rows in zip(rx, blocks):
            want, _ = oracle_echoes(engine.scene, meshes, engine.tx, r, engine.carrier)
            assert_same_rows(rows, want, vertices=True)
            echoes += len(rows)
    # exact scatter: one receiver per snapshot; interpolated: per keyframe
    n_rx = len(result.snapshots) if scatter_mode == "exact" else result.rt_invocations
    assert len(receivers) == n_rx and echoes > n_rx


@pytest.fixture(scope="module", params=["exact", "interpolated"])
def recorded_stream(request):
    """``(scatter mode, config, stream, calls)`` of the preset's 5 s stream at
    kf 0.5, with every ``interpolate_bracket`` call and its result recorded."""
    calls = []
    original = dynamics.interpolate_bracket

    def spy(bracket, times, rx_positions, rx_velocities, carrier):
        rows = original(bracket, times, rx_positions, rx_velocities, carrier)
        calls.append((bracket, times, rx_positions, rx_velocities, carrier, rows))
        return rows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "interpolate_bracket", spy)
        cfg, result = preset_stream(duration_s=5.0, kf_interval_s=0.5, scatter_mode=request.param)
    return request.param, cfg, result, calls


def stream_steps(cfg):
    """The :class:`StepSchedule` of :func:`recorded_stream`'s stream."""
    return StepSchedule(cfg.update_step_s, cfg.kf_interval_s, 0, 5.0)


def test_interior_rows_are_the_oracle_bit_for_bit(recorded_stream):
    _, cfg, result, calls = recorded_stream
    assert len(calls) == 10
    schedule = stream_steps(cfg)
    by_step = dict(zip(schedule.snapshots, result.snapshots))
    n_rows = n_held = 0
    for bracket, times, rx, v, carrier, got in calls:
        want = oracle_interior(bracket, times, rx, v, carrier)
        carried = {id(sig) for rows in (bracket.rows_a, bracket.rows_b) for sig in rows.signature}
        assert len(got) == len(want) == len(times)
        for t, rows, paths in zip(times, got, want):
            ordered = oracle_snapshot(paths)
            assert_same_rows(rows, ordered)
            # the signatures are the keyframe rows' own objects, none rebuilt
            assert all(id(sig) in carried for sig in rows.signature)
            # the stream's snapshot starts with these rows
            step = round(t / cfg.update_step_s)
            assert step not in schedule.keyframes
            snap = by_step[step]
            assert snap.timestamp == t
            head = snap.paths.take(slice(len(rows)))
            assert_same_rows(head, ordered)
            n_rows += len(rows)
            n_held += len(paths) - len(bracket.matched)
    print(f"{n_rows} interior rows, {n_held} of them held births and deaths")
    assert n_held > 0 and n_rows > 20_000


def test_every_snapshot_in_the_stream_order_with_echo_tails(recorded_stream):
    mode, cfg, result, calls = recorded_stream
    step = cfg.update_step_s
    schedule = stream_steps(cfg)
    interior = {}
    for bracket, times, rx, v, carrier, _ in calls:
        for t, paths in zip(times, oracle_interior(bracket, times, rx, v, carrier)):
            interior[round(t / step)] = paths
    echoes = {}
    if mode == "exact":
        carrier = CarrierConfig(cfg.carrier_hz)
        traj = cfg.trajectory()
        engine = ScatterEngine(cfg.load_scene(), carrier, cfg.tx_position)
        found = engine.paths(np.array([traj.position(s.timestamp) for s in result.snapshots]))
        for i, s, rows in zip(schedule.snapshots, result.snapshots, found):
            echoes[i] = [radial_doppler(p, traj.velocity(s.timestamp), carrier) for p in rows]
    n_tails = 0
    assert len(result.snapshots) == len(schedule.snapshots)
    for i, snap in zip(schedule.snapshots, result.snapshots):
        assert path_order(snap.paths).tolist() == list(range(len(snap.paths))), i
        if i in schedule.keyframes:
            continue
        assert_same_rows(snap.paths, oracle_snapshot(interior[i], echoes.get(i, ())))
        n_tails += bool(echoes.get(i))
    assert len(interior) == len(result.snapshots) - 11
    assert (n_tails > 0) == (mode == "exact")


def radial_doppler(row, rx_velocity, carrier):
    """The echo ``row`` as a ``RayPath`` with the Doppler of its last
    segment's radial rate, worked out on its own."""
    u = row.vertices[-1] - row.vertices[-2]
    doppler = -carrier.frequency_hz * float(np.dot(u, rx_velocity)) / (float(np.linalg.norm(u)) * C0)
    return RayPath(interactions_of(row.signature), row.vertices, row.delay_s, row.aod, row.aoa, row.transfer, row.tag, doppler)


def crafted_bracket(t_a, t_b, matched, births, deaths):
    """The bracket of crafted ``(path_a, path_b)`` pairs and ``(path,
    activation)`` births and deaths, in that order: keyframe blocks that
    list the pairs first."""
    rows_a = rows_of([pa for pa, _ in matched] + [p for p, _ in deaths])
    rows_b = rows_of([pb for _, pb in matched] + [p for p, _ in births])
    m = len(matched)
    return Bracket(
        t_a,
        t_b,
        rows_a,
        rows_b,
        np.repeat(np.arange(m), 2).reshape(m, 2),
        m + np.arange(len(births)),
        m + np.arange(len(deaths)),
        np.array([act for _, act in births]),
        np.array([act for _, act in deaths]),
    )


def test_crafted_bracket_keeps_equal_signatures_in_bracket_order():
    # three line-of-sight paths share one signature: two matched pairs and a
    # birth; a death and a matched pair with one reflection each, listed
    # against their signature order; and a scatter birth
    carrier = CarrierConfig(1.9e9)
    tx = np.array([0.0, 40.0, 10.0])
    rx_a, rx_b = np.array([-5.0, 0.0, 2.0]), np.array([5.0, 0.0, 2.0])
    eye = np.eye(2, dtype=complex)

    def path(end, scale, element=None, tag="specular", kind=REFLECTION):
        if element is None:
            return RayPath.from_polyline((), np.array([tx, end]), scale * eye)
        inters = (Interaction(kind, 1, element),)
        corner = np.array([0.0, 20.0 + element, 6.0])
        return RayPath.from_polyline(inters, np.array([tx, corner, end]), scale * eye, tag)

    los = [(path(rx_a, 1.0), path(rx_b, 0.9)), (path(rx_a, 0.5), path(rx_b, 0.4))]
    r13 = (path(rx_a, 0.3, 3), path(rx_b, 0.2, 3))
    bracket = crafted_bracket(
        0.0,
        1.0,
        [los[0], r13, los[1]],
        [(path(rx_b, 0.8, 7, TAG_SCATTER, SCATTERING), 0.1), (path(rx_b, 0.25), 0.2)],
        [(path(rx_a, 0.6, 2), 0.3)],
    )
    times = np.array([0.05, 0.25, 0.5, 0.75, 0.9])
    rx = [rx_a + t * (rx_b - rx_a) for t in times]
    v = [(rx_b - rx_a) for _ in times]
    got = interpolate_bracket(bracket, times, rx, v, carrier)
    want = oracle_interior(bracket, times, rx, v, carrier)
    for rows, paths in zip(got, want):
        assert_same_rows(rows, oracle_snapshot(paths))
    # at t = 0.5 all six rows are alive: the three LoS rows in bracket
    # order, then R(1:2) before R(1:3), then the echo
    rows = got[2]
    assert rows.signature.tolist() == ["LOS"] * 3 + ["R(1:2)", "R(1:3)", "S(1:7)"]
    assert np.abs(rows.transfer[:3, 0, 0]).tolist() == pytest.approx([0.95, 0.45, 0.15])
    assert [len(r) for r in got] == [4, 6, 6, 6, 5]


def test_stream_counters_repeat_and_count_the_brackets(recorded_stream):
    mode, _, result, calls = recorded_stream
    _, again = preset_stream(duration_s=5.0, kf_interval_s=0.5, scatter_mode=mode)
    assert again.counters == result.counters
    counters = result.counters
    assert counters["rows"] == sum(len(s.paths) for s in result.snapshots)
    for key in ("matched", "births", "deaths"):
        assert counters[key] == sum(len(getattr(bracket, key)) for bracket, *_ in calls) > 0, key
