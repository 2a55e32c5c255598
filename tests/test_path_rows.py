"""Snapshot row blocks against the per-path interior they replaced.

The stream fills each interior snapshot's ``PathRows`` straight from its
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
from preset_streams import preset_stream

from railchan import dynamics
from railchan.dynamics import Bracket, _fill_doppler, interpolate_bracket
from railchan.em import CarrierConfig
from railchan.rays import REFLECTION, SCATTERING, TAG_SCATTER, Interaction, PathRows, RayPath, path_order
from railchan.scatter import ScatterEngine

FLOAT_COLUMNS = ("delay_s", "aod", "aoa", "doppler_hz", "transfer")
RECORD_COLUMNS = ("interactions", "signature", "tag")


def assert_same_rows(got: PathRows, want: list):
    """``got`` holds the paths ``want`` in their order: every float column
    bit for bit, the records equal, the transfers C-contiguous."""
    ref = PathRows.from_paths(want)
    assert len(got) == len(ref)
    for name in FLOAT_COLUMNS:
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    for name in RECORD_COLUMNS:
        assert getattr(got, name).tolist() == getattr(ref, name).tolist(), name
    assert got.transfer.flags.c_contiguous


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


def test_interior_rows_are_the_oracle_bit_for_bit(recorded_stream):
    _, cfg, result, calls = recorded_stream
    assert len(calls) == 10
    by_index = {s.index: s for s in result.snapshots}
    n_rows = n_held = 0
    for bracket, times, rx, v, carrier, got in calls:
        want = oracle_interior(bracket, times, rx, v, carrier)
        sources = [pa for pa, _ in bracket.matched] + [p for p, _ in bracket.births + bracket.deaths]
        carried = {id(p.signature) for p in sources}
        assert len(got) == len(want) == len(times)
        for t, rows, paths in zip(times, got, want):
            ordered = oracle_snapshot(paths)
            assert_same_rows(rows, ordered)
            # the records are the tracked paths' own objects, none rebuilt
            assert all(a is q.interactions for a, q in zip(rows.interactions, ordered))
            assert all(id(sig) in carried for sig in rows.signature)
            # the stream's snapshot starts with these rows
            snap = by_index[round(t / cfg.update_step_s)]
            assert not snap.at_keyframe
            head = PathRows(*(x[: len(rows)] for x in vars(snap.paths).values()))
            assert_same_rows(head, ordered)
            n_rows += len(rows)
            n_held += len(paths) - len(bracket.matched)
    print(f"{n_rows} interior rows, {n_held} of them held births and deaths")
    assert n_held > 0 and n_rows > 20_000


def test_every_snapshot_in_the_stream_order_with_echo_tails(recorded_stream):
    mode, cfg, result, calls = recorded_stream
    step = cfg.update_step_s
    interior = {}
    for bracket, times, rx, v, carrier, _ in calls:
        for t, paths in zip(times, oracle_interior(bracket, times, rx, v, carrier)):
            interior[round(t / step)] = paths
    echoes = {}
    if mode == "exact":
        carrier = CarrierConfig(cfg.carrier_hz)
        traj = cfg.trajectory()
        engine = ScatterEngine(cfg.load_scene(), carrier, cfg.tx_position)
        found = engine.paths(np.array([s.rx_position for s in result.snapshots]))
        for s, paths in zip(result.snapshots, found):
            echoes[s.index] = _fill_doppler(paths, traj.velocity(s.timestamp), carrier)
    n_tails = 0
    for snap in result.snapshots:
        keys = [path_order(p) for p in snap.paths]
        assert keys == sorted(keys), snap.index
        if snap.at_keyframe:
            continue
        assert_same_rows(snap.paths, oracle_snapshot(interior[snap.index], echoes.get(snap.index, ())))
        n_tails += bool(echoes.get(snap.index))
    assert len(interior) == len(result.snapshots) - 11
    assert (n_tails > 0) == (mode == "exact")


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
    bracket = Bracket(
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
