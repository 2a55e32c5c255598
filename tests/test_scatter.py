"""Facet-summation scattering tests.

Two closed-form radar-cross-section oracles pin the physics: the PEC
rectangular plate (4 pi A^2 / lambda^2 at normal incidence) and the broadside
PEC cylinder (2 pi r h^2 / lambda).  The estimated RCS is recovered from the
transfer matrix by inverting the radar equation,
sigma = |T|^2 (4 pi)^3 r_i^2 r_s^2 / lambda^2.

The engine's chunked facet pass is checked bit for bit against
:func:`oracle_facet_sum`, the scalar facet sum over the whole mesh at one
receiver, and :func:`oracle_echoes`, the echoes built from it one receiver
and one mesh at a time.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from path_oracle import Interaction, RayPath, path_key

import railchan.scatter as scatter
from railchan.config import load_preset
from railchan.dynamics import SOLVE_CHUNK, Trajectory, stream_snapshots
from railchan.em import C0, CarrierConfig, spherical_basis
from railchan.rays import SCATTERING, TAG_SCATTER, polyline_lengths
from railchan.scene import Building, CylinderScatterer, Scene
from railchan.scatter import (
    ScatterEngine,
    _dot,
    _facet_sums,
    _lit_facets,
    mesh_cylinder,
    mesh_plate,
    po_scattered_matrix,
)

F19 = CarrierConfig(frequency_hz=1.9e9)
LAM = F19.wavelength
EMPTY = Scene(buildings=[])


# ----------------------------------------------------------------------
# the scalar oracle: one receiver, the whole mesh, masked sums
# ----------------------------------------------------------------------
@dataclass
class OracleIncidentTerms:
    ki: np.ndarray
    cos_i: np.ndarray
    phase_over_r: np.ndarray
    mv: np.ndarray
    mh: np.ndarray


def oracle_incident_terms(mesh, src, wavenumber):
    vi = mesh.centers - src[None, :]
    r_i = np.linalg.norm(vi, axis=1)
    ki = vi / r_i[:, None]
    cos_i = -np.einsum("ij,ij->i", ki, mesh.normals)
    phase_over_r = np.exp(-1j * wavenumber * r_i) / r_i
    ev_i, eh_i = spherical_basis(ki)
    nrm = mesh.normals
    mv = 2.0 * np.einsum("ij,ij->i", nrm, ev_i)[:, None] * nrm - ev_i
    mh = 2.0 * np.einsum("ij,ij->i", nrm, eh_i)[:, None] * nrm - eh_i
    return OracleIncidentTerms(ki=ki, cos_i=cos_i, phase_over_r=phase_over_r, mv=mv, mh=mh)


def oracle_facet_sum(mesh, src, obs, carrier, incident=None):
    """(2x2 transfer, live facet count) of one source and one observer;
    ``incident`` optionally gives the source's :func:`oracle_incident_terms`."""
    lam = carrier.wavelength
    k = carrier.wavenumber
    if incident is None:
        incident = oracle_incident_terms(mesh, src, k)
    vs = obs[None, :] - mesh.centers
    r_s = np.linalg.norm(vs, axis=1)
    ks = vs / r_s[:, None]
    cos_s = np.einsum("ij,ij->i", ks, mesh.normals)
    live = (incident.cos_i > 0.0) & (cos_s > 0.0)
    t = np.zeros((2, 2), dtype=complex)
    if not np.any(live):
        return t, 0
    ki = incident.ki[live]
    cos_i = incident.cos_i[live]
    pref_i = incident.phase_over_r[live]
    mv, mh = incident.mv[live], incident.mh[live]
    ks, r_s, cos_s = ks[live], r_s[live], cos_s[live]
    tu, tv = mesh.tan_u[live], mesh.tan_v[live]
    w, h, area = mesh.width[live], mesh.height[live], mesh.area[live]

    diff = ki - ks
    x_arg = 0.5 * k * w * np.einsum("ij,ij->i", diff, tu)
    y_arg = 0.5 * k * h * np.einsum("ij,ij->i", diff, tv)
    pattern = np.sinc(x_arg / math.pi) ** 2 * np.sinc(y_arg / math.pi) ** 2
    sigma = 4.0 * math.pi * (area / lam) ** 2 * (0.5 * (cos_i + cos_s)) ** 2 * pattern
    amp = (lam / (4.0 * math.pi)) * np.sqrt(sigma / (4.0 * math.pi)) / r_s * np.exp(-1j * k * r_s) * pref_i

    bv, bh = spherical_basis(-ks)
    t[0, 0] = np.sum(amp * np.einsum("ij,ij->i", bv, mv))
    t[0, 1] = np.sum(amp * np.einsum("ij,ij->i", bv, mh))
    t[1, 0] = np.sum(amp * np.einsum("ij,ij->i", bh, mv))
    t[1, 1] = np.sum(amp * np.einsum("ij,ij->i", bh, mh))
    return t, int(np.count_nonzero(live))


def oracle_echoes(scene, meshes, tx, rx, carrier, incident=None):
    """(echoes, live facet terms) at one receiver: each mesh in turn, with
    one occlusion query per antenna for its legs, and the echoes sorted into
    the row order; ``incident`` optionally gives each mesh's incident terms
    of ``tx``."""
    incident = incident or [None] * len(meshes)
    refs = np.array([m.reference_point for m in meshes])
    tx_clear = ~scene.segments_blocked(np.broadcast_to(tx, refs.shape), refs)
    rx_clear = ~scene.segments_blocked(np.broadcast_to(rx, refs.shape), refs)
    out, terms = [], 0
    for mesh, inc, a, b in zip(meshes, incident, tx_clear, rx_clear):
        if a and b:
            t, live = oracle_facet_sum(mesh, tx, rx, carrier, inc)
            rec = Interaction(kind=SCATTERING, object_id=mesh.scatterer.id, element_id=0)
            out.append(RayPath.from_polyline((rec,), np.array([tx, mesh.reference_point, rx]), t, TAG_SCATTER))
            terms += live
    return sorted(out, key=path_key), terms


def assert_same_paths(got, want):
    assert [p.signature for p in got] == [p.signature for p in want]
    for p, q in zip(got, want):
        assert p.transfer.tobytes() == q.transfer.tobytes()
        assert p.vertices.tobytes() == q.vertices.tobytes()
        assert (p.delay_s, p.aod, p.aoa, p.tag, p.doppler_hz) == (q.delay_s, q.aod, q.aoa, q.tag, q.doppler_hz)


def row_values(p):
    """What a stream row carries of path ``p``, the transfer as bytes."""
    return (p.signature, p.transfer.tobytes(), p.delay_s, p.aod, p.aoa, p.tag, p.doppler_hz)


def estimated_rcs(t_entry: complex, r_i: float, r_s: float) -> float:
    return abs(t_entry) ** 2 * (4.0 * math.pi) ** 3 * r_i**2 * r_s**2 / LAM**2


def db(x: float) -> float:
    return 10.0 * math.log10(x)


def plate_monostatic_rcs(side: float, max_edge: float, distance: float) -> float:
    mesh = mesh_plate(
        center=np.array([0.0, 0.0, 0.0]),
        normal=np.array([1.0, 0.0, 0.0]),
        tan_u=np.array([0.0, 1.0, 0.0]),
        width=side,
        height=side,
        max_edge=max_edge,
    )
    p = np.array([distance, 0.0, 0.0])
    t = po_scattered_matrix(mesh, p, p, F19)
    return estimated_rcs(t[0, 0], distance, distance)


class TestMeshes:
    def test_cylinder_mesh_counts(self):
        cyl = CylinderScatterer(id=1, base_center=np.zeros(3), radius=0.375, height=8.2)
        mesh = mesh_cylinder(cyl, F19)
        n_phi = math.ceil(2.0 * math.pi * 0.375 / (LAM / 2.0))
        n_z = math.ceil(8.2 / (LAM / 2.0))
        assert n_phi == 30
        assert n_z == 104
        assert len(mesh.area) == 3120

    def test_cylinder_mesh_area_and_frames(self):
        cyl = CylinderScatterer(id=1, base_center=np.array([3.0, -2.0, 0.0]), radius=0.375, height=8.2)
        mesh = mesh_cylinder(cyl, F19)
        lateral = 2.0 * math.pi * 0.375 * 8.2
        assert float(np.sum(mesh.area)) == pytest.approx(lateral, rel=1e-9)
        # normals horizontal, unit, outward
        assert np.max(np.abs(mesh.normals[:, 2])) == 0.0
        np.testing.assert_allclose(np.linalg.norm(mesh.normals, axis=1), 1.0, atol=1e-12)
        radial = mesh.centers - np.array([3.0, -2.0, 0.0])
        radial[:, 2] = 0.0
        assert np.all(np.einsum("ij,ij->i", radial, mesh.normals) > 0)
        # facet edges no longer than half a wavelength
        assert np.max(mesh.width) <= LAM / 2.0 + 1e-9
        assert np.max(mesh.height) <= LAM / 2.0 + 1e-9
        # orthonormal tangent frames
        np.testing.assert_allclose(np.einsum("ij,ij->i", mesh.tan_u, mesh.tan_v), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.einsum("ij,ij->i", mesh.tan_u, mesh.normals), 0.0, atol=1e-12)
        assert mesh.reference_point == pytest.approx([3.0, -2.0, 4.1])

    def test_plate_mesh_tiles_area(self):
        mesh = mesh_plate(
            center=np.zeros(3),
            normal=np.array([0.0, 0.0, 1.0]),
            tan_u=np.array([1.0, 0.0, 0.0]),
            width=2.0,
            height=1.0,
            max_edge=0.3,
        )
        assert float(np.sum(mesh.area)) == pytest.approx(2.0, rel=1e-12)
        assert np.max(mesh.width) <= 0.3 + 1e-12
        assert np.max(mesh.height) <= 0.3 + 1e-12


class TestPlateOracle:
    def test_normal_incidence_rcs(self):
        side = 10.0 * LAM
        sigma_ref = 4.0 * math.pi * side**4 / LAM**2
        sigma = plate_monostatic_rcs(side, LAM / 2.0, 100.0)
        assert abs(db(sigma) - db(sigma_ref)) < 0.5

    def test_mesh_convergence_quarter_wavelength(self):
        side = 10.0 * LAM
        coarse = plate_monostatic_rcs(side, LAM / 2.0, 100.0)
        fine = plate_monostatic_rcs(side, LAM / 4.0, 100.0)
        assert abs(db(fine) - db(coarse)) < 0.2

    def test_cross_polar_entries_vanish_at_normal(self):
        side = 10.0 * LAM
        mesh = mesh_plate(
            center=np.zeros(3),
            normal=np.array([1.0, 0.0, 0.0]),
            tan_u=np.array([0.0, 1.0, 0.0]),
            width=side,
            height=side,
            max_edge=LAM / 2.0,
        )
        p = np.array([100.0, 0.0, 0.0])
        t = po_scattered_matrix(mesh, p, p, F19)
        scale = np.max(np.abs(t))
        assert abs(t[0, 1]) < 1e-10 * scale
        assert abs(t[1, 0]) < 1e-10 * scale
        assert abs(abs(t[0, 0]) - abs(t[1, 1])) < 1e-6 * scale

    def test_back_side_zero_matrix(self):
        mesh = mesh_plate(
            center=np.zeros(3),
            normal=np.array([1.0, 0.0, 0.0]),
            tan_u=np.array([0.0, 1.0, 0.0]),
            width=LAM * 4,
            height=LAM * 4,
            max_edge=LAM / 2.0,
        )
        p = np.array([-50.0, 3.0, 1.0])
        t = po_scattered_matrix(mesh, p, p, F19)
        assert np.all(t == 0)


class TestCylinderOracle:
    def test_broadside_monostatic_rcs(self):
        cyl = CylinderScatterer(id=1, base_center=np.zeros(3), radius=0.375, height=8.2)
        mesh = mesh_cylinder(cyl, F19)
        sigma_ref = 2.0 * math.pi * 0.375 * 8.2**2 / LAM
        p = np.array([1000.0, 0.0, 4.1])
        t = po_scattered_matrix(mesh, p, p, F19)
        sigma = estimated_rcs(t[0, 0], 1000.0, 1000.0)
        assert abs(db(sigma) - db(sigma_ref)) < 1.0

    def test_range_power_scaling_12db(self):
        cyl = CylinderScatterer(id=1, base_center=np.zeros(3), radius=0.375, height=8.2)
        mesh = mesh_cylinder(cyl, F19)
        ref = mesh.reference_point
        # beyond the 2 h^2 / lambda far-field distance (~852 m), so doubling
        # the ranges probes pure spreading, not Fresnel-zone pattern change
        ang = math.radians(25.0)
        src1 = ref + 2000.0 * np.array([1.0, 0.0, 0.0])
        obs1 = ref + 2000.0 * np.array([math.cos(ang), math.sin(ang), 0.0])
        src2 = ref + 2.0 * (src1 - ref)
        obs2 = ref + 2.0 * (obs1 - ref)
        t1 = po_scattered_matrix(mesh, src1, obs1, F19)
        t2 = po_scattered_matrix(mesh, src2, obs2, F19)
        p1 = float(np.sum(np.abs(t1) ** 2))
        p2 = float(np.sum(np.abs(t2) ** 2))
        assert db(p1) - db(p2) == pytest.approx(12.0, abs=0.1)

    def test_reciprocity_direct_legs(self):
        cyl = CylinderScatterer(id=1, base_center=np.zeros(3), radius=0.375, height=8.2)
        mesh = mesh_cylinder(cyl, F19)
        src = np.array([300.0, -40.0, 12.0])
        obs = np.array([-120.0, 250.0, 2.0])
        t_fwd = po_scattered_matrix(mesh, src, obs, F19)
        t_rev = po_scattered_matrix(mesh, obs, src, F19)
        scale = np.max(np.abs(t_fwd))
        np.testing.assert_allclose(t_rev, t_fwd.T, rtol=1e-8, atol=1e-8 * scale)
        scene = Scene(buildings=[], scatterers=[cyl])
        ((p_fwd,),) = ScatterEngine(scene, F19, src).paths(obs[None])
        ((p_rev,),) = ScatterEngine(scene, F19, obs).paths(src[None])
        assert p_fwd.delay_s == pytest.approx(p_rev.delay_s, abs=1e-15)

    def test_shadow_sweep_monotone_facet_count(self):
        cyl = CylinderScatterer(id=1, base_center=np.zeros(3), radius=0.375, height=8.2)
        mesh = mesh_cylinder(cyl, F19)
        src = np.array([500.0, 0.0, 4.1])
        a = np.radians(np.arange(10, 171, 10))
        observers = np.stack([300.0 * np.cos(a), 300.0 * np.sin(a), np.full(len(a), 4.1)], axis=1)
        # the facets lit by the source and visible from each observer
        _, counts = _facet_sums(_lit_facets(mesh, src, F19), observers, F19)
        counts = counts.tolist()
        assert all(c1 >= c2 for c1, c2 in zip(counts[:-1], counts[1:]))
        assert counts[0] > counts[-1]

    def test_observer_inside_body_rejected(self):
        cyl = CylinderScatterer(id=1, base_center=np.zeros(3), radius=0.375, height=8.2)
        mesh = mesh_cylinder(cyl, F19)
        outside = np.array([100.0, 0.0, 4.0])
        inside = np.array([0.1, 0.0, 4.0])
        with pytest.raises(ValueError):
            po_scattered_matrix(mesh, outside, inside, F19)
        with pytest.raises(ValueError):
            po_scattered_matrix(mesh, inside, outside, F19)


class TestEnumerate:
    def test_no_scatterers_empty(self):
        engine = ScatterEngine(EMPTY, F19, np.array([0.0, 0.0, 5.0]))
        assert [len(rows) for rows in engine.paths(np.array([[100.0, 0.0, 5.0]]))] == [0]
        # no scatterer: nothing built, no leg tested
        assert engine.counters == dict.fromkeys(scatter.SCATTER_COUNTERS, 0)

    def test_single_pylon_direct_only(self):
        scene = Scene(buildings=[], scatterers=[CylinderScatterer(id=9, base_center=np.array([50.0, 30.0, 0.0]), radius=0.375, height=8.2)])
        tx = np.array([0.0, 0.0, 20.0])
        rx = np.array([100.0, 0.0, 4.5])
        (paths,) = ScatterEngine(scene, F19, tx).paths(rx[None])
        assert len(paths) == 1
        p = paths[0]
        assert p.signature == "S(9:0)"
        assert p.tag == TAG_SCATTER
        ref = np.array([50.0, 30.0, 4.1])
        want_len = float(np.linalg.norm(ref - tx) + np.linalg.norm(rx - ref))
        assert polyline_lengths(p.vertices) == pytest.approx(want_len, abs=1e-9)
        assert p.delay_s == pytest.approx(want_len / C0, abs=1e-12)
        los_delay = float(np.linalg.norm(rx - tx)) / C0
        assert p.delay_s > los_delay

    def test_pylon_and_wall_four_paths(self):
        wall = Building(
            id=1,
            footprint=np.array([[-80.0, 40.0], [180.0, 40.0], [180.0, 42.0], [-80.0, 42.0]]),
            height=30.0,
        )
        scene = Scene(
            buildings=[wall],
            scatterers=[CylinderScatterer(id=9, base_center=np.array([50.0, 10.0, 0.0]), radius=0.375, height=8.2)],
        )
        tx = np.array([0.0, 0.0, 20.0])
        rx = np.array([100.0, 0.0, 4.5])
        # an echo runs straight between the antennas; the wall reflects
        # none of its legs
        (paths,) = ScatterEngine(scene, F19, tx).paths(rx[None])
        assert {p.signature for p in paths} == {"S(9:0)"}

    def test_blocked_direct_legs_dropped(self):
        blocker = Building(
            id=1,
            footprint=np.array([[20.0, 25.0], [80.0, 25.0], [80.0, 35.0], [20.0, 35.0]]),
            height=40.0,
        )
        scene = Scene(
            buildings=[blocker],
            scatterers=[CylinderScatterer(id=9, base_center=np.array([50.0, 60.0, 0.0]), radius=0.375, height=8.2)],
        )
        tx = np.array([0.0, 0.0, 5.0])
        rx = np.array([100.0, 0.0, 5.0])
        assert [len(rows) for rows in ScatterEngine(scene, F19, tx).paths(rx[None])] == [0]

    def test_own_body_does_not_occlude(self):
        # forward-scatter geometry: pylon directly between the antennas
        scene = Scene(buildings=[], scatterers=[CylinderScatterer(id=9, base_center=np.array([50.0, 0.0, 0.0]), radius=0.375, height=8.2)])
        tx = np.array([0.0, 0.0, 4.1])
        rx = np.array([100.0, 0.0, 4.1])
        (paths,) = ScatterEngine(scene, F19, tx).paths(rx[None])
        assert len(paths) == 1

    def test_determinism(self):
        scene = Scene(buildings=[], scatterers=[CylinderScatterer(id=9, base_center=np.array([50.0, 30.0, 0.0]), radius=0.375, height=8.2), CylinderScatterer(id=10, base_center=np.array([70.0, 30.0, 0.0]), radius=0.375, height=8.2)])
        tx = np.array([0.0, 0.0, 20.0])
        rx = np.array([100.0, 0.0, 4.5])
        (a,) = ScatterEngine(scene, F19, tx).paths(rx[None])
        (b,) = ScatterEngine(scene, F19, tx).paths(rx[None])
        assert [p.signature for p in a] == [p.signature for p in b]
        for p, q in zip(a, b):
            np.testing.assert_array_equal(p.transfer, q.transfer)

    def test_transmitter_change_matches_fresh_engine(self):
        # each engine keeps its own transmitter's facet terms; engines at two
        # transmitters on one scene, called in turn, give the paths of an
        # engine built just before the call
        wall = Building(
            id=1,
            footprint=np.array([[-80.0, 40.0], [180.0, 40.0], [180.0, 42.0], [-80.0, 42.0]]),
            height=30.0,
        )
        scene = Scene(
            buildings=[wall],
            scatterers=[
                CylinderScatterer(id=9, base_center=np.array([50.0, 10.0, 0.0]), radius=0.375, height=8.2),
                CylinderScatterer(id=10, base_center=np.array([70.0, 20.0, 0.0]), radius=0.375, height=8.2),
            ],
        )
        tx1 = np.array([0.0, 0.0, 20.0])
        tx2 = np.array([30.0, -5.0, 15.0])
        rx = np.array([100.0, 0.0, 4.5])
        engines = {0: ScatterEngine(scene, F19, tx1), 1: ScatterEngine(scene, F19, tx2)}
        for k, tx in ((0, tx1), (1, tx2), (0, tx1)):
            (got,) = engines[k].paths(rx[None])
            (want,) = ScatterEngine(scene, F19, tx).paths(rx[None])
            assert len(got) == len(want) > 0
            for p, q in zip(got, want):
                assert p.signature == q.signature
                np.testing.assert_array_equal(p.transfer, q.transfer)
                assert p.delay_s == q.delay_s
                np.testing.assert_array_equal(p.vertices, q.vertices)


# ----------------------------------------------------------------------
# the chunked engine against the scalar oracle, bit for bit
# ----------------------------------------------------------------------
def _pylon(sid, x, y):
    return CylinderScatterer(id=sid, base_center=np.array([x, y, 0.0]), radius=0.375, height=8.2)


def _check_engine(engine, receivers):
    """Echoes and counters of one engine call against the oracle, receiver
    by receiver; returns the echo counts per receiver."""
    tx = engine.tx
    before = dict(engine.counters)
    got = engine.paths(receivers)
    assert len(got) == len(receivers)
    meshes = [mesh_cylinder(s, engine.carrier) for s in engine.scene.scatterers]
    incident = [oracle_incident_terms(m, tx, engine.carrier.wavenumber) for m in meshes]
    echoes = terms = 0
    for rx, paths in zip(receivers, got):
        want, live = oracle_echoes(engine.scene, meshes, tx, rx, engine.carrier, incident)
        assert_same_paths(paths, want)
        echoes += len(want)
        terms += live
    assert engine.counters["snapshots"] - before["snapshots"] == len(receivers)
    assert engine.counters["echoes"] - before["echoes"] == echoes
    assert engine.counters["facet_terms"] - before["facet_terms"] == terms
    return [len(p) for p in got]


class TestChunkedAgainstOracle:
    @pytest.mark.parametrize("window", [(20.5, 21.0), None], ids=["window_20.5_21.0", "full_window"])
    def test_preset_receivers_in_chunks(self, window):
        cfg = load_preset()
        w0, w1 = window or cfg.scatter_window_s
        steps = np.arange(round(w0 / cfg.update_step_s), round(w1 / cfg.update_step_s) + 1)
        traj = cfg.trajectory()
        receivers = np.array([traj.position(i * cfg.update_step_s) for i in steps])
        engine = ScatterEngine(cfg.load_scene(), CarrierConfig(cfg.carrier_hz), cfg.tx_position)
        for s0 in range(0, len(receivers), SOLVE_CHUNK):
            counts = _check_engine(engine, receivers[s0 : s0 + SOLVE_CHUNK])
            assert max(counts) > 0
        # one leg per mesh for the transmitter, then one per mesh and receiver
        assert engine.counters["legs_tested"] == len(engine.scene.scatterers) * (1 + len(receivers))

    def test_stream_rows_are_the_oracle_at_each_snapshot(self):
        # the exact stream hands each snapshot the echoes of its own step,
        # chunk boundaries and keyframes alike
        cfg = load_preset()
        carrier = CarrierConfig(cfg.carrier_hz)
        scene = cfg.load_scene()
        traj = Trajectory(waypoints=cfg.waypoints.copy(), speed=cfg.speed_mps, duration=21.0)
        result = stream_snapshots(
            scene, traj, cfg.tx_position, carrier, cfg.update_step_s, 0.5, cfg.limits, start_step=2050
        )
        assert len(result.snapshots) == 51 > SOLVE_CHUNK
        meshes = [mesh_cylinder(s, carrier) for s in scene.scatterers]
        echoes = 0
        for snap in result.snapshots:
            want, _ = oracle_echoes(scene, meshes, cfg.tx_position, traj.position(snap.timestamp), carrier)
            v = traj.velocity(snap.timestamp)
            u = [w.vertices[-1] - w.vertices[-2] for w in want]
            dopplers = [-carrier.frequency_hz * float(np.dot(d, v)) / (float(np.linalg.norm(d)) * C0) for d in u]
            want = [RayPath.from_polyline(w.interactions, w.vertices, w.transfer, TAG_SCATTER, f) for w, f in zip(want, dopplers)]
            # the stream's rows keep no vertices
            got = [p for p in snap.paths if p.tag == TAG_SCATTER]
            assert [row_values(p) for p in got] == [row_values(q) for q in want]
            echoes += len(want)
        assert result.counters["scatter"]["echoes"] == echoes
        assert result.counters["scatter"]["snapshots"] == 51

    def test_lit_and_visible_split_varies_across_one_chunk(self):
        # receivers circling one pylon: the live facets change from receiver
        # to receiver, and fall to none behind a plate
        engine = ScatterEngine(Scene(buildings=[], scatterers=[_pylon(9, 0.0, 0.0)]), F19, np.array([120.0, 10.0, 6.0]))
        a = np.radians(np.arange(0.0, 360.0, 11.0))
        ring = np.stack([60.0 * np.cos(a), 60.0 * np.sin(a), 2.0 + 10.0 * np.abs(np.sin(a))], axis=1)
        _check_engine(engine, ring)
        _, live = _facet_sums(engine._lit[0], ring, F19)
        assert len(set(live.tolist())) > 5

        plate = mesh_plate(np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 3.0, 2.0, LAM / 2.0)
        src = np.array([40.0, 5.0, 3.0])
        obs = np.array([[30.0, -4.0, 1.0], [-30.0, 2.0, 0.0], [5.0, 20.0, -3.0], [-1.0, 0.0, 0.0], [50.0, 0.0, 0.0]])
        transfers, live = _facet_sums(_lit_facets(plate, src, F19), obs, F19)
        assert live.tolist()[1] == live.tolist()[3] == 0 < min(live[[0, 2, 4]])
        for o, t, n in zip(obs, transfers, live):
            want, n_want = oracle_facet_sum(plate, src, o, F19)
            assert t.tobytes() == want.tobytes() and n == n_want

        # tilted plates, whose facets are not vertical: the normal and tan_u
        # have a z component.  The last observer of each sits straight above
        # a facet centre, so the basis toward it takes the pole rule, and every
        # other plate's source sits straight above one, so its incident basis
        # does too
        rng = np.random.default_rng(32)
        poles = 0
        for i in range(30):
            normal = rng.normal(size=3)
            normal[2] = abs(normal[2]) + 0.3
            normal /= np.linalg.norm(normal)
            tan_u = np.cross(normal, rng.normal(size=3))
            tan_u /= np.linalg.norm(tan_u)
            assert abs(normal[2]) > 0.1 and abs(tan_u[2]) > 1e-3
            width, height = rng.uniform(0.5, 3.0, 2)
            plate = mesh_plate(rng.normal(size=3), normal, tan_u, width, height, LAM / 2.0)
            centers = plate.centers
            if i % 2:
                src = centers[rng.integers(len(centers))] + np.array([0.0, 0.0, 25.0])
            else:
                src = plate.reference_point + 40.0 * normal + rng.normal(scale=5.0, size=3)
            above = centers[rng.integers(len(centers))] + np.array([0.0, 0.0, rng.uniform(2.0, 30.0)])
            obs = np.vstack([plate.reference_point + rng.normal(scale=30.0, size=(6, 3)), above])
            transfers, live = _facet_sums(_lit_facets(plate, src, F19), obs, F19)
            for o, t, n in zip(obs, transfers, live):
                want, n_want = oracle_facet_sum(plate, src, o, F19)
                assert t.tobytes() == want.tobytes() and n == n_want
            poles += live[-1] > 0
        assert poles == 30

    def test_blocked_legs(self):
        # a block shadows pylon 2 from the transmitter, and the legs of the
        # receivers on the near row to pylons 1 and 3 for part of their run;
        # two receivers far behind see both
        block = Building(id=1, footprint=np.array([[40.0, 8.0], [60.0, 8.0], [60.0, 14.0], [40.0, 14.0]]), height=25.0)
        scene = Scene(buildings=[block], scatterers=[_pylon(1, 30.0, 20.0), _pylon(2, 50.0, 30.0), _pylon(3, 70.0, 20.0)])
        engine = ScatterEngine(scene, F19, np.array([50.0, -20.0, 6.0]))
        receivers = np.stack([np.linspace(0.0, 100.0, 40), np.full(40, 0.0), np.full(40, 3.0)], axis=1)
        receivers = np.insert(receivers, 20, [[50.0, -60.0, 3.0], [40.0, -60.0, 3.0]], axis=0)
        counts = _check_engine(engine, receivers)
        assert engine._lit[1] is None and engine._lit[0] is not None and engine._lit[2] is not None
        assert 0 in counts and 2 in counts and 1 in counts

    def test_chunk_longer_than_the_row_budget(self, monkeypatch):
        scene = Scene(buildings=[], scatterers=[_pylon(1, 30.0, 20.0), _pylon(2, 70.0, 25.0)])
        tx = np.array([0.0, -30.0, 10.0])
        n_lit = _lit_facets(mesh_cylinder(scene.scatterers[0], F19), tx, F19).table.shape[1]
        n_rx = 3 * (scatter.FACET_ROW_BUDGET // n_lit) + 1
        receivers = np.stack([np.linspace(-20.0, 120.0, n_rx), np.full(n_rx, 2.0), np.full(n_rx, 2.5)], axis=1)
        reference = ScatterEngine(scene, F19, tx).paths(receivers)
        _check_engine(ScatterEngine(scene, F19, tx), receivers)
        # the pass split leaves every receiver's bits where they are
        for budget in (1, n_lit + 1, 10**6):
            monkeypatch.setattr(scatter, "FACET_ROW_BUDGET", budget)
            for got, want in zip(ScatterEngine(scene, F19, tx).paths(receivers), reference):
                assert_same_paths(got, want)

    def test_transmitter_switch(self):
        # one engine per transmitter on one scene, switched between call by
        # call: each stays the oracle at its own transmitter
        wall = Building(id=1, footprint=np.array([[-80.0, 40.0], [180.0, 40.0], [180.0, 42.0], [-80.0, 42.0]]), height=30.0)
        scene = Scene(buildings=[wall], scatterers=[_pylon(9, 50.0, 10.0), _pylon(10, 70.0, 20.0)])
        receivers = np.stack([np.linspace(80.0, 120.0, 9), np.linspace(-5.0, 5.0, 9), np.full(9, 4.5)], axis=1)
        engines = [ScatterEngine(scene, F19, np.array(tx)) for tx in ([0.0, 0.0, 20.0], [30.0, -5.0, 15.0], [-20.0, 10.0, 8.0])]
        for k in (0, 1, 2, 0):
            assert min(_check_engine(engines[k], receivers)) > 0
        # the transmitter's legs at construction, then each receiver's per call
        assert [e.counters["legs_tested"] for e in engines] == [2 * (1 + 2 * 9), 2 * (1 + 9), 2 * (1 + 9)]

    def test_receivers_must_be_rows(self):
        engine = ScatterEngine(Scene(buildings=[], scatterers=[_pylon(9, 0.0, 0.0)]), F19, np.array([50.0, 0.0, 5.0]))
        with pytest.raises(ValueError, match=r"\(S, 3\)"):
            engine.paths(np.array([-50.0, 0.0, 5.0]))
        with pytest.raises(ValueError, match="inside the scatterer"):
            engine.paths(np.array([[-50.0, 0.0, 5.0], [0.1, 0.0, 4.0]]))


class TestDot:
    """The pass's three-term dot, ``_dot``, gives the bits of
    ``np.einsum("ij,ij->i")`` over the same rows held C-contiguous, as the
    facet sum held them when it called einsum, the sign of a zero sum
    included, and of the grid form ``np.einsum("slj,lj->sl")``."""

    @staticmethod
    def assert_einsum_bits(a, b):
        want = np.einsum("ij,ij->i", np.ascontiguousarray(a), np.ascontiguousarray(b))
        got = _dot(a.T, b.T)
        assert got.tobytes() == want.tobytes()
        got = np.empty(len(a))
        assert _dot(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T), out=got) is got
        assert got.tobytes() == want.tobytes()

    def test_random_rows(self):
        rng = np.random.default_rng(7)
        for scale in (1e-300, 1e-8, 1.0, 1e150):
            a, b = rng.normal(size=(2, 20_000, 3)) * scale
            self.assert_einsum_bits(a, b)

    def test_preset_lit_facet_rows(self):
        # every pair of 3-vector fields of the preset's lit-facet tables, and
        # the unit directions from each facet to a receiver on the track
        cfg = load_preset()
        carrier = CarrierConfig(cfg.carrier_hz)
        engine = ScatterEngine(cfg.load_scene(), carrier, cfg.tx_position)
        rx = cfg.trajectory().position(20.5)
        tables = [lit.table for lit in engine._lit if lit is not None]
        assert tables
        for table in tables:
            ks = rx[:, None] - table[0:3]
            ks /= np.linalg.norm(ks, axis=0)
            vectors = [ks, table[3:6], table[6:9], table[9:15:2], table[10:15:2], table[19:25:2], table[20:25:2]]
            for a in vectors:
                for b in vectors:
                    self.assert_einsum_bits(a.T, b.T)

    def test_signed_zero_rows(self):
        # every row of components from a set whose products include +0.0,
        # -0.0 and underflows of either sign
        values = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300])
        grid = np.stack(np.meshgrid(*[values] * 6, indexing="ij"), axis=-1).reshape(-1, 6)
        a, b = grid[:, :3], grid[:, 3:]
        self.assert_einsum_bits(a, b)
        # rows where the bare sum is -0.0 and einsum's is +0.0
        bare = (a[:, 0] * b[:, 0] + a[:, 2] * b[:, 2]) + a[:, 1] * b[:, 1]
        assert np.any((bare == 0.0) & np.signbit(bare))
        assert not np.any(np.signbit(np.einsum("ij,ij->i", a, b)[bare == 0.0]))

    def test_grazing_rows(self):
        # unit rows against rows all but orthogonal to them, where the sum
        # cancels to a few ulps or to zero
        rng = np.random.default_rng(11)
        a = rng.normal(size=(20_000, 3))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = np.cross(a, rng.normal(size=(20_000, 3)))
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        for eps in (0.0, 1e-17, 1e-12, -1e-9):
            self.assert_einsum_bits(a, b + eps * a)
        axis = np.eye(3)[rng.integers(3, size=20_000)]
        self.assert_einsum_bits(axis, b)

    def test_grid_form(self):
        rng = np.random.default_rng(3)
        ks = rng.normal(size=(4, 300, 3))
        normals = rng.normal(size=(300, 3))
        want = np.einsum("slj,lj->sl", ks, normals)
        got = _dot(np.moveaxis(ks, -1, 0), normals.T[:, None, :])
        assert got.tobytes() == want.tobytes()


class TestContainment:
    """The engine refuses an antenna inside any scatterer body, whatever its
    legs: the transmitter at construction, the receivers at each call."""

    def test_transmitter_inside_a_pylon_behind_a_wall(self):
        # the wall blocks the receiver's legs to the pylon
        wall = Building(id=1, footprint=np.array([[20.0, -50.0], [22.0, -50.0], [22.0, 50.0], [20.0, 50.0]]), height=30.0)
        scene = Scene(buildings=[wall], scatterers=[_pylon(9, 0.0, 0.0)])
        assert scene.segments_blocked(np.array([[50.0, 0.0, 4.0]]), np.array([scene.scatterers[0].reference_point])).all()
        with pytest.raises(ValueError, match="inside the scatterer"):
            ScatterEngine(scene, F19, np.array([0.1, 0.0, 4.0]))

    def test_receiver_inside_a_pylon_the_transmitter_cannot_see(self):
        wall = Building(id=1, footprint=np.array([[-10.0, -50.0], [-8.0, -50.0], [-8.0, 50.0], [-10.0, 50.0]]), height=30.0)
        scene = Scene(buildings=[wall], scatterers=[_pylon(9, 0.0, 0.0)])
        engine = ScatterEngine(scene, F19, np.array([-50.0, 0.0, 5.0]))
        assert engine._lit == [None]
        with pytest.raises(ValueError, match="inside the scatterer"):
            engine.paths(np.array([[0.1, 0.0, 4.0]]))
        assert [len(rows) for rows in engine.paths(np.array([[30.0, 0.0, 4.0]]))] == [0]

    def test_mask_over_points_and_pylons(self):
        pylons = [_pylon(1, 0.0, 0.0), _pylon(2, 10.0, 0.0)]
        points = np.array([[0.1, 0.0, 4.0], [10.0, 0.3, 8.0], [5.0, 0.0, 4.0], [0.0, 0.0, 8.3], [10.0, 0.0, -0.1]])
        want = [[True, False], [False, True], [False, False], [False, False], [False, False]]
        assert scatter.inside_scatterers(pylons, points).tolist() == want
        assert scatter.inside_scatterers([], points).shape == (5, 0)
