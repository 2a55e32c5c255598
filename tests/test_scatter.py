"""Facet-summation scattering tests.

Two closed-form radar-cross-section oracles pin the physics: the PEC
rectangular plate (4 pi A^2 / lambda^2 at normal incidence) and the broadside
PEC cylinder (2 pi r h^2 / lambda).  The estimated RCS is recovered from the
transfer matrix by inverting the radar equation,
sigma = |T|^2 (4 pi)^3 r_i^2 r_s^2 / lambda^2.
"""

import math

import numpy as np
import pytest

from railchan.em import C0, CarrierConfig
from railchan.rays import TAG_SCATTER, polyline_lengths
from railchan.scene import Building, CylinderScatterer, Scene
from railchan.scatter import (
    ScatterEngine,
    _incident_terms,
    _observer_terms,
    mesh_cylinder,
    mesh_plate,
    po_scattered_matrix,
)

F19 = CarrierConfig(frequency_hz=1.9e9)
LAM = F19.wavelength
EMPTY = Scene(buildings=[])


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
        (p_fwd,) = ScatterEngine(scene, F19).paths(src, obs)
        (p_rev,) = ScatterEngine(scene, F19).paths(obs, src)
        assert p_fwd.delay_s == pytest.approx(p_rev.delay_s, abs=1e-15)

    def test_shadow_sweep_monotone_facet_count(self):
        cyl = CylinderScatterer(id=1, base_center=np.zeros(3), radius=0.375, height=8.2)
        mesh = mesh_cylinder(cyl, F19)
        src = np.array([500.0, 0.0, 4.1])
        incident = _incident_terms(mesh, src, F19.wavenumber)
        counts = []
        for deg in range(10, 171, 10):
            a = math.radians(deg)
            obs = np.array([300.0 * math.cos(a), 300.0 * math.sin(a), 4.1])
            # the facets lit by the source and visible from the observer
            *_, live = _observer_terms(mesh, obs, incident.cos_i)
            counts.append(int(np.count_nonzero(live)))
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
        assert ScatterEngine(EMPTY, F19).paths(np.array([0.0, 0.0, 5.0]), np.array([100.0, 0.0, 5.0])) == []

    def test_single_pylon_direct_only(self):
        scene = Scene(buildings=[], scatterers=[CylinderScatterer(id=9, base_center=np.array([50.0, 30.0, 0.0]), radius=0.375, height=8.2)])
        tx = np.array([0.0, 0.0, 20.0])
        rx = np.array([100.0, 0.0, 4.5])
        paths = ScatterEngine(scene, F19).paths(tx, rx)
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
        paths = ScatterEngine(scene, F19).paths(tx, rx)
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
        assert ScatterEngine(scene, F19).paths(tx, rx) == []

    def test_own_body_does_not_occlude(self):
        # forward-scatter geometry: pylon directly between the antennas
        scene = Scene(buildings=[], scatterers=[CylinderScatterer(id=9, base_center=np.array([50.0, 0.0, 0.0]), radius=0.375, height=8.2)])
        tx = np.array([0.0, 0.0, 4.1])
        rx = np.array([100.0, 0.0, 4.1])
        paths = ScatterEngine(scene, F19).paths(tx, rx)
        assert len(paths) == 1

    def test_determinism(self):
        scene = Scene(buildings=[], scatterers=[CylinderScatterer(id=9, base_center=np.array([50.0, 30.0, 0.0]), radius=0.375, height=8.2), CylinderScatterer(id=10, base_center=np.array([70.0, 30.0, 0.0]), radius=0.375, height=8.2)])
        tx = np.array([0.0, 0.0, 20.0])
        rx = np.array([100.0, 0.0, 4.5])
        a = ScatterEngine(scene, F19).paths(tx, rx)
        b = ScatterEngine(scene, F19).paths(tx, rx)
        assert [p.signature for p in a] == [p.signature for p in b]
        for p, q in zip(a, b):
            np.testing.assert_array_equal(p.transfer, q.transfer)

    def test_transmitter_change_matches_fresh_engine(self):
        # the engine keeps one transmitter's facet terms; switching tx and back must
        # give the paths of an engine that never saw the other transmitter
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
        engine = ScatterEngine(scene, F19)
        for tx in (tx1, tx2, tx1):
            got = engine.paths(tx, rx)
            want = ScatterEngine(scene, F19).paths(tx, rx)
            assert len(got) == len(want) > 0
            for p, q in zip(got, want):
                assert p.signature == q.signature
                np.testing.assert_array_equal(p.transfer, q.transfer)
                assert p.delay_s == q.delay_s
                np.testing.assert_array_equal(p.vertices, q.vertices)
