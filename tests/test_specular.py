"""Specular tracer tests.

The image-method oracles come from hand constructions: single-wall and
two-parallel-wall scenes where every image position and path length is
computable in closed form.
"""

import math

import numpy as np
import pytest

from railchan.em import C0, CarrierConfig, free_space_transport, knife_edge_diffraction, knife_edge_v
from railchan.rays import EDGE_DIFFRACTION, REFLECTION, ROOFTOP_DIFFRACTION, LOS_SIGNATURE
from railchan.scene import Building, Material, Scene
from railchan.specular import SpecularTracer, TraceLimits, trace_rooftop

F19 = CarrierConfig(frequency_hz=1.9e9)
NO_DIFFRACTION = TraceLimits(max_reflections=2, max_vertical_diffractions=0, rooftop=False)


def trace(scene, tx, rx, limits):
    return SpecularTracer(scene, F19).trace(tx, rx, limits)


def wall(bid, y0, y1, x0=-200.0, x1=200.0, height=30.0, material=None):
    fp = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)
    if material is None:
        return Building(id=bid, footprint=fp, height=height)
    return Building(id=bid, footprint=fp, height=height, material=material)


def lengths_by_signature(paths):
    return {p.signature: p.length_m for p in paths}


class TestEmptyScene:
    def test_single_los_path(self):
        scene = Scene(buildings=[])
        tx = np.array([0.0, 0.0, 10.0])
        rx = np.array([300.0, 40.0, 4.0])
        paths = trace(scene, tx, rx, TraceLimits())
        assert len(paths) == 1
        p = paths[0]
        assert p.signature == LOS_SIGNATURE
        d = np.linalg.norm(rx - tx)
        assert p.length_m == pytest.approx(d, abs=1e-9)
        assert p.delay_s == pytest.approx(d / C0, abs=1e-15)

    def test_tx_inside_building_rejected(self):
        scene = Scene(buildings=[wall(1, 10, 12)])
        inside = np.array([0.0, 11.0, 5.0])
        outside = np.array([0.0, -5.0, 5.0])
        with pytest.raises(ValueError):
            trace(scene, inside, outside, TraceLimits())
        with pytest.raises(ValueError):
            trace(scene, outside, inside, TraceLimits())

    def test_identical_endpoints_rejected(self):
        scene = Scene(buildings=[])
        p = np.array([0.0, 0.0, 5.0])
        with pytest.raises(ValueError):
            trace(scene, p, p, TraceLimits())


class TestInputChecks:
    # the tracer checks its endpoints once, before any family or the rooftop
    # path is built; a box between the antennas would otherwise give a K path.
    # With both endpoints at or above z = 0 the ground never blocks the direct
    # ray, so a blocked direct ray means a building blocks it.
    BOX = Building(id=7, footprint=np.array([[-5.0, -10.0], [5.0, -10.0], [5.0, 10.0], [-5.0, 10.0]]), height=15.0)

    @pytest.mark.parametrize(
        "tx, rx, message",
        [
            ([-60.0, 0.0, 10.0], [-60.0, 0.0, 10.0], "distinct"),
            ([0.0, 0.0, 10.0], [50.0, 0.0, 5.0], "tx lies inside"),
            ([-60.0, 0.0, 10.0], [0.0, 0.0, 5.0], "rx lies inside"),
            ([-60.0, 0.0, -1.0], [50.0, 0.0, 5.0], "tx lies below the ground"),
            ([-60.0, 0.0, 10.0], [50.0, 0.0, -1e-9], "rx lies below the ground"),
        ],
        ids=["coincident", "tx_inside", "rx_inside", "tx_below_ground", "rx_below_ground"],
    )
    def test_trace_rejects_bad_endpoints(self, tx, rx, message):
        tracer = SpecularTracer(Scene(buildings=[self.BOX]), F19)
        with pytest.raises(ValueError, match=message):
            tracer.trace(np.array(tx), np.array(rx), TraceLimits())


class TestSingleWall:
    def test_los_plus_one_reflection(self):
        scene = Scene(buildings=[wall(1, 10, 12)])
        tx = np.array([-30.0, 0.0, 5.0])
        rx = np.array([40.0, 3.0, 6.0])
        paths = trace(scene, tx, rx, NO_DIFFRACTION)
        assert len(paths) == 2
        by_sig = lengths_by_signature(paths)
        assert LOS_SIGNATURE in by_sig
        image = tx.copy()
        image[1] = 20.0 - image[1]
        want = float(np.linalg.norm(image - rx))
        assert by_sig["R(1:0)"] == pytest.approx(want, abs=1e-9)

    def test_reflection_point_on_wall_and_specular_law(self):
        scene = Scene(buildings=[wall(1, 10, 12)])
        tx = np.array([-30.0, 0.0, 5.0])
        rx = np.array([40.0, 3.0, 6.0])
        paths = trace(scene, tx, rx, NO_DIFFRACTION)
        refl = next(p for p in paths if p.signature == "R(1:0)")
        hit = refl.vertices[1]
        assert hit[1] == pytest.approx(10.0, abs=1e-9)
        n = np.array([0.0, -1.0, 0.0])
        d_in = (hit - tx) / np.linalg.norm(hit - tx)
        d_out = (rx - hit) / np.linalg.norm(rx - hit)
        angle_in = math.acos(abs(float(d_in @ n)))
        angle_out = math.acos(abs(float(d_out @ n)))
        assert angle_in == pytest.approx(angle_out, abs=1e-9)

    def test_behind_wall_no_reflection(self):
        scene = Scene(buildings=[wall(1, 10, 12)])
        tx = np.array([-30.0, 0.0, 5.0])
        rx = np.array([40.0, 30.0, 5.0])  # behind the wall
        paths = trace(scene, tx, rx, NO_DIFFRACTION)
        # LoS blocked, reflection impossible (rx on the back side)
        assert [p.signature for p in paths] == []


class TestTwoParallelWalls:
    """Canonical image-enumeration oracle."""

    def setup_method(self):
        # wall 1 inner face at y = 10 (facade 0), wall 2 inner face at y = -10
        # (facade 2 of a CCW box below the track)
        self.scene = Scene(buildings=[wall(1, 10, 12), wall(2, -12, -10)])
        self.tx = np.array([-50.0, 2.0, 8.0])
        self.rx = np.array([60.0, -3.0, 5.0])

    def images(self):
        def mirror_y(p, plane_y):
            q = p.copy()
            q[1] = 2 * plane_y - q[1]
            return q

        tx = self.tx
        return {
            "A": mirror_y(tx, 10.0),
            "B": mirror_y(tx, -10.0),
            "AB": mirror_y(mirror_y(tx, 10.0), -10.0),
            "BA": mirror_y(mirror_y(tx, -10.0), 10.0),
        }

    def test_exactly_five_paths(self):
        paths = trace(self.scene, self.tx, self.rx, NO_DIFFRACTION)
        assert len(paths) == 5

    def test_lengths_match_hand_images(self):
        paths = trace(self.scene, self.tx, self.rx, NO_DIFFRACTION)
        by_sig = lengths_by_signature(paths)
        img = self.images()
        want = {
            LOS_SIGNATURE: np.linalg.norm(self.rx - self.tx),
            "R(1:0)": np.linalg.norm(img["A"] - self.rx),
            "R(2:2)": np.linalg.norm(img["B"] - self.rx),
            "R(1:0)|R(2:2)": np.linalg.norm(img["AB"] - self.rx),
            "R(2:2)|R(1:0)": np.linalg.norm(img["BA"] - self.rx),
        }
        assert set(by_sig) == set(want)
        for sig, d in want.items():
            assert by_sig[sig] == pytest.approx(float(d), abs=1e-9), sig

    def test_symmetry_under_endpoint_swap(self):
        fwd = trace(self.scene, self.tx, self.rx, NO_DIFFRACTION)
        rev = trace(self.scene, self.rx, self.tx, NO_DIFFRACTION)
        fwd_sigs = {p.signature: p.length_m for p in fwd}
        rev_sigs = {}
        for p in rev:
            toks = p.signature.split("|")
            rev_sigs["|".join(reversed(toks))] = p.length_m
        assert set(fwd_sigs) == set(rev_sigs)
        for sig in fwd_sigs:
            assert fwd_sigs[sig] == pytest.approx(rev_sigs[sig], abs=1e-9)

    def test_no_duplicate_signatures(self):
        paths = trace(self.scene, self.tx, self.rx, NO_DIFFRACTION)
        sigs = [p.signature for p in paths]
        assert len(sigs) == len(set(sigs))

    def test_monotone_limits(self):
        p1 = trace(self.scene, self.tx, self.rx, TraceLimits(max_reflections=1, max_vertical_diffractions=0, rooftop=False))
        p2 = trace(self.scene, self.tx, self.rx, NO_DIFFRACTION)
        assert {p.signature for p in p1} <= {p.signature for p in p2}
        assert len(p1) == 3

    def test_all_subsegments_clear(self):
        paths = trace(self.scene, self.tx, self.rx, NO_DIFFRACTION)
        for p in paths:
            assert not self.scene.segments_blocked(p.vertices[:-1], p.vertices[1:]).any(), p.signature

    def test_delay_matches_length(self):
        paths = trace(self.scene, self.tx, self.rx, NO_DIFFRACTION)
        for p in paths:
            assert p.delay_s == pytest.approx(p.length_m / C0, abs=1e-12)


class TestEdgeDiffraction:
    def setup_method(self):
        # box with a vertical edge at (0, 0); tx in front, rx around the corner
        self.scene = Scene(buildings=[Building(id=1, footprint=np.array([[0.0, 0.0], [30.0, 0.0], [30.0, 20.0], [0.0, 20.0]]), height=25.0)])
        self.tx = np.array([-40.0, -10.0, 8.0])
        self.rx = np.array([-10.0, 30.0, 5.0])  # deep in the side region

    def test_diffraction_path_found(self):
        paths = trace(self.scene, self.tx, self.rx, TraceLimits(max_reflections=0, max_vertical_diffractions=1, rooftop=False))
        dsigs = [p for p in paths if p.signature.startswith("D(")]
        assert len(dsigs) >= 1
        d = dsigs[0]
        # edge at footprint vertex 0 of a 4-vertex box: element id 5
        assert d.signature == "D(1:5)"

    def test_diffraction_point_on_unfolded_line(self):
        paths = trace(self.scene, self.tx, self.rx, TraceLimits(max_reflections=0, max_vertical_diffractions=1, rooftop=False))
        d = next(p for p in paths if p.signature == "D(1:5)")
        e = d.vertices[1]
        np.testing.assert_allclose(e[:2], [0.0, 0.0], atol=1e-9)
        d1 = np.linalg.norm(e[:2] - self.tx[:2])
        d2 = np.linalg.norm(self.rx[:2] - e[:2])
        z_want = self.tx[2] + (self.rx[2] - self.tx[2]) * d1 / (d1 + d2)
        assert e[2] == pytest.approx(z_want, abs=1e-9)

    def test_diffraction_weaker_than_los(self):
        scene = Scene(buildings=[Building(id=1, footprint=np.array([[0.0, 0.0], [30.0, 0.0], [30.0, 20.0], [0.0, 20.0]]), height=25.0)])
        tx = np.array([-40.0, -10.0, 8.0])
        rx_lit = np.array([-40.0, 30.0, 5.0])  # sees tx directly
        paths = trace(scene, tx, rx_lit, TraceLimits(max_reflections=0, max_vertical_diffractions=1, rooftop=False))
        by_sig = {p.signature: p for p in paths}
        assert LOS_SIGNATURE in by_sig
        if "D(1:5)" in by_sig:
            assert by_sig["D(1:5)"].power < by_sig[LOS_SIGNATURE].power

    def test_reciprocity_of_diffraction_transfer(self):
        lim = TraceLimits(max_reflections=0, max_vertical_diffractions=1, rooftop=False)
        fwd = trace(self.scene, self.tx, self.rx, lim)
        rev = trace(self.scene, self.rx, self.tx, lim)
        f = next(p for p in fwd if p.signature == "D(1:5)")
        r = next(p for p in rev if p.signature == "D(1:5)")
        scale = np.max(np.abs(f.transfer))
        np.testing.assert_allclose(r.transfer, f.transfer.T, rtol=1e-10, atol=1e-10 * scale)

    def test_power_floor_drops_weak_paths(self):
        lim = TraceLimits(max_reflections=0, max_vertical_diffractions=1, rooftop=False, power_floor_db=80.0)
        paths = trace(self.scene, self.tx, self.rx, lim)
        # a floor of 80 dB removes every diffracted path at these ranges
        assert all(not p.signature.startswith("D(") for p in paths)


class TestMixedOrders:
    def test_rd_and_dr_paths_exist(self):
        # corner box plus a rear wall so that reflected-then-diffracted and
        # diffracted-then-reflected combinations are geometrically possible
        scene = Scene(
            buildings=[
                Building(id=1, footprint=np.array([[0.0, 0.0], [30.0, 0.0], [30.0, 20.0], [0.0, 20.0]]), height=25.0),
                wall(2, -40.0, -38.0, x0=-80.0, x1=40.0, height=25.0),
            ]
        )
        tx = np.array([-40.0, -10.0, 8.0])
        rx = np.array([-10.0, 30.0, 5.0])
        lim = TraceLimits(max_reflections=1, max_vertical_diffractions=1, rooftop=False)
        paths = trace(scene, tx, rx, lim)
        sigs = {p.signature for p in paths}
        kinds = {tuple(tok[0] for tok in s.split("|")) for s in sigs if s != LOS_SIGNATURE}
        assert ("D",) in kinds
        assert ("R", "D") in kinds or ("D", "R") in kinds

    def test_limits_cap_interaction_counts(self):
        scene = Scene(
            buildings=[
                Building(id=1, footprint=np.array([[0.0, 0.0], [30.0, 0.0], [30.0, 20.0], [0.0, 20.0]]), height=25.0),
                wall(2, -40.0, -38.0, x0=-80.0, x1=40.0, height=25.0),
            ]
        )
        tx = np.array([-40.0, -10.0, 8.0])
        rx = np.array([-10.0, 30.0, 5.0])
        paths = trace(scene, tx, rx, TraceLimits(max_reflections=2, max_vertical_diffractions=1, rooftop=False))
        for p in paths:
            toks = [] if p.signature == LOS_SIGNATURE else p.signature.split("|")
            n_r = sum(1 for t in toks if t.startswith("R"))
            n_d = sum(1 for t in toks if t.startswith("D"))
            assert n_r <= 2
            assert n_d <= 1
            # combined sequences keep total interactions at or below 2
            assert n_r + n_d <= 2


class TestRooftop:
    def setup_method(self):
        self.box = Building(id=7, footprint=np.array([[-5.0, -10.0], [5.0, -10.0], [5.0, 10.0], [-5.0, 10.0]]), height=15.0)

    def test_single_box_two_edges(self):
        scene = Scene(buildings=[self.box])
        tx = np.array([-60.0, 0.0, 10.0])
        rx = np.array([50.0, 0.0, 5.0])
        path = trace_rooftop(scene, tx, rx, F19)
        assert path is not None
        recs = path.interactions
        assert len(recs) == 2
        assert all(r.kind == ROOFTOP_DIFFRACTION for r in recs)
        assert {r.element_id for r in recs} == {1, 3}  # near/far facade crossings
        # apexes on the roof plane
        for apex in path.vertices[1:-1]:
            assert apex[2] == pytest.approx(15.0, abs=1e-9)
        # delay follows the apex polyline, longer than direct distance
        assert path.length_m > np.linalg.norm(rx - tx)
        assert path.delay_s == pytest.approx(path.length_m / C0, abs=1e-15)

    def test_los_present_gives_none(self):
        # a direct ray over the roof is clear: line of sight, no K path
        scene = Scene(buildings=[self.box])
        tx = np.array([-60.0, 0.0, 30.0])
        rx = np.array([50.0, 0.0, 30.0])
        roof_only = TraceLimits(max_reflections=0, max_vertical_diffractions=0, rooftop=True)
        assert [p.signature for p in trace(scene, tx, rx, roof_only)] == [LOS_SIGNATURE]

    def test_two_boxes_four_edges_and_epstein_peterson_loss(self):
        box2 = Building(id=8, footprint=np.array([[20.0, -10.0], [30.0, -10.0], [30.0, 10.0], [20.0, 10.0]]), height=12.0)
        scene = Scene(buildings=[self.box, box2])
        tx = np.array([-60.0, 0.0, 10.0])
        rx = np.array([70.0, 0.0, 5.0])
        path = trace_rooftop(scene, tx, rx, F19)
        assert path is not None
        assert len(path.interactions) == 4
        # hand-computed per-edge loss: product of knife-edge factors with
        # neighbor-vertex geometry
        verts = path.vertices
        factor = 1.0
        lam = F19.wavelength
        for i in range(1, len(verts) - 1):
            a, b, c = verts[i - 1], verts[i], verts[i + 1]
            u = (c - a) / np.linalg.norm(c - a)
            rel = b - a
            off = rel - (rel @ u) * u
            h = np.linalg.norm(off) * (1 if off[2] >= 0 else -1)
            v = knife_edge_v(h, float(np.linalg.norm(b - a)), float(np.linalg.norm(c - b)), lam)
            factor *= abs(knife_edge_diffraction(v))
        length = float(np.sum(np.linalg.norm(np.diff(verts, axis=0), axis=1)))
        want_vv = abs(free_space_transport(length, F19)) * factor
        assert abs(path.transfer[0, 0]) == pytest.approx(want_vv, rel=1e-9)

    def test_rooftop_included_by_trace_when_blocked(self):
        scene = Scene(buildings=[self.box])
        tx = np.array([-60.0, 0.0, 10.0])
        rx = np.array([50.0, 0.0, 5.0])
        roof_only = TraceLimits(max_reflections=0, max_vertical_diffractions=0, rooftop=True)
        paths = trace(scene, tx, rx, roof_only)
        sigs = {p.signature for p in paths}
        assert any(s.startswith("K(") for s in sigs)
        off = trace(scene, tx, rx, TraceLimits(max_reflections=0, max_vertical_diffractions=0, rooftop=False))
        assert not any(p.signature.startswith("K(") for p in off)


class TestDuplicateGeometry:
    def test_shared_corner_reflection_kept_once(self):
        # two boxes share the wall x = 0; their front facades (element 2, on
        # y = 0) meet at the specular point (0, 0, 2), so both facades yield
        # the same polyline and only the first candidate becomes a path
        scene = Scene(
            buildings=[
                Building(id=1, footprint=np.array([[-10.0, -10.0], [0.0, -10.0], [0.0, 0.0], [-10.0, 0.0]]), height=10.0),
                Building(id=2, footprint=np.array([[0.0, -10.0], [10.0, -10.0], [10.0, 0.0], [0.0, 0.0]]), height=10.0),
            ]
        )
        tx = np.array([-5.0, 10.0, 2.0])
        rx = np.array([5.0, 10.0, 2.0])
        lim = TraceLimits(max_reflections=1, max_vertical_diffractions=0, rooftop=False)
        paths = trace(scene, tx, rx, lim)
        assert [p.signature for p in paths] == [LOS_SIGNATURE, "R(1:2)"]
        np.testing.assert_allclose(paths[1].vertices[1], [0.0, 0.0, 2.0], atol=1e-12)


class TestDeterminism:
    def test_repeat_trace_identical(self):
        scene = Scene(buildings=[wall(1, 10, 12), wall(2, -12, -10), Building(id=3, footprint=np.array([[80.0, -5.0], [95.0, -5.0], [95.0, 5.0], [80.0, 5.0]]), height=18.0)])
        tx = np.array([-50.0, 2.0, 8.0])
        rx = np.array([60.0, -3.0, 5.0])
        a = trace(scene, tx, rx, TraceLimits())
        b = trace(scene, tx, rx, TraceLimits())
        assert len(a) == len(b)
        for p, q in zip(a, b):
            assert p.signature == q.signature
            np.testing.assert_array_equal(p.vertices, q.vertices)
            np.testing.assert_array_equal(p.transfer, q.transfer)
