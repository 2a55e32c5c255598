"""Specular tracer tests.

The image-method oracles come from hand constructions: single-wall and
two-parallel-wall scenes where every image position and path length is
computable in closed form.  The staged occlusion rounds are checked against
``oracle_single_call_masks``, one ``segments_blocked`` call over every
segment of every candidate, as the tracer tested them before the rounds.
"""

import itertools
import math
import time

import numpy as np
import pytest

from railchan import specular
from railchan.config import load_preset
from railchan.em import C0, CarrierConfig, free_space_transport, knife_edge_diffraction, knife_edge_v
from railchan.rays import EDGE_DIFFRACTION, LOS_SIGNATURE, REFLECTION, ROOFTOP_DIFFRACTION, path_order, polyline_lengths
from railchan.scene import EPS_GEOM, Building, Material, Scene
from railchan.specular import SOLVE_STAGES, SpecularTracer, TraceLimits, _clear_masks, trace_rooftop
from path_oracle import interactions_of, read_rows
from rooftop_oracle import oracle_rooftop_path, rooftop_paths, traced_rooftop_path

F19 = CarrierConfig(frequency_hz=1.9e9)
NO_DIFFRACTION = TraceLimits(max_reflections=2, max_vertical_diffractions=0, rooftop=False)


def solve(tracer, rx, limits=None):
    """The paths of ``tracer``'s one-receiver solve at ``rx``."""
    return tracer.trace(np.asarray(rx, dtype=float)[None], limits)[0]


def trace(scene, tx, rx, limits):
    """The rows of a fresh tracer's one-receiver solve at ``rx``."""
    return read_rows(solve(SpecularTracer(scene, F19, tx), rx, limits))


def wall(bid, y0, y1, x0=-200.0, x1=200.0, height=30.0, material=None):
    fp = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)
    if material is None:
        return Building(id=bid, footprint=fp, height=height)
    return Building(id=bid, footprint=fp, height=height, material=material)


def lengths_by_signature(paths):
    return {p.signature: polyline_lengths(p.vertices) for p in paths}


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
        assert polyline_lengths(p.vertices) == pytest.approx(d, abs=1e-9)
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
    # the tracer checks its transmitter at construction and its receivers
    # before any family or the rooftop path is built; a box between the
    # antennas would otherwise give a K path.
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
        scene = Scene(buildings=[self.BOX])
        if message.startswith("tx lies"):
            with pytest.raises(ValueError, match=message):
                SpecularTracer(scene, F19, np.array(tx))
            return
        tracer = SpecularTracer(scene, F19, np.array(tx))
        with pytest.raises(ValueError, match=message):
            solve(tracer, np.array(rx), TraceLimits())

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_first_bad_receiver_of_a_chunk_names_its_fault(self, order):
        # one receiver on the transmitter, one inside the box, one below the
        # ground, after a good one, in every order
        tx = np.array([-60.0, 0.0, 10.0])
        bad = [
            (tx, "tx and rx must be distinct points"),
            ([0.0, 0.0, 5.0], "rx lies inside a building"),
            ([50.0, 0.0, -1e-9], "rx lies below the ground"),
        ]
        receivers = np.array([[50.0, 0.0, 5.0], *(bad[k][0] for k in order)])
        with pytest.raises(ValueError) as err:
            SpecularTracer(Scene(buildings=[self.BOX]), F19, tx).trace(receivers)
        assert str(err.value) == bad[order[0]][1]


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
        fwd_sigs = {p.signature: polyline_lengths(p.vertices) for p in fwd}
        rev_sigs = {}
        for p in rev:
            toks = p.signature.split("|")
            rev_sigs["|".join(reversed(toks))] = polyline_lengths(p.vertices)
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
            assert p.delay_s == pytest.approx(polyline_lengths(p.vertices) / C0, abs=1e-12)


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
            power = {sig: float(np.sum(np.abs(p.transfer) ** 2)) for sig, p in by_sig.items()}
            assert power["D(1:5)"] < power[LOS_SIGNATURE]

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


def box(bid, x0, y0, x1, y1, height):
    return Building(id=bid, footprint=np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float), height=height)


#: two boxes sharing the wall x = 0: building 1 (10 m) east, building 2 west
SHARED_WALL = [box(1, 0.0, -10.0, 10.0, 10.0, 10.0), box(2, -10.0, -10.0, 0.0, 10.0, 15.0)]
SHARED_WALL_LEVEL = [box(1, 0.0, -10.0, 10.0, 10.0, 10.0), box(2, -10.0, -10.0, 0.0, 10.0, 10.0)]


class TestRooftop:
    def setup_method(self):
        self.box = Building(id=7, footprint=np.array([[-5.0, -10.0], [5.0, -10.0], [5.0, 10.0], [-5.0, 10.0]]), height=15.0)

    def test_single_box_two_edges(self):
        scene = Scene(buildings=[self.box])
        tx = np.array([-60.0, 0.0, 10.0])
        rx = np.array([50.0, 0.0, 5.0])
        path = traced_rooftop_path(scene, tx, rx, F19)
        assert path is not None
        recs = interactions_of(path.signature)
        assert len(recs) == 2
        assert all(r.kind == ROOFTOP_DIFFRACTION for r in recs)
        assert {r.element_id for r in recs} == {1, 3}  # near/far facade crossings
        # apexes on the roof plane
        for apex in path.vertices[1:-1]:
            assert apex[2] == pytest.approx(15.0, abs=1e-9)
        # delay follows the apex polyline, longer than direct distance
        assert polyline_lengths(path.vertices) > np.linalg.norm(rx - tx)
        assert path.delay_s == pytest.approx(polyline_lengths(path.vertices) / C0, abs=1e-15)

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
        path = traced_rooftop_path(scene, tx, rx, F19)
        assert path is not None
        assert len(interactions_of(path.signature)) == 4
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

    @pytest.mark.parametrize(
        "buildings, x0, x1, want, apexes",
        [
            # buildings 2 (15 m) and 1 (10 m) share the wall x = 0, where the
            # track's exit from one footprint and entry into the other tie in
            # t; the exit comes first, so the chain never zig-zags between roofs
            (SHARED_WALL, [-30.0, 0.0, 5.0], [30.0, 0.0, 5.0], "K(2:3)|K(2:1)|K(1:3)|K(1:1)",
             [[-10.0, 0.0, 15.0], [0.0, 0.0, 15.0], [0.0, 0.0, 10.0], [10.0, 0.0, 10.0]]),
            (SHARED_WALL, [30.0, 0.0, 5.0], [-30.0, 0.0, 5.0], "K(1:1)|K(1:3)|K(2:1)|K(2:3)",
             [[10.0, 0.0, 10.0], [0.0, 0.0, 10.0], [0.0, 0.0, 15.0], [-10.0, 0.0, 15.0]]),
            # at equal heights the entry apex on the shared wall coincides
            # with the exit apex before it and is dropped
            (SHARED_WALL_LEVEL, [-30.0, 0.0, 5.0], [30.0, 0.0, 5.0], "K(2:3)|K(2:1)|K(1:1)",
             [[-10.0, 0.0, 10.0], [0.0, 0.0, 10.0], [10.0, 0.0, 10.0]]),
            # a drop is decided against the last apex kept, not the apex
            # before it: behind the shared wall x = 0 the track enters a
            # 0.6 um wall (dropped) and leaves it 1.2 um from the wall (kept)
            ([box(1, -5.0, -10.0, 0.0, 10.0, 10.0), box(2, 6e-7, -10.0, 1.2e-6, 10.0, 10.0)],
             [-20.0, 0.0, 5.0], [20.0, 0.0, 5.0], "K(1:3)|K(1:1)|K(2:1)",
             [[-5.0, 0.0, 10.0], [0.0, 0.0, 10.0], [1.2e-6, 0.0, 10.0]]),
            # a track through two footprint corners crosses each once, on the
            # facade whose half-open span starts there
            ([box(1, 0.0, 0.0, 10.0, 10.0, 10.0)], [-10.0, -10.0, 5.0], [20.0, 20.0, 5.0], "K(1:0)|K(1:2)",
             [[0.0, 0.0, 10.0], [10.0, 10.0, 10.0]]),
            # a vertical link has no ground track to cross a roofline
            (SHARED_WALL, [-30.0, 0.0, 5.0], [-30.0, 0.0, 25.0], None, None),
        ],
        ids=["tall_to_low", "low_to_tall", "level_roofs", "micron_wall", "through_corners", "vertical_link"],
    )
    def test_shared_wall_steps_from_roof_to_roof(self, buildings, x0, x1, want, apexes):
        scene = Scene(buildings=buildings)
        tx, rx = np.array(x0), np.array(x1)
        verts, (kinds, hosts) = trace_rooftop(scene, tx, rx)
        assert len(verts) == (want is not None)
        assert all(len(h) == len(verts) for h in hosts)
        if want is None:
            assert oracle_rooftop_path(scene, tx, rx, F19) is None
            assert not rooftop_paths(trace(scene, tx, rx, TraceLimits()))
            return
        assert kinds == (ROOFTOP_DIFFRACTION,) * len(apexes)
        np.testing.assert_allclose(verts[0, 1:-1], apexes, rtol=0, atol=1e-12)
        path = traced_rooftop_path(scene, tx, rx, F19)
        assert path.signature == want
        assert_same_paths([path], [oracle_rooftop_path(scene, tx, rx, F19)])

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

    def test_trace_equals_oracle_on_preset_t0_to_2s(self):
        # every solve of the preset at t = 0-2 s has its direct ray blocked
        # and keeps one rooftop path, equal to the one-path oracle's
        cfg = load_preset()
        scene, carrier = cfg.load_scene(), CarrierConfig(cfg.carrier_hz)
        tx = np.asarray(cfg.tx_position, dtype=float)
        tracer = SpecularTracer(scene, carrier, tx)
        traj = cfg.trajectory()
        for i in range(201):
            rx = traj.position(i * cfg.update_step_s)
            path = traced_rooftop_path(scene, tx, rx, carrier, tracer, cfg.limits)
            assert_same_paths([path], [oracle_rooftop_path(scene, tx, rx, carrier)])
        counts = tracer.counters["families"][ROOFTOP_DIFFRACTION]
        assert counts == {"generated": 201, "clear": 201, "kept": 201}


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


class TestStageTimers:
    def test_stages_lie_within_the_solves_and_leave_the_counters_alone(self):
        # the bench's five receivers of the 60 s preset in one chunked solve;
        # three see the direct ray blocked, so the rooftop stage runs its
        # generator
        cfg = load_preset()
        scene = cfg.load_scene()
        rx = np.array([cfg.trajectory().position(f * cfg.duration_s) for f in (0.2, 0.35, 0.5, 0.65, 0.8)])
        tracer, twin = (SpecularTracer(scene, CarrierConfig(cfg.carrier_hz), cfg.tx_position) for _ in range(2))
        t0 = time.perf_counter()
        tracer.trace(rx, cfg.limits)
        wall = time.perf_counter() - t0
        assert list(tracer.timings) == list(SOLVE_STAGES)
        assert all(v >= 0.0 for v in tracer.timings.values())
        assert sum(tracer.timings.values()) <= wall
        assert tracer.counters["families"]["K"]["generated"] == 3
        # the counters hold no timing and do not depend on the chunking: a
        # second tracer's one-receiver solves repeat them
        for r in rx:
            solve(twin, r, cfg.limits)
        assert tracer.counters == twin.counters


# ----------------------------------------------------------------------
# staged occlusion against one call over every segment
# ----------------------------------------------------------------------
def oracle_single_call_masks(scene, families):
    """Per family, the candidates whose every segment is clear, from one
    ``segments_blocked`` call over every segment of every candidate, and
    that call's segment count as the one round's."""
    blocked = scene.segments_blocked(
        np.concatenate([v[:, :-1].reshape(-1, 3) for v, *_ in families]),
        np.concatenate([v[:, 1:].reshape(-1, 3) for v, *_ in families]),
    )
    ends = np.cumsum([v.shape[0] * (v.shape[1] - 1) for v, *_ in families])
    masks = [
        ~b.reshape(v.shape[0], v.shape[1] - 1).any(axis=1)
        for (v, *_), b in zip(families, np.split(blocked, ends[:-1]))
    ]
    return masks, [len(blocked)]


CORNER = Building(id=1, footprint=np.array([[0.0, 0.0], [30.0, 0.0], [30.0, 20.0], [0.0, 20.0]]), height=25.0)
ROOF_BOX = Building(id=7, footprint=np.array([[-5.0, -10.0], [5.0, -10.0], [5.0, 10.0], [-5.0, 10.0]]), height=15.0)
ROOF_BOX2 = Building(id=8, footprint=np.array([[20.0, -10.0], [30.0, -10.0], [30.0, 10.0], [20.0, 10.0]]), height=12.0)
# (buildings, tx, rx) of TestEdgeDiffraction, TestMixedOrders and TestRooftop
SMALL_SCENES = {
    "corner": ([CORNER], [-40.0, -10.0, 8.0], [-10.0, 30.0, 5.0]),
    "corner_lit": ([CORNER], [-40.0, -10.0, 8.0], [-40.0, 30.0, 5.0]),
    "rear_wall": ([CORNER, wall(2, -40.0, -38.0, x0=-80.0, x1=40.0, height=25.0)], [-40.0, -10.0, 8.0], [-10.0, 30.0, 5.0]),
    "rooftop": ([ROOF_BOX], [-60.0, 0.0, 10.0], [50.0, 0.0, 5.0]),
    "rooftop_clear": ([ROOF_BOX], [-60.0, 0.0, 30.0], [50.0, 0.0, 30.0]),
    "rooftop_two_boxes": ([ROOF_BOX, ROOF_BOX2], [-60.0, 0.0, 10.0], [70.0, 0.0, 5.0]),
}


def small_solves(name):
    """(scene, tx, rx) of one small scene, each way round."""
    buildings, tx, rx = SMALL_SCENES[name]
    scene = Scene(buildings=buildings)
    return [(scene, np.array(tx), np.array(rx)), (scene, np.array(rx), np.array(tx))]


@pytest.fixture(scope="module")
def preset_solves():
    """(tracer, tx, receiver positions, limits) of the preset at t = 0-2 s
    every 0.1 s."""
    cfg = load_preset()
    traj = cfg.trajectory()
    tracer = SpecularTracer(cfg.load_scene(), CarrierConfig(cfg.carrier_hz), cfg.tx_position)
    return tracer, [traj.position(0.1 * i) for i in range(21)], cfg.limits


def assert_same_paths(got, want):
    assert [p.signature for p in got] == [p.signature for p in want]
    for p, q in zip(got, want):
        assert p.vertices.tobytes() == q.vertices.tobytes(), p.signature
        assert p.transfer.tobytes() == q.transfer.tobytes(), p.signature
        assert np.array([p.delay_s, *p.aod, *p.aoa, p.doppler_hz]).tobytes() == np.array(
            [q.delay_s, *q.aod, *q.aoa, q.doppler_hz]
        ).tobytes(), p.signature
        assert p.tag == q.tag


class TestStagedOcclusion:
    def check_masks(self, tracer, rx, limits):
        families = tracer.candidates(rx[None], limits)
        got, _ = _clear_masks(tracer.scene, families)
        want, _ = oracle_single_call_masks(tracer.scene, families)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        return families, want

    def check_trace(self, monkeypatch, tracer, rx, limits):
        got = solve(tracer, rx, limits)
        with monkeypatch.context() as m:
            m.setattr(specular, "_clear_masks", oracle_single_call_masks)
            want = solve(tracer, rx, limits)
        assert_same_paths(read_rows(got), read_rows(want))
        return got

    def test_masks_equal_single_call_on_preset(self, preset_solves):
        tracer, rx_list, limits = preset_solves
        n_clear = 0
        for rx in rx_list:
            _, want = self.check_masks(tracer, rx, limits)
            n_clear += sum(int(w.sum()) for w in want)
        assert n_clear > 0

    @pytest.mark.parametrize("name", SMALL_SCENES)
    def test_masks_equal_single_call_on_small_scenes(self, name):
        for scene, tx, rx in small_solves(name):
            families, want = self.check_masks(SpecularTracer(scene, F19, tx), rx, TraceLimits())
            assert len(families) == 6

    def test_trace_equals_single_pass_oracle_on_preset(self, preset_solves, monkeypatch):
        tracer, rx_list, limits = preset_solves
        kinds = set()
        for rx in rx_list:
            paths = self.check_trace(monkeypatch, tracer, rx, limits)
            kinds.update(tuple(r.kind for r in interactions_of(sig)) for sig in paths.signature)
        # the preset's solves keep D, RD and DR paths and the rooftop path
        assert {("D",), ("R", "D"), ("D", "R")} <= kinds
        assert any(k and k[0] == ROOFTOP_DIFFRACTION for k in kinds)

    @pytest.mark.parametrize("name", SMALL_SCENES)
    def test_trace_equals_single_pass_oracle_on_small_scenes(self, monkeypatch, name):
        for scene, tx, rx in small_solves(name):
            for limits in (TraceLimits(), TraceLimits(max_reflections=1), NO_DIFFRACTION):
                self.check_trace(monkeypatch, SpecularTracer(scene, F19, tx), rx, limits)

    def test_rounds_halve_the_segments_tested_on_preset(self, preset_solves, monkeypatch):
        tracer, rx_list, limits = preset_solves
        calls = []
        original = Scene.segments_blocked

        def spy(scene, p, q):
            calls.append(len(p))
            return original(scene, p, q)

        oracle = UntabledTracer(tracer.scene, tracer.carrier, tracer.tx)
        expected = untabled = 0
        for rx in rx_list:
            for v, *_ in tracer.candidates(rx[None], limits):
                if len(v):
                    b = tracer.scene.segments_blocked(v[:, :-1].reshape(-1, 3), v[:, 1:].reshape(-1, 3))
                    b = b.reshape(len(v), -1)
                    # its segments up to and including the first blocked one
                    expected += int(np.where(b.any(axis=1), b.argmax(axis=1) + 1, b.shape[1]).sum())
            untabled += sum(v.shape[0] * (v.shape[1] - 1) for v, *_ in oracle.candidates(rx[None], limits))
            monkeypatch.setattr(Scene, "segments_blocked", spy)
            n_before = len(calls)
            solve(tracer, rx, limits)
            monkeypatch.undo()
            # one call per segment position, and none without a segment
            assert 1 <= len(calls) - n_before <= 3
        assert min(calls) > 0
        assert sum(calls) == expected
        # against one query over every segment of the untabled candidates
        assert sum(calls) <= untabled // 2


# ----------------------------------------------------------------------
# the transmitter tables against the untabled generators
# ----------------------------------------------------------------------
class UntabledTracer(SpecularTracer):
    """The tracer without its transmitter tables, as the test oracle: every
    wedge and every (wedge, facade) pair forms candidates at each solve, the
    diffraction test checks the source side each time, and no target leaves
    for a facade that blocks its first segment."""

    def _prepare_tables(self):
        super()._prepare_tables()
        fsel = np.nonzero(self._tx_front)[0]
        self._wedges = np.arange(self.scene.n_wedges)
        self._wedge_front_of = self._w_front_of
        self._rd_w, fk = np.nonzero(self._w_front_of[:, fsel])
        self._rd_f = fsel[fk]
        self._rd_src = self._img1[self._rd_f]

    def _edge_candidates(self, src, dst, widx):
        sc = self.scene
        w_xy = sc.wedge_xy[widx]
        p_src = src[..., :2] - w_xy
        p_dst = dst[..., :2] - w_xy
        d1 = np.linalg.norm(p_src, axis=-1)
        d2 = np.linalg.norm(p_dst, axis=-1)
        ok = (d1 > EPS_GEOM) & (d2 > EPS_GEOM)
        denom = np.where(ok, d1 + d2, 1.0)
        src_z = np.broadcast_to(np.asarray(src)[..., 2], d1.shape)
        dst_z = np.broadcast_to(np.asarray(dst)[..., 2], d1.shape)
        z = src_z + (dst_z - src_z) * d1 / denom
        ok &= (z >= -EPS_GEOM) & (z <= sc.wedge_height[widx] + EPS_GEOM)
        ok &= sc.wedge_azimuths(widx, p_src)[1] & sc.wedge_azimuths(widx, p_dst)[1]
        z = np.clip(z, 0.0, sc.wedge_height[widx])
        points = np.concatenate([np.broadcast_to(w_xy, d1.shape + (2,)), z[..., None]], axis=-1)
        return points, ok


# a small street grid: a shared wall (buildings 2 and 3), an L-shaped block
# with a reflex corner and a non-convex roof, and a range of heights
CITY = [
    box(1, -40.0, 10.0, -10.0, 30.0, 18.0),
    box(2, 0.0, 10.0, 20.0, 25.0, 15.0),
    box(3, 20.0, 10.0, 35.0, 25.0, 10.0),
    box(4, -30.0, -30.0, 0.0, -12.0, 22.0),
    Building(
        id=5,
        footprint=np.array([[10.0, -40.0], [45.0, -40.0], [45.0, -12.0], [30.0, -12.0], [30.0, -25.0], [10.0, -25.0]]),
        height=12.0,
    ),
]


def random_transmitters(scene, rng, n):
    """Transmitters outside ``scene``'s buildings: uniform ones, ones at
    roofline heights and ones near wedge corners, each offset by a few
    EPS_GEOM or less."""
    out = []
    heights = sorted({b.height for b in scene.buildings})
    while len(out) < n:
        kind = len(out) % 3
        if kind == 0:
            p = np.array([rng.uniform(-60, 60), rng.uniform(-60, 60), rng.uniform(0.5, 30.0)])
        elif kind == 1:
            p = np.array([rng.uniform(-60, 60), rng.uniform(-60, 60), rng.choice(heights) + rng.integers(-3, 4) * EPS_GEOM])
        else:
            w = rng.integers(scene.n_wedges)
            off = rng.choice([-3, -1, 0, 1, 3], size=2) * EPS_GEOM + rng.uniform(-2.0, 2.0, size=2) * rng.integers(0, 2)
            p = np.array([*(scene.wedge_xy[w] + off), scene.wedge_height[w] + rng.integers(-2, 3) * EPS_GEOM])
        if p[2] >= 0.0 and not scene.contains_points(p[None])[0]:
            out.append(p)
    return out


def table_targets(scene):
    """Every wedge (heights 0 to its top) and points on every facade, among
    them its ends and points a few EPS_GEOM from them (heights -EPS_GEOM to
    its top + EPS_GEOM): the ends of the first segments the tables judge."""
    xy = [scene.wedge_xy]
    zlo = [np.zeros(scene.n_wedges)]
    zhi = [scene.wedge_height]
    for s_frac in (0.0, 0.37, 0.5, 1.0):
        for shift in (-2.0, -0.5, 0.0, 0.5, 2.0) if s_frac in (0.0, 1.0) else (0.0,):
            s = s_frac * scene.fac_len + shift * EPS_GEOM
            xy.append(scene.fac_origin[:, :2] + s[:, None] * scene.fac_dir[:, :2])
            zlo.append(np.full(scene.n_facades, -EPS_GEOM))
            zhi.append(scene.fac_height + EPS_GEOM)
    return np.concatenate(xy), np.concatenate(zlo), np.concatenate(zhi)


def sweep_heights(scene, tx, xy, lo, hi, ends):
    """Heights through [lo, hi] for the segment tx -> (xy, z): a grid, the
    heights ``ends``, 0 and every roof height, and the heights where a
    crossed facade's crossing meets its top or the ground, each with offsets
    of up to 4 EPS_GEOM."""
    n = scene.n_facades
    seg = np.zeros((n, 3))
    seg[:, :2] = xy - tx[:2]
    t, _, _ = scene.facade_crossings(np.broadcast_to(tx, (n, 3)), seg, np.arange(n))
    t = t[(t > 0.0) & (t < 1.0)]
    crit = [0.0, *scene.fac_height, *ends]
    for h in {0.0, *scene.fac_height}:
        crit += list(tx[2] + (h - tx[2]) / t)
    # where a crossing's distance from either end, t L or (1 - t) L, meets
    # EPS_GEOM; L = hypot(horiz, z - tz)
    horiz = np.hypot(*(xy - tx[:2]))
    for c in (EPS_GEOM / t, EPS_GEOM / (1.0 - t)):
        w = np.sqrt(c[c > horiz] ** 2 - horiz**2)
        crit += list(tx[2] + w) + list(tx[2] - w)
    offsets = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]) * EPS_GEOM
    z = np.concatenate([np.linspace(lo, hi, 21), *(np.asarray(crit)[:, None] + np.concatenate([-offsets, offsets])[None, :])])
    z = np.unique(z)
    return z[(z >= lo) & (z <= hi)]


def check_covers(scene, tx, every=1):
    """Every target of :func:`table_targets` that a facade cover drops is
    blocked by ``segments_blocked`` at every height of :func:`sweep_heights`,
    which include the heights where each of its covers' crossings meets the
    ground and the facade's top.  Returns the number of targets dropped."""
    xy, zlo, zhi = table_targets(scene)
    xy, zlo, zhi = xy[::every], zlo[::every], zhi[::every]
    keep = np.hypot(*(xy - tx[:2]).T) > EPS_GEOM
    xy, zlo, zhi = xy[keep], zlo[keep], zhi[keep]
    ck, cf = specular._facade_covers(scene, tx, xy, zlo, zhi)
    seg = np.zeros((len(ck), 3))
    seg[:, :2] = xy[ck] - tx[:2]
    t, _, _ = scene.facade_crossings(np.broadcast_to(tx, seg.shape), seg, cf)
    ends = np.concatenate([tx[2] - tx[2] / t, tx[2] + (scene.fac_height[cf] - tx[2]) / t])
    owner = np.concatenate([ck, ck])
    dropped = np.unique(ck)
    q = [np.zeros((0, 3))]
    for k in dropped:
        z = sweep_heights(scene, tx, xy[k], zlo[k], zhi[k], ends[owner == k])
        q.append(np.column_stack([np.broadcast_to(xy[k], (len(z), 2)), z]))
    q = np.concatenate(q)
    assert scene.segments_blocked(np.broadcast_to(tx, q.shape), q).all()
    return len(dropped)


class TestTransmitterTables:
    def check_trace(self, scene, tx, rx, limits):
        tracer, oracle = SpecularTracer(scene, F19, tx), UntabledTracer(scene, F19, tx)
        got = solve(tracer, rx, limits)
        assert_same_paths(read_rows(got), read_rows(solve(oracle, rx, limits)))
        self.check_first_segments(tracer, oracle, rx, limits)
        return got

    def check_first_segments(self, tracer, oracle, rx, limits):
        """Every first segment of an untabled D, RD or DR candidate: the
        tables drop it only when ``segments_blocked`` finds it blocked."""
        tabled = tracer.candidates(rx[None], limits)
        for (verts, (kinds, hosts), _), (all_verts, (_, all_hosts), _) in zip(tabled, oracle.candidates(rx[None], limits)):
            if EDGE_DIFFRACTION not in kinds:
                continue
            blocked = tracer.scene.segments_blocked(all_verts[:, 0], all_verts[:, 1])
            kept = set(zip(*hosts))
            for key, b in zip(zip(*all_hosts), blocked):
                if key not in kept:
                    assert b, key

    def test_trace_equals_untabled_on_preset_t0_to_2s(self):
        cfg = load_preset()
        traj = cfg.trajectory()
        scene = cfg.load_scene()
        tracer = SpecularTracer(scene, CarrierConfig(cfg.carrier_hz), cfg.tx_position)
        oracle = UntabledTracer(scene, CarrierConfig(cfg.carrier_hz), cfg.tx_position)
        kinds = set()
        for i in range(201):
            rx = traj.position(0.01 * i)
            got = solve(tracer, rx, cfg.limits)
            assert_same_paths(read_rows(got), read_rows(solve(oracle, rx, cfg.limits)))
            self.check_first_segments(tracer, oracle, rx, cfg.limits)
            kinds.update(tuple(r.kind for r in interactions_of(sig)) for sig in got.signature)
        assert {("D",), ("R", "D"), ("D", "R")} <= kinds
        # the tables hold fewer candidates, and the same paths come out of them
        fam, ora = tracer.counters["families"], oracle.counters["families"]
        for name in ("D", "RD", "DR"):
            assert fam[name]["generated"] < ora[name]["generated"]
        assert fam == {n: {**ora[n], "generated": fam[n]["generated"]} for n in ora}
        assert sum(tracer.counters["occlusion_segments"]) < sum(oracle.counters["occlusion_segments"])

    @pytest.mark.parametrize("name", SMALL_SCENES)
    def test_trace_equals_untabled_on_small_scenes(self, name):
        for scene, tx, rx in small_solves(name):
            for limits in (TraceLimits(), TraceLimits(max_reflections=1)):
                self.check_trace(scene, tx, rx, limits)

    def test_trace_equals_untabled_for_random_transmitters(self):
        rng = np.random.default_rng(1701)
        scene = Scene(buildings=CITY)
        receivers = random_transmitters(scene, rng, 6)
        for tx in random_transmitters(scene, rng, 24):
            for rx in receivers:
                if np.linalg.norm(rx - tx) > EPS_GEOM:
                    self.check_trace(scene, tx, rx, TraceLimits())

    def test_dropped_targets_are_blocked_on_preset(self):
        cfg = load_preset()
        assert check_covers(cfg.load_scene(), np.asarray(cfg.tx_position, float), every=7) > 0

    @pytest.mark.parametrize("name", SMALL_SCENES)
    def test_dropped_targets_are_blocked_on_small_scenes(self, name):
        for scene, tx, _ in small_solves(name):
            check_covers(scene, tx)

    def test_dropped_targets_are_blocked_for_random_transmitters(self):
        rng = np.random.default_rng(1702)
        scene = Scene(buildings=CITY)
        assert sum(check_covers(scene, tx) for tx in random_transmitters(scene, rng, 30)) > 0

    def test_preset_tables_keep_34_wedges_and_291_rd_pairs(self):
        cfg = load_preset()
        tracer = SpecularTracer(cfg.load_scene(), CarrierConfig(cfg.carrier_hz), cfg.tx_position)
        assert (len(tracer._wedges), len(tracer._rd_w)) == (34, 291)

    def test_trace_equals_untabled_at_a_second_preset_transmitter(self):
        cfg = load_preset()
        scene = cfg.load_scene()
        carrier = CarrierConfig(cfg.carrier_hz)
        traj = cfg.trajectory()
        tx_b = np.asarray(cfg.tx_position, float) + np.array([-600.0, 5.0, -10.0])  # below the rooftops, nearer the track
        tracer, oracle = SpecularTracer(scene, carrier, tx_b), UntabledTracer(scene, carrier, tx_b)
        for i in range(8):
            rx = traj.position(0.25 * i)
            assert_same_paths(read_rows(solve(tracer, rx, cfg.limits)), read_rows(solve(oracle, rx, cfg.limits)))


class EinsumDotsTracer(SpecularTracer):
    """The tracer whose double-reflection pair table and generator take their
    facade-normal dots as three-term ``einsum``s over (K, 3) rows, as before
    the dots read the facade columns: the test oracle of the two-term rule."""

    def _prepare_tables(self):
        super()._prepare_tables()
        sc = self.scene
        p0 = sc.fac_origin[:, :2]
        p1 = p0 + sc.fac_dir[:, :2] * sc.fac_len[:, None]
        n2 = sc.fac_normal[:, :2]
        d0 = p0 @ n2.T - sc.fac_offset[None, :]
        d1 = p1 @ n2.T - sc.fac_offset[None, :]
        partly_front = (np.maximum(d0, d1) > EPS_GEOM).T
        feasible = partly_front & partly_front.T
        np.fill_diagonal(feasible, False)
        pair_i, pair_j = np.nonzero(feasible)
        live = self._tx_front[pair_i]
        pi, pj = pair_i[live], pair_j[live]
        m1 = self._img1[pi]
        n2 = sc.fac_normal[pj]
        d2 = np.einsum("kj,kj->k", m1, n2) - sc.fac_offset[pj]
        keep = d2 > EPS_GEOM
        self._live_i, self._live_j = pi[keep], pj[keep]
        self._img2 = m1[keep] - 2.0 * d2[keep, None] * n2[keep]

    def _double_reflections(self, rx, rx_front):
        sc = self.scene
        s, sel = np.nonzero(rx_front[:, self._live_j])
        fi, fj = self._live_i[sel], self._live_j[sel]
        x2, ok = specular._facade_crossing(sc, self._img2[sel], rx[s], fj)
        s, fi, fj, x2 = s[ok], fi[ok], fj[ok], x2[ok]
        x1, ok = specular._facade_crossing(sc, self._img1[fi], x2, fi)
        ok &= np.einsum("kj,kj->k", x1, sc.fac_normal[fj]) - sc.fac_offset[fj] > EPS_GEOM
        s = s[ok]
        return specular._polylines(self.tx, [x1[ok], x2[ok]], rx[s]), ((REFLECTION, REFLECTION), [fi[ok], fj[ok]]), s


class TestVerticalDots:
    """The double-reflection table's and generator's facade-normal dots sum
    two terms from the facade columns; they keep the einsum's tables and
    candidates bit for bit."""

    def check(self, scene, tx, receivers, limits):
        tracer, oracle = SpecularTracer(scene, F19, tx), EinsumDotsTracer(scene, F19, tx)
        for name in ("_live_i", "_live_j", "_img2"):
            assert getattr(tracer, name).tobytes() == getattr(oracle, name).tobytes()
        receivers = np.asarray(receivers, dtype=float)
        n_rr = 0
        for got, want in zip(tracer.candidates(receivers, limits), oracle.candidates(receivers, limits)):
            (verts, (kinds, hosts), owner), (want_verts, (want_kinds, want_hosts), want_owner) = got, want
            assert kinds == want_kinds and verts.tobytes() == want_verts.tobytes()
            assert all(np.array_equal(a, b) for a, b in zip(hosts, want_hosts)) and np.array_equal(owner, want_owner)
            n_rr += len(verts) if kinds == (REFLECTION, REFLECTION) else 0
        return n_rr

    def test_preset_t0_to_2s(self):
        cfg = load_preset()
        traj = cfg.trajectory()
        receivers = [traj.position(0.01 * i) for i in range(201)]
        assert self.check(cfg.load_scene(), cfg.tx_position, receivers, cfg.limits) > 0

    def test_random_transmitters(self):
        rng = np.random.default_rng(2707)
        scene = Scene(buildings=CITY)
        receivers = np.array(random_transmitters(scene, rng, 12))
        n_rr = 0
        for tx in random_transmitters(scene, rng, 8):
            n_rr += self.check(scene, tx, receivers[np.linalg.norm(receivers - tx, axis=1) > EPS_GEOM], TraceLimits())
        assert n_rr > 0


# ----------------------------------------------------------------------
# chunked solves against one-receiver solves
# ----------------------------------------------------------------------
def check_chunked(scene, carrier, tx, receivers, limits, chunk):
    """Solves ``receivers`` ``chunk`` at a time and one at a time with two
    fresh tracers; the path lists and the counters must be equal bit for
    bit.  Returns the chunked path lists, in receiver order."""
    chunked, single = SpecularTracer(scene, carrier, tx), SpecularTracer(scene, carrier, tx)
    receivers = np.asarray(receivers, dtype=float)
    got = []
    for first in range(0, len(receivers), chunk):
        got += chunked.trace(receivers[first : first + chunk], limits)
    assert len(got) == len(receivers)
    for paths, rx in zip(got, receivers):
        assert_same_paths(read_rows(paths), read_rows(solve(single, rx, limits)))
    assert chunked.counters == single.counters
    return got


def rooftop_edges(paths):
    return [len(interactions_of(p.signature)) for p in rooftop_paths(read_rows(paths))]


class TestChunkedTrace:
    @pytest.mark.parametrize("chunk", [1, 7, 32])
    def test_preset_t0_to_2s(self, chunk):
        cfg = load_preset()
        traj = cfg.trajectory()
        receivers = [traj.position(0.01 * i) for i in range(201)]
        got = check_chunked(cfg.load_scene(), CarrierConfig(cfg.carrier_hz), cfg.tx_position, receivers, cfg.limits, chunk)
        # every family and a rooftop path at every receiver
        kinds = {tuple(r.kind for r in interactions_of(sig)) for paths in got for sig in paths.signature}
        assert {("R", "R"), ("D",), ("R", "D"), ("D", "R")} <= kinds
        assert all(len(rooftop_edges(paths)) == 1 for paths in got)

    def test_preset_lists_in_path_order_with_unique_signatures(self):
        # the stream emits a keyframe's specular rows in solve order and
        # tracks them by signature: each block must already be in the one
        # row order, all specular, with no signature twice
        cfg = load_preset()
        traj = cfg.trajectory()
        receivers = np.array([traj.position(0.01 * i) for i in range(201)])
        tracer = SpecularTracer(cfg.load_scene(), CarrierConfig(cfg.carrier_hz), cfg.tx_position)
        n_paths = 0
        for first in range(0, len(receivers), 32):
            for paths in tracer.trace(receivers[first : first + 32], cfg.limits):
                assert path_order(paths).tolist() == list(range(len(paths)))
                assert set(paths.tag) == {"specular"}
                assert len(set(paths.signature)) == len(paths)
                n_paths += len(paths)
        assert n_paths > 201

    @pytest.mark.parametrize("name", SMALL_SCENES)
    def test_small_scenes(self, name):
        # each scene's receiver and points around it, each way round
        for scene, tx, rx in small_solves(name):
            receivers = [
                r
                for r in rx + np.array([[0.0, 0.0, 0.0], [3.0, -2.0, 1.0], [-5.0, 4.0, 0.5], [0.0, 0.0, 12.0]])
                if not scene.contains_points(r[None])[0] and np.linalg.norm(r - tx) > EPS_GEOM
            ]
            assert len(receivers) >= 3
            for limits in (TraceLimits(), TraceLimits(max_reflections=1), NO_DIFFRACTION):
                check_chunked(scene, F19, tx, receivers, limits, len(receivers))

    def test_random_transmitters_mix_blocked_and_clear_receivers(self):
        # receivers with their direct ray clear and blocked in one chunk, so
        # that the rooftop paths of a chunk have different edge counts
        rng = np.random.default_rng(2401)
        scene = Scene(buildings=CITY)
        receivers = np.array(random_transmitters(scene, rng, 12))
        mixed = 0
        for tx in random_transmitters(scene, rng, 8):
            rx = receivers[np.linalg.norm(receivers - tx, axis=1) > EPS_GEOM]
            got = check_chunked(scene, F19, tx, rx, TraceLimits(), len(rx))
            edges = {n for paths in got for n in rooftop_edges(paths)}
            clear = sum(LOS_SIGNATURE in paths.signature.tolist() for paths in got)
            mixed += len(edges) > 1 and 0 < clear < len(rx)
        assert mixed > 0

    def test_receiver_inside_a_building_mid_chunk(self):
        cfg = load_preset()
        scene = cfg.load_scene()
        traj = cfg.trajectory()
        inside = np.array([*scene.buildings[3].footprint.mean(axis=0), 1.0])
        assert scene.contains_points(inside[None])[0]
        receivers = np.array([traj.position(0.1 * i) for i in range(6)])
        receivers[3] = inside
        tracer = SpecularTracer(scene, CarrierConfig(cfg.carrier_hz), cfg.tx_position)
        with pytest.raises(ValueError, match="rx lies inside a building") as chunked:
            tracer.trace(receivers, cfg.limits)
        with pytest.raises(ValueError) as single:
            solve(tracer, inside, cfg.limits)
        assert str(chunked.value) == str(single.value)
        # the receivers are checked before any work
        assert tracer.counters == SpecularTracer(scene, tracer.carrier, tracer.tx).counters

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (1, 3, 3)])
    def test_receivers_must_be_rows_of_three(self, shape):
        tracer = SpecularTracer(Scene(buildings=[]), F19, np.array([0.0, 0.0, 10.0]))
        with pytest.raises(ValueError, match="receivers must be an"):
            tracer.trace(np.ones(shape), TraceLimits())

    def test_no_receivers(self):
        tracer = SpecularTracer(Scene(buildings=[]), F19, np.array([0.0, 0.0, 10.0]))
        assert tracer.trace(np.zeros((0, 3))) == []
