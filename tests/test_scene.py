"""Geometry and scene-file tests.

The load-bearing checks compare the occlusion kernel ``Scene._crossings``,
crossing by crossing, and the scene's one query ``segments_blocked`` with a
scalar per-segment scan over every object, ``oracle_crossings``: on random
segments, and on rays aimed at roof edges, footprint corners and a wall
shared by two touching buildings, where ``contains_point`` must agree with
them as well.
"""

import json
import math

import numpy as np
import pytest

from railchan.scene import (
    EPS_GEOM,
    GROUND_OBJECT_ID,
    Building,
    CylinderScatterer,
    Material,
    Scene,
    SceneError,
    load_scene,
)


def square(cx, cy, half):
    return [
        [cx - half, cy - half],
        [cx + half, cy - half],
        [cx + half, cy + half],
        [cx - half, cy + half],
    ]


def make_scene(buildings=None, scatterers=None, **kw):
    return Scene(buildings=buildings or [], scatterers=scatterers or [], **kw)


def box(bid, cx, cy, half, height, material=None):
    fp = np.array(square(cx, cy, half), dtype=float)
    if material is None:
        return Building(id=bid, footprint=fp, height=height)
    return Building(id=bid, footprint=fp, height=height, material=material)


def _point_in_polygon(point_xy, poly) -> bool:
    """Even-odd rule; points within EPS_GEOM of the boundary count as inside."""
    x, y = point_xy
    xs, ys = poly[:, 0], poly[:, 1]
    xe, ye = np.roll(xs, -1), np.roll(ys, -1)
    crosses = ((ys > y) != (ye > y)) & (
        x < xs + (y - ys) * (xe - xs) / np.where(ye != ys, ye - ys, 1.0)
    )
    if np.count_nonzero(crosses) % 2:
        return True
    return _boundary_distance(point_xy, poly) <= EPS_GEOM


def _boundary_distance(point_xy, poly) -> float:
    x, y = point_xy
    xs, ys = poly[:, 0], poly[:, 1]
    dx, dy = np.roll(xs, -1) - xs, np.roll(ys, -1) - ys
    tproj = np.clip(((x - xs) * dx + (y - ys) * dy) / (dx * dx + dy * dy), 0, 1)
    return float(np.sqrt(np.min((xs + tproj * dx - x) ** 2 + (ys + tproj * dy - y) ** 2)))


def oracle_crossings(scene, p, q) -> list:
    """Scalar reference for the occlusion kernel, one segment at a time.

    Every crossing of the open segment p->q that lies more than EPS_GEOM from
    both endpoints, as ``(object_id, element_id, t)``, sorted.  Facades are
    scanned as one array, rooftops one building at a time with the boundary
    counted as inside.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    seg = q - p
    seg_len = float(np.linalg.norm(seg))
    found = []
    if scene.n_facades:
        n = scene.fac_normal
        denom = n @ seg
        off = scene.fac_offset - n @ p
        ok = np.abs(denom) > 1e-15
        t = np.where(ok, off / np.where(ok, denom, 1.0), 0.0)
        dist = t * seg_len
        ok &= (dist > EPS_GEOM) & (dist < seg_len - EPS_GEOM)
        pts = p[None, :] + t[:, None] * seg[None, :]
        s = np.einsum("ij,ij->i", pts - scene.fac_origin, scene.fac_dir)
        ok &= (s >= -EPS_GEOM) & (s <= scene.fac_len + EPS_GEOM)
        ok &= (pts[:, 2] >= -EPS_GEOM) & (pts[:, 2] <= scene.fac_height + EPS_GEOM)
        for f in np.nonzero(ok)[0]:
            found.append((int(scene.fac_object[f]), int(scene.fac_element[f]), float(t[f])))
    if abs(seg[2]) > 1e-15:
        for b in scene.buildings:
            t = (b.height - p[2]) / seg[2]
            dist = t * seg_len
            if EPS_GEOM < dist < seg_len - EPS_GEOM and _point_in_polygon((p + t * seg)[:2], b.footprint):
                found.append((b.id, b.roof_element_id, float(t)))
        t = -p[2] / seg[2]
        dist = t * seg_len
        if EPS_GEOM < dist < seg_len - EPS_GEOM:
            found.append((GROUND_OBJECT_ID, 0, float(t)))
    return sorted(found)


def crossings(scene, p, q) -> list:
    """``Scene._crossings`` rows of each segment, as sorted
    ``(object_id, element_id, t)`` lists."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    rows = [[] for _ in range(len(p))]
    for k, t, obj, el in zip(*scene._crossings(p, q)):
        rows[k].append((int(obj), int(el), float(t)))
    return [sorted(r) for r in rows]


def assert_agrees_with_oracle(scene, p, q):
    """The kernel crosses, on each segment, exactly the elements that
    ``oracle_crossings`` finds, at the same ``t`` within 1e-9, and
    ``segments_blocked`` flags the segments with any crossing."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    blocked = scene.segments_blocked(p, q)
    got = crossings(scene, p, q)
    for k in range(len(p)):
        want = oracle_crossings(scene, p[k], q[k])
        assert blocked[k] == bool(want), k
        assert [row[:2] for row in got[k]] == [row[:2] for row in want], (k, got[k], want)
        for (_, _, t_got), (_, _, t_want) in zip(got[k], want):
            assert t_got == pytest.approx(t_want, abs=1e-9), (k, got[k], want)


class TestSceneLoading:
    def test_minimal_scene_round_trip(self):
        text = json.dumps(
            {
                "version": 1,
                "materials": {"concrete": {"eps_r": 5.0, "sigma": 0.1}, "metal": {"pec": True}},
                "ground_material": "concrete",
                "buildings": [
                    {"id": 7, "footprint": square(0, 0, 5), "height": 12.0, "material": "concrete"}
                ],
                "scatterers": [
                    {"id": 1, "base": [20.0, 0.0, 0.0], "radius": 0.375, "height": 8.2, "material": "metal"}
                ],
            }
        )
        scene = load_scene(text)
        assert len(scene.buildings) == 1
        b = scene.buildings[0]
        assert b.id == 7
        assert b.height == 12.0
        assert b.material.eps_r == 5.0
        assert len(scene.scatterers) == 1
        s = scene.scatterers[0]
        assert s.material.pec
        np.testing.assert_allclose(s.reference_point, [20.0, 0.0, 4.1])

    def test_version_field_is_mandatory(self):
        with pytest.raises(SceneError, match="version"):
            load_scene(json.dumps({"buildings": []}))

    def test_unknown_version_rejected(self):
        with pytest.raises(SceneError, match="version"):
            load_scene(json.dumps({"version": 99, "buildings": []}))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SceneError, match="frobnicate"):
            load_scene(json.dumps({"version": 1, "frobnicate": 3}))

    def test_unknown_building_key_rejected(self):
        bad = {"version": 1, "buildings": [{"id": 1, "footprint": square(0, 0, 1), "height": 3, "color": "red"}]}
        with pytest.raises(SceneError, match="color"):
            load_scene(json.dumps(bad))

    def test_clockwise_footprint_normalized_to_ccw(self):
        cw = list(reversed(square(0, 0, 5)))
        scene = load_scene(json.dumps({"version": 1, "buildings": [{"id": 1, "footprint": cw, "height": 3}]}))
        fp = scene.buildings[0].footprint
        x, y = fp[:, 0], fp[:, 1]
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert area > 0

    def test_self_intersecting_footprint_rejected(self):
        crossed = [[0, 0], [4, 0], [4, 3], [2, -1], [0, 3]]
        with pytest.raises(SceneError, match="self-intersect"):
            load_scene(json.dumps({"version": 1, "buildings": [{"id": 1, "footprint": crossed, "height": 3}]}))

    def test_zero_area_footprint_rejected(self):
        bowtie = [[0, 0], [2, 2], [2, 0], [0, 2]]
        with pytest.raises(SceneError):
            load_scene(json.dumps({"version": 1, "buildings": [{"id": 1, "footprint": bowtie, "height": 3}]}))

    def test_too_few_vertices_rejected(self):
        with pytest.raises(SceneError, match="3 vertices"):
            load_scene(json.dumps({"version": 1, "buildings": [{"id": 1, "footprint": [[0, 0], [1, 0]], "height": 3}]}))

    def test_nonpositive_height_rejected(self):
        with pytest.raises(SceneError, match="height"):
            load_scene(json.dumps({"version": 1, "buildings": [{"id": 1, "footprint": square(0, 0, 1), "height": 0}]}))

    def test_duplicate_building_ids_rejected(self):
        bs = [
            {"id": 1, "footprint": square(0, 0, 1), "height": 3},
            {"id": 1, "footprint": square(10, 0, 1), "height": 3},
        ]
        with pytest.raises(SceneError, match="duplicate"):
            load_scene(json.dumps({"version": 1, "buildings": bs}))

    def test_unknown_material_name_rejected(self):
        bad = {"version": 1, "buildings": [{"id": 1, "footprint": square(0, 0, 1), "height": 3, "material": "nope"}]}
        with pytest.raises(SceneError, match="nope"):
            load_scene(json.dumps(bad))

    def test_invalid_permittivity_rejected(self):
        with pytest.raises(SceneError, match="permittivity"):
            Material(eps_r=0.5)

    def test_not_json_rejected(self):
        with pytest.raises(SceneError, match="JSON"):
            load_scene("{nope")


class TestElementIds:
    def test_square_building_element_layout(self):
        b = box(3, 0, 0, 5, 10)
        assert b.n_vertices == 4
        assert b.roof_element_id == 4
        assert b.edge_element_id(0) == 5
        assert b.edge_element_id(3) == 8

    def test_facade_normals_point_outward(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        for el in range(4):
            origin, u, length, height, normal, _ = scene.facade_frame(1, el)
            mid = origin + 0.5 * length * u + np.array([0, 0, 1.0])
            # stepping along +normal must move away from the centroid
            d0 = np.linalg.norm(mid[:2])
            d1 = np.linalg.norm((mid + 0.1 * normal)[:2])
            assert d1 > d0

    def test_square_corners_are_right_angle_wedges(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        wedges = scene.wedges()
        assert len(wedges) == 4
        for w in wedges:
            assert w.n_index == pytest.approx(1.5, abs=1e-12)
            assert w.material.eps_r == 5.0
            # the n-face tangent sits at n_index * pi from o_tangent, through
            # o_normal: perpendicular to o_tangent for a right-angle corner,
            # and the two tangents' bisector points into the building
            angle = w.n_index * math.pi
            n_tangent = math.cos(angle) * w.o_tangent + math.sin(angle) * w.o_normal
            assert abs(np.dot(w.o_tangent, n_tangent)) < 1e-12
            inward = w.point_xy + 0.5 * (w.o_tangent + n_tangent)[:2]
            assert scene.contains_point(np.array([inward[0], inward[1], 1.0]))

    def test_o_face_is_lower_element_id(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        # wedge at vertex 1 joins facade 0 and facade 1 -> o must match facade 0
        w = scene.wedge(1, 5 + 1)
        origin0, u0, len0, _, n0, _ = scene.facade_frame(1, 0)
        np.testing.assert_allclose(w.o_normal, n0, atol=1e-12)
        # o_tangent points from the edge into facade 0, i.e. along -u0
        np.testing.assert_allclose(w.o_tangent, -u0, atol=1e-12)

    def test_reflex_vertices_do_not_diffract(self):
        # L-shaped footprint: one reflex corner, five convex ones
        fp = np.array([[0, 0], [4, 0], [4, 2], [2, 2], [2, 4], [0, 4]], dtype=float)
        scene = make_scene([Building(id=1, footprint=fp, height=6.0)])
        assert len(scene.wedges()) == 5


class TestFirstHit:
    """Single segments against one or two boxes: which elements the kernel
    crosses, where, and whether ``segments_blocked`` flags the segment."""

    def test_clear_segment_has_no_hit(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        assert crossings(scene, [-20, 20, 2], [20, 20, 2]) == [[]]
        assert not scene.segments_blocked([-20, 20, 2], [20, 20, 2])[0]

    def test_facade_hit_identity_and_point(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        p, q = np.array([-20.0, 0.0, 2.0]), np.array([20.0, 0.0, 2.0])
        (row,) = crossings(scene, p, q)
        # facade 3 runs from vertex 3 (-5,5) to vertex 0 (-5,-5): the -x face;
        # facade 1 is the +x face
        assert [(o, e) for o, e, _ in row] == [(1, 1), (1, 3)]
        t = {e: t for _, e, t in row}
        np.testing.assert_allclose(p + t[3] * (q - p), [-5, 0, 2], atol=1e-9)
        np.testing.assert_allclose(p + t[1] * (q - p), [5, 0, 2], atol=1e-9)

    def test_nearest_of_two_buildings_wins(self):
        scene = make_scene([box(1, 0, 0, 5, 10), box(2, 30, 0, 5, 10)])
        (row,) = crossings(scene, [-20, 0, 2], [60, 0, 2])
        assert {o for o, _, _ in row} == {1, 2}
        assert min(row, key=lambda r: r[2])[0] == 1

    def test_over_the_roof_is_clear(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        assert crossings(scene, [-20, 0, 12], [20, 0, 12]) == [[]]

    def test_descending_ray_hits_roof_before_far_facade(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        # crosses the roof plane at (-4, 0, 10), inside the footprint, while
        # passing above the near facade; it ends inside, before the far facade
        p, q = np.array([-20.0, 0.0, 30.0]), np.array([0.0, 0.0, 5.0])
        ((obj, el, t),) = crossings(scene, p, q)[0]
        assert (obj, el) == (1, 4)
        np.testing.assert_allclose(p + t * (q - p), [-4, 0, 10], atol=1e-9)

    def test_roof_hit(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        p, q = np.array([0.0, 0.0, 30.0]), np.array([0.0, 0.0, 2.0])
        ((obj, el, t),) = crossings(scene, p, q)[0]
        assert (obj, el) == (1, 4)
        np.testing.assert_allclose(p + t * (q - p), [0, 0, 10], atol=1e-9)

    def test_ground_hit(self):
        scene = make_scene([box(1, 100, 100, 5, 10)])
        p, q = np.array([0.0, 0.0, 2.0]), np.array([10.0, 0.0, -2.0])
        ((obj, el, t),) = crossings(scene, p, q)[0]
        assert (obj, el) == (GROUND_OBJECT_ID, 0)
        np.testing.assert_allclose(p + t * (q - p), [5, 0, 0], atol=1e-9)

    def test_endpoint_on_surface_is_not_occluded(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        # segment ending exactly on the -x facade, and starting on it, going away
        p = np.array([[-20.0, 0.0, 2.0], [-5.0, 0.0, 2.0]])
        q = p[::-1]
        assert crossings(scene, p, q) == [[], []]
        assert not scene.segments_blocked(p, q).any()

    def test_grazing_corner_within_eps_passes(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        # passes within EPS_GEOM/10 outside the +y facade: treated as touching, not blocking
        y = 5.0 + EPS_GEOM / 10
        (row,) = crossings(scene, [-20, y, 2], [20, y, 2])
        # a graze within tolerance may cross the box's elements or nothing; it
        # must not cross some unrelated element
        assert all(obj == 1 for obj, _, _ in row)

    def test_coincident_points_are_never_blocked(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        # above the roof, on a facade, on the ground
        p = np.array([[0.0, 0.0, 20.0], [-5.0, 0.0, 2.0], [20.0, 0.0, 0.0]])
        assert not scene.segments_blocked(p, p).any()
        assert crossings(scene, p, p) == [[], [], []]

    def test_is_los_through_and_around(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        p = np.array([[-20.0, 0.0, 2.0], [-20.0, 20.0, 2.0]])
        q = np.array([[20.0, 0.0, 2.0], [20.0, 20.0, 2.0]])
        np.testing.assert_array_equal(scene.segments_blocked(p, q), [True, False])

    def test_underground_crossing_blocked(self):
        scene = make_scene([])
        assert scene.segments_blocked([0, 0, 5], [30, 0, -5])[0]
        assert crossings(scene, [0, 0, 5], [30, 0, -5]) == [[(GROUND_OBJECT_ID, 0, 0.5)]]


@pytest.fixture(scope="module")
def town():
    rng = np.random.default_rng(42)
    buildings = []
    bid = 0
    for gx in range(6):
        for gy in range(4):
            cx = gx * 60.0 + rng.uniform(-5, 5)
            cy = gy * 55.0 + rng.uniform(-5, 5)
            half = rng.uniform(6, 14)
            h = rng.uniform(8, 30)
            buildings.append(box(bid, cx, cy, half, h))
            bid += 1
    return make_scene(buildings)


@pytest.fixture(scope="module")
def block():
    """Boxes 1 and 2 touch along the wall x = 5 (box 2 is taller); building 3
    is an L with one reflex corner."""
    ell = np.array([[30, -5], [45, -5], [45, 0], [37, 0], [37, 5], [30, 5]], dtype=float)
    return make_scene([box(1, 0, 0, 5, 10), box(2, 10, 0, 5, 15), Building(id=3, footprint=ell, height=8.0)])


def _boundary_samples(scene):
    """Footprint corners and edge midpoints (roof edges seen from above),
    each also nudged by 0.5 and 2 EPS_GEOM in eight directions."""
    base = []
    for b in scene.buildings:
        fp = b.footprint
        base.extend(fp)
        base.extend(0.5 * (fp + np.roll(fp, -1, axis=0)))
    angles = np.arange(8) * np.pi / 4 + np.pi / 8
    nudges = [np.zeros(2)] + [
        r * EPS_GEOM * np.array([np.cos(a), np.sin(a)]) for r in (0.5, 2.0) for a in angles
    ]
    return np.array([b + d for b in base for d in nudges])


class TestSegmentsBlocked:
    def test_matches_scalar_first_hit(self):
        scene = make_scene([box(1, 0, 0, 5, 10), box(2, 30, 10, 5, 20)])
        rng = np.random.default_rng(7)
        p = rng.uniform([-50, -50, 0.5], [80, 60, 30], size=(200, 3))
        q = rng.uniform([-50, -50, 0.5], [80, 60, 30], size=(200, 3))
        assert_agrees_with_oracle(scene, p, q)

    def test_vertical_drops_at_roof_edges_and_corners(self, block):
        xy = _boundary_samples(block)
        top = np.column_stack([xy, np.full(len(xy), 40.0)])
        bottom = np.column_stack([xy, np.full(len(xy), 1.0)])
        assert_agrees_with_oracle(block, top, bottom)
        blocked = block.segments_blocked(top, bottom)
        for k, pt in enumerate(bottom):
            near = min(_boundary_distance(pt[:2], b.footprint) for b in block.buildings) <= EPS_GEOM
            inside = block.contains_point(pt)
            # a roof edge stops a ray; a point on a footprint boundary is not inside
            assert blocked[k] == (inside or near), pt
            assert not (inside and near), pt

    def test_horizontal_rays_graze_walls_and_corners(self, block):
        p, q = [], []
        for b in block.buildings:
            fp = b.footprint
            for v0, v1 in zip(fp, np.roll(fp, -1, axis=0)):
                u = (v1 - v0) / np.linalg.norm(v1 - v0)
                n = np.array([u[1], -u[0]])
                for off in (0.0, 0.5, -0.5, 2.0, -2.0):
                    shift = off * EPS_GEOM * n
                    p.append([*(v0 - 20 * u + shift), 5.0])
                    q.append([*(v1 + 20 * u + shift), 5.0])
        assert_agrees_with_oracle(block, p, q)
        assert_agrees_with_oracle(block, q, p)

    def test_slanted_rays_cross_roof_edges(self, block):
        p, q = [], []
        for b in block.buildings:
            fp = b.footprint
            for v0, v1 in zip(fp, np.roll(fp, -1, axis=0)):
                u = (v1 - v0) / np.linalg.norm(v1 - v0)
                n = np.array([u[1], -u[0]])
                for along in (0.0, 0.5):
                    for off in (0.0, 0.5, -0.5, 2.0, -2.0):
                        x = v0 + along * (v1 - v0) + off * EPS_GEOM * n
                        p.append([*(x + 10 * n), b.height + 7.0])
                        q.append([*(x - 10 * n), b.height - 7.0])
        assert_agrees_with_oracle(block, p, q)
        assert_agrees_with_oracle(block, q, p)


class TestGridOracle:
    """Queries on the 6 x 4 town grid must agree with the scalar oracle."""

    def test_thousand_random_segments(self, town):
        rng = np.random.default_rng(2024)
        p = rng.uniform([-60, -60, 0.2], [400, 280, 45], size=(1000, 3))
        q = rng.uniform([-60, -60, 0.2], [400, 280, 45], size=(1000, 3))
        assert_agrees_with_oracle(town, p, q)

    def test_segments_blocked_agrees_with_brute_force(self, town):
        rng = np.random.default_rng(99)
        p = rng.uniform([-60, -60, 0.2], [400, 280, 45], size=(500, 3))
        q = rng.uniform([-60, -60, 0.2], [400, 280, 45], size=(500, 3))
        got = town.segments_blocked(p, q)
        want = np.array([bool(oracle_crossings(town, a, b)) for a, b in zip(p, q)])
        np.testing.assert_array_equal(got, want)


class TestContainment:
    def test_contains_point(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        assert scene.contains_point(np.array([0.0, 0.0, 5.0]))
        assert not scene.contains_point(np.array([0.0, 0.0, 15.0]))
        assert not scene.contains_point(np.array([20.0, 0.0, 5.0]))
        # boundary points do not count as interior
        assert not scene.contains_point(np.array([5.0, 0.0, 5.0]))
