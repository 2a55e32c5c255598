"""Geometry and scene-file tests.

The load-bearing checks compare the scene's one occlusion query
``segments_blocked``, segment by segment, with a scalar per-segment scan over
every object, ``oracle_crossings``: a segment is blocked exactly when the
oracle finds a crossing.  They run on random segments, on the segments of the
specular tracer's occlusion rounds on the preset, and on rays aimed at roof
edges, footprint corners and a wall shared by two touching buildings, where
``contains_points`` must agree with them as well.  On scenes with rotated
footprints, rays grazing facade edges, corners and roof lines must get one
answer from the reflection generator's ``_facade_crossing`` and from
``segments_blocked``: both place a ray against a facade with
``Scene.facade_crossings``.  That rule and ``Scene.wedge_azimuths`` read
facade and wedge vectors by columns, as two-term dots, and are checked bit
for bit against the three-term ``einsum`` forms they replace
(``placement_oracle``), the kernel's verdicts against a copy of the kernel
that gathered (rows, 3) arrays.  The facade, wedge and building tables, the
footprint checks and ``contains_points`` are checked against the per-vertex
and per-point builders they replace (``scene_oracle``): the same bits, the
same first error and the same verdicts.
"""

import json
import math

import numpy as np
import pytest

from railchan import scene as scene_module
from railchan.config import load_preset
from railchan.em import CarrierConfig
from railchan.rays import norms
from railchan.scene import (
    EPS_GEOM,
    Building,
    CylinderScatterer,
    PEC,
    SEGMENT_BLOCK,
    Material,
    Scene,
    SceneError,
    _check_simple_polygon,
    load_scene,
)
from railchan.specular import SpecularTracer, _facade_crossing
from path_oracle import interactions_of
from placement_oracle import oracle_facade_crossings, oracle_segments_blocked, oracle_wedge_azimuths
from rooftop_oracle import oracle_rooftop_path, traced_rooftop_path
from scene_oracle import TABLES, oracle_check_simple_polygon, oracle_contains_point, oracle_tables
from test_specular import assert_same_paths

#: The object id under which ``oracle_crossings`` reports the ground.
GROUND = -1


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


def _next(a: np.ndarray) -> np.ndarray:
    """``np.roll(a, -1)`` of a 1-D array: each vertex's successor."""
    return np.concatenate((a[1:], a[:1]))


def _point_in_polygon(point_xy, poly) -> bool:
    """Even-odd rule; points within EPS_GEOM of the boundary count as inside."""
    x, y = point_xy
    xs, ys = poly[:, 0], poly[:, 1]
    xe, ye = _next(xs), _next(ys)
    crosses = ((ys > y) != (ye > y)) & (
        x < xs + (y - ys) * (xe - xs) / np.where(ye != ys, ye - ys, 1.0)
    )
    if np.count_nonzero(crosses) % 2:
        return True
    return _boundary_distance(point_xy, poly) <= EPS_GEOM


def _boundary_distance(point_xy, poly) -> float:
    x, y = point_xy
    xs, ys = poly[:, 0], poly[:, 1]
    dx, dy = _next(xs) - xs, _next(ys) - ys
    tproj = np.clip(((x - xs) * dx + (y - ys) * dy) / (dx * dx + dy * dy), 0, 1)
    return float(np.sqrt(np.min((xs + tproj * dx - x) ** 2 + (ys + tproj * dy - y) ** 2)))


def oracle_crossings(scene, p, q) -> list:
    """Scalar reference for the occlusion kernel, one segment at a time.

    Every crossing of the open segment p->q that lies more than EPS_GEOM from
    both endpoints, as ``(object_id, element_id, t)``, sorted; a rooftop has
    its building's element id ``V``, the ground is ``(GROUND, 0)``.  Facades
    are scanned as one array, rooftops one building at a time with the
    boundary counted as inside.
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
                found.append((b.id, len(b.footprint), float(t)))
        t = -p[2] / seg[2]
        dist = t * seg_len
        if EPS_GEOM < dist < seg_len - EPS_GEOM:
            found.append((GROUND, 0, float(t)))
    return sorted(found)


def assert_agrees_with_oracle(scene, p, q) -> list:
    """``segments_blocked`` flags exactly the segments on which
    ``oracle_crossings`` finds a crossing; the oracle's crossings of each
    segment."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    blocked = scene.segments_blocked(p, q)
    assert blocked.shape == (len(p),) and blocked.dtype == bool
    want = [oracle_crossings(scene, a, b) for a, b in zip(p, q)]
    wrong = [k for k in range(len(p)) if blocked[k] != bool(want[k])]
    assert not wrong, [(k, p[k].tolist(), q[k].tolist(), want[k]) for k in wrong[:5]]
    return want


class TestSceneLoading:
    def test_minimal_scene_round_trip(self):
        text = json.dumps(
            {
                "version": 1,
                "materials": {"concrete": {"eps_r": 5.0, "sigma": 0.1}, "metal": {"pec": True}},
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
        assert s.id == 1
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

    @pytest.mark.parametrize("material", ["metal", {"pec": True}])
    def test_perfect_conductor_scatterer_accepted(self, material):
        text = json.dumps(
            {
                "version": 1,
                "materials": {"metal": {"pec": True}},
                "scatterers": [{"id": 4, "base": [0, 0, 0], "radius": 0.3, "height": 8.0, "material": material}],
            }
        )
        assert [s.id for s in load_scene(text).scatterers] == [4]

    @pytest.mark.parametrize("material", ["concrete", {"eps_r": 5.0, "sigma": 0.1}, {"pec": False}])
    def test_lossy_scatterer_material_rejected(self, material):
        # the facet sum models perfect conductors only
        text = json.dumps(
            {
                "version": 1,
                "materials": {"concrete": {"eps_r": 5.0, "sigma": 0.1}},
                "scatterers": [
                    {"id": 3, "base": [0, 0, 0], "radius": 0.3, "height": 8.0},
                    {"id": 4, "base": [5, 0, 0], "radius": 0.3, "height": 8.0, "material": material},
                ],
            }
        )
        with pytest.raises(SceneError, match=r"scatterers\[1\]: scatterer 4 must be a perfect conductor"):
            load_scene(text)

    def test_invalid_permittivity_rejected(self):
        with pytest.raises(SceneError, match="permittivity"):
            Material(eps_r=0.5)

    def test_not_json_rejected(self):
        with pytest.raises(SceneError, match="JSON"):
            load_scene("{nope")

    @pytest.mark.parametrize(
        "section, value, message",
        [
            ("buildings", 5, "buildings must be a list"),
            ("materials", [1], "materials must be an object"),
            ("scatterers", "x", "scatterers must be a list"),
        ],
    )
    def test_section_of_the_wrong_type_rejected(self, section, value, message):
        with pytest.raises(SceneError, match=f"^{message}$"):
            load_scene(json.dumps({"version": 1, section: value}))


class TestElementIds:
    def test_square_building_element_layout(self):
        # V = 4 vertices: facades 0..3, the rooftop 4, the vertical edge at
        # vertex i V + 1 + i
        scene = make_scene([box(3, 0, 0, 5, 10)])
        assert scene.fac_object.tolist() == scene.wedge_object.tolist() == [3] * 4
        assert scene.fac_element.tolist() == [0, 1, 2, 3]
        assert scene.wedge_element.tolist() == [5, 6, 7, 8]

    def test_facade_normals_point_outward(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        assert scene.fac_element.tolist() == [0, 1, 2, 3]
        for origin, u, length, normal in zip(scene.fac_origin, scene.fac_dir, scene.fac_len, scene.fac_normal):
            mid = origin + 0.5 * length * u + np.array([0, 0, 1.0])
            # stepping along +normal must move away from the centroid
            d0 = np.linalg.norm(mid[:2])
            d1 = np.linalg.norm((mid + 0.1 * normal)[:2])
            assert d1 > d0

    def test_square_corners_are_right_angle_wedges(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        assert scene.n_wedges == 4
        for w in range(scene.n_wedges):
            n_index = scene.wedge_n_index[w]
            o_tangent, o_normal = scene.wedge_o_tangent[w], scene.wedge_o_normal[w]
            assert n_index == pytest.approx(1.5, abs=1e-12)
            assert scene.fac_eps_r[scene.wedge_face[w]] == 5.0
            # the n-face tangent sits at n_index * pi from o_tangent, through
            # o_normal: perpendicular to o_tangent for a right-angle corner,
            # and the two tangents' bisector points into the building
            angle = n_index * math.pi
            n_tangent = math.cos(angle) * o_tangent + math.sin(angle) * o_normal
            assert abs(np.dot(o_tangent, n_tangent)) < 1e-12
            inward = scene.wedge_xy[w] + 0.5 * (o_tangent + n_tangent)
            assert scene.contains_points(np.array([[inward[0], inward[1], 1.0]]))[0]

    def test_o_face_is_lower_element_id(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        # wedge at vertex 1 joins facade 0 and facade 1 -> o must match facade 0
        (w,) = np.nonzero((scene.wedge_object == 1) & (scene.wedge_element == 5 + 1))[0]
        assert scene.wedge_face[w] == 0
        np.testing.assert_allclose(scene.wedge_o_normal[w], scene.fac_normal[0, :2], atol=1e-12)
        # o_tangent points from the edge into facade 0, i.e. along -u0
        np.testing.assert_allclose(scene.wedge_o_tangent[w], -scene.fac_dir[0, :2], atol=1e-12)

    def test_reflex_vertices_do_not_diffract(self):
        # L-shaped footprint: one reflex corner, five convex ones
        fp = np.array([[0, 0], [4, 0], [4, 2], [2, 2], [2, 4], [0, 4]], dtype=float)
        scene = make_scene([Building(id=1, footprint=fp, height=6.0)])
        assert scene.n_wedges == 5


class TestFirstHit:
    """Single segments against one or two boxes: whether ``segments_blocked``
    flags the segment, as the oracle does, and which surfaces the oracle
    crosses, which names the kernel stage that decides it."""

    def test_clear_segment_has_no_hit(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        assert assert_agrees_with_oracle(scene, [-20, 20, 2], [20, 20, 2]) == [[]]

    def test_facade_hit_identity_and_point(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        p, q = np.array([-20.0, 0.0, 2.0]), np.array([20.0, 0.0, 2.0])
        (row,) = assert_agrees_with_oracle(scene, p, q)
        assert scene.segments_blocked(p, q)[0]
        # facade 3 is the -x face, facade 1 the +x face
        assert [(o, e) for o, e, _ in row] == [(1, 1), (1, 3)]

    def test_nearest_of_two_buildings_wins(self):
        scene = make_scene([box(1, 0, 0, 5, 10), box(2, 30, 0, 5, 10)])
        (row,) = assert_agrees_with_oracle(scene, [-20, 0, 2], [60, 0, 2])
        assert scene.segments_blocked([-20, 0, 2], [60, 0, 2])[0]
        assert {o for o, _, _ in row} == {1, 2}

    def test_over_the_roof_is_clear(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        assert assert_agrees_with_oracle(scene, [-20, 0, 12], [20, 0, 12]) == [[]]

    def test_descending_ray_hits_roof_before_far_facade(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        # crosses the roof plane at (-4, 0, 10), inside the footprint, while
        # passing above the near facade; it ends inside, before the far
        # facade, so only the rooftop stage blocks it
        p, q = np.array([-20.0, 0.0, 30.0]), np.array([0.0, 0.0, 5.0])
        ((obj, el, _),) = assert_agrees_with_oracle(scene, p, q)[0]
        assert (obj, el) == (1, 4)
        assert scene.segments_blocked(p, q)[0]

    def test_roof_hit(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        p, q = np.array([0.0, 0.0, 30.0]), np.array([0.0, 0.0, 2.0])
        ((obj, el, _),) = assert_agrees_with_oracle(scene, p, q)[0]
        assert (obj, el) == (1, 4)
        assert scene.segments_blocked(p, q)[0]

    def test_ground_hit(self):
        scene = make_scene([box(1, 100, 100, 5, 10)])
        p, q = np.array([0.0, 0.0, 2.0]), np.array([10.0, 0.0, -2.0])
        ((obj, el, _),) = assert_agrees_with_oracle(scene, p, q)[0]
        assert (obj, el) == (GROUND, 0)
        assert scene.segments_blocked(p, q)[0]

    def test_endpoint_on_surface_is_not_occluded(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        # segment ending exactly on the -x facade, and starting on it, going away
        p = np.array([[-20.0, 0.0, 2.0], [-5.0, 0.0, 2.0]])
        q = p[::-1]
        assert assert_agrees_with_oracle(scene, p, q) == [[], []]
        assert not scene.segments_blocked(p, q).any()

    def test_grazing_corner_within_eps_passes(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        # passes within EPS_GEOM/10 outside the +y facade: treated as touching, not blocking
        y = 5.0 + EPS_GEOM / 10
        (row,) = assert_agrees_with_oracle(scene, [-20, y, 2], [20, y, 2])
        # a graze within tolerance may cross the box's elements or nothing; it
        # must not cross some unrelated element
        assert all(obj == 1 for obj, _, _ in row)

    def test_coincident_points_are_never_blocked(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        # above the roof, on a facade, on the ground
        p = np.array([[0.0, 0.0, 20.0], [-5.0, 0.0, 2.0], [20.0, 0.0, 0.0]])
        assert assert_agrees_with_oracle(scene, p, p) == [[], [], []]
        assert not scene.segments_blocked(p, p).any()

    def test_is_los_through_and_around(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        p = np.array([[-20.0, 0.0, 2.0], [-20.0, 20.0, 2.0]])
        q = np.array([[20.0, 0.0, 2.0], [20.0, 20.0, 2.0]])
        assert_agrees_with_oracle(scene, p, q)
        np.testing.assert_array_equal(scene.segments_blocked(p, q), [True, False])

    def test_underground_crossing_blocked(self):
        scene = make_scene([])
        assert scene.segments_blocked([0, 0, 5], [30, 0, -5])[0]
        ((obj, el, _),) = assert_agrees_with_oracle(scene, [0, 0, 5], [30, 0, -5])[0]
        assert (obj, el) == (GROUND, 0)

    def test_zero_segments_give_an_empty_mask(self):
        for scene in (make_scene([]), make_scene([box(1, 0, 0, 5, 10)])):
            blocked = scene.segments_blocked(np.zeros((0, 3)), np.zeros((0, 3)))
            assert blocked.shape == (0,) and blocked.dtype == bool

    def test_scene_without_buildings_gives_ground_verdicts(self):
        scene = make_scene([])
        rng = np.random.default_rng(5)
        p = rng.uniform([-50, -50, -5], [50, 50, 20], size=(300, 3))
        q = rng.uniform([-50, -50, -5], [50, 50, 20], size=(300, 3))
        # segments ending on the ground, lying in it, and starting on it
        p[:3, 2], q[:3, 2] = [10.0, 0.0, 0.0], [0.0, 0.0, 10.0]
        found = assert_agrees_with_oracle(scene, p, q)
        assert all(obj == GROUND for row in found for obj, _, _ in row)
        # the open segment changes side of z = 0
        crosses = np.sign(p[:, 2]) * np.sign(q[:, 2]) < 0
        np.testing.assert_array_equal(scene.segments_blocked(p, q), crosses)
        assert 0 < crosses.sum() < len(p)


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
        contained = block.contains_points(bottom)
        for k, pt in enumerate(bottom):
            near = min(_boundary_distance(pt[:2], b.footprint) for b in block.buildings) <= EPS_GEOM
            inside = contained[k]
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

    @pytest.mark.parametrize("size", [1, 7, 100, 10**6])
    def test_blocks_of_segments_give_the_flags_of_one_pass(self, monkeypatch, size):
        # the round-0 segments of eight preset receivers, mixed with random
        # ones: the flags do not depend on how the call is cut into blocks
        cfg = load_preset()
        scene = cfg.load_scene()
        traj = cfg.trajectory()
        tracer = SpecularTracer(scene, CarrierConfig(cfg.carrier_hz), cfg.tx_position)
        rx = np.array([traj.position(t) for t in np.linspace(0.0, 50.0, 8)])
        families = tracer.candidates(rx, cfg.limits)
        rng = np.random.default_rng(2403)
        lo, hi = [-400.0, -400.0, 0.5], [400.0, 400.0, 60.0]
        p = np.concatenate([f[0][:, 0] for f in families] + [rng.uniform(lo, hi, size=(300, 3))])
        q = np.concatenate([f[0][:, 1] for f in families] + [rng.uniform(lo, hi, size=(300, 3))])
        want = scene._segments_blocked(p, q)
        assert 0 < want.sum() < len(want)
        monkeypatch.setattr(scene_module, "SEGMENT_BLOCK", size)
        np.testing.assert_array_equal(scene.segments_blocked(p, q), want)
        assert scene.segments_blocked(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0,)


class TestGridOracle:
    """Queries on the 6 x 4 town grid and the tracer's queries on the preset
    must agree with the scalar oracle."""

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

    def test_preset_occlusion_rounds_agree_with_oracle(self, monkeypatch):
        # every segment of every occlusion round of five preset solves, one
        # of them among the pylons
        cfg = load_preset()
        scene = cfg.load_scene()
        traj = cfg.trajectory()
        tracer = SpecularTracer(scene, CarrierConfig(cfg.carrier_hz), cfg.tx_position)
        rounds = []
        original = Scene.segments_blocked

        def spy(self, p, q):
            rounds.append((p, q))
            return original(self, p, q)

        monkeypatch.setattr(Scene, "segments_blocked", spy)
        for t in (0.0, 8.0, 21.0, 34.0, 55.0):
            tracer.trace(traj.position(t)[None], cfg.limits)
        monkeypatch.undo()
        assert 5 <= len(rounds) <= 15
        p = np.concatenate([p for p, _ in rounds])
        q = np.concatenate([q for _, q in rounds])
        want = assert_agrees_with_oracle(scene, p, q)
        assert 0 < sum(map(bool, want)) < len(want)


def rotate(poly, angle, center=(0.0, 0.0)):
    """``poly`` turned counterclockwise by ``angle`` about ``center``."""
    c, s = math.cos(angle), math.sin(angle)
    p = np.asarray(poly, dtype=float) - center
    return p @ np.array([[c, s], [-s, c]]) + center


#: Scenes with no axis-aligned facade: a box, two boxes sharing a wall, and
#: an L (one reflex corner) beside a pentagon.
ROTATED_SCENES = {
    "box": [Building(1, rotate(square(0, 0, 6.5), 0.3), 12.0)],
    "shared_wall": [
        Building(1, rotate([[0, 0], [10, 0], [10, 10], [0, 10]], 0.7), 10.0),
        Building(2, rotate([[10, 0], [22, 0], [22, 10], [10, 10]], 0.7), 15.0),
    ],
    "ell_pentagon": [
        Building(1, rotate([[0, 0], [15, 0], [15, 5], [7, 5], [7, 10], [0, 10]], 1.1, (7, 5)), 8.0),
        Building(2, rotate([[0, 0], [12, -3], [18, 6], [9, 14], [-2, 8]], -0.45) + [25, 0], 14.0),
    ],
}


def grazing_segments(scene, seed):
    """Segments through points within a few EPS_GEOM of every facade's
    vertical edges, its roof line, its foot and its middle, with the crossing
    1-20 m from either end; a third of them horizontal."""
    rng = np.random.default_rng(seed)
    k = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 3.0, -3.0])
    p, q = [], []
    for f in range(scene.n_facades):
        u, n = scene.fac_dir[f], scene.fac_normal[f]
        for s in (0.0, 0.5 * scene.fac_len[f], scene.fac_len[f]):
            for z in (0.0, 0.5 * scene.fac_height[f], scene.fac_height[f]):
                x = scene.fac_origin[f] + s * u + [0.0, 0.0, z]
                for ks, kn, kz in rng.choice(k, size=(12, 3)):
                    xk = x + EPS_GEOM * (ks * u + kn * n + [0.0, 0.0, kz])
                    d = rng.normal(size=3)
                    if rng.uniform() < 1 / 3:
                        d[2] = 0.0
                    d /= np.linalg.norm(d)
                    p.append(xk - rng.uniform(1, 20) * d)
                    q.append(xk + rng.uniform(1, 20) * d)
    return np.array(p), np.array(q)


@pytest.fixture(scope="module", params=list(ROTATED_SCENES))
def rotated(request):
    return Scene(buildings=ROTATED_SCENES[request.param])


class TestGrazingAgreement:
    """The reflection generator and the occlusion kernel place a ray against
    a facade with the same routine, so at grazing they agree."""

    def test_accepted_crossings_are_blocked(self, rotated):
        # a crossing point _facade_crossing accepts lies on a facade the
        # kernel sees the segment through it cross
        p, q = grazing_segments(rotated, 3)
        rows, fi = np.divmod(np.arange(len(p) * rotated.n_facades), rotated.n_facades)
        _, ok = _facade_crossing(rotated, p[rows], q[rows], fi)
        crossing = np.zeros(len(p), dtype=bool)
        crossing[rows[ok]] = True
        assert 0 < crossing.sum() < len(p)
        assert rotated.segments_blocked(p[crossing], q[crossing]).all()

    def test_blocked_segments_cross_an_accepted_facade(self, rotated):
        # on the segments that neither the ground nor a rooftop plane can
        # block, the kernel blocks exactly those with an accepted crossing
        p, q = grazing_segments(rotated, 4)
        heights = np.array([0.0] + [b.height for b in rotated.buildings])
        keep = np.all((p[:, 2:3] - heights) * (q[:, 2:3] - heights) > 0, axis=1)
        p, q = p[keep], q[keep]
        rows, fi = np.divmod(np.arange(len(p) * rotated.n_facades), rotated.n_facades)
        _, ok = _facade_crossing(rotated, p[rows], q[rows], fi)
        crossing = np.bincount(rows[ok], minlength=len(p)) > 0
        blocked = rotated.segments_blocked(p, q)
        assert 0 < blocked.sum() < len(p)
        np.testing.assert_array_equal(blocked, crossing)


class TestPlacementRules:
    def test_parallel_segment_has_no_crossing(self):
        scene = Scene(buildings=ROTATED_SCENES["box"])
        u, n = scene.fac_dir[0], scene.fac_normal[0]
        # along the facade, 1 m in front of it and in its plane
        x = scene.fac_origin[0] + 2.0 * u + [0.0, 0.0, 5.0]
        p = np.array([x + n, x])
        seg = np.array([5.0 * u, 5.0 * u])
        t, s, z = scene.facade_crossings(p, seg, np.array([0, 0]))
        assert np.isnan(t).all() and np.isnan(s).all() and np.isnan(z).all()
        _, ok = _facade_crossing(scene, p, p + seg, np.array([0, 0]))
        assert not ok.any()
        assert not scene.segments_blocked(p, p + seg).any()

    def test_zero_rows_give_empty_results(self):
        scene = Scene(buildings=ROTATED_SCENES["box"])
        none = np.empty((0, 3))
        for out in scene.facade_crossings(none, none, np.empty(0, dtype=np.intp)):
            assert out.shape == (0,)
        for out in scene.wedge_azimuths(np.empty(0, dtype=np.intp), np.empty((0, 2))):
            assert out.shape == (0,)

    def test_o_face_wrap(self):
        scene = Scene(buildings=ROTATED_SCENES["box"])
        w = np.zeros(4, dtype=np.intp)
        o_t, o_n = scene.wedge_o_tangent[0], scene.wedge_o_normal[0]
        # 1e-12 rad below the o-face (read as on it), on it, 1e-6 rad below it
        # (in the wedge material), and along the n-face at n pi = 3 pi / 2
        xy = np.array([o_t - 1e-12 * o_n, o_t, o_t - 1e-6 * o_n, -o_n])
        phi, exterior = scene.wedge_azimuths(w, xy)
        assert phi[:2].tolist() == [0.0, 0.0]
        assert phi[2] == pytest.approx(2 * math.pi - 1e-6, abs=1e-12)
        assert phi[3] == pytest.approx(1.5 * math.pi, abs=1e-12)
        assert exterior.tolist() == [True, True, False, True]

    def test_rotated_box_rooftop_apexes(self):
        scene = Scene(buildings=ROTATED_SCENES["box"])
        fp = scene.buildings[0].footprint
        tx, rx = np.array([-20.0, -3.0, 4.0]), np.array([18.0, 5.0, 2.0])
        path = traced_rooftop_path(scene, tx, rx, CarrierConfig(1.9e9))
        assert_same_paths([path], [oracle_rooftop_path(scene, tx, rx, CarrierConfig(1.9e9))])
        # the roofline crossings of the ground track, solved edge by edge
        want = []
        for i in range(len(fp)):
            a, b = fp[i], fp[(i + 1) % len(fp)]
            t, s = np.linalg.solve(np.column_stack([rx[:2] - tx[:2], a - b]), a - tx[:2])
            if 0 < t < 1 and 0 <= s < 1:
                want.append((t, i, tx[:2] + t * (rx[:2] - tx[:2])))
        want.sort(key=lambda w: w[0])
        assert [r.element_id for r in interactions_of(path.signature)] == [i for _, i, _ in want]
        apexes = path.vertices[1:-1]
        np.testing.assert_allclose(apexes[:, :2], [x for _, _, x in want], rtol=0, atol=1e-9)
        assert (apexes[:, 2] == 12.0).all()


def assert_same_placement(got, want):
    """Each of ``t``, ``s`` and ``z`` has the oracle's bits, or both are zero
    (of either sign), or both are NaN."""
    for g, w in zip(got, want):
        same = (g.view(np.int64) == w.view(np.int64)) | ((g == 0.0) & (w == 0.0)) | (np.isnan(g) & np.isnan(w))
        bad = np.nonzero(~same)[0]
        assert not len(bad), (bad[:5], g[bad[:5]], w[bad[:5]])


def edge_case_segments(scene, seed):
    """Segments against every facade of ``scene``: parallel to its plane,
    vertical, horizontal, through points within a few EPS_GEOM of its ends
    and its top, and with exact-zero components of either sign."""
    rng = np.random.default_rng(seed)
    k = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0])
    p, seg = [], []
    for f in range(scene.n_facades):
        u, n, o = scene.fac_dir[f], scene.fac_normal[f], scene.fac_origin[f]
        for s in (0.0, 0.5 * scene.fac_len[f], scene.fac_len[f]):
            for z in (0.0, scene.fac_height[f]):
                x = o + s * u + [0.0, 0.0, z] + EPS_GEOM * (rng.choice(k) * u + rng.choice(k) * n)
                x[2] += EPS_GEOM * rng.choice(k)
                a, b = rng.uniform(1, 20, size=2)
                # parallel to the plane: along the facade, up it, or both
                for d in (u, np.array([0.0, 0.0, 1.0]), u + [0.0, 0.0, 1.0]):
                    p.append(x + rng.choice(k) * n)
                    seg.append((a + b) * d)
                d = rng.normal(size=3)
                for zero in ((), (0,), (1,), (2,), (0, 1)):
                    e = d.copy()
                    e[list(zero)] = rng.choice([0.0, -0.0], size=len(zero))
                    if np.any(e):
                        e /= np.linalg.norm(e)
                        p.append(x - a * e)
                        seg.append((a + b) * e)
    p, seg = np.array(p), np.array(seg)
    # some starts on the axes and the ground, with zeros of either sign
    pick = rng.random(p.shape) < 0.1
    p[pick] = rng.choice([0.0, -0.0], size=pick.sum())
    return p, seg


#: two boxes with their facades along the axes, beside the rotated scenes:
#: their normals hold -0.0
AXIS_SCENE = [Building(1, np.array(square(0, 0, 5)), 10.0), Building(2, np.array(square(15, 5, 5)), 14.0)]


class TestColumnRule:
    """``Scene.facade_crossings`` and ``Scene.wedge_azimuths`` sum two terms
    read from columns; every facade and wedge is vertical, so they equal the
    three-term ``einsum`` forms of ``placement_oracle``."""

    def test_preset_t0_to_2s_rows_and_verdicts(self, monkeypatch):
        # every placement and every occlusion query of the preset tracer's
        # construction and of its 201 solves at t = 0-2 s, 32 at a time
        cfg = load_preset()
        scene = cfg.load_scene()
        rows, segments = [], []
        placed, kernel = scene.facade_crossings, scene.segments_blocked

        def placements(p, seg, fi):
            got = placed(p, seg, fi)
            assert_same_placement(got, oracle_facade_crossings(scene, p, seg, fi))
            rows.append(len(fi))
            return got

        def verdicts(p, q):
            got = kernel(p, q)
            np.testing.assert_array_equal(got, oracle_segments_blocked(scene, p, q))
            assert norms(q - p).tobytes() == np.linalg.norm(q - p, axis=1).tobytes()
            segments.append(len(p))
            return got

        monkeypatch.setattr(scene, "facade_crossings", placements)
        monkeypatch.setattr(scene, "segments_blocked", verdicts)
        tracer = SpecularTracer(scene, CarrierConfig(cfg.carrier_hz), cfg.tx_position)
        traj = cfg.trajectory()
        receivers = np.array([traj.position(0.01 * i) for i in range(201)])
        for a in range(0, len(receivers), 32):
            tracer.trace(receivers[a : a + 32], cfg.limits)
        assert sum(segments) > 70_000 and sum(rows) > 1_800_000

    @pytest.mark.parametrize("name", [*ROTATED_SCENES, "axis"])
    def test_edge_cases(self, name):
        scene = Scene(buildings=AXIS_SCENE if name == "axis" else ROTATED_SCENES[name])
        p, seg = edge_case_segments(scene, 11)
        rows, fi = np.divmod(np.arange(len(p) * scene.n_facades), scene.n_facades)
        got = scene.facade_crossings(p[rows], seg[rows], fi)
        assert_same_placement(got, oracle_facade_crossings(scene, p[rows], seg[rows], fi))
        t = got[0]
        assert np.isnan(t).any() and (t == 0.0).any() and ((t > 0.0) & (t < 1.0)).any()
        blocked = scene.segments_blocked(p, p + seg)
        np.testing.assert_array_equal(blocked, oracle_segments_blocked(scene, p, p + seg))
        assert 0 < blocked.sum() < len(p)

    def test_facades_are_vertical(self):
        # the two-term rule rests on this: +0.0, never -0.0, even where an
        # edge along y makes a normal's -u[0] a -0.0
        rng = np.random.default_rng(5)
        scenes = [load_preset().load_scene(), Scene(buildings=AXIS_SCENE)]
        for _ in range(20):
            m = int(rng.integers(3, 9))
            angle = np.sort(rng.uniform(0.0, 2 * math.pi, size=m))
            fp = rng.uniform(-50, 50, size=2) + rng.uniform(2, 10, size=(m, 1)) * np.column_stack([np.cos(angle), np.sin(angle)])
            # a rectangle beside it, its edges along the axes
            lo = rng.integers(60, 90, size=2).astype(float)
            rect = np.array([lo, lo + [4.0, 0.0], lo + [4.0, 3.0], lo + [0.0, 3.0]])
            scenes.append(Scene(buildings=[Building(1, fp, 10.0), Building(2, rect, 12.0)]))
        for scene in scenes:
            for z in (scene.fac_normal[:, 2], scene.fac_dir[:, 2]):
                assert (z == 0.0).all() and not np.signbit(z).any()
            for col, vec in ((scene.fac_nx, scene.fac_normal[:, 0]), (scene.fac_ny, scene.fac_normal[:, 1])):
                assert col.flags.c_contiguous and col.tobytes() == vec.tobytes()
            for col, vec in ((scene.fac_ux, scene.fac_dir[:, 0]), (scene.fac_uy, scene.fac_dir[:, 1])):
                assert col.flags.c_contiguous and col.tobytes() == vec.tobytes()
        assert np.signbit(scenes[1].fac_normal[:, :2]).any()

    @pytest.mark.parametrize("name", ["preset", "box", "axis"])
    def test_wedge_azimuths(self, name):
        scene = {
            "preset": lambda: load_preset().load_scene(),
            "box": lambda: Scene(buildings=ROTATED_SCENES["box"]),
            "axis": lambda: Scene(buildings=AXIS_SCENE),
        }[name]()
        rng = np.random.default_rng(8)
        n = 20_000
        wi = rng.integers(0, scene.n_wedges, size=n)
        xy = rng.normal(size=(n, 2)) * rng.choice([1e-6, 1.0, 100.0], size=(n, 1))
        # along either face of the wedge, on its o-face tangent and normal,
        # and with zeros of either sign
        on_face = rng.random(n) < 0.3
        xy[on_face] = rng.uniform(-5, 5, size=(on_face.sum(), 1)) * scene.wedge_o_tangent[wi[on_face]]
        on_normal = rng.random(n) < 0.1
        xy[on_normal] = rng.uniform(-5, 5, size=(on_normal.sum(), 1)) * scene.wedge_o_normal[wi[on_normal]]
        pick = rng.random(xy.shape) < 0.1
        xy[pick] = rng.choice([0.0, -0.0], size=pick.sum())
        phi, exterior = scene.wedge_azimuths(wi, xy)
        want_phi, want_exterior = oracle_wedge_azimuths(scene, wi, xy)
        # the zero vector has no azimuth (0 or pi by the signs of its zeros),
        # and every caller rules it out by its own distance test
        some = xy.any(axis=1)
        assert 0 < some.sum() < n
        assert phi[some].tobytes() == want_phi[some].tobytes()
        np.testing.assert_array_equal(exterior, want_exterior)


def assert_tables_are_the_oracle(scene):
    """Every table of ``scene`` holds the bits, dtype and shape of the
    per-vertex builder's."""
    want = oracle_tables(scene.buildings)
    for name in TABLES:
        got = getattr(scene, name)
        assert (got.dtype, got.shape) == (want[name].dtype, want[name].shape), name
        assert got.tobytes() == want[name].tobytes(), name
    assert (scene.n_facades, scene.n_wedges) == (len(want["fac_len"]), len(want["wedge_n_index"]))


def star(rng, center, n):
    """A random star polygon of ``n`` vertices around ``center``, simple and
    counterclockwise; about one vertex in five lies on the straight line
    between its neighbours."""
    angle = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    radius = rng.uniform(2.0, 25.0, n)
    poly = np.asarray(center) + np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    straight = np.flatnonzero(rng.random(n) < 0.2)
    mids = 0.5 * (poly[straight] + poly[(straight + 1) % n])
    return np.insert(poly, straight + 1, mids, axis=0)


class TestArrayTables:
    """The tables built from one vertex array are the per-vertex builder's,
    bit for bit."""

    def test_preset(self):
        assert_tables_are_the_oracle(load_preset().load_scene())

    def test_clockwise_json_input(self):
        ell = [[0, 0], [4, 0], [4, 2], [2, 2], [2, 4], [0, 4]]
        buildings = [
            {"id": 1, "footprint": list(reversed(square(0, 0, 5))), "height": 3},
            {"id": 2, "footprint": ell[::-1], "height": 7.5, "material": {"pec": True}},
            {"id": 9, "footprint": [[20, 0], [23, 1], [21.5, 4]][::-1], "height": 2, "material": {"eps_r": 3.0}},
        ]
        scene = load_scene(json.dumps({"version": 1, "buildings": buildings}))
        assert_tables_are_the_oracle(scene)
        assert scene.fac_pec.tolist() == [False] * 4 + [True] * 6 + [False] * 3

    @pytest.mark.parametrize("shift", range(6))
    def test_l_shapes_with_the_reflex_vertex_anywhere(self, shift):
        # vertex 3 of the L is reflex; rolled, it becomes vertex 0, 1, ...
        ell = np.roll(np.array([[0, 0], [4, 0], [4, 2], [2, 2], [2, 4], [0, 4]], dtype=float), -shift, axis=0)
        scene = make_scene([Building(id=1, footprint=ell, height=6.0), box(2, 20, 0, 3, 9)])
        assert_tables_are_the_oracle(scene)
        assert scene.n_wedges == 5 + 4
        assert (3 - shift) % 6 + 7 not in scene.wedge_element[:5].tolist()

    def test_shared_walls(self, block, town):
        assert_tables_are_the_oracle(block)
        assert_tables_are_the_oracle(town)

    def test_no_buildings(self):
        assert_tables_are_the_oracle(make_scene([]))

    def test_random_star_polygons(self):
        rng = np.random.default_rng(3301)
        n_polygons = 0
        for _ in range(150):
            buildings = []
            for bid in range(int(rng.integers(1, 5))):
                poly = star(rng, rng.uniform(-300.0, 300.0, 2), int(rng.integers(3, 14)))
                material = [Material(), PEC, Material(eps_r=rng.uniform(1.0, 9.0), sigma=rng.uniform(0.0, 1.0))][bid % 3]
                height = rng.uniform(2.0, 60.0)
                buildings.append(Building(id=8 * int(rng.integers(10**6)) + bid, footprint=poly, height=height, material=material))
            n_polygons += len(buildings)
            assert_tables_are_the_oracle(make_scene(buildings))
        assert n_polygons >= 300


def footprint_error(footprint) -> str:
    with pytest.raises(SceneError) as err:
        load_scene(json.dumps({"version": 1, "buildings": [{"id": 1, "footprint": footprint, "height": 3}]}))
    return str(err.value)


class TestFootprintChecks:
    @pytest.mark.parametrize(
        "footprint, message",
        [
            ([], "footprint needs at least 3 vertices, got 0"),
            ([[0, 0], [1, 0]], "footprint needs at least 3 vertices, got 2"),
            ([[0, 0], [1, 0], [3, 0]], "footprint is degenerate (zero area)"),
            ([[0, 0], [2, 2], [2, 0], [0, 2]], "footprint is degenerate (zero area)"),
            ([[0, 0], [4, 0], [4, 0], [4, 4], [0, 4]], "repeated vertex at index 1"),
            ([[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]], "repeated vertex at index 4"),
            ([[0, 0], [4, 0], [4, 3], [2, -1], [0, 3]], "footprint self-intersects (edges 0 and 2)"),
            ([[0, 0], [4, 0], [4, 4], [2, 4], [2, -2], [1, -2], [1, 4], [0, 4]], "footprint self-intersects (edges 0 and 3)"),
            ([[0, 0], [6, 0], [6, 6], [3, 6], [3, 7], [4, 7], [4, 5], [0, 5]], "footprint self-intersects (edges 2 and 5)"),
        ],
        ids=["empty", "two_vertices", "collinear", "bowtie", "repeated", "repeated_wrap", "crossed", "two_crossings", "notch"],
    )
    def test_message(self, footprint, message):
        assert footprint_error(footprint) == f"buildings[0]: {message}"
        with pytest.raises(SceneError) as want:
            oracle_check_simple_polygon(np.asarray(footprint, dtype=float), "buildings[0]")
        assert str(want.value) == f"buildings[0]: {message}"

    def test_random_polygons_give_the_oracle_error(self):
        # vertices in random order, most footprints crossing themselves, a
        # few with repeated vertices, and some longer than one block of pairs
        rng = np.random.default_rng(3302)
        errors = set()
        for k in range(400):
            if k < 380:
                n = int(rng.integers(3, 12))
                poly = rng.integers(-6, 7, size=(n, 2)).astype(float) if k % 2 else rng.uniform(-10.0, 10.0, (n, 2))
            else:
                # a star of more than 256 vertices, two of them swapped
                poly = star(rng, (0.0, 0.0), int(rng.integers(2**8 + 1, 400)))
                i, j = rng.choice(len(poly), 2, replace=False)
                poly[[i, j]] = poly[[j, i]]
            try:
                oracle_check_simple_polygon(poly, "w")
            except SceneError as err:
                want = str(err)
            else:
                want = None
            try:
                area = _check_simple_polygon(poly, "w")
            except SceneError as err:
                assert str(err) == want
            else:
                assert want is None
                x, y = poly[:, 0], poly[:, 1]
                assert area == 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
            errors.add(want.split(":")[1].split("(")[0].split(" at ")[0].strip() if want else None)
        assert errors == {None, "footprint self-intersects", "repeated vertex", "footprint is degenerate"}


class TestContainment:
    """``contains_points`` gives each point the verdict of placing it alone."""

    def test_inside_above_beside_and_on_the_boundary(self):
        scene = make_scene([box(1, 0, 0, 5, 10)])
        # inside; above the roof; beside the box; on its boundary, which
        # does not count as interior
        points = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 15.0], [20.0, 0.0, 5.0], [5.0, 0.0, 5.0]])
        np.testing.assert_array_equal(scene.contains_points(points), [True, False, False, False])
        assert scene.contains_points(np.zeros((0, 3))).shape == (0,)

    def check(self, scene, points):
        got = scene.contains_points(points)
        want = [oracle_contains_point(scene, p) for p in points]
        np.testing.assert_array_equal(got, want)
        return got

    def test_grazing_points(self, block):
        # footprint corners and edge midpoints, nudged by 0.5 and 2 EPS_GEOM,
        # at the ground, the roof lines and EPS_GEOM either side of them
        xy = _boundary_samples(block)
        heights = sorted({b.height for b in block.buildings})
        zs = [0.0, -EPS_GEOM, EPS_GEOM, 4.0] + [h + d * EPS_GEOM for h in heights for d in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        points = np.array([[x, y, z] for z in zs for x, y in xy])
        assert len(points) > 3 * SEGMENT_BLOCK
        got = self.check(block, points)
        assert 0 < got.sum() < len(points)

    def test_random_points_in_a_town(self, town):
        rng = np.random.default_rng(3303)
        points = rng.uniform([-20.0, -20.0, -1.0], [330.0, 200.0, 35.0], size=(1000, 3))
        got = self.check(town, points)
        assert 0 < got.sum() < len(points)

    def test_preset_track(self):
        cfg = load_preset()
        scene = cfg.load_scene()
        rx = cfg.trajectory().position(np.linspace(0.0, cfg.duration_s, 301))
        assert not self.check(scene, rx).any()
        # the same track 13 m across, through the buildings beside it
        assert self.check(scene, rx + [0.0, 13.0, 0.0]).any()
