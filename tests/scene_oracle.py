"""Per-vertex and per-point references for the scene's array builders.

``oracle_tables`` builds the facade, wedge and building tables of a list of
buildings one vertex at a time, ``oracle_check_simple_polygon`` checks one
footprint one vertex and one edge pair at a time, and
``oracle_contains_point`` places one point.  ``Scene`` builds the tables and
checks the footprints from one concatenated vertex array and answers
``contains_points`` for many points at once; the tests require the same
bits, the same first error and the same verdicts.
"""

import math

import numpy as np

from railchan.scene import EPS_GEOM, SceneError

#: every table ``Scene`` builds, by attribute name
TABLES = (
    "fac_origin",
    "fac_dir",
    "fac_len",
    "fac_height",
    "fac_normal",
    "fac_offset",
    "fac_object",
    "fac_element",
    "fac_od",
    "fac_nx",
    "fac_ny",
    "fac_ux",
    "fac_uy",
    "_fac_end",
    "fac_eps_r",
    "fac_sigma",
    "fac_pec",
    "wedge_xy",
    "wedge_height",
    "wedge_o_tangent",
    "wedge_o_normal",
    "wedge_n_index",
    "wedge_face",
    "wedge_object",
    "wedge_element",
    "_bldg_height",
    "_bldg_lo",
    "_bldg_hi",
    "_bldg_fac_start",
)


def _cross2(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def _wedge_rows(b, first_facade: int) -> list[tuple]:
    """One row per convex footprint vertex of building ``b``: (point_xy,
    height, o_tangent, o_normal, n_index, o-face index, object id, element
    id)."""
    poly = b.footprint
    nv = len(poly)
    rows = []
    for i in range(nv):
        prev_v = poly[(i - 1) % nv]
        this_v = poly[i]
        next_v = poly[(i + 1) % nv]
        e_in = this_v - prev_v
        e_out = next_v - this_v
        turn = _cross2(e_in, e_out)
        if turn <= EPS_GEOM:
            continue
        cosang = float(np.dot(-e_in, e_out) / (np.linalg.norm(e_in) * np.linalg.norm(e_out)))
        interior = math.acos(min(1.0, max(-1.0, cosang)))
        n_index = 2.0 - interior / math.pi
        if i > 0:
            o_t = -(e_in / np.linalg.norm(e_in))
            o_n = np.array([e_in[1], -e_in[0]]) / np.linalg.norm(e_in)
            o_face = i - 1
        else:
            o_t = e_out / np.linalg.norm(e_out)
            o_n = np.array([e_out[1], -e_out[0]]) / np.linalg.norm(e_out)
            o_face = 0
        rows.append((this_v, b.height, o_t, o_n, n_index, first_facade + o_face, b.id, nv + 1 + i))
    return rows


def oracle_tables(buildings) -> dict[str, np.ndarray]:
    """Every table of :data:`TABLES` for ``buildings``, built one vertex at a
    time."""
    origins, ends, dirs, lengths, heights, normals, offsets = [], [], [], [], [], [], []
    materials, fac_object, fac_element = [], [], []
    wedges = []
    for b in buildings:
        poly = b.footprint
        nv = len(poly)
        wedges.extend(_wedge_rows(b, len(origins)))
        for i in range(nv):
            v0, v1 = poly[i], poly[(i + 1) % nv]
            edge = v1 - v0
            length = float(np.linalg.norm(edge))
            u = edge / length
            origins.append([v0[0], v0[1], 0.0])
            ends.append(v1)
            dirs.append([u[0], u[1], 0.0])
            lengths.append(length)
            heights.append(b.height)
            n = np.array([u[1], -u[0], 0.0])
            normals.append(n)
            offsets.append(n[0] * v0[0] + n[1] * v0[1])
            materials.append(b.material)
            fac_object.append(b.id)
            fac_element.append(i)
    t = {
        "fac_origin": np.array(origins, dtype=float).reshape(-1, 3),
        "fac_dir": np.array(dirs, dtype=float).reshape(-1, 3),
        "fac_len": np.array(lengths, dtype=float),
        "fac_height": np.array(heights, dtype=float),
        "fac_normal": np.array(normals, dtype=float).reshape(-1, 3),
        "fac_offset": np.array(offsets, dtype=float),
        "fac_object": np.array(fac_object, dtype=np.intp),
        "fac_element": np.array(fac_element, dtype=np.intp),
        "_fac_end": np.array(ends, dtype=float).reshape(-1, 2),
        "fac_eps_r": np.array([m.eps_r for m in materials], dtype=float),
        "fac_sigma": np.array([m.sigma for m in materials], dtype=float),
        "fac_pec": np.array([m.pec for m in materials], dtype=bool),
    }
    t["fac_od"] = np.einsum("ij,ij->i", t["fac_origin"], t["fac_dir"])
    t["fac_nx"], t["fac_ny"] = t["fac_normal"][:, :2].T.copy()
    t["fac_ux"], t["fac_uy"] = t["fac_dir"][:, :2].T.copy()
    xy, height, o_t, o_n, n_index, face, obj, el = list(zip(*wedges)) or [()] * 8
    t["wedge_xy"] = np.array(xy, dtype=float).reshape(-1, 2)
    t["wedge_height"] = np.array(height, dtype=float)
    t["wedge_o_tangent"] = np.array(o_t, dtype=float).reshape(-1, 2)
    t["wedge_o_normal"] = np.array(o_n, dtype=float).reshape(-1, 2)
    t["wedge_n_index"] = np.array(n_index, dtype=float)
    t["wedge_face"] = np.array(face, dtype=np.intp)
    t["wedge_object"] = np.array(obj, dtype=np.intp)
    t["wedge_element"] = np.array(el, dtype=np.intp)
    t["_bldg_height"] = np.array([b.height for b in buildings], dtype=float)
    t["_bldg_lo"] = np.array([b.footprint.min(axis=0) for b in buildings], dtype=float).reshape(-1, 2)
    t["_bldg_hi"] = np.array([b.footprint.max(axis=0) for b in buildings], dtype=float).reshape(-1, 2)
    counts = [len(b.footprint) for b in buildings]
    t["_bldg_fac_start"] = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
    return t


def _polygon_signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _segments_properly_intersect(p1, p2, q1, q2) -> bool:
    d1 = _cross2(q2 - q1, p1 - q1)
    d2 = _cross2(q2 - q1, p2 - q1)
    d3 = _cross2(p2 - p1, q1 - p1)
    d4 = _cross2(p2 - p1, q2 - p1)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def oracle_check_simple_polygon(poly: np.ndarray, where: str) -> None:
    """SceneError with the first fault of footprint ``poly``, checked one
    vertex and one edge pair at a time."""
    n = len(poly)
    if n < 3:
        raise SceneError(f"{where}: footprint needs at least 3 vertices, got {n}")
    if abs(_polygon_signed_area(poly)) < EPS_GEOM**2:
        raise SceneError(f"{where}: footprint is degenerate (zero area)")
    for i in range(n):
        if np.linalg.norm(poly[(i + 1) % n] - poly[i]) < EPS_GEOM:
            raise SceneError(f"{where}: repeated vertex at index {i}")
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_properly_intersect(poly[i], poly[(i + 1) % n], poly[j], poly[(j + 1) % n]):
                raise SceneError(f"{where}: footprint self-intersects (edges {i} and {j})")


def oracle_contains_point(scene, p) -> bool:
    """True when ``p`` is strictly inside some building volume of ``scene``,
    placed against every building alone; a point within ``EPS_GEOM`` of a
    footprint boundary is not inside."""
    x, y, z = (float(v) for v in p)
    bi = np.nonzero(
        (z > -EPS_GEOM)
        & (z < scene._bldg_height - EPS_GEOM)
        & scene._near_footprint_bbox(x, y, np.arange(len(scene.buildings)))
    )[0]
    if not len(bi):
        return False
    inside, on_boundary = scene._classify_footprint(np.full(len(bi), x), np.full(len(bi), y), bi)
    return bool(np.any(inside & ~on_boundary))
