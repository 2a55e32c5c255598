"""Static environment model: extruded buildings, cylindrical scatterers, ground.

The scene is loaded once from a JSON description and is immutable afterwards;
every query here is a pure function of the scene, so tracers may share one
instance across workers freely.

Geometry conventions
--------------------
* Coordinates are meters, z up.  The ground is the infinite plane ``z = 0``.
* Building footprints are simple polygons stored counterclockwise; each
  footprint edge extrudes to a vertical rectangular facade, the top face is a
  horizontal rooftop polygon, and each footprint vertex owns a vertical edge.
* Stable element ids inside one building with ``V`` footprint vertices:
  facade ``i`` (from vertex ``i`` to ``i+1``) has element id ``i``, the
  rooftop has element id ``V``, and the vertical edge at vertex ``i`` has
  element id ``V + 1 + i``.
* The ground is addressed as object id ``-1``, element id ``0``.

The scene answers one occlusion query, :meth:`Scene.segments_blocked`, for
a whole array of segments at once; every tracer asks it.  It excludes a
tolerance band ``EPS_GEOM`` around segment endpoints so that a path vertex
lying exactly on a surface does not occlude its own segments.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

#: Endpoint-exclusion / coincidence tolerance in meters.  Scenes are at most a
#: few km across, which leaves ~9 significant digits of double headroom.
EPS_GEOM = 1e-6

#: Default building material (concrete-class dielectric).
DEFAULT_EPS_R = 5.0
DEFAULT_SIGMA = 0.1

GROUND_OBJECT_ID = -1


class SceneError(ValueError):
    """Raised when a scene description is malformed."""


@dataclass(frozen=True)
class Material:
    """Homogeneous surface material.

    ``eps_r`` is the real relative permittivity (>= 1), ``sigma`` the
    conductivity in S/m.  ``pec`` short-circuits both: a perfect conductor
    reflects with magnitude one for both polarizations at every angle.
    """

    eps_r: float = DEFAULT_EPS_R
    sigma: float = DEFAULT_SIGMA
    pec: bool = False

    def __post_init__(self):
        if not self.pec:
            if self.eps_r < 1.0:
                raise SceneError(f"relative permittivity must be >= 1, got {self.eps_r}")
            if self.sigma < 0.0:
                raise SceneError(f"conductivity must be >= 0, got {self.sigma}")


PEC = Material(eps_r=1.0, sigma=0.0, pec=True)
DEFAULT_MATERIAL = Material()


@dataclass
class Building:
    """Extruded polygon with a uniform material.

    ``footprint`` is an (V, 2) float array, counterclockwise, simple.
    """

    id: int
    footprint: np.ndarray
    height: float
    material: Material = DEFAULT_MATERIAL

    @property
    def n_vertices(self) -> int:
        return len(self.footprint)

    @property
    def roof_element_id(self) -> int:
        return self.n_vertices

    def edge_element_id(self, vertex_index: int) -> int:
        return self.n_vertices + 1 + vertex_index


@dataclass
class CylinderScatterer:
    """Vertical cylinder (catenary-pylon style discrete scatterer)."""

    id: int
    base_center: np.ndarray
    radius: float
    height: float
    material: Material = PEC

    @property
    def reference_point(self) -> np.ndarray:
        """Axis point at mid-height; anchor for scatter-path geometry."""
        return self.base_center + np.array([0.0, 0.0, 0.5 * self.height])


@dataclass(frozen=True)
class Wedge:
    """Local frame of a vertical building edge, for diffraction coefficients.

    Angles around the edge are measured from ``o_tangent`` rotating through
    ``o_normal``; the n-face tangent then sits at ``n_index * pi``.  The
    o-face is the adjacent facade with the lower element id.  Both faces
    belong to one building, so they share its ``material``.
    """

    point_xy: np.ndarray
    height: float
    edge_dir: np.ndarray  # unit, +z
    o_tangent: np.ndarray  # unit, horizontal, into the o-face
    o_normal: np.ndarray
    n_index: float  # exterior angle / pi
    material: Material
    object_id: int
    element_id: int


def _polygon_signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _cross2(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def _segments_properly_intersect(p1, p2, q1, q2) -> bool:
    """True when open segments (p1,p2) and (q1,q2) cross."""
    d1 = _cross2(q2 - q1, p1 - q1)
    d2 = _cross2(q2 - q1, p2 - q1)
    d3 = _cross2(p2 - p1, q1 - p1)
    d4 = _cross2(p2 - p1, q2 - p1)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _check_simple_polygon(poly: np.ndarray, where: str) -> None:
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
            # skip adjacent edges (they share an endpoint by construction)
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_properly_intersect(
                poly[i], poly[(i + 1) % n], poly[j], poly[(j + 1) % n]
            ):
                raise SceneError(f"{where}: footprint self-intersects (edges {i} and {j})")


@dataclass
class Scene:
    """Immutable environment: buildings, scatterers, ground."""

    buildings: list[Building]
    scatterers: list[CylinderScatterer] = field(default_factory=list)
    ground_material: Material = DEFAULT_MATERIAL

    def __post_init__(self):
        ids = [b.id for b in self.buildings]
        if len(set(ids)) != len(ids):
            raise SceneError("duplicate building ids")
        sids = [s.id for s in self.scatterers]
        if len(set(sids)) != len(sids):
            raise SceneError("duplicate scatterer ids")
        self._build_arrays()

    # ------------------------------------------------------------------
    # precomputed flat geometry arrays
    # ------------------------------------------------------------------
    def _build_arrays(self):
        origins, ends, dirs, lengths, heights, normals, offsets = [], [], [], [], [], [], []
        fac_building, fac_object, fac_element = [], [], []
        self._edges: dict[tuple[int, int], Wedge] = {}
        self._facade_info: dict[tuple[int, int], int] = {}
        for bi, b in enumerate(self.buildings):
            poly = b.footprint
            nv = len(poly)
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
                n = np.array([u[1], -u[0], 0.0])  # outward for CCW footprints
                normals.append(n)
                offsets.append(n[0] * v0[0] + n[1] * v0[1])
                fac_building.append(bi)
                fac_object.append(b.id)
                fac_element.append(i)
                self._facade_info[(b.id, i)] = len(origins) - 1
            self._build_edges(b)
        self.fac_origin = np.array(origins, dtype=float).reshape(-1, 3)
        self.fac_dir = np.array(dirs, dtype=float).reshape(-1, 3)
        self.fac_len = np.array(lengths, dtype=float)
        self.fac_height = np.array(heights, dtype=float)
        self.fac_normal = np.array(normals, dtype=float).reshape(-1, 3)
        self.fac_offset = np.array(offsets, dtype=float)
        self.fac_building = np.array(fac_building, dtype=np.intp)
        self.fac_object = np.array(fac_object, dtype=np.intp)
        self.fac_element = np.array(fac_element, dtype=np.intp)
        self.n_facades = len(self.fac_len)
        self.fac_od = np.einsum("ij,ij->i", self.fac_origin, self.fac_dir)
        # facade f is also footprint edge f, from fac_origin[f] to _fac_end[f]
        self._fac_end = np.array(ends, dtype=float).reshape(-1, 2)
        # per-building extents and roof ids for the batched queries
        bs = self.buildings
        self._bldg_height = np.array([b.height for b in bs], dtype=float)
        self._bldg_lo = np.array([b.footprint.min(axis=0) for b in bs], dtype=float).reshape(-1, 2)
        self._bldg_hi = np.array([b.footprint.max(axis=0) for b in bs], dtype=float).reshape(-1, 2)
        self._bldg_object = np.array([b.id for b in bs], dtype=np.intp)
        self._bldg_roof = np.array([b.roof_element_id for b in bs], dtype=np.intp)
        # facades are appended building by building, so each building owns the
        # contiguous facade range [start[b], start[b+1])
        counts = [len(b.footprint) for b in bs]
        self._bldg_fac_start = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)

    def _build_edges(self, b: Building):
        poly = b.footprint
        nv = len(poly)
        for i in range(nv):
            prev_v = poly[(i - 1) % nv]
            this_v = poly[i]
            next_v = poly[(i + 1) % nv]
            e_in = this_v - prev_v
            e_out = next_v - this_v
            turn = _cross2(e_in, e_out)
            if turn <= EPS_GEOM:
                continue  # reflex or straight vertex: not a diffracting edge
            cosang = float(
                np.dot(-e_in, e_out) / (np.linalg.norm(e_in) * np.linalg.norm(e_out))
            )
            interior = math.acos(min(1.0, max(-1.0, cosang)))
            n_index = 2.0 - interior / math.pi
            # adjacent facades: facade (i-1) ends here, facade i starts here;
            # the o-face, the one with the lower element id, is facade (i-1)
            # except at vertex 0
            if i > 0:
                o_t = -(e_in / np.linalg.norm(e_in))
                o_n = np.array([e_in[1], -e_in[0]]) / np.linalg.norm(e_in)
            else:
                o_t = e_out / np.linalg.norm(e_out)
                o_n = np.array([e_out[1], -e_out[0]]) / np.linalg.norm(e_out)
            wedge = Wedge(
                point_xy=this_v.copy(),
                height=b.height,
                edge_dir=np.array([0.0, 0.0, 1.0]),
                o_tangent=np.array([o_t[0], o_t[1], 0.0]),
                o_normal=np.array([o_n[0], o_n[1], 0.0]),
                n_index=n_index,
                material=b.material,
                object_id=b.id,
                element_id=b.edge_element_id(i),
            )
            self._edges[(b.id, wedge.element_id)] = wedge

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def facade_frame(self, object_id: int, element_id: int):
        """(origin, dir, length, height, normal, material) for one facade."""
        fi = self._facade_info[(object_id, element_id)]
        bi = self.fac_building[fi]
        return (
            self.fac_origin[fi],
            self.fac_dir[fi],
            float(self.fac_len[fi]),
            float(self.fac_height[fi]),
            self.fac_normal[fi],
            self.buildings[bi].material,
        )

    def wedges(self) -> list[Wedge]:
        return list(self._edges.values())

    def wedge(self, object_id: int, element_id: int) -> Wedge:
        return self._edges[(object_id, element_id)]

    def contains_point(self, p: np.ndarray) -> bool:
        """True when p is strictly inside some building volume.

        A point within ``EPS_GEOM`` of a footprint boundary is not inside.
        """
        x, y, z = (float(v) for v in p)
        bi = np.nonzero(
            (z > -EPS_GEOM)
            & (z < self._bldg_height - EPS_GEOM)
            & self._near_footprint_bbox(x, y, np.arange(len(self.buildings)))
        )[0]
        if not len(bi):
            return False
        inside, on_boundary = self._classify_footprint(np.full(len(bi), x), np.full(len(bi), y), bi)
        return bool(np.any(inside & ~on_boundary))

    # ------------------------------------------------------------------
    # footprint classification
    # ------------------------------------------------------------------
    def _near_footprint_bbox(self, x, y, bi: np.ndarray) -> np.ndarray:
        """True where ``(x, y)`` lies within ``EPS_GEOM`` of the bounding box
        of the footprint of building ``bi``."""
        lo = self._bldg_lo[bi] - EPS_GEOM
        hi = self._bldg_hi[bi] + EPS_GEOM
        return (x >= lo[:, 0]) & (x <= hi[:, 0]) & (y >= lo[:, 1]) & (y <= hi[:, 1])

    def _building_facades(self, bi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, facade) pairs covering every facade of building ``bi[row]``."""
        start = self._bldg_fac_start
        counts = start[bi + 1] - start[bi]
        rows = np.repeat(np.arange(len(bi)), counts)
        first = np.cumsum(counts) - counts
        return rows, start[bi][rows] + np.arange(len(rows)) - first[rows]

    def _classify_footprint(self, x, y, bi) -> tuple[np.ndarray, np.ndarray]:
        """Place point ``(x[m], y[m])`` against the footprint of building ``bi[m]``.

        Returns ``(inside, on_boundary)``: ``inside`` is the even-odd rule,
        ``on_boundary`` marks points within ``EPS_GEOM`` of a footprint edge on
        either side.  This is the scene's one boundary convention: rooftop
        crossings count ``inside | on_boundary`` as a hit, while
        :meth:`contains_point` counts only ``inside & ~on_boundary``.
        """
        rows, e = self._building_facades(bi)
        px, py = x[rows], y[rows]
        xs, ys = self.fac_origin[e, 0], self.fac_origin[e, 1]
        xe, ye = self._fac_end[e, 0], self._fac_end[e, 1]
        crosses = ((ys > py) != (ye > py)) & (
            px < xs + (py - ys) * (xe - xs) / np.where(ye != ys, ye - ys, 1.0)
        )
        inside = np.bincount(rows[crosses], minlength=len(bi)) % 2 == 1
        dx, dy = xe - xs, ye - ys
        tproj = np.clip(((px - xs) * dx + (py - ys) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
        near = (xs + tproj * dx - px) ** 2 + (ys + tproj * dy - py) ** 2 <= EPS_GEOM**2
        on_boundary = np.zeros(len(bi), dtype=bool)
        on_boundary[rows[near]] = True
        return inside, on_boundary

    # ------------------------------------------------------------------
    # intersection queries
    # ------------------------------------------------------------------
    def _crossings(self, p: np.ndarray, q: np.ndarray):
        """Every surface crossing strictly inside the segments ``p[k] -> q[k]``.

        Returns ``(k, t, object_id, element_id)`` with one entry per
        crossing: the segment index, the parameter along ``q - p`` and the
        element crossed.  Crossings closer than ``EPS_GEOM`` to either
        endpoint are dropped, so a segment that starts or ends on a surface
        is not blocked by it.  Facades and rooftops are only tested for the
        (segment, building) pairs whose bounding boxes overlap.
        """
        seg = q - p
        seg_len = np.linalg.norm(seg, axis=1)
        lo = np.minimum(p, q) - EPS_GEOM
        hi = np.maximum(p, q) + EPS_GEOM
        cand = (
            (lo[:, 0:1] <= self._bldg_hi[None, :, 0])
            & (hi[:, 0:1] >= self._bldg_lo[None, :, 0])
            & (lo[:, 1:2] <= self._bldg_hi[None, :, 1])
            & (hi[:, 1:2] >= self._bldg_lo[None, :, 1])
            & (lo[:, 2:3] <= self._bldg_height[None, :])
            & (hi[:, 2:3] >= 0.0)
        )  # (K, B)
        ki, bi = np.nonzero(cand)

        # facade planes, one row per (segment, facade of an overlapping building)
        rows, fi = self._building_facades(bi)
        kk = ki[rows]
        nx = self.fac_normal[fi]
        pp = p[kk]
        ss = seg[kk]
        denom = np.einsum("ij,ij->i", nx, ss)
        off = self.fac_offset[fi] - np.einsum("ij,ij->i", nx, pp)
        safe = np.abs(denom) > 1e-15
        t = np.where(safe, off / np.where(safe, denom, 1.0), 0.0)
        sl = seg_len[kk]
        dist = t * sl
        ok = (dist > EPS_GEOM) & (dist < sl - EPS_GEOM)
        dx = self.fac_dir[fi]
        s = np.einsum("ij,ij->i", pp, dx) - self.fac_od[fi] + t * np.einsum("ij,ij->i", ss, dx)
        ok &= (s >= -EPS_GEOM) & (s <= self.fac_len[fi] + EPS_GEOM)
        z = pp[:, 2] + t * ss[:, 2]
        ok &= (z >= -EPS_GEOM) & (z <= self.fac_height[fi] + EPS_GEOM)
        facade = (kk[ok], t[ok], self.fac_object[fi[ok]], self.fac_element[fi[ok]])

        # rooftop planes, one row per overlapping (segment, building) pair
        pb = p[ki]
        sb = seg[ki]
        dz = sb[:, 2]
        safe = np.abs(dz) > 1e-15
        t = np.where(safe, (self._bldg_height[bi] - pb[:, 2]) / np.where(safe, dz, 1.0), 0.0)
        sl = seg_len[ki]
        dist = t * sl
        x = pb[:, 0] + t * sb[:, 0]
        y = pb[:, 1] + t * sb[:, 1]
        near = (dist > EPS_GEOM) & (dist < sl - EPS_GEOM)
        near &= self._near_footprint_bbox(x, y, bi)
        r = np.nonzero(near)[0]
        inside, on_boundary = self._classify_footprint(x[r], y[r], bi[r])
        r = r[inside | on_boundary]
        roof = (ki[r], t[r], self._bldg_object[bi[r]], self._bldg_roof[bi[r]])

        # ground plane z = 0
        dz = seg[:, 2]
        safe = np.abs(dz) > 1e-15
        t = np.where(safe, -p[:, 2] / np.where(safe, dz, 1.0), 0.0)
        dist = t * seg_len
        g = np.nonzero((dist > EPS_GEOM) & (dist < seg_len - EPS_GEOM))[0]
        ground = (
            g,
            t[g],
            np.full(len(g), GROUND_OBJECT_ID, dtype=np.intp),
            np.zeros(len(g), dtype=np.intp),
        )
        return tuple(np.concatenate(cols) for cols in zip(facade, roof, ground))

    def segments_blocked(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Occlusion flags for (K, 3) segment endpoint arrays.

        True where the open segment meets a facade, a rooftop or the ground.
        This is the scene's one intersection query; the tracers test all
        their candidate segments in one call.
        """
        p = np.atleast_2d(np.asarray(p, dtype=float))
        q = np.atleast_2d(np.asarray(q, dtype=float))
        blocked = np.zeros(len(p), dtype=bool)
        blocked[self._crossings(p, q)[0]] = True
        return blocked


# ----------------------------------------------------------------------
# scene file ingestion
# ----------------------------------------------------------------------

SCENE_SCHEMA_VERSION = 1

_ALLOWED_TOP_KEYS = {"version", "materials", "ground_material", "buildings", "scatterers"}
_ALLOWED_MATERIAL_KEYS = {"eps_r", "sigma", "pec"}
_ALLOWED_BUILDING_KEYS = {"id", "footprint", "height", "material"}
_ALLOWED_SCATTERER_KEYS = {"id", "base", "radius", "height", "material"}


def _is_number(value) -> bool:
    """True for a JSON number (not a boolean) that converts to a finite float;
    false for NaN, the infinities and integers beyond the float range."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and -sys.float_info.max <= value <= sys.float_info.max
    )


def _is_point(value, width: int) -> bool:
    """True for a list of ``width`` finite JSON numbers."""
    return isinstance(value, (list, tuple)) and len(value) == width and all(map(_is_number, value))


def _number(value, name: str, where: str) -> float:
    if not _is_number(value):
        raise SceneError(f"{where}: {name} must be a finite number, got {value!r}")
    return float(value)


def _object_id(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SceneError(f"{where}: id must be an integer, got {value!r}")
    return value


def _parse_material(obj, where: str) -> Material:
    if not isinstance(obj, dict):
        raise SceneError(f"{where}: material must be an object")
    unknown = set(obj) - _ALLOWED_MATERIAL_KEYS
    if unknown:
        raise SceneError(f"{where}: unknown material keys {sorted(unknown)}")
    pec = obj.get("pec", False)
    if not isinstance(pec, bool):
        raise SceneError(f"{where}: pec must be true or false, got {pec!r}")
    if pec:
        return Material(eps_r=1.0, sigma=0.0, pec=True)
    return Material(
        eps_r=_number(obj.get("eps_r", DEFAULT_EPS_R), "eps_r", where),
        sigma=_number(obj.get("sigma", DEFAULT_SIGMA), "sigma", where),
    )


def _resolve_material(ref, materials: dict[str, Material], where: str) -> Material:
    if isinstance(ref, str):
        if ref not in materials:
            raise SceneError(f"{where}: unknown material name {ref!r}")
        return materials[ref]
    return _parse_material(ref, where)


def load_scene(text: str) -> Scene:
    """Parse a JSON scene description into a :class:`Scene`.

    The schema (all lengths in meters, conductivity in S/m)::

        {
          "version": 1,
          "materials": {"concrete": {"eps_r": 5.0, "sigma": 0.1},
                        "metal": {"pec": true}},
          "ground_material": "concrete",
          "buildings": [{"id": 1,
                         "footprint": [[x, y], ...],
                         "height": 20.0,
                         "material": "concrete"}],
          "scatterers": [{"id": 1, "base": [x, y, z],
                          "radius": 0.375, "height": 8.2,
                          "material": "metal"}]
        }

    Footprints must be simple polygons with >= 3 vertices; clockwise input is
    normalized to counterclockwise on load.  Unknown keys are rejected.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"scene file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SceneError("scene file must contain a JSON object")
    if "version" not in data:
        raise SceneError("scene file is missing the mandatory 'version' field")
    if data["version"] != SCENE_SCHEMA_VERSION:
        raise SceneError(f"unsupported scene schema version {data['version']!r}")
    unknown = set(data) - _ALLOWED_TOP_KEYS
    if unknown:
        raise SceneError(f"unknown top-level scene keys {sorted(unknown)}")

    materials = {name: _parse_material(m, f"materials[{name!r}]") for name, m in data.get("materials", {}).items()}
    ground = data.get("ground_material")
    ground_material = (
        _resolve_material(ground, materials, "ground_material") if ground is not None else DEFAULT_MATERIAL
    )

    buildings = []
    for i, bobj in enumerate(data.get("buildings", [])):
        where = f"buildings[{i}]"
        if not isinstance(bobj, dict):
            raise SceneError(f"{where}: must be an object")
        unknown = set(bobj) - _ALLOWED_BUILDING_KEYS
        if unknown:
            raise SceneError(f"{where}: unknown keys {sorted(unknown)}")
        for req in ("id", "footprint", "height"):
            if req not in bobj:
                raise SceneError(f"{where}: missing required key {req!r}")
        footprint = bobj["footprint"]
        if not isinstance(footprint, list) or not all(_is_point(v, 2) for v in footprint):
            raise SceneError(f"{where}: footprint must be a list of [x, y] pairs of finite numbers")
        poly = np.asarray(footprint, dtype=float)
        _check_simple_polygon(poly, where)
        if _polygon_signed_area(poly) < 0:
            poly = poly[::-1].copy()  # normalize clockwise input
        height = _number(bobj["height"], "height", where)
        if height <= 0:
            raise SceneError(f"{where}: height must be positive, got {height}")
        mat = (
            _resolve_material(bobj["material"], materials, where)
            if "material" in bobj
            else DEFAULT_MATERIAL
        )
        buildings.append(
            Building(id=_object_id(bobj["id"], where), footprint=poly, height=height, material=mat)
        )

    scatterers = []
    for i, sobj in enumerate(data.get("scatterers", [])):
        where = f"scatterers[{i}]"
        if not isinstance(sobj, dict):
            raise SceneError(f"{where}: must be an object")
        unknown = set(sobj) - _ALLOWED_SCATTERER_KEYS
        if unknown:
            raise SceneError(f"{where}: unknown keys {sorted(unknown)}")
        for req in ("id", "base", "radius", "height"):
            if req not in sobj:
                raise SceneError(f"{where}: missing required key {req!r}")
        if not _is_point(sobj["base"], 3):
            raise SceneError(f"{where}: base must be an [x, y, z] triple of finite numbers")
        radius = _number(sobj["radius"], "radius", where)
        height = _number(sobj["height"], "height", where)
        if radius <= 0:
            raise SceneError(f"{where}: radius must be positive, got {radius}")
        if height <= 0:
            raise SceneError(f"{where}: height must be positive, got {height}")
        mat = _resolve_material(sobj["material"], materials, where) if "material" in sobj else PEC
        scatterers.append(
            CylinderScatterer(
                id=_object_id(sobj["id"], where),
                base_center=np.asarray(sobj["base"], dtype=float),
                radius=radius,
                height=height,
                material=mat,
            )
        )

    return Scene(buildings=buildings, scatterers=scatterers, ground_material=ground_material)


def load_scene_file(path) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scene(fh.read())
