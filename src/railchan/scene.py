"""Static environment model: extruded buildings, cylindrical scatterers, ground.

The scene is loaded once from a JSON description and is immutable afterwards;
every query here is a pure function of the scene.

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

Besides the buildings, the scene holds struct-of-arrays tables that the
tracers and the polarization walker index directly: the facade table
(``fac_*``: frame, extent, plane and material of every facade) and the
wedge table (``wedge_*``: position, height, local frame, exterior angle and
o-face of every diffracting vertical edge).  An interaction's host is a row
of one of them.  Both are built from one array of every footprint vertex,
building by building, and each footprint is checked on load by array tests.

Every point query takes an array of points: :meth:`Scene.contains_points`
answers "inside a building" for each.

The scene also owns the two placement rules that the tracers, the occlusion
kernel and the polarization walker share, so a ray grazing a facade, a
corner, a roof line or a wedge face gets one answer from all of them:
:meth:`Scene.facade_crossings` and :meth:`Scene.wedge_azimuths`.

The scene answers one occlusion query, :meth:`Scene.segments_blocked`, for
a whole array of segments at once; every tracer asks it.  The answer is one
yes/no flag per segment, not the surfaces crossed: the kernel tests the
ground plane, then the facades of the buildings whose bounding boxes meet
the segment's, then those buildings' rooftops, and each stage sees only the
segments that no earlier stage blocked.  It excludes a tolerance band
``EPS_GEOM`` around segment endpoints so that a path vertex lying exactly on
a surface does not occlude its own segments.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .rays import norms

#: Endpoint-exclusion / coincidence tolerance in meters.  Scenes are at most a
#: few km across, which leaves ~9 significant digits of double headroom.
EPS_GEOM = 1e-6

#: segments that one pass of ``Scene.segments_blocked`` tests; bounds the
#: (segment, facade) rows its facade stage holds
SEGMENT_BLOCK = 128

#: Default building material (concrete-class dielectric).
DEFAULT_EPS_R = 5.0
DEFAULT_SIGMA = 0.1

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


@dataclass
class CylinderScatterer:
    """Vertical cylinder (catenary-pylon style discrete scatterer), a
    perfect conductor."""

    id: int
    base_center: np.ndarray
    radius: float
    height: float

    @property
    def reference_point(self) -> np.ndarray:
        """Axis point at mid-height; anchor for scatter-path geometry."""
        return self.base_center + np.array([0.0, 0.0, 0.5 * self.height])


def _check_simple_polygon(poly: np.ndarray, where: str) -> float:
    """The signed area of footprint ``poly``, a SceneError at its first
    fault: fewer than 3 vertices, zero area, a vertex repeated by its
    successor (the first by index), or two edges that are not adjacent and
    cross (the first pair ``(i, j)``, ``i < j``, in order of ``i``, then of
    ``j``).  Edge ``i`` runs from vertex ``i`` to its successor."""
    n = len(poly)
    if n < 3:
        raise SceneError(f"{where}: footprint needs at least 3 vertices, got {n}")
    # vertex k's successor, and edge k from vertex k to it, as columns
    succ = poly[(np.arange(n) + 1) % n]
    edge = succ - poly
    (x, y), (xs, ys), (ex, ey) = poly.T, succ.T, edge.T
    area = 0.5 * float(np.sum(x * ys - xs * y))
    if abs(area) < EPS_GEOM**2:
        raise SceneError(f"{where}: footprint is degenerate (zero area)")
    # vecdot gives each row the bits np.linalg.norm gives a single vector
    short = np.sqrt(np.vecdot(edge, edge)) < EPS_GEOM
    if short.any():
        raise SceneError(f"{where}: repeated vertex at index {int(np.argmax(short))}")
    # edge pairs as an (i, j) grid, a block of rows i at a time so that a
    # long footprint holds about 2**16 pairs at once; edges i and j cross
    # when each separates the other's ends
    j = np.arange(n)
    rows = max(1, 2**16 // n)
    for first in range(0, n, rows):
        block = slice(first, first + rows)
        xi, yi, xsi, ysi, exi, eyi = (c[block, None] for c in (x, y, xs, ys, ex, ey))
        i = j[block, None]
        cross = (ex * (yi - y) - ey * (xi - x) > 0) != (ex * (ysi - y) - ey * (xsi - x) > 0)
        cross &= (exi * (y - yi) - eyi * (x - xi) > 0) != (exi * (ys - yi) - eyi * (xs - xi) > 0)
        cross &= (j >= i + 2) & ((i > 0) | (j < n - 1))
        if cross.any():
            bi, bj = np.unravel_index(np.argmax(cross), cross.shape)
            raise SceneError(f"{where}: footprint self-intersects (edges {first + bi} and {bj})")
    return area


@dataclass
class Scene:
    """Immutable environment: buildings, scatterers, ground."""

    buildings: list[Building]
    scatterers: list[CylinderScatterer] = field(default_factory=list)

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
        bs = self.buildings
        counts = np.array([len(b.footprint) for b in bs], dtype=np.intp)
        # the vertices of every footprint in one array, building by building,
        # so each building owns the contiguous range [start[b], start[b+1]);
        # facade f runs from vertex f to its successor
        self._bldg_fac_start = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        xy = np.concatenate([b.footprint for b in bs] or [np.zeros((0, 2))]).astype(float)
        f = np.arange(len(xy))
        first = np.repeat(self._bldg_fac_start[:-1], counts)
        stop = np.repeat(self._bldg_fac_start[1:], counts)
        succ = np.where(f + 1 < stop, f + 1, first)
        pred = np.where(f > first, f - 1, stop - 1)

        edge = xy[succ] - xy
        # vecdot gives each row the bits np.linalg.norm gives a single vector
        length = np.sqrt(np.vecdot(edge, edge))
        ux, uy = (edge / length[:, None]).T
        nx, ny = uy, -ux  # outward for CCW footprints
        zero = np.zeros(len(xy))
        self.fac_origin = np.column_stack([xy, zero])
        self.fac_dir = np.column_stack([ux, uy, zero])
        self.fac_len = length
        self._bldg_height = np.array([b.height for b in bs], dtype=float)
        self.fac_height = np.repeat(self._bldg_height, counts)
        self.fac_normal = np.column_stack([nx, ny, zero])
        self.fac_offset = nx * xy[:, 0] + ny * xy[:, 1]
        self.fac_object = np.repeat(np.array([b.id for b in bs], dtype=np.intp), counts)
        self.fac_element = f - first
        self.n_facades = len(xy)
        self.fac_od = np.einsum("ij,ij->i", self.fac_origin, self.fac_dir)
        # facades are vertical: the z of every normal and direction is +0.0,
        # so the placement rules read their x and y as contiguous columns
        self.fac_nx, self.fac_ny = nx.copy(), ny.copy()
        self.fac_ux, self.fac_uy = ux.copy(), uy.copy()
        # facade f is also footprint edge f, from fac_origin[f] to _fac_end[f]
        self._fac_end = xy[succ]
        # each facade carries its building's material
        materials = [b.material for b in bs]
        self.fac_eps_r = np.repeat(np.array([m.eps_r for m in materials], dtype=float), counts)
        self.fac_sigma = np.repeat(np.array([m.sigma for m in materials], dtype=float), counts)
        self.fac_pec = np.repeat(np.array([m.pec for m in materials], dtype=bool), counts)

        # the wedge table: one row per convex vertex (a reflex or straight
        # vertex does not diffract), its edge vertical between facade
        # pred[w], which ends there, and facade w, which starts there.  Angles
        # around it are measured from the horizontal unit o_tangent rotating
        # through o_normal; the n-face tangent then sits at the exterior angle
        # n_index * pi.  The o-face is the adjacent facade with the lower
        # element id (facade pred[w], except at vertex 0); both faces carry
        # the building's material
        e_in, e_out = edge[pred], edge
        w = np.flatnonzero(e_in[:, 0] * e_out[:, 1] - e_in[:, 1] * e_out[:, 0] > EPS_GEOM)
        cosang = np.vecdot(-e_in[w], e_out[w]) / (length[pred[w]] * length[w])
        # math.acos, not np.arccos, whose bits differ on some angles
        interior = np.array([math.acos(c) for c in np.clip(cosang, -1.0, 1.0).tolist()])
        at_first = w == first[w]
        face = np.where(at_first, w, pred[w])
        self.wedge_xy = xy[w]
        self.wedge_height = self.fac_height[w]
        self.wedge_o_tangent = np.where(at_first[:, None], 1.0, -1.0) * self.fac_dir[face, :2]
        self.wedge_o_normal = self.fac_normal[face, :2]
        self.wedge_n_index = 2.0 - interior / math.pi
        self.wedge_face = face
        self.wedge_object = self.fac_object[w]
        self.wedge_element = (stop - first + 1 + self.fac_element)[w]
        self.n_wedges = len(w)

        # per-building footprint extents for the occlusion kernel
        self._bldg_lo = np.minimum.reduceat(xy, self._bldg_fac_start[:-1])
        self._bldg_hi = np.maximum.reduceat(xy, self._bldg_fac_start[:-1])

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """True where a point of the (K, 3) ``points`` lies strictly inside
        some building volume.

        A point within ``EPS_GEOM`` of a footprint boundary is not inside.
        The (point, building) pairs whose heights and bounding boxes admit
        the point are placed by :meth:`_classify_footprint`, on
        ``SEGMENT_BLOCK`` points at a time, which bounds the pairs held.
        """
        points = np.asarray(points, dtype=float)
        out = np.zeros(len(points), dtype=bool)
        for a in range(0, len(points), SEGMENT_BLOCK):
            x, y, z = points[a : a + SEGMENT_BLOCK].T[:, :, None]  # each (P, 1)
            k, bi = np.nonzero(
                (z > -EPS_GEOM)
                & (z < self._bldg_height - EPS_GEOM)
                & self._near_footprint_bbox(x, y, slice(None))
            )
            inside, on_boundary = self._classify_footprint(x[k, 0], y[k, 0], bi)
            out[a + k[inside & ~on_boundary]] = True
        return out

    # ------------------------------------------------------------------
    # footprint classification
    # ------------------------------------------------------------------
    def _near_footprint_bbox(self, x, y, bi) -> np.ndarray:
        """True where ``(x, y)`` lies within ``EPS_GEOM`` of the bounding box
        of the footprint of building ``bi`` (an index array or a slice)."""
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
        :meth:`contains_points` counts only ``inside & ~on_boundary``.
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
    # placement rules
    # ------------------------------------------------------------------
    def facade_crossings(self, p, seg, fi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(t, s, z)`` where segments ``p -> p + seg`` (K, 3) meet the planes
        of facades ``fi`` (K,): the segment parameter, the offset along the
        facade from its origin and the height.  All three are NaN where a
        segment is parallel to the plane, so every band a caller tests on them
        is false there; each caller keeps its own bands for the segment ends
        and the facade edges.

        Facades are vertical: the z components of ``fac_normal`` and
        ``fac_dir`` are +0.0.  So each dot of a facade vector is the two-term
        sum of its x and y products, read from the columns ``fac_nx``,
        ``fac_ny``, ``fac_ux`` and ``fac_uy``.  Two terms sum to the same bits
        in either order, so the result equals the three-term dot's up to the
        sign of an exact zero, which no band tests."""
        nx, ny = self.fac_nx.take(fi), self.fac_ny.take(fi)
        px, py, sx, sy = p[:, 0], p[:, 1], seg[:, 0], seg[:, 1]
        denom = nx * sx + ny * sy
        safe = np.abs(denom) > 1e-15
        off = self.fac_offset.take(fi) - (nx * px + ny * py)
        t = np.divide(off, denom, out=np.full(len(off), np.nan), where=safe)
        ux, uy = self.fac_ux.take(fi), self.fac_uy.take(fi)
        s = (px * ux + py * uy) - self.fac_od.take(fi) + t * (sx * ux + sy * uy)
        return t, s, p[:, 2] + t * seg[:, 2]

    def wedge_azimuths(self, wi, xy) -> tuple[np.ndarray, np.ndarray]:
        """Azimuths in [0, 2 pi) of horizontal vectors ``xy`` (K, 2) pointing
        away from the edges of wedges ``wi`` (K,), measured from the o-face
        tangent through the region outside the building, and the mask of
        those outside the wedge material (at most ``n_index * pi``).  An
        angle within 1e-9 rad below 2 pi reads as 0, on the o-face, so a point
        on the o-face plane gets one angle whichever side rounding puts it.

        Each dot is the two-term sum of the x and y products.  The zero
        vector has no azimuth: it reads 0 or pi by the signs of its zeros,
        and every caller rules it out by its own distance test."""
        x, y = xy[:, 0], xy[:, 1]
        normal, tangent = self.wedge_o_normal[wi], self.wedge_o_tangent[wi]
        phi = np.arctan2(x * normal[:, 0] + y * normal[:, 1], x * tangent[:, 0] + y * tangent[:, 1])
        phi = np.mod(phi, 2.0 * math.pi)
        phi = np.where(phi >= 2.0 * math.pi - 1e-9, 0.0, phi)
        return phi, phi <= self.wedge_n_index[wi] * math.pi + 1e-9

    # ------------------------------------------------------------------
    # intersection queries
    # ------------------------------------------------------------------
    def segments_blocked(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Occlusion flags for (K, 3) segment endpoint arrays.

        True where the open segment meets the ground, a facade or a rooftop
        more than ``EPS_GEOM`` from both endpoints, so a segment that starts
        or ends on a surface is not blocked by it.  Each stage tests only the
        segments that no earlier stage blocked: the ground plane; the
        facades of every building whose bounding box meets the segment's;
        the rooftops of those (segment, building) pairs.  A flag is the OR of
        its stages and does not depend on the other segments of the call, so
        the specular tracer tests its candidates in rounds, one segment
        position per call, and the scatter engine tests each batch of legs in
        one call; and the stages run on ``SEGMENT_BLOCK`` segments at a time,
        which bounds the rows the facade stage holds.
        """
        p = np.atleast_2d(np.asarray(p, dtype=float))
        q = np.atleast_2d(np.asarray(q, dtype=float))
        blocks = [
            self._segments_blocked(p[a : a + SEGMENT_BLOCK], q[a : a + SEGMENT_BLOCK])
            for a in range(0, len(p), SEGMENT_BLOCK)
        ]
        return np.concatenate(blocks) if blocks else np.zeros(0, dtype=bool)

    def _segments_blocked(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """:meth:`segments_blocked` for one block of segments."""
        seg = q - p
        seg_len = norms(seg)

        # ground plane z = 0
        dz = seg[:, 2]
        safe = np.abs(dz) > 1e-15
        dist = np.where(safe, -p[:, 2] / np.where(safe, dz, 1.0), 0.0) * seg_len
        blocked = (dist > EPS_GEOM) & (dist < seg_len - EPS_GEOM)

        # (segment, building) pairs whose bounding boxes overlap, for the
        # segments the ground left clear
        k = np.nonzero(~blocked)[0]
        lo = np.minimum(p[k], q[k]) - EPS_GEOM
        hi = np.maximum(p[k], q[k]) + EPS_GEOM
        cand = (
            (lo[:, 0:1] <= self._bldg_hi[None, :, 0])
            & (hi[:, 0:1] >= self._bldg_lo[None, :, 0])
            & (lo[:, 1:2] <= self._bldg_hi[None, :, 1])
            & (hi[:, 1:2] >= self._bldg_lo[None, :, 1])
            & (lo[:, 2:3] <= self._bldg_height[None, :])
            & (hi[:, 2:3] >= 0.0)
        )  # (len(k), B)
        ki, bi = np.nonzero(cand)
        ki = k[ki]

        # facade planes, one row per (segment, facade of an overlapping building)
        rows, fi = self._building_facades(bi)
        kk = ki[rows]
        # gathered component-major, so that each component is one contiguous
        # column for facade_crossings
        t, s, z = self.facade_crossings(p.T.take(kk, axis=1).T, seg.T.take(kk, axis=1).T, fi)
        sl = seg_len.take(kk)
        dist = t * sl
        ok = (dist > EPS_GEOM) & (dist < sl - EPS_GEOM)
        ok &= (s >= -EPS_GEOM) & (s <= self.fac_len.take(fi) + EPS_GEOM)
        ok &= (z >= -EPS_GEOM) & (z <= self.fac_height.take(fi) + EPS_GEOM)
        blocked[kk[ok]] = True

        # rooftop planes, for the overlapping pairs whose segment is still clear
        keep = ~blocked[ki]
        ki, bi = ki[keep], bi[keep]
        dz = seg[ki, 2]
        safe = np.abs(dz) > 1e-15
        t = np.where(safe, (self._bldg_height[bi] - p[ki, 2]) / np.where(safe, dz, 1.0), 0.0)
        sl = seg_len[ki]
        dist = t * sl
        near = (dist > EPS_GEOM) & (dist < sl - EPS_GEOM)
        x = p[ki, 0] + t * seg[ki, 0]
        y = p[ki, 1] + t * seg[ki, 1]
        near &= self._near_footprint_bbox(x, y, bi)
        r = np.nonzero(near)[0]
        inside, on_boundary = self._classify_footprint(x[r], y[r], bi[r])
        blocked[ki[r[inside | on_boundary]]] = True
        return blocked


# ----------------------------------------------------------------------
# scene file ingestion
# ----------------------------------------------------------------------

SCENE_SCHEMA_VERSION = 1

_ALLOWED_TOP_KEYS = {"version", "materials", "buildings", "scatterers"}
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
        return PEC
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
          "buildings": [{"id": 1,
                         "footprint": [[x, y], ...],
                         "height": 20.0,
                         "material": "concrete"}],
          "scatterers": [{"id": 1, "base": [x, y, z],
                          "radius": 0.375, "height": 8.2,
                          "material": "metal"}]
        }

    Footprints must be simple polygons with >= 3 vertices; clockwise input is
    normalized to counterclockwise on load.  Scatterers are perfect
    conductors: a scatterer ``material`` must resolve to ``{"pec": true}``.
    Unknown keys are rejected.
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

    for key, kind in (("materials", dict), ("buildings", list), ("scatterers", list)):
        if not isinstance(data.get(key, kind()), kind):
            raise SceneError(f"{key} must be {'an object' if kind is dict else 'a list'}")
    materials = {name: _parse_material(m, f"materials[{name!r}]") for name, m in data.get("materials", {}).items()}

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
        if _check_simple_polygon(poly, where) < 0:
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
        sid = _object_id(sobj["id"], where)
        if "material" in sobj and not _resolve_material(sobj["material"], materials, where).pec:
            raise SceneError(f"{where}: scatterer {sid} must be a perfect conductor, got {sobj['material']!r}")
        scatterers.append(
            CylinderScatterer(
                id=sid,
                base_center=np.asarray(sobj["base"], dtype=float),
                radius=radius,
                height=height,
            )
        )

    return Scene(buildings=buildings, scatterers=scatterers)


def load_scene_file(path) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SceneError(f"scene file {path} is not UTF-8 text: {exc}") from exc
    return load_scene(text)
