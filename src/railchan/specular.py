"""Image-method path enumeration.

Finds every propagation path between two antennas built from the allowed
interaction sequences: line of sight, one or two facade reflections, one
vertical-edge diffraction optionally combined with a single reflection on
either side, and the over-the-rooftops knife-edge polyline used when the
direct ray is blocked.

Reflections use exact mirror images and diffraction points follow from the
unfolded ray, so each path family (LoS, R, RR, D, RD, DR) is generated as one
array of candidate polylines, shape (K, n, 3), together with the host of each
interior vertex as an index into a per-scene record table.  The trace masks
out candidates with a degenerate segment, tests every segment of every
family in one occlusion query, and builds interaction records and transfer
matrices only for the candidates that stay clear.  A :class:`SpecularTracer`
caches the per-scene tables (second-order image-pair feasibility, wedge
geometry, facade and wedge records; zero-length when the scene has none) and
the per-transmitter image positions, which makes repeated solves along a
receiver trajectory cheap.  ``SpecularTracer.trace`` is the one entry point:
it checks the endpoints once and adds the rooftop path of
:func:`trace_rooftop` when the direct ray is blocked.  The scene's one
occlusion query, ``Scene.segments_blocked``, decides every segment; the
rooftop path reuses the line-of-sight verdict of that same call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em import CarrierConfig, compose_path_matrix
from .rays import (
    EDGE_DIFFRACTION,
    Interaction,
    REFLECTION,
    ROOFTOP_DIFFRACTION,
    RayPath,
)
from .scene import EPS_GEOM, Scene

_TWO_PI = 2.0 * math.pi
_ANG_EPS = 1e-9


@dataclass(frozen=True)
class TraceLimits:
    """Interaction budget for one trace.

    ``max_reflections`` caps facade bounces per path (0, 1, or 2); a single
    vertical-edge diffraction may combine with at most one reflection, giving
    the families LoS, R, RR, D, RD, DR.  Rooftop knife-edge paths toggle
    separately and never combine with lateral interactions.  A path whose
    total gain is below ``-power_floor_db`` dB is discarded.
    """

    max_reflections: int = 2
    max_vertical_diffractions: int = 1
    rooftop: bool = True
    power_floor_db: float = 250.0

    def __post_init__(self):
        if self.max_reflections not in (0, 1, 2):
            raise ValueError("max_reflections must be 0, 1, or 2")
        if self.max_vertical_diffractions not in (0, 1):
            raise ValueError("max_vertical_diffractions must be 0 or 1")
        if self.power_floor_db <= 0:
            raise ValueError("power_floor_db must be positive")


def _facade_crossing(scene: Scene, src: np.ndarray, dst: np.ndarray, fidx: np.ndarray):
    """Crossing points of segments src->dst with the planes of facades fidx.

    Returns ``(points, ok)`` where ``ok`` demands a proper interior crossing
    (parameter strictly inside the segment) that lands on the facade
    rectangle.
    """
    n = scene.fac_normal[fidx]
    off = scene.fac_offset[fidx]
    dst = np.broadcast_to(np.asarray(dst, dtype=float), src.shape)
    seg = dst - src
    denom = np.einsum("kj,kj->k", seg, n)
    num = off - np.einsum("kj,kj->k", src, n)
    ok = np.abs(denom) > 1e-15
    t = np.where(ok, num / np.where(ok, denom, 1.0), 0.5)
    ok &= (t > 1e-12) & (t < 1.0 - 1e-12)
    pts = src + t[:, None] * seg
    rel = pts - scene.fac_origin[fidx]
    s = np.einsum("kj,kj->k", rel, scene.fac_dir[fidx])
    ok &= (s >= -EPS_GEOM) & (s <= scene.fac_len[fidx] + EPS_GEOM)
    ok &= (pts[:, 2] >= -EPS_GEOM) & (pts[:, 2] <= scene.fac_height[fidx] + EPS_GEOM)
    return pts, ok


def _wedge_azimuth(p_xy: np.ndarray, o_t: np.ndarray, o_n: np.ndarray, n_index: np.ndarray):
    """Wedge-frame azimuth of horizontal vectors and an exterior-region mask.

    The angle is measured from the zero-face tangent, sweeping through the
    region outside the building; directions inside the wedge material fall
    beyond ``n_index * pi`` and are rejected.
    """
    phi = np.arctan2(
        np.einsum("kj,kj->k", p_xy, o_n),
        np.einsum("kj,kj->k", p_xy, o_t),
    )
    phi = np.mod(phi, _TWO_PI)
    phi = np.where(phi >= _TWO_PI - _ANG_EPS, 0.0, phi)
    ok = phi <= n_index * math.pi + _ANG_EPS
    return phi, ok


class SpecularTracer:
    """Reusable tracer holding per-scene and per-transmitter tables."""

    def __init__(self, scene: Scene, carrier: CarrierConfig):
        self.scene = scene
        self.carrier = carrier
        self._prepare_scene_tables()
        self._tx_key: bytes | None = None

    # ------------------------------------------------------------------
    # static tables
    # ------------------------------------------------------------------
    def _prepare_scene_tables(self):
        sc = self.scene
        # a facade pair (i, j) can only host a double reflection when each
        # facade has at least one point strictly in front of the other's plane
        p0 = sc.fac_origin[:, :2]
        p1 = p0 + sc.fac_dir[:, :2] * sc.fac_len[:, None]
        n2 = sc.fac_normal[:, :2]
        d0 = p0 @ n2.T - sc.fac_offset[None, :]  # [f, i]
        d1 = p1 @ n2.T - sc.fac_offset[None, :]
        partly_front = (np.maximum(d0, d1) > EPS_GEOM).T  # [i, f]
        feasible = partly_front & partly_front.T
        np.fill_diagonal(feasible, False)
        self._pair_i, self._pair_j = np.nonzero(feasible)
        self._fac_rec = [
            Interaction(REFLECTION, int(o), int(e)) for o, e in zip(sc.fac_object, sc.fac_element)
        ]

        # zero-length tables when the scene has no wedges
        wl = sc.wedges()
        self._w_xy = np.array([w.point_xy for w in wl], dtype=float).reshape(-1, 2)
        self._w_h = np.array([w.height for w in wl], dtype=float)
        self._w_ot = np.array([w.o_tangent[:2] for w in wl], dtype=float).reshape(-1, 2)
        self._w_on = np.array([w.o_normal[:2] for w in wl], dtype=float).reshape(-1, 2)
        self._w_n = np.array([w.n_index for w in wl], dtype=float)
        self._wedge_rec = [
            Interaction(EDGE_DIFFRACTION, int(w.object_id), int(w.element_id)) for w in wl
        ]
        d = self._w_xy @ sc.fac_normal[:, :2].T - sc.fac_offset[None, :]
        self._w_front_of = d > EPS_GEOM  # [w, f]

    def _prepare_tx_tables(self, tx: np.ndarray):
        key = tx.tobytes()
        if self._tx_key == key:
            return
        sc = self.scene
        d = sc.fac_normal @ tx - sc.fac_offset
        self._tx_front = d > EPS_GEOM
        self._img1 = tx[None, :] - 2.0 * d[:, None] * sc.fac_normal
        live = self._tx_front[self._pair_i]
        pi = self._pair_i[live]
        pj = self._pair_j[live]
        m1 = self._img1[pi]
        n2 = sc.fac_normal[pj]
        d2 = np.einsum("kj,kj->k", m1, n2) - sc.fac_offset[pj]
        # the first-order image must sit in front of the second plane,
        # otherwise no point of that plane can be reached outbound
        keep = d2 > EPS_GEOM
        self._live_i = pi[keep]
        self._live_j = pj[keep]
        self._img2 = m1[keep] - 2.0 * d2[keep, None] * n2[keep]
        self._tx_key = key

    # ------------------------------------------------------------------
    # families: each returns (vertices (K, n, 3), hosts), where hosts holds
    # one (record table, index array) pair per interior vertex
    # ------------------------------------------------------------------
    def _single_reflections(self, tx, rx, rx_front):
        idx = np.nonzero(self._tx_front & rx_front)[0]
        pts, ok = _facade_crossing(self.scene, self._img1[idx], rx, idx)
        return _polylines(tx, [pts[ok]], rx), [(self._fac_rec, idx[ok])]

    def _double_reflections(self, tx, rx, rx_front):
        sc = self.scene
        sel = np.nonzero(rx_front[self._live_j])[0]
        fi = self._live_i[sel]
        fj = self._live_j[sel]
        x2, ok2 = _facade_crossing(sc, self._img2[sel], rx, fj)
        x1, ok1 = _facade_crossing(sc, self._img1[fi], x2, fi)
        ok = ok2 & ok1
        # the intermediate segment must approach the second facade from its
        # front side
        d_x1_j = np.einsum("kj,kj->k", x1, sc.fac_normal[fj]) - sc.fac_offset[fj]
        ok &= d_x1_j > EPS_GEOM
        return (
            _polylines(tx, [x1[ok], x2[ok]], rx),
            [(self._fac_rec, fi[ok]), (self._fac_rec, fj[ok])],
        )

    def _edge_candidates(self, src, dst, widx):
        """Diffraction points on wedges widx for the unfolded src->dst rays."""
        w_xy = self._w_xy[widx]
        p_src = src[..., :2] - w_xy
        p_dst = dst[..., :2] - w_xy
        d1 = np.linalg.norm(p_src, axis=-1)
        d2 = np.linalg.norm(p_dst, axis=-1)
        ok = (d1 > EPS_GEOM) & (d2 > EPS_GEOM)
        denom = np.where(ok, d1 + d2, 1.0)
        src_z = np.broadcast_to(np.asarray(src)[..., 2], d1.shape)
        dst_z = np.broadcast_to(np.asarray(dst)[..., 2], d1.shape)
        z = src_z + (dst_z - src_z) * d1 / denom
        ok &= (z >= -EPS_GEOM) & (z <= self._w_h[widx] + EPS_GEOM)
        _, ok_src = _wedge_azimuth(p_src, self._w_ot[widx], self._w_on[widx], self._w_n[widx])
        _, ok_dst = _wedge_azimuth(p_dst, self._w_ot[widx], self._w_on[widx], self._w_n[widx])
        ok &= ok_src & ok_dst
        z = np.clip(z, 0.0, self._w_h[widx])
        points = np.concatenate([np.broadcast_to(w_xy, d1.shape + (2,)), z[..., None]], axis=-1)
        return points, ok

    def _single_diffractions(self, tx, rx):
        widx = np.arange(len(self._wedge_rec))
        pts, ok = self._edge_candidates(tx, rx, widx)
        return _polylines(tx, [pts[ok]], rx), [(self._wedge_rec, widx[ok])]

    def _reflection_then_diffraction(self, tx, rx):
        fsel = np.nonzero(self._tx_front)[0]
        wi, fk = np.nonzero(self._w_front_of[:, fsel])
        fidx = fsel[fk]
        src = self._img1[fidx]
        e_pts, ok = self._edge_candidates(src, rx, wi)
        x1, ok_x = _facade_crossing(self.scene, src, e_pts, fidx)
        ok &= ok_x
        return (
            _polylines(tx, [x1[ok], e_pts[ok]], rx),
            [(self._fac_rec, fidx[ok]), (self._wedge_rec, wi[ok])],
        )

    def _diffraction_then_reflection(self, tx, rx, rx_front):
        sc = self.scene
        fsel = np.nonzero(rx_front)[0]
        wi, fk = np.nonzero(self._w_front_of[:, fsel])
        fidx = fsel[fk]
        d = sc.fac_normal[fidx] @ rx - sc.fac_offset[fidx]
        rx_img = rx[None, :] - 2.0 * d[:, None] * sc.fac_normal[fidx]
        e_pts, ok = self._edge_candidates(tx, rx_img, wi)
        x2, ok_x = _facade_crossing(sc, e_pts, rx_img, fidx)
        ok &= ok_x
        return (
            _polylines(tx, [e_pts[ok], x2[ok]], rx),
            [(self._wedge_rec, wi[ok]), (self._fac_rec, fidx[ok])],
        )

    # ------------------------------------------------------------------
    # the trace
    # ------------------------------------------------------------------
    def trace(self, tx, rx, limits: TraceLimits | None = None) -> list[RayPath]:
        limits = limits or TraceLimits()
        tx = np.asarray(tx, dtype=float)
        rx = np.asarray(rx, dtype=float)
        if np.linalg.norm(rx - tx) < EPS_GEOM:
            raise ValueError("tx and rx must be distinct points")
        for name, p in (("tx", tx), ("rx", rx)):
            if p[2] < 0.0:
                raise ValueError(f"{name} lies below the ground")
            if self.scene.contains_point(p):
                raise ValueError(f"{name} lies inside a building")
        self._prepare_tx_tables(tx)
        sc = self.scene
        rx_front = sc.fac_normal @ rx - sc.fac_offset > EPS_GEOM

        families = [(_polylines(tx, [], rx), [])]
        if limits.max_reflections >= 1:
            families.append(self._single_reflections(tx, rx, rx_front))
        if limits.max_reflections >= 2:
            families.append(self._double_reflections(tx, rx, rx_front))
        if limits.max_vertical_diffractions >= 1:
            families.append(self._single_diffractions(tx, rx))
            if limits.max_reflections >= 1:
                families.append(self._reflection_then_diffraction(tx, rx))
                families.append(self._diffraction_then_reflection(tx, rx, rx_front))

        # drop candidates with a degenerate segment, then test every segment
        # of the rest in one occlusion pass
        families = [_drop_degenerate(verts, hosts) for verts, hosts in families]
        blocked = sc.segments_blocked(
            np.concatenate([v[:, :-1].reshape(-1, 3) for v, _ in families]),
            np.concatenate([v[:, 1:].reshape(-1, 3) for v, _ in families]),
        )
        ends = np.cumsum([v.shape[0] * (v.shape[1] - 1) for v, _ in families])
        clear = [
            ~b.reshape(v.shape[0], v.shape[1] - 1).any(axis=1)
            for (v, _), b in zip(families, np.split(blocked, ends[:-1]))
        ]

        paths: list[RayPath] = []
        seen: set[bytes] = set()
        for (verts, hosts), ok in zip(families, clear):
            for k in np.nonzero(ok)[0]:
                geo_key = np.round(verts[k], 6).tobytes()
                if geo_key in seen:
                    continue
                seen.add(geo_key)
                inters = tuple(rec[idx[k]] for rec, idx in hosts)
                path = self._finish_path(verts[k].copy(), inters, limits)
                if path is not None:
                    paths.append(path)

        los_clear = bool(clear[0].any())
        if limits.rooftop and not los_clear:
            roof = trace_rooftop(sc, tx, rx, self.carrier)
            if roof is not None and _above_floor(roof.transfer, limits.power_floor_db):
                paths.append(roof)

        paths.sort(key=lambda p: (len(p.interactions), p.signature))
        return paths

    def _finish_path(self, verts, inters, limits: TraceLimits) -> RayPath | None:
        transfer = compose_path_matrix(verts, inters, self.scene, self.carrier)
        if not _above_floor(transfer, limits.power_floor_db):
            return None
        return RayPath.from_polyline(inters, verts, transfer)


def _polylines(tx: np.ndarray, interior: list[np.ndarray], rx: np.ndarray) -> np.ndarray:
    """(K, len(interior) + 2, 3) candidate polylines tx -> interior -> rx."""
    k_count = len(interior[0]) if interior else 1
    return np.stack(
        [np.broadcast_to(tx, (k_count, 3)), *interior, np.broadcast_to(rx, (k_count, 3))], axis=1
    )


def _drop_degenerate(verts: np.ndarray, hosts: list):
    """The candidates of one family whose segments are all longer than EPS_GEOM."""
    seg = verts[:, 1:] - verts[:, :-1]
    live = np.einsum("knj,knj->kn", seg, seg).min(axis=1) >= EPS_GEOM * EPS_GEOM
    return verts[live], [(rec, idx[live]) for rec, idx in hosts]


def _above_floor(transfer: np.ndarray, floor_db: float) -> bool:
    power = float(np.sum(np.abs(transfer) ** 2))
    if power <= 0.0:
        return False
    return 10.0 * math.log10(power) >= -floor_db


def trace_rooftop(
    scene: Scene, tx: np.ndarray, rx: np.ndarray, carrier: CarrierConfig
) -> RayPath | None:
    """Over-the-rooftops knife-edge path for a blocked direct ray, or None.

    Every roofline the vertical plane of propagation crosses contributes one
    knife edge at the station where the ground track enters or leaves the
    footprint; the path follows the apex polyline and composes the per-edge
    losses with neighbor-vertex geometry.  The caller,
    :meth:`SpecularTracer.trace`, has found the direct ray ``tx -> rx``
    blocked and has checked ``tx`` and ``rx``: distinct float arrays, outside
    every building, at or above the ground.  With both endpoints at or above
    ``z = 0`` the ground cannot block the direct ray, so a building does.
    """
    a = tx[:2]
    b = rx[:2]
    d = b - a
    horiz = float(np.linalg.norm(d))
    if horiz < EPS_GEOM:
        return None  # vertical link: no ground track to cross rooflines

    u = scene.fac_dir[:, :2]
    o = scene.fac_origin[:, :2]
    rel = o - a
    denom = d[0] * u[:, 1] - d[1] * u[:, 0]
    ok = np.abs(denom) > 1e-15
    safe = np.where(ok, denom, 1.0)
    t = (rel[:, 0] * u[:, 1] - rel[:, 1] * u[:, 0]) / safe
    s = (rel[:, 0] * d[1] - rel[:, 1] * d[0]) / safe
    tmin = EPS_GEOM / horiz
    ok &= (t > tmin) & (t < 1.0 - tmin)
    # half-open span so a crossing at a shared footprint corner counts once
    ok &= (s >= -1e-12) & (s < scene.fac_len - 1e-12)
    idx = np.nonzero(ok)[0]
    if not len(idx):
        return None
    order = sorted(
        idx, key=lambda f: (t[f], int(scene.fac_object[f]), int(scene.fac_element[f]))
    )

    verts = [tx]
    inters = []
    for f in order:
        apex = np.array([a[0] + t[f] * d[0], a[1] + t[f] * d[1], scene.fac_height[f]])
        if np.linalg.norm(apex - verts[-1]) < EPS_GEOM:
            continue
        verts.append(apex)
        inters.append(
            Interaction(
                kind=ROOFTOP_DIFFRACTION,
                object_id=int(scene.fac_object[f]),
                element_id=int(scene.fac_element[f]),
            )
        )
    if not inters or np.linalg.norm(rx - verts[-1]) < EPS_GEOM:
        return None
    verts.append(rx)
    vert_arr = np.array(verts)
    inters = tuple(inters)
    transfer = compose_path_matrix(vert_arr, inters, scene, carrier)
    return RayPath.from_polyline(inters, vert_arr, transfer)
