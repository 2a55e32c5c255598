"""Image-method path enumeration.

Finds every propagation path between two antennas built from the allowed
interaction sequences: line of sight, one or two facade reflections, one
vertical-edge diffraction optionally combined with a single reflection on
either side, and the over-the-rooftops knife-edge polyline used when the
direct ray is blocked.

Reflections use exact mirror images, so candidate generation is a set of
vectorized plane/rectangle solves followed by one batched occlusion query
against the scene.  A :class:`SpecularTracer` caches the per-scene tables
(second-order image-pair feasibility, wedge geometry) and the per-transmitter
image positions, which makes repeated solves along a receiver trajectory
cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em import AntennaConfig, CarrierConfig, compose_path_matrix
from .rays import (
    EDGE_DIFFRACTION,
    Interaction,
    REFLECTION,
    ROOFTOP_DIFFRACTION,
    RayPath,
)
from .scene import EPS_GEOM, Scene

_OMNI = AntennaConfig()
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

    def __init__(
        self,
        scene: Scene,
        carrier: CarrierConfig,
        tx_antenna: AntennaConfig = _OMNI,
        rx_antenna: AntennaConfig = _OMNI,
    ):
        self.scene = scene
        self.carrier = carrier
        self.tx_antenna = tx_antenna
        self.rx_antenna = rx_antenna
        self._prepare_scene_tables()
        self._tx_key: bytes | None = None

    # ------------------------------------------------------------------
    # static tables
    # ------------------------------------------------------------------
    def _prepare_scene_tables(self):
        sc = self.scene
        fcount = sc.n_facades
        self._pair_i = np.zeros(0, dtype=np.intp)
        self._pair_j = np.zeros(0, dtype=np.intp)
        if fcount:
            # a facade pair (i, j) can only host a double reflection when each
            # facade has at least one point strictly in front of the other's
            # plane
            p0 = sc.fac_origin[:, :2]
            p1 = p0 + sc.fac_dir[:, :2] * sc.fac_len[:, None]
            n2 = sc.fac_normal[:, :2]
            d0 = p0 @ n2.T - sc.fac_offset[None, :]  # [f, i]
            d1 = p1 @ n2.T - sc.fac_offset[None, :]
            partly_front = (np.maximum(d0, d1) > EPS_GEOM).T  # [i, f]
            feasible = partly_front & partly_front.T
            np.fill_diagonal(feasible, False)
            self._pair_i, self._pair_j = np.nonzero(feasible)

        wl = sc.wedges()
        self.wedge_count = len(wl)
        if wl:
            self._w_xy = np.array([w.point_xy for w in wl])
            self._w_h = np.array([w.height for w in wl])
            self._w_ot = np.array([w.o_tangent[:2] for w in wl])
            self._w_on = np.array([w.o_normal[:2] for w in wl])
            self._w_n = np.array([w.n_index for w in wl])
            self._w_obj = np.array([w.object_id for w in wl], dtype=np.intp)
            self._w_el = np.array([w.element_id for w in wl], dtype=np.intp)
            if fcount:
                d = self._w_xy @ sc.fac_normal[:, :2].T - sc.fac_offset[None, :]
                self._w_front_of = d > EPS_GEOM  # [w, f]
            else:
                self._w_front_of = np.zeros((len(wl), 0), dtype=bool)

    def _prepare_tx_tables(self, tx: np.ndarray):
        key = tx.tobytes()
        if self._tx_key == key:
            return
        sc = self.scene
        if sc.n_facades:
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
        else:
            self._tx_front = np.zeros(0, dtype=bool)
            self._img1 = np.zeros((0, 3))
            self._live_i = np.zeros(0, dtype=np.intp)
            self._live_j = np.zeros(0, dtype=np.intp)
            self._img2 = np.zeros((0, 3))
        self._tx_key = key

    # ------------------------------------------------------------------
    # families
    # ------------------------------------------------------------------
    def _reflection_record(self, fidx: int) -> Interaction:
        sc = self.scene
        return Interaction(
            kind=REFLECTION,
            object_id=int(sc.fac_object[fidx]),
            element_id=int(sc.fac_element[fidx]),
        )

    def _edge_record(self, widx: int) -> Interaction:
        return Interaction(
            kind=EDGE_DIFFRACTION,
            object_id=int(self._w_obj[widx]),
            element_id=int(self._w_el[widx]),
        )

    def _single_reflections(self, tx, rx, rx_front, add):
        mask = self._tx_front & rx_front
        idx = np.nonzero(mask)[0]
        if not len(idx):
            return
        pts, ok = _facade_crossing(self.scene, self._img1[idx], rx, idx)
        for k in np.nonzero(ok)[0]:
            add(np.array([tx, pts[k], rx]), (self._reflection_record(int(idx[k])),))

    def _double_reflections(self, tx, rx, rx_front, add):
        if not len(self._live_i):
            return
        sc = self.scene
        sel = np.nonzero(rx_front[self._live_j])[0]
        if not len(sel):
            return
        fi = self._live_i[sel]
        fj = self._live_j[sel]
        x2, ok2 = _facade_crossing(sc, self._img2[sel], rx, fj)
        x1, ok1 = _facade_crossing(sc, self._img1[fi], x2, fi)
        ok = ok2 & ok1
        # the intermediate segment must approach the second facade from its
        # front side
        d_x1_j = np.einsum("kj,kj->k", x1, sc.fac_normal[fj]) - sc.fac_offset[fj]
        ok &= d_x1_j > EPS_GEOM
        for k in np.nonzero(ok)[0]:
            add(
                np.array([tx, x1[k], x2[k], rx]),
                (
                    self._reflection_record(int(fi[k])),
                    self._reflection_record(int(fj[k])),
                ),
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

    def _single_diffractions(self, tx, rx, add):
        widx = np.arange(self.wedge_count, dtype=np.intp)
        src = np.broadcast_to(tx, (self.wedge_count, 3))
        dst = np.broadcast_to(rx, (self.wedge_count, 3))
        pts, ok = self._edge_candidates(src, dst, widx)
        for k in np.nonzero(ok)[0]:
            add(np.array([tx, pts[k], rx]), (self._edge_record(int(k)),))

    def _reflection_then_diffraction(self, tx, rx, add):
        sc = self.scene
        fsel = np.nonzero(self._tx_front)[0]
        if not len(fsel):
            return
        wmask = self._w_front_of[:, fsel]  # [w, f']
        wi, fk = np.nonzero(wmask)
        if not len(wi):
            return
        fidx = fsel[fk]
        src = self._img1[fidx]
        dst = np.broadcast_to(rx, (len(wi), 3))
        e_pts, ok = self._edge_candidates(src, dst, wi)
        x1, ok_x = _facade_crossing(sc, src, e_pts, fidx)
        ok &= ok_x
        for k in np.nonzero(ok)[0]:
            add(
                np.array([tx, x1[k], e_pts[k], rx]),
                (
                    self._reflection_record(int(fidx[k])),
                    self._edge_record(int(wi[k])),
                ),
            )

    def _diffraction_then_reflection(self, tx, rx, rx_front, add):
        sc = self.scene
        fsel = np.nonzero(rx_front)[0]
        if not len(fsel):
            return
        wmask = self._w_front_of[:, fsel]
        wi, fk = np.nonzero(wmask)
        if not len(wi):
            return
        fidx = fsel[fk]
        d = sc.fac_normal[fidx] @ rx - sc.fac_offset[fidx]
        rx_img = rx[None, :] - 2.0 * d[:, None] * sc.fac_normal[fidx]
        src = np.broadcast_to(tx, (len(wi), 3))
        e_pts, ok = self._edge_candidates(src, rx_img, wi)
        x2, ok_x = _facade_crossing(sc, e_pts, rx_img, fidx)
        ok &= ok_x
        for k in np.nonzero(ok)[0]:
            add(
                np.array([tx, e_pts[k], x2[k], rx]),
                (
                    self._edge_record(int(wi[k])),
                    self._reflection_record(int(fidx[k])),
                ),
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
            if self.scene.contains_point(p):
                raise ValueError(f"{name} lies inside a building")
        self._prepare_tx_tables(tx)
        sc = self.scene

        candidates: list[tuple[np.ndarray, tuple]] = []

        def add(verts: np.ndarray, inters: tuple):
            seg = verts[1:] - verts[:-1]
            if np.min(np.einsum("ij,ij->i", seg, seg)) < EPS_GEOM * EPS_GEOM:
                return
            candidates.append((verts, inters))

        add(np.array([tx, rx]), ())

        if sc.n_facades:
            rx_front = sc.fac_normal @ rx - sc.fac_offset > EPS_GEOM
        else:
            rx_front = np.zeros(0, dtype=bool)

        if limits.max_reflections >= 1 and sc.n_facades:
            self._single_reflections(tx, rx, rx_front, add)
        if limits.max_reflections >= 2 and sc.n_facades:
            self._double_reflections(tx, rx, rx_front, add)
        if limits.max_vertical_diffractions >= 1 and self.wedge_count:
            self._single_diffractions(tx, rx, add)
            if limits.max_reflections >= 1 and sc.n_facades:
                self._reflection_then_diffraction(tx, rx, add)
                self._diffraction_then_reflection(tx, rx, rx_front, add)

        # one batched occlusion pass over every candidate sub-segment
        seg_a, seg_b, slices = [], [], []
        for verts, _ in candidates:
            start = len(seg_a)
            seg_a.extend(verts[:-1])
            seg_b.extend(verts[1:])
            slices.append((start, len(verts) - 1))
        keep = [True] * len(candidates)
        if seg_a:
            blocked = sc.segments_blocked(np.array(seg_a), np.array(seg_b))
            keep = [not blocked[s : s + n].any() for s, n in slices]

        paths: list[RayPath] = []
        seen: set[bytes] = set()
        for (verts, inters), ok in zip(candidates, keep):
            if not ok:
                continue
            geo_key = np.round(verts, 6).tobytes()
            if geo_key in seen:
                continue
            seen.add(geo_key)
            path = self._finish_path(verts, inters, limits)
            if path is not None:
                paths.append(path)

        los_clear = keep[0] if candidates else False
        if limits.rooftop and not los_clear:
            roof = trace_rooftop(
                sc, tx, rx, self.carrier, self.tx_antenna, self.rx_antenna
            )
            if roof is not None and _above_floor(roof.transfer, limits.power_floor_db):
                paths.append(roof)

        paths.sort(key=lambda p: (len(p.interactions), p.signature))
        return paths

    def _finish_path(self, verts, inters, limits: TraceLimits) -> RayPath | None:
        transfer = compose_path_matrix(
            verts, inters, self.scene, self.carrier, self.tx_antenna, self.rx_antenna
        )
        if not _above_floor(transfer, limits.power_floor_db):
            return None
        return RayPath.from_polyline(inters, verts, transfer)


def _above_floor(transfer: np.ndarray, floor_db: float) -> bool:
    power = float(np.sum(np.abs(transfer) ** 2))
    if power <= 0.0:
        return False
    return 10.0 * math.log10(power) >= -floor_db


def trace_specular(
    scene: Scene,
    tx,
    rx,
    limits: TraceLimits | None = None,
    carrier: CarrierConfig | None = None,
    tx_antenna: AntennaConfig = _OMNI,
    rx_antenna: AntennaConfig = _OMNI,
) -> list[RayPath]:
    """One-shot specular trace; see :class:`SpecularTracer` for streaming."""
    if carrier is None:
        raise ValueError("a carrier configuration is required")
    tracer = SpecularTracer(scene, carrier, tx_antenna, rx_antenna)
    return tracer.trace(tx, rx, limits)


def trace_rooftop(
    scene: Scene,
    tx,
    rx,
    carrier: CarrierConfig | None = None,
    tx_antenna: AntennaConfig = _OMNI,
    rx_antenna: AntennaConfig = _OMNI,
) -> RayPath | None:
    """Over-the-rooftops knife-edge path, or None when the direct ray is clear.

    Every roofline the vertical plane of propagation crosses contributes one
    knife edge at the station where the ground track enters or leaves the
    footprint; the path follows the apex polyline and composes the per-edge
    losses with neighbor-vertex geometry.
    """
    if carrier is None:
        raise ValueError("a carrier configuration is required")
    tx = np.asarray(tx, dtype=float)
    rx = np.asarray(rx, dtype=float)
    if np.linalg.norm(rx - tx) < EPS_GEOM:
        raise ValueError("tx and rx must be distinct points")
    for name, p in (("tx", tx), ("rx", rx)):
        if scene.contains_point(p):
            raise ValueError(f"{name} lies inside a building")
    hit = scene.first_hit(tx, rx)
    if hit is None or hit.kind == "ground":
        return None
    if not scene.n_facades:
        return None

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
    transfer = compose_path_matrix(vert_arr, inters, scene, carrier, tx_antenna, rx_antenna)
    return RayPath.from_polyline(inters, vert_arr, transfer)
