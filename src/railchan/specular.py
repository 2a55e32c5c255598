"""Image-method path enumeration.

Finds every propagation path between a transmitter and a chunk of receivers
built from the allowed interaction sequences: line of sight, one or two
facade reflections, one vertical-edge diffraction optionally combined with a
single reflection on either side, and the over-the-rooftops knife-edge
polyline of a blocked direct ray.  Each path family (LoS, R, RR, D, RD, DR
and the rooftop path K) is one array of candidate polylines for the whole
chunk, shape (K, n, 3), with its interaction kinds, the host of each
interior vertex as an index into the scene's facade or wedge table, and the
receiver each candidate belongs to; each receiver's rows keep the order a
one-receiver solve gives them.  Reflections use exact mirror images and
diffraction points follow from the unfolded ray.  The trace drops lateral
candidates with a degenerate segment and tests the rest for occlusion in
rounds, in path order: round ``j`` sends segment ``j`` of every candidate
still clear, across all families and receivers, to one occlusion query, so
a blocked candidate's later segments are never tested.  For each receiver
whose direct ray round 0 finds blocked, :func:`trace_rooftop` adds its K
path, clear on that verdict alone; K paths with one edge count form one
family.  Then every family's clear candidates, less any whose geometry an
earlier candidate of the same receiver already has, get their transfer
matrices from one :func:`~railchan.em.compose_path_matrix` call per family;
the power floor is an array mask over them, and each family's kept rows
become one :class:`~railchan.rays.PathRows` block, each row's signature one
join of its hosts' tokens.  One stable row permutation puts every
receiver's rows in :func:`~railchan.rays.path_order`, and each receiver
gets its own block of them.  A :class:`SpecularTracer` belongs to one
transmitter and builds, at construction, the per-scene tables
(second-order image-pair feasibility, wedge fronts and the signature token
of every facade and wedge host; zero-length when the scene has none) and
everything the transmitter decides:

* the facade images;
* the wedges whose edge the transmitter sees from outside the wedge
  material, for D and DR, and the (wedge, facade) pairs whose facade image
  sees the edge and whose image-to-edge line crosses the facade, for RD.
  Both are subsequences of the full pair order, so candidate order and
  path order do not change.  The first segment of a D or DR candidate ends
  on its wedge, that of an RD candidate on the pair's facade crossing: a
  fixed (x, y), with only the height moving with the receiver.  A wedge or
  pair leaves its table when one facade blocks that segment at every
  height (:func:`_facade_covers`).

The constructor checks the transmitter and ``SpecularTracer.trace``, the
one entry point, its receivers; the scene's one occlusion query,
``Scene.segments_blocked``, decides every segment.  Every receiver of a
chunk gets, bit for bit, the paths of a chunk of one: the arithmetic of each
candidate is elementwise, and the matrix-vector products, whose bits depend
on the rows of their call, run per receiver over that receiver's rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .em import CarrierConfig, compose_path_matrix
from .rays import (
    EDGE_DIFFRACTION,
    PathRows,
    REFLECTION,
    ROOFTOP_DIFFRACTION,
    TAG_SPECULAR,
    path_order,
    signature_of,
    token,
)
from .scene import EPS_GEOM, Scene


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
    rectangle, placed by :meth:`Scene.facade_crossings`.
    """
    seg = np.broadcast_to(np.asarray(dst, dtype=float), src.shape) - src
    t, s, z = scene.facade_crossings(src, seg, fidx)
    ok = _within_facade_span(scene, t, s, fidx)
    ok &= (z >= -EPS_GEOM) & (z <= scene.fac_height[fidx] + EPS_GEOM)
    return src + t[:, None] * seg, ok


def _within_facade_span(scene: Scene, t, s, fidx):
    """The part of :func:`_facade_crossing`'s test that ignores heights: the
    crossing lies strictly inside the segment and within the facade's
    length.  Facades are vertical, so ``t`` and ``s`` do not depend on the
    heights of the segment's ends."""
    ok = (t > 1e-12) & (t < 1.0 - 1e-12)
    ok &= (s >= -EPS_GEOM) & (s <= scene.fac_len[fidx] + EPS_GEOM)
    return ok


def _sees_wedge(scene: Scene, src_xy: np.ndarray, widx: np.ndarray) -> np.ndarray:
    """The source half of the diffraction test: ``src_xy`` (K, 2) lies more
    than EPS_GEOM from the edges of wedges ``widx`` and outside their
    material."""
    p_src = src_xy - scene.wedge_xy[widx]
    return (np.linalg.norm(p_src, axis=-1) > EPS_GEOM) & scene.wedge_azimuths(widx, p_src)[1]


def _facade_covers(scene: Scene, tx, xy, zlo, zhi):
    """The (target, facade) pairs whose facade blocks the segment
    ``tx -> (xy[k], z)`` at every height ``z`` in ``[zlo[k], zhi[k]]``.

    Facades are vertical, so the crossing's ``t`` and ``s`` follow from the
    ground track alone, and its height ``tz + t (z - tz)`` rises with ``z``.
    A pair counts when the bounding boxes meet as the kernel tests them, the
    crossing lies more than 2 EPS_GEOM along the track from both ends, its
    ``s`` passes the kernel's span test, and its height is at least 0 at
    ``zlo`` and at most the facade's top at ``zhi``.  Then every test of the
    facade stage of ``Scene.segments_blocked`` passes at every height: the
    bounding-box pair, since the box's x and y are the track's and its
    height range holds the crossing's, which lies in ``[0, top]``; the end
    bands, since the segment is no shorter than its track, which leaves
    EPS_GEOM for rounding; the span, on the same ``s``; and the height band,
    with EPS_GEOM to spare.
    """
    lo = np.minimum(tx[:2], xy) - EPS_GEOM
    hi = np.maximum(tx[:2], xy) + EPS_GEOM
    k, b = np.nonzero(
        (lo[:, None, 0] <= scene._bldg_hi[None, :, 0])
        & (hi[:, None, 0] >= scene._bldg_lo[None, :, 0])
        & (lo[:, None, 1] <= scene._bldg_hi[None, :, 1])
        & (hi[:, None, 1] >= scene._bldg_lo[None, :, 1])
    )
    rows, fi = scene._building_facades(b)
    k = k[rows]
    seg = np.zeros((len(k), 3))
    seg[:, :2] = xy[k] - tx[:2]
    t, s, _ = scene.facade_crossings(np.broadcast_to(tx, seg.shape), seg, fi)
    horiz = np.hypot(seg[:, 0], seg[:, 1])
    ok = (t * horiz > 2 * EPS_GEOM) & ((1.0 - t) * horiz > 2 * EPS_GEOM)
    ok &= (s >= -EPS_GEOM) & (s <= scene.fac_len[fi] + EPS_GEOM)
    ok &= (tx[2] + t * (zlo[k] - tx[2]) >= 0.0) & (tx[2] + t * (zhi[k] - tx[2]) <= scene.fac_height[fi])
    return k[ok], fi[ok]


class SpecularTracer:
    """One transmitter's tracer, its tables built at construction.

    ``counters`` accumulates over every :meth:`trace` call: per family (LoS,
    R, RR, D, RD, DR and the rooftop path K) the candidates generated, the
    candidates left clear and the paths kept, and per occlusion round the
    segments tested.  K's ``generated`` counts the rooftop polylines built,
    not the solves that looked for one, and each is clear, so its
    ``generated`` equals its ``clear``.

    ``timings`` accumulates the seconds, not deterministic, that the solves
    spent in each stage of :data:`SOLVE_STAGES`.
    """

    def __init__(self, scene: Scene, carrier: CarrierConfig, tx):
        tx = np.asarray(tx, dtype=float)
        if tx[2] < 0.0:
            raise ValueError("tx lies below the ground")
        if scene.contains_points(tx[None])[0]:
            raise ValueError("tx lies inside a building")
        self.scene = scene
        self.carrier = carrier
        self.tx = tx
        self.counters = {
            "families": {name: {"generated": 0, "clear": 0, "kept": 0} for name in FAMILIES},
            "occlusion_segments": [],
        }
        self.timings = dict.fromkeys(SOLVE_STAGES, 0.0)
        self._prepare_tables()

    def _prepare_tables(self):
        """The scene's host tokens and wedge fronts, and the tables of the
        transmitter the module docstring lists."""
        sc, tx = self.scene, self.tx
        facades = list(zip(sc.fac_object.tolist(), sc.fac_element.tolist()))
        wedges = list(zip(sc.wedge_object.tolist(), sc.wedge_element.tolist()))
        self._tokens = {
            kind: [token(kind, o, e) for o, e in rows]
            for kind, rows in ((REFLECTION, facades), (ROOFTOP_DIFFRACTION, facades), (EDGE_DIFFRACTION, wedges))
        }
        d = sc.wedge_xy @ sc.fac_normal[:, :2].T - sc.fac_offset[None, :]
        self._w_front_of = d > EPS_GEOM  # [w, f]

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
        pair_i, pair_j = np.nonzero(feasible)
        d = sc.fac_normal @ tx - sc.fac_offset
        self._tx_front = d > EPS_GEOM
        self._img1 = tx[None, :] - 2.0 * d[:, None] * sc.fac_normal
        live = self._tx_front[pair_i]
        pi, pj = pair_i[live], pair_j[live]
        m1 = self._img1[pi]
        n2 = sc.fac_normal[pj]
        d2 = (m1[:, 0] * sc.fac_nx[pj] + m1[:, 1] * sc.fac_ny[pj]) - sc.fac_offset[pj]
        # the first-order image must sit in front of the second plane,
        # otherwise no point of that plane can be reached outbound
        keep = d2 > EPS_GEOM
        self._live_i = pi[keep]
        self._live_j = pj[keep]
        self._img2 = m1[keep] - 2.0 * d2[keep, None] * n2[keep]

        # D and DR: the wedges whose edge the transmitter sees from outside
        # the wedge material
        wedges = np.nonzero(_sees_wedge(sc, tx[:2], np.arange(sc.n_wedges)))[0]
        # RD: the (wedge, facade) pairs, wedge-major, whose facade image sees
        # the edge and whose image-to-edge line crosses the facade; facades
        # are vertical, so that crossing's (x, y) does not depend on heights
        fsel = np.nonzero(self._tx_front)[0]
        rd_w, fk = np.nonzero(self._w_front_of[:, fsel])
        rd_f = fsel[fk]
        src = self._img1[rd_f]
        seg = np.zeros_like(src)
        seg[:, :2] = sc.wedge_xy[rd_w] - src[:, :2]
        t, s, _ = sc.facade_crossings(src, seg, rd_f)
        live = _sees_wedge(sc, src[:, :2], rd_w) & _within_facade_span(sc, t, s, rd_f)
        rd_w, rd_f, src = rd_w[live], rd_f[live], src[live]
        crossing_xy = src[:, :2] + t[live, None] * seg[live, :2]

        # the first segments of D and DR end on a wedge, at a height the
        # edge test clips to [0, top]; those of RD on the pair's facade
        # crossing, at a height _facade_crossing keeps within
        # [-EPS_GEOM, top + EPS_GEOM].  A target one facade blocks at every
        # height leaves its table
        nw = len(wedges)
        target, _ = _facade_covers(
            sc,
            tx,
            np.concatenate([sc.wedge_xy[wedges], crossing_xy]),
            np.concatenate([np.zeros(nw), np.full(len(rd_f), -EPS_GEOM)]),
            np.concatenate([sc.wedge_height[wedges], sc.fac_height[rd_f] + EPS_GEOM]),
        )
        covered = np.isin(np.arange(nw + len(rd_f)), target)
        self._wedges = wedges[~covered[:nw]]
        self._wedge_front_of = self._w_front_of[self._wedges]
        rd_keep = ~covered[nw:]
        self._rd_w, self._rd_f, self._rd_src = rd_w[rd_keep], rd_f[rd_keep], src[rd_keep]

    # ------------------------------------------------------------------
    # families: each returns (vertices (K, n, 3), (kinds, hosts), owner) for
    # the (S, 3) receivers ``rx``, where kinds names the interaction at each
    # interior vertex, hosts holds one index array per interior vertex into
    # the facade or wedge table, and owner the receiver of each candidate.
    # The rows are receiver-major, each receiver's in its own candidate order
    # ------------------------------------------------------------------
    def _single_reflections(self, rx, rx_front):
        s, idx = np.nonzero(self._tx_front & rx_front)
        pts, ok = _facade_crossing(self.scene, self._img1[idx], rx[s], idx)
        s = s[ok]
        return _polylines(self.tx, [pts[ok]], rx[s]), ((REFLECTION,), [idx[ok]]), s

    def _double_reflections(self, rx, rx_front):
        sc = self.scene
        s, sel = np.nonzero(rx_front[:, self._live_j])
        fi = self._live_i[sel]
        fj = self._live_j[sel]
        x2, ok = _facade_crossing(sc, self._img2[sel], rx[s], fj)
        s, fi, fj, x2 = s[ok], fi[ok], fj[ok], x2[ok]
        x1, ok = _facade_crossing(sc, self._img1[fi], x2, fi)
        # the intermediate segment must approach the second facade from its
        # front side
        d_x1_j = (x1[:, 0] * sc.fac_nx[fj] + x1[:, 1] * sc.fac_ny[fj]) - sc.fac_offset[fj]
        ok &= d_x1_j > EPS_GEOM
        s = s[ok]
        return _polylines(self.tx, [x1[ok], x2[ok]], rx[s]), ((REFLECTION, REFLECTION), [fi[ok], fj[ok]]), s

    def _edge_candidates(self, src, dst, widx):
        """Diffraction points on wedges widx for the unfolded src->dst rays.

        Every source is decided by the transmitter, and the tables hold only
        the wedges each source sees (:func:`_sees_wedge`), so only the
        destination half of the test is made here."""
        sc = self.scene
        w_xy = sc.wedge_xy[widx]
        p_src = src[..., :2] - w_xy
        p_dst = dst[..., :2] - w_xy
        d1 = np.linalg.norm(p_src, axis=-1)
        d2 = np.linalg.norm(p_dst, axis=-1)
        ok = d2 > EPS_GEOM
        denom = np.where(ok, d1 + d2, 1.0)
        src_z = np.broadcast_to(np.asarray(src)[..., 2], d1.shape)
        dst_z = np.broadcast_to(np.asarray(dst)[..., 2], d1.shape)
        z = src_z + (dst_z - src_z) * d1 / denom
        ok &= (z >= -EPS_GEOM) & (z <= sc.wedge_height[widx] + EPS_GEOM)
        ok &= sc.wedge_azimuths(widx, p_dst)[1]
        z = np.clip(z, 0.0, sc.wedge_height[widx])
        points = np.concatenate([np.broadcast_to(w_xy, d1.shape + (2,)), z[..., None]], axis=-1)
        return points, ok

    def _single_diffractions(self, rx):
        s, j = np.divmod(np.arange(len(rx) * len(self._wedges)), len(self._wedges))
        widx = self._wedges[j]
        pts, ok = self._edge_candidates(self.tx, rx[s], widx)
        s = s[ok]
        return _polylines(self.tx, [pts[ok]], rx[s]), ((EDGE_DIFFRACTION,), [widx[ok]]), s

    def _reflection_then_diffraction(self, rx):
        s, j = np.divmod(np.arange(len(rx) * len(self._rd_w)), len(self._rd_w))
        fidx, wi, src = self._rd_f[j], self._rd_w[j], self._rd_src[j]
        e_pts, ok = self._edge_candidates(src, rx[s], wi)
        s, fidx, wi, src, e_pts = s[ok], fidx[ok], wi[ok], src[ok], e_pts[ok]
        x1, ok = _facade_crossing(self.scene, src, e_pts, fidx)
        s = s[ok]
        return _polylines(self.tx, [x1[ok], e_pts[ok]], rx[s]), ((REFLECTION, EDGE_DIFFRACTION), [fidx[ok], wi[ok]]), s

    def _diffraction_then_reflection(self, rx, rx_front):
        sc = self.scene
        s, tk, fidx = np.nonzero(self._wedge_front_of[None] & rx_front[:, None])
        wi = self._wedges[tk]
        # one matrix-vector product per receiver, over that receiver's rows:
        # the product's bits depend on the rows of its call
        ends = np.searchsorted(s, np.arange(len(rx) + 1))
        d = np.concatenate([sc.fac_normal[fidx[a:b]] @ r for r, a, b in zip(rx, ends, ends[1:])])
        d -= sc.fac_offset[fidx]
        rx_img = rx[s] - 2.0 * d[:, None] * sc.fac_normal[fidx]
        e_pts, ok = self._edge_candidates(self.tx, rx_img, wi)
        s, wi, fidx, rx_img, e_pts = s[ok], wi[ok], fidx[ok], rx_img[ok], e_pts[ok]
        x2, ok = _facade_crossing(sc, e_pts, rx_img, fidx)
        s = s[ok]
        return _polylines(self.tx, [e_pts[ok], x2[ok]], rx[s]), ((EDGE_DIFFRACTION, REFLECTION), [wi[ok], fidx[ok]]), s

    # ------------------------------------------------------------------
    # the trace
    # ------------------------------------------------------------------
    def candidates(self, rx, limits: TraceLimits) -> list:
        """The lateral candidate families of the solves at the (S, 3)
        receivers ``rx``, LoS first: one (vertices (K, n, 3), (kinds, hosts),
        owner) triple per family, without the candidates that have a
        degenerate segment.  ``rx`` is a checked float array.

        The generators run on ``CANDIDATE_BLOCK`` receivers at a time and
        each family joins the rows of its blocks, which bounds the rows the
        RR and DR generators hold before their crossing tests (about 1,700
        per receiver on the preset)."""
        blocks = []
        for first in range(0, len(rx), CANDIDATE_BLOCK):
            block = self._lateral_families(rx[first : first + CANDIDATE_BLOCK], limits)
            blocks.append([(verts, hosts, owner + first) for verts, hosts, owner in block])
        return [_joined(parts) for parts in zip(*blocks)]

    def _lateral_families(self, rx, limits: TraceLimits) -> list:
        """:meth:`candidates` for one block of receivers."""
        sc = self.scene
        # receiver by receiver: one matrix product over every receiver rounds
        # differently
        rx_front = np.array([sc.fac_normal @ r for r in rx]) - sc.fac_offset > EPS_GEOM

        families = [(_polylines(self.tx, [], rx), ((), []), np.arange(len(rx)))]
        if limits.max_reflections >= 1:
            families.append(self._single_reflections(rx, rx_front))
        if limits.max_reflections >= 2:
            families.append(self._double_reflections(rx, rx_front))
        if limits.max_vertical_diffractions >= 1:
            families.append(self._single_diffractions(rx))
            if limits.max_reflections >= 1:
                families.append(self._reflection_then_diffraction(rx))
                families.append(self._diffraction_then_reflection(rx, rx_front))
        return [_drop_degenerate(*family) for family in families]

    def trace(self, receivers, limits: TraceLimits | None = None) -> list[PathRows]:
        """The paths from the transmitter to each of the (S, 3)
        ``receivers``, one :class:`~railchan.rays.PathRows` block per
        receiver in :func:`~railchan.rays.path_order`, each row with its
        polyline; a single receiver is ``rx[None]``.

        The receivers share each family's arrays, each occlusion round, one
        :func:`~railchan.em.compose_path_matrix` call and one block per
        interaction sequence; de-duplication, the power floor and the row
        order stay per receiver, so each receiver gets the rows, bit for
        bit, and the counts of a one-receiver call.  Signatures are joined
        for the kept rows only.  The receivers are checked in order before
        any work, so a bad receiver raises the ValueError of its
        one-receiver call.
        """
        limits = limits or TraceLimits()
        rx = np.asarray(receivers, dtype=float)
        if rx.ndim != 2 or rx.shape[1] != 3:
            raise ValueError(f"receivers must be an (S, 3) array, got shape {rx.shape}")
        # each receiver's checks in the order of a one-receiver call; vecdot
        # gives each row the bits np.linalg.norm gives a single vector
        d = rx - self.tx
        faults = np.stack([np.sqrt(np.vecdot(d, d)) < EPS_GEOM, rx[:, 2] < 0.0, self.scene.contains_points(rx)])
        if faults.any():
            s = np.argmax(faults.any(axis=0))
            raise ValueError(_RX_FAULTS[np.argmax(faults[:, s])])
        if not len(rx):
            return []
        sc = self.scene
        marks = [time.perf_counter()]
        families = self.candidates(rx, limits)
        marks.append(time.perf_counter())
        clear, tested = _clear_masks(sc, families)
        marks.append(time.perf_counter())
        # the rooftop family, clear on round 0's blocked direct ray alone, as
        # one family per edge count
        if limits.rooftop:
            blocked = np.ones(len(rx), dtype=bool)
            blocked[families[0][2][clear[0]]] = False
            roofs: dict[int, list] = {}
            for s in np.flatnonzero(blocked).tolist():
                verts, hosts = trace_rooftop(sc, self.tx, rx[s])
                if len(verts):
                    roofs.setdefault(verts.shape[1], []).append((verts, hosts, np.array([s])))
            for parts in roofs.values():
                families.append(_joined(parts))
                clear.append(np.ones(len(parts), dtype=bool))
        marks.append(time.perf_counter())

        counts = self.counters["families"]
        for (verts, (kinds, _), _), ok in zip(families, clear):
            count = counts[_family_name(kinds)]
            count["generated"] += len(verts)
            count["clear"] += int(ok.sum())
        rounds = self.counters["occlusion_segments"]
        rounds += [0] * (len(tested) - len(rounds))
        for j, n in enumerate(tested):
            rounds[j] += n

        blocks = [PathRows.empty()]
        owners = [np.zeros(0, dtype=np.intp)]
        for verts, (kinds, hosts), owner in _unique_clear(families, clear):
            transfer = compose_path_matrix(verts, kinds, hosts, sc, self.carrier)
            kept = _above_floor(transfer, limits.power_floor_db)
            tokens = [[self._tokens[kind][j] for j in idx[kept].tolist()] for kind, idx in zip(kinds, hosts)]
            n_kept = int(kept.sum())
            counts[_family_name(kinds)]["kept"] += n_kept
            signatures = list(map(signature_of, zip(*tokens))) if tokens else [signature_of(())] * n_kept
            blocks.append(PathRows.from_polylines(signatures, TAG_SPECULAR, verts[kept], transfer[kept]))
            owners.append(owner[kept])
        rows = blocks[0].concat(*blocks[1:])
        owner = np.concatenate(owners)
        # the row order within each receiver, then the receivers in turn;
        # each receiver's rows reach the sort in family order, as its own
        # solve lists them
        order = path_order(rows)
        order = order[np.argsort(owner[order], kind="stable")]
        out = rows.take(order).split(owner[order], len(rx))
        marks.append(time.perf_counter())
        for stage, start, stop in zip(SOLVE_STAGES, marks, marks[1:]):
            self.timings[stage] += stop - start
        return out


def _polylines(tx: np.ndarray, interior: list[np.ndarray], rx: np.ndarray) -> np.ndarray:
    """(K, len(interior) + 2, 3) candidate polylines tx -> interior -> rx,
    for the (K, 3) receiver rows ``rx``."""
    return np.stack([np.broadcast_to(tx, rx.shape), *interior, rx], axis=1)


def _drop_degenerate(verts: np.ndarray, hosts: tuple, owner: np.ndarray):
    """The candidates of one family whose segments are all longer than EPS_GEOM."""
    seg = verts[:, 1:] - verts[:, :-1]
    live = np.einsum("knj,knj->kn", seg, seg).min(axis=1) >= EPS_GEOM * EPS_GEOM
    kinds, idx = hosts
    return verts[live], (kinds, [i[live] for i in idx]), owner[live]


def _joined(parts: list) -> tuple:
    """One family, (vertices, (kinds, hosts), owner), from parts that share
    its interaction sequence, their rows in part order."""
    return (
        np.concatenate([verts for verts, _, _ in parts]),
        (parts[0][1][0], [np.concatenate(h) for h in zip(*(hosts for _, (_, hosts), _ in parts))]),
        np.concatenate([owner for _, _, owner in parts]),
    )


def _family_name(kinds: tuple) -> str:
    """A family's counter name; a rooftop path is K whatever its edge count."""
    return ROOFTOP_DIFFRACTION if ROOFTOP_DIFFRACTION in kinds else "".join(kinds) or "LoS"


#: the path families a solve counts, in family order
FAMILIES = ("LoS", "R", "RR", "D", "RD", "DR", ROOFTOP_DIFFRACTION)

#: receivers whose lateral candidates one pass of each family generator
#: forms, see :meth:`SpecularTracer.candidates`
CANDIDATE_BLOCK = 4

#: the stages of a solve, in order, that ``SpecularTracer.timings`` times;
#: ``compose`` runs from the distinct clear candidates to the ordered blocks
SOLVE_STAGES = ("candidate", "occlusion", "rooftop", "compose")

#: the faults of a receiver, in the order :meth:`SpecularTracer.trace` tests them
_RX_FAULTS = ("tx and rx must be distinct points", "rx lies below the ground", "rx lies inside a building")


def _clear_masks(scene: Scene, families: list) -> tuple[list[np.ndarray], list[int]]:
    """Per family, the mask of the candidates whose every segment is clear,
    and the segments each occlusion round tested.

    Occlusion is tested in rounds, in path order: round ``j`` sends segment
    ``j`` (from the transmitter end) of every candidate still clear, across
    all families, to one ``Scene.segments_blocked`` call, and drops the
    blocked candidates.  A round with nothing left to test makes no call.  A
    segment's verdict does not depend on the other segments of its call, so
    the masks equal those of one call over every segment.
    """
    verts = [family[0] for family in families]
    clear = [np.ones(len(v), dtype=bool) for v in verts]
    tested = []
    for j in range(max(v.shape[1] for v in verts) - 1):
        rows = [(f, np.nonzero(clear[f])[0]) for f, v in enumerate(verts) if v.shape[1] > j + 1]
        counts = [len(k) for _, k in rows]
        if not sum(counts):
            break
        tested.append(sum(counts))
        blocked = scene.segments_blocked(
            np.concatenate([verts[f][k, j] for f, k in rows]),
            np.concatenate([verts[f][k, j + 1] for f, k in rows]),
        )
        for (f, k), b in zip(rows, np.split(blocked, np.cumsum(counts)[:-1])):
            clear[f][k[b]] = False
    return clear, tested


def _unique_clear(families: list, clear: list) -> list:
    """Per family, its clear candidates less those whose vertices, rounded to
    1 um, an earlier candidate of the same receiver already has: (vertices,
    (kinds, hosts), owner), in candidate order.  Families left with no
    candidate are dropped."""
    seen: set[tuple[int, bytes]] = set()
    out = []
    for (verts, (kinds, hosts), owner), ok in zip(families, clear):
        cand = np.nonzero(ok)[0]
        keep = []
        for k, s, rounded in zip(cand.tolist(), owner[cand].tolist(), np.round(verts[cand], 6)):
            key = (s, rounded.tobytes())
            if key not in seen:
                seen.add(key)
                keep.append(k)
        if keep:
            out.append((verts[keep], (kinds, [i[keep] for i in hosts]), owner[keep]))
    return out


def _above_floor(transfers: np.ndarray, floor_db: float) -> np.ndarray:
    """Mask of the (K, 2, 2) transfers whose power is at least -floor_db dB."""
    power = np.sum(np.abs(transfers) ** 2, axis=(1, 2))
    with np.errstate(divide="ignore"):
        return (power > 0.0) & (10.0 * np.log10(power) >= -floor_db)


#: the rooftop family without a candidate
_NO_ROOFTOP = (np.zeros((0, 3, 3)), ((ROOFTOP_DIFFRACTION,), [np.zeros(0, dtype=np.intp)]))


def trace_rooftop(scene: Scene, tx: np.ndarray, rx: np.ndarray) -> tuple:
    """The over-the-rooftops knife-edge family of a blocked direct ray,
    (vertices (k, n, 3), (kinds, hosts)) with k = 1, or k = 0 without one.

    Every roofline the vertical plane of propagation crosses contributes one
    knife edge, hosted by its facade, where the ground track enters or
    leaves the footprint: the Epstein-Peterson apex chain.  The caller,
    :meth:`SpecularTracer.trace`, has found the direct ray ``tx -> rx``
    blocked and has checked ``tx`` and ``rx``: distinct float arrays, outside
    every building, at or above the ground.  With both endpoints at or above
    ``z = 0`` the ground cannot block the direct ray, so a building does.
    """
    seg = rx - tx
    horiz = float(np.linalg.norm(seg[:2]))
    if horiz < EPS_GEOM:
        return _NO_ROOFTOP  # vertical link: no ground track to cross rooflines

    # facades are vertical, so t along tx -> rx is also t along the ground track
    n = scene.n_facades
    t, s, _ = scene.facade_crossings(np.broadcast_to(tx, (n, 3)), np.broadcast_to(seg, (n, 3)), np.arange(n))
    tmin = EPS_GEOM / horiz
    ok = (t > tmin) & (t < 1.0 - tmin)
    # half-open span so a crossing at a shared footprint corner counts once
    ok &= (s >= -1e-12) & (s < scene.fac_len - 1e-12)
    f = np.nonzero(ok)[0]
    # at a wall two buildings share, the track leaves one footprint where it
    # enters the next, at the same t: the exit (outward normal along the
    # track) comes first, so the apex chain steps from one roof to the next
    leaving = (scene.fac_normal @ seg > 0.0)[f]
    f = f[np.lexsort((scene.fac_element[f], scene.fac_object[f], ~leaving, t[f]))]
    verts = np.concatenate(
        [tx[None], np.column_stack([tx[0] + t[f] * seg[0], tx[1] + t[f] * seg[1], scene.fac_height[f]])]
    )

    # an apex within EPS_GEOM of the last vertex kept before it is dropped;
    # as that vertex depends on the mask, the mask is iterated from keeping
    # all: pass p settles the first p apexes, and a pass that changes nothing
    # ends it (the first, when no two consecutive apexes coincide).  vecdot
    # gives each row the bits np.linalg.norm gives a single vector
    index = np.arange(len(verts))
    keep = np.ones(len(verts), dtype=bool)
    while True:
        gap = verts[1:] - verts[np.maximum.accumulate(np.where(keep, index, 0))[:-1]]
        again = np.concatenate([[True], np.sqrt(np.vecdot(gap, gap)) >= EPS_GEOM])
        if (again == keep).all():
            break
        keep = again
    verts, f = verts[keep], f[keep[1:]]
    if not len(f) or np.linalg.norm(rx - verts[-1]) < EPS_GEOM:
        return _NO_ROOFTOP
    return np.concatenate([verts, rx[None]])[None], ((ROOFTOP_DIFFRACTION,) * len(f), list(f[:, None]))
