"""What a fixed transmitter sees: first-segment occlusion verdicts by height.

A segment from the transmitter to a fixed (x, y) whose height ``z`` alone
varies has a fixed ground track, so ``Scene.segments_blocked`` can change
its answer only near a finite set of critical heights.
:func:`first_segment_table` settles the verdict at every other height once,
for many such targets at a time, as a :class:`FirstSegmentTable` that looks
verdicts up.
The specular tracer builds these tables once per transmitter for the first
segments of its D, DR and RD candidates, which end on a wedge or on an RD
pair's facade crossing.  This is the visibility preprocessing of
fixed-transmitter urban ray tracers (R. Hoppe, G. Woelfle, F. M.
Landstorfer, "Accelerated ray optical propagation modeling for the planning
of wireless communication networks", IEEE RAWCON 1999).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scene import EPS_GEOM, Scene

#: verdict codes of a first-segment table
CLEAR, BLOCKED, OPEN = 0, 1, 2


@dataclass(frozen=True)
class FirstSegmentTable:
    """Per target row, the sorted breakpoints ``brk`` (T, M) padded with
    +inf and the verdict code ``code`` (T, M + 1) of each piece
    ``(brk[i - 1], brk[i]]``; piece 0 ends at the row's lowest height, and
    the pieces above its highest height are undecided."""

    brk: np.ndarray
    code: np.ndarray

    def rows(self, keep: np.ndarray) -> FirstSegmentTable:
        return FirstSegmentTable(self.brk[keep], self.code[keep])

    def settle(self, target: np.ndarray, z: np.ndarray, ok: np.ndarray):
        """Look up the first segments ``tx -> (x, y, z[k])`` of the
        candidates ``ok``, each ending on row ``target[k]``.  Returns the
        indices of the candidates the table does not find blocked and the
        mask of those it finds clear."""
        k = np.nonzero(ok)[0]
        rows = target[k]
        verdict = self.code[rows, (self.brk[rows] < z[k, None]).sum(axis=1)]
        live = verdict != BLOCKED
        return k[live], verdict[live] == CLEAR


def first_segment_table(scene: Scene, tx: np.ndarray, xy: np.ndarray, zlo: np.ndarray, zhi: np.ndarray):
    """Occlusion verdicts of the segments ``tx -> (xy[k], z)`` for every
    height ``z`` in ``[zlo[k], zhi[k]]``, as ``Scene.segments_blocked`` gives
    them.

    The segment's ground track is fixed, so it meets every footprint
    boundary at parameters that do not depend on ``z``, and the kernel's
    answer can change only near a finite set of critical heights: where a
    facade crossing's height meets the facade's top or the ground, where a
    roof crossing moves across a footprint boundary, and where a crossing
    enters or leaves the kernel's EPS_GEOM band around the segment's ends.
    Each critical height is widened into an undecided band that reaches a
    further EPS_GEOM, in the band's own quantity (height of the crossing,
    length of the segment, distance of the roof crossing from an edge), past
    the kernel's threshold on each side, far beyond rounding.  Between the
    bands the verdict does not change.  It is "blocked" wherever a facade is
    crossed well inside its rectangle and well away from the segment's ends
    (that covers most bands too), and otherwise it is read from one batched
    ``segments_blocked`` call at each interval's midpoint, so the table
    keeps the kernel's own semantics.

    Returns the :class:`FirstSegmentTable` of the targets and, per target,
    whether the segment is blocked at every height of its range.
    """
    # a few hundred targets at a time keep the temporaries small, and one
    # batched kernel call judges the pieces of all of them that no band or
    # cover decides
    starts = range(0, max(len(xy), 1), 256)
    parts = [_pieces(scene, tx, xy[i : i + 256], zlo[i : i + 256], zhi[i : i + 256]) for i in starts]
    q = np.concatenate([np.column_stack([xy[i + tk], at]) for i, (_, _, (tk, _, at)) in zip(starts, parts)])
    found = scene.segments_blocked(np.broadcast_to(tx, q.shape), q)
    ends = np.cumsum([len(tk) for _, _, (tk, _, _) in parts])
    parts = [_settled(brk, code, ask, b) for (brk, code, ask), b in zip(parts, np.split(found, ends[:-1]))]
    width = max(brk.shape[1] for brk, _, _ in parts)
    table = FirstSegmentTable(
        np.concatenate([_pad_columns(brk, width, np.inf) for brk, _, _ in parts]),
        np.concatenate([_pad_columns(code, width + 1, OPEN) for _, code, _ in parts]),
    )
    return table, np.concatenate([blocked for _, _, blocked in parts])


def _pad_columns(a: np.ndarray, width: int, value) -> np.ndarray:
    return np.pad(a, ((0, 0), (0, width - a.shape[1])), constant_values=value)


def _pieces(scene: Scene, tx: np.ndarray, xy: np.ndarray, zlo: np.ndarray, zhi: np.ndarray):
    """The pieces of :func:`first_segment_table` for some of its targets:
    the breakpoints (T, M), the verdict code of each piece where a band or
    a cover decides it, and the pieces left to the kernel as (target, piece,
    height to judge it at)."""
    n_targets = len(xy)
    (bk, blo, bhi), (ck, clo, chi) = _critical_bands(scene, tx, xy, zlo, zhi)
    # cut each range at every band and cover end
    nb, nc = len(bk), len(ck)
    every = np.arange(n_targets)
    brk, col = _padded_rows(
        np.concatenate([every, every, bk, bk, ck, ck]),
        np.concatenate([zlo, zhi, blo, bhi, clo, chi]),
        n_targets,
    )
    col = col[2 * n_targets :]
    in_band = _pieces_covered(bk, col[:nb], col[nb : 2 * nb], brk.shape)
    covered = _pieces_covered(ck, col[2 * nb : 2 * nb + nc], col[2 * nb + nc :], brk.shape)
    valid = np.isfinite(brk)
    code = np.full(brk.shape, OPEN, dtype=np.int8)
    code[covered & valid] = BLOCKED
    # piece 0 is judged at zlo, piece i at the midpoint of (brk[i-1], brk[i]]
    tk, ti = np.nonzero(valid & ~in_band & ~covered)
    at = np.where(ti > 0, 0.5 * (brk[tk, ti - 1] + brk[tk, ti]), brk[tk, ti])
    return brk, code, (tk, ti, at)


def _settled(brk: np.ndarray, code: np.ndarray, ask: tuple, found: np.ndarray):
    """``code`` completed with the kernel's verdicts ``found`` on the pieces
    ``ask``, as :func:`first_segment_table` returns it, with only the
    breakpoints between pieces of different verdicts kept."""
    tk, ti, _ = ask
    code[tk, ti] = np.where(found, BLOCKED, CLEAR)
    n_targets = len(brk)
    blocked = np.all((code == BLOCKED) | ~np.isfinite(brk), axis=1)
    code = np.concatenate([code, np.full((n_targets, 1), OPEN, dtype=np.int8)], axis=1)
    cut = code[:, :-1] != code[:, 1:]
    rk, ri = np.nonzero(cut)
    out_brk, _ = _padded_rows(rk, brk[rk, ri], n_targets)
    out_code = np.full((n_targets, out_brk.shape[1] + 1), OPEN, dtype=np.int8)
    out_code[:, 0] = code[:, 0]
    out_code[rk, (np.cumsum(cut, axis=1) - 1)[rk, ri] + 1] = code[rk, ri + 1]
    return out_brk, out_code, blocked


def _critical_bands(scene: Scene, tx: np.ndarray, xy: np.ndarray, zlo: np.ndarray, zhi: np.ndarray):
    """The undecided bands and the covered (blocked) intervals of
    :func:`first_segment_table`, each as (target, lo, hi) arrays clipped to
    the targets' ranges."""
    sc = scene
    eps = EPS_GEOM
    n_targets = len(xy)
    tz = float(tx[2])
    d = xy - tx[:2]
    horiz = np.hypot(d[:, 0], d[:, 1])
    every = np.arange(n_targets)
    bands, covers = [], []

    def clipped(out, k, lo, hi):
        lo = np.maximum(lo, zlo[k])
        hi = np.minimum(hi, zhi[k])
        m = lo <= hi
        out.append((k[m], lo[m], hi[m]))

    def band(k, lo, hi):
        clipped(bands, k, lo, hi)

    # the ground blocks a segment that ends below it by more than EPS_GEOM
    # along the segment: between -EPS_GEOM and -EPS_GEOM * tz / length
    if tz > 2 * eps:
        band(every, np.full(n_targets, -2 * eps), -0.5 * eps * tz / np.hypot(horiz, tz))
    elif tz > 0.0:
        band(every, zlo, zhi)
    short = horiz <= 2 * eps
    band(every[short], zlo[short], zhi[short])

    # (target, building) pairs the kernel's bounding-box test keeps; only
    # its height part depends on z, and it drops a building only when the
    # whole segment is above its roof
    lo = np.minimum(tx[:2], xy) - eps
    hi = np.maximum(tx[:2], xy) + eps
    kb, bb = np.nonzero(
        (lo[:, 0:1] <= sc._bldg_hi[None, :, 0])
        & (hi[:, 0:1] >= sc._bldg_lo[None, :, 0])
        & (lo[:, 1:2] <= sc._bldg_hi[None, :, 1])
        & (hi[:, 1:2] >= sc._bldg_lo[None, :, 1])
    )
    rise = sc._bldg_height[bb] - tz  # the roof crossing lies at parameter rise / (z - tz)
    near_roof = np.abs(rise) <= 2 * eps
    band(kb[near_roof], zlo[kb[near_roof]], zhi[kb[near_roof]])
    # a target inside a footprint (never one on its boundary) meets the roof
    # plane at the segment's end when z crosses the roof height
    boxed = sc._near_footprint_bbox(xy[kb, 0], xy[kb, 1], bb)
    pk, pb = kb[boxed], bb[boxed]
    inside, on_boundary = sc._classify_footprint(xy[pk, 0], xy[pk, 1], pb)
    deep = inside & ~on_boundary
    band(pk[deep], sc._bldg_height[pb[deep]] - 2 * eps, sc._bldg_height[pb[deep]] + 2 * eps)

    # one row per (target, facade of a kept building) whose footprint edge
    # comes within 2 EPS_GEOM of the track: an edge wholly to one side of
    # the track's line, or wholly before or beyond the track, is crossed
    # outside the facade's span or outside the segment, and the roof test
    # cannot change near it
    rows, fi = sc._building_facades(bb)
    kr = kb[rows]
    ends = (sc.fac_origin[fi, :2] - tx[:2], sc._fac_end[fi] - tx[:2])
    with np.errstate(divide="ignore", invalid="ignore"):
        # the ends' signed distances from the track's line, and their
        # positions along the track, in meters
        side = [_cross2d(d[kr], e) / horiz[kr] for e in ends]
        along = [_dot2d(d[kr], e) / horiz[kr] for e in ends]
    near = (np.minimum(*side) <= 2 * eps) & (np.maximum(*side) >= -2 * eps)
    near &= (np.minimum(*along) <= horiz[kr] + 2 * eps) & (np.maximum(*along) >= -2 * eps)
    rows, fi, kr = rows[near], fi[near], kr[near]
    # t and s do not depend on z, and the kernel computes them to the same
    # bits
    seg = np.zeros((len(rows), 3))
    seg[:, :2] = d[kr]
    t, s, _ = sc.facade_crossings(np.broadcast_to(tx, seg.shape), seg, fi)
    on_span = (s >= -eps) & (s <= sc.fac_len[fi] + eps)
    live = on_span & (t > 0.0) & (t < 1.0)
    lk, lt, lh, fh = kr[live], t[live], horiz[kr[live]], sc.fac_height[fi[live]]
    # the crossing's height tz + t (z - tz) against [-EPS_GEOM, top + EPS_GEOM]
    band(lk, tz + (-2 * eps - tz) / lt, tz - tz / lt)
    band(lk, tz + (fh - tz) / lt, tz + (fh + 2 * eps - tz) / lt)
    # the crossing's distance from either end, t L or (1 - t) L, against
    # EPS_GEOM, where L = hypot(horiz, z - tz) is the segment's length
    for c in (eps / lt, eps / (1.0 - lt)):
        m = c + eps > lh
        w_in = np.sqrt(np.maximum(0.0, (c[m] - eps - lh[m]) * (c[m] - eps + lh[m])))
        w_out = np.sqrt((c[m] + eps - lh[m]) * (c[m] + eps + lh[m]))
        band(lk[m], tz + w_in, tz + w_out)
        band(lk[m], tz - w_out, tz - w_in)
    # a crossing at least 2 EPS_GEOM from both ends (L >= horiz) and at a
    # height in [0, top] blocks
    firm = (lt * lh > 2 * eps) & ((1.0 - lt) * lh > 2 * eps)
    clipped(covers, lk[firm], tz - tz / lt[firm], tz + (fh[firm] - tz) / lt[firm])

    # the roof crossing lies at track parameter tau = rise / (z - tz); its
    # footprint test can change only where the track passes within
    # 2 EPS_GEOM of a footprint edge
    ta, tb = _capsule_crossings(tx[:2], d[kr], sc.fac_origin[fi, :2], sc._fac_end[fi], 2 * eps)
    rr = rise[rows]
    m = (tb > 0.0) & (ta <= 1.0) & ~near_roof[rows]
    with np.errstate(divide="ignore"):
        w1 = rr[m] / tb[m]
        w2 = np.where(ta[m] > 0.0, rr[m] / np.maximum(ta[m], 0.0), np.copysign(np.inf, rr[m]))
    band(kr[m], tz + np.minimum(w1, w2), tz + np.maximum(w1, w2))

    return [tuple(np.concatenate(part) for part in zip(*out)) for out in (bands, covers)]


def _cross2d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]


def _dot2d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]


def _padded_rows(k: np.ndarray, v: np.ndarray, n_rows: int):
    """The distinct values ``v`` of each row ``k``, sorted, as an
    (n_rows, M) array padded with +inf, and the column of each entry."""
    order = np.lexsort((v, k))
    ks, vs = k[order], v[order]
    new = np.ones(len(ks), dtype=bool)
    new[1:] = (ks[1:] != ks[:-1]) | (vs[1:] != vs[:-1])
    uk, uv = ks[new], vs[new]
    counts = np.bincount(uk, minlength=n_rows)
    col_u = np.arange(len(uk)) - (np.cumsum(counts) - counts)[uk]
    out = np.full((n_rows, counts.max(initial=1)), np.inf)
    out[uk, col_u] = uv
    col = np.empty(len(k), dtype=np.intp)
    col[order] = col_u[np.cumsum(new) - 1]
    return out, col


def _pieces_covered(k: np.ndarray, lo_col: np.ndarray, hi_col: np.ndarray, shape: tuple) -> np.ndarray:
    """Mask of the pieces of a breakpoint table that the closed intervals
    (brk[k, lo_col], brk[k, hi_col]) cover: piece 0 (the point zlo) when an
    interval starts there, and the pieces lo_col + 1 .. hi_col."""
    n_rows, m = shape
    flat = k * (m + 1)
    diff = np.bincount(flat + lo_col + 1, minlength=n_rows * (m + 1)) - np.bincount(
        flat + hi_col + 1, minlength=n_rows * (m + 1)
    )
    cover = np.cumsum(diff.reshape(n_rows, m + 1), axis=1)[:, :m] > 0
    cover[k[lo_col == 0], 0] = True
    return cover


def _slab(v0: np.ndarray, vd: np.ndarray, lo, hi):
    """Parameters tau with lo <= v0 + tau vd <= hi, as (start, end); empty as
    (inf, -inf)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (lo - v0) / vd
        b = (hi - v0) / vd
    inside = (v0 >= lo) & (v0 <= hi)
    still = vd == 0.0
    start = np.where(still, np.where(inside, -np.inf, np.inf), np.minimum(a, b))
    end = np.where(still, np.where(inside, np.inf, -np.inf), np.maximum(a, b))
    return start, end


def _capsule_crossings(p0: np.ndarray, d: np.ndarray, a: np.ndarray, b: np.ndarray, r: float):
    """Parameters tau at which the lines ``p0 + tau d`` (K, 2) lie within
    ``r`` of the segments ``a -> b`` (K, 2), as one interval (start, end)
    per line; empty as (inf, -inf).  The stadium around a segment is the
    union of its strip and the two end disks, and it is convex."""
    e = b - a
    length = np.hypot(e[:, 0], e[:, 1])
    u = e / length[:, None]
    rel = p0 - a
    along = _slab(_dot2d(rel, u), _dot2d(d, u), 0.0, length)
    across = _slab(_cross2d(rel, u), _cross2d(d, u), -r, r)
    start = np.maximum(along[0], across[0])
    end = np.minimum(along[1], across[1])
    empty = start > end
    start[empty], end[empty] = np.inf, -np.inf
    dd = np.hypot(d[:, 0], d[:, 1])
    for c in (a, b):
        rc = p0 - c
        with np.errstate(divide="ignore", invalid="ignore"):
            mid = -_dot2d(rc, d) / (dd * dd)
            perp = _cross2d(rc, d) / dd
            half = np.sqrt(np.maximum(0.0, r * r - perp * perp)) / dd
        hit = np.abs(perp) <= r
        start = np.where(hit, np.minimum(start, mid - half), start)
        end = np.where(hit, np.maximum(end, mid + half), end)
    return start, end
