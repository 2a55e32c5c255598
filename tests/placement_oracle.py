"""The scene's placement rules and occlusion kernel as they were before they
read facade and wedge geometry by columns.

``oracle_facade_crossings`` places segments against facade planes with
three-term ``einsum`` dots over (rows, 3) gathers of the facade normals and
directions; ``oracle_wedge_azimuths`` measures wedge angles with (K, 2)
``einsum`` dots; and ``oracle_segments_blocked`` is the staged occlusion
kernel that gathers its (segment, facade) rows as (rows, 3) arrays and
places them with ``oracle_facade_crossings``.  The scene's rules are checked
against them: ``t``, ``s`` and ``z`` bit for bit, or both zero, or both NaN;
azimuths bit for bit; verdicts equal.
"""

import math

import numpy as np

from railchan.scene import EPS_GEOM, SEGMENT_BLOCK


def oracle_facade_crossings(scene, p, seg, fi):
    """``(t, s, z)`` of segments ``p -> p + seg`` (K, 3) against the planes of
    facades ``fi`` (K,), NaN where a segment is parallel to the plane."""
    n = scene.fac_normal[fi]
    denom = np.einsum("ij,ij->i", n, seg)
    safe = np.abs(denom) > 1e-15
    off = scene.fac_offset[fi] - np.einsum("ij,ij->i", n, p)
    t = np.where(safe, off / np.where(safe, denom, 1.0), np.nan)
    u = scene.fac_dir[fi]
    s = np.einsum("ij,ij->i", p, u) - scene.fac_od[fi] + t * np.einsum("ij,ij->i", seg, u)
    return t, s, p[:, 2] + t * seg[:, 2]


def oracle_wedge_azimuths(scene, wi, xy):
    """Azimuths of ``xy`` (K, 2) about wedges ``wi`` (K,) and the mask of
    those outside the wedge material."""
    phi = np.arctan2(
        np.einsum("kj,kj->k", xy, scene.wedge_o_normal[wi]),
        np.einsum("kj,kj->k", xy, scene.wedge_o_tangent[wi]),
    )
    phi = np.mod(phi, 2.0 * math.pi)
    phi = np.where(phi >= 2.0 * math.pi - 1e-9, 0.0, phi)
    return phi, phi <= scene.wedge_n_index[wi] * math.pi + 1e-9


def oracle_segments_blocked(scene, p, q):
    """Occlusion flags of the (K, 3) segments ``p -> q``, block by block."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    blocks = [
        _blocked_block(scene, p[a : a + SEGMENT_BLOCK], q[a : a + SEGMENT_BLOCK])
        for a in range(0, len(p), SEGMENT_BLOCK)
    ]
    return np.concatenate(blocks) if blocks else np.zeros(0, dtype=bool)


def _blocked_block(scene, p, q):
    seg = q - p
    seg_len = np.linalg.norm(seg, axis=1)

    dz = seg[:, 2]
    safe = np.abs(dz) > 1e-15
    dist = np.where(safe, -p[:, 2] / np.where(safe, dz, 1.0), 0.0) * seg_len
    blocked = (dist > EPS_GEOM) & (dist < seg_len - EPS_GEOM)

    k = np.nonzero(~blocked)[0]
    lo = np.minimum(p[k], q[k]) - EPS_GEOM
    hi = np.maximum(p[k], q[k]) + EPS_GEOM
    cand = (
        (lo[:, 0:1] <= scene._bldg_hi[None, :, 0])
        & (hi[:, 0:1] >= scene._bldg_lo[None, :, 0])
        & (lo[:, 1:2] <= scene._bldg_hi[None, :, 1])
        & (hi[:, 1:2] >= scene._bldg_lo[None, :, 1])
        & (lo[:, 2:3] <= scene._bldg_height[None, :])
        & (hi[:, 2:3] >= 0.0)
    )
    ki, bi = np.nonzero(cand)
    ki = k[ki]

    rows, fi = scene._building_facades(bi)
    kk = ki[rows]
    t, s, z = oracle_facade_crossings(scene, p[kk], seg[kk], fi)
    sl = seg_len[kk]
    dist = t * sl
    ok = (dist > EPS_GEOM) & (dist < sl - EPS_GEOM)
    ok &= (s >= -EPS_GEOM) & (s <= scene.fac_len[fi] + EPS_GEOM)
    ok &= (z >= -EPS_GEOM) & (z <= scene.fac_height[fi] + EPS_GEOM)
    blocked[kk[ok]] = True

    keep = ~blocked[ki]
    ki, bi = ki[keep], bi[keep]
    dz = seg[ki, 2]
    safe = np.abs(dz) > 1e-15
    t = np.where(safe, (scene._bldg_height[bi] - p[ki, 2]) / np.where(safe, dz, 1.0), 0.0)
    sl = seg_len[ki]
    dist = t * sl
    near = (dist > EPS_GEOM) & (dist < sl - EPS_GEOM)
    x = p[ki, 0] + t * seg[ki, 0]
    y = p[ki, 1] + t * seg[ki, 1]
    near &= scene._near_footprint_bbox(x, y, bi)
    r = np.nonzero(near)[0]
    inside, on_boundary = scene._classify_footprint(x[r], y[r], bi[r])
    blocked[ki[r[inside | on_boundary]]] = True
    return blocked
