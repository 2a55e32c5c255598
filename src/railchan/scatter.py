"""Facet-summation scattering from discrete cylinders.

Cylindrical scatterers are meshed into half-wavelength tangent-plane facets.
Each illuminated-and-visible facet contributes a coherent term built from the
analytic bistatic radar cross-section of a PEC rectangular plate, with
per-facet spherical spreading and phase so that no far-field assumption is
made at the whole-body level.  A scatterer's echo is one facet sum straight
from the transmitter to the receiver, computed when the direct legs from both
antennas to its reference point are clear; the path's delay follows the
polyline through that point.  The facet sum's polarization bases come from
``em.spherical_basis``, the path composer's own.

:class:`ScatterEngine` belongs to one transmitter and cuts each mesh to
the facets it lights at construction, and keeps its scatterers in the row
order of their echoes; it takes many receivers per call: one occlusion
query for all their direct legs, then one facet pass per mesh over the
receivers, split under ``FACET_ROW_BUDGET``, and one row block per
receiver.  The pass is component-major: a mesh's lit facets are one
(fields, lit facets) table, each pass forms its observer grid as
(receivers, lit facets) planes of x, y and z, cuts the live entries with one
``flatnonzero`` and gathers their facet fields with one ``take``, and every
three-term dot is :func:`_dot`, which has ``np.einsum``'s bits.  The
closed-form RCS oracles call :func:`po_scattered_matrix`, the one-receiver
case of the same pass, on plate meshes as well as cylinders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em import CarrierConfig, spherical_basis
from .rays import SCATTERING, TAG_SCATTER, PathRows, norms, token
from .scene import EPS_GEOM, CylinderScatterer, Scene


# ----------------------------------------------------------------------
# meshes
# ----------------------------------------------------------------------
@dataclass
class FacetMesh:
    """Flat-facet tiling of a scattering surface (struct-of-arrays)."""

    centers: np.ndarray  # (N, 3)
    normals: np.ndarray  # (N, 3) unit, outward
    tan_u: np.ndarray  # (N, 3) unit, along facet width
    tan_v: np.ndarray  # (N, 3) unit, along facet height
    width: np.ndarray  # (N,)
    height: np.ndarray  # (N,)
    area: np.ndarray  # (N,)
    scatterer: CylinderScatterer | None = None


def mesh_cylinder(cyl: CylinderScatterer, carrier: CarrierConfig) -> FacetMesh:
    """Tile the lateral cylinder surface with at-most-half-wavelength facets.

    Facet width is the true arc length, so the mesh area equals the lateral
    surface area exactly; normals are radial, tangents azimuthal/vertical.
    """
    if cyl.radius <= 0 or cyl.height <= 0:
        raise ValueError("cylinder radius and height must be positive")
    target = carrier.wavelength / 2.0
    n_phi = max(3, math.ceil(2.0 * math.pi * cyl.radius / target))
    n_z = max(1, math.ceil(cyl.height / target))
    dphi = 2.0 * math.pi / n_phi
    dz = cyl.height / n_z

    phi = (np.arange(n_phi) + 0.5) * dphi
    z = (np.arange(n_z) + 0.5) * dz
    cphi, sphi = np.cos(phi), np.sin(phi)

    # outer product over (z, phi)
    normals_row = np.stack([cphi, sphi, np.zeros(n_phi)], axis=1)
    tan_u_row = np.stack([-sphi, cphi, np.zeros(n_phi)], axis=1)
    normals = np.tile(normals_row, (n_z, 1))
    tan_u = np.tile(tan_u_row, (n_z, 1))
    tan_v = np.tile(np.array([0.0, 0.0, 1.0]), (n_z * n_phi, 1))
    centers = np.empty((n_z * n_phi, 3))
    centers[:, 0] = cyl.base_center[0] + cyl.radius * np.tile(cphi, n_z)
    centers[:, 1] = cyl.base_center[1] + cyl.radius * np.tile(sphi, n_z)
    centers[:, 2] = cyl.base_center[2] + np.repeat(z, n_phi)

    width = np.full(n_z * n_phi, cyl.radius * dphi)
    height = np.full(n_z * n_phi, dz)
    return FacetMesh(
        centers=centers,
        normals=normals,
        tan_u=tan_u,
        tan_v=tan_v,
        width=width,
        height=height,
        area=width * height,
        scatterer=cyl,
    )


def mesh_plate(
    center: np.ndarray,
    normal: np.ndarray,
    tan_u: np.ndarray,
    width: float,
    height: float,
    max_edge: float,
) -> FacetMesh:
    """Rectangular PEC plate mesh; the flat-surface oracle geometry."""
    center = np.asarray(center, dtype=float)
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    tan_u = np.asarray(tan_u, dtype=float)
    tan_u = tan_u / np.linalg.norm(tan_u)
    tan_v = np.cross(normal, tan_u)
    n_u = max(1, math.ceil(width / max_edge))
    n_v = max(1, math.ceil(height / max_edge))
    du, dv = width / n_u, height / n_v
    us = (np.arange(n_u) + 0.5) * du - width / 2.0
    vs = (np.arange(n_v) + 0.5) * dv - height / 2.0
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    count = n_u * n_v
    centers = center[None, :] + uu.reshape(-1, 1) * tan_u[None, :] + vv.reshape(-1, 1) * tan_v[None, :]
    return FacetMesh(
        centers=centers,
        normals=np.tile(normal, (count, 1)),
        tan_u=np.tile(tan_u, (count, 1)),
        tan_v=np.tile(tan_v, (count, 1)),
        width=np.full(count, du),
        height=np.full(count, dv),
        area=np.full(count, du * dv),
        scatterer=None,
    )


# ----------------------------------------------------------------------
# the facet sum
# ----------------------------------------------------------------------
#: receiver-by-facet entries one pass of the facet sum handles at most, so
#: that each (receivers, lit facets) plane of its observer grid, and each
#: field row of what it gathers for the live entries, stays within 50 kB
FACET_ROW_BUDGET = 6144


@dataclass
class _LitFacets:
    """The facets of one mesh that a source lights (``cos_i > 0``), cut from
    the mesh in facet order: everything of them the facet sum needs that does
    not depend on the observer, as one float ``table`` of one row per field
    and one column per lit facet, beside the complex column ``phase_over_r``,
    exp(-jk r_i)/r_i.

    ``table`` rows 0-5 are the centre and the normal, which the pass reads
    for every receiver.  Rows 6-24 are the fields it gathers for the live
    entries: the incident unit direction ki (3 rows); tan_u and tan_v, x, y
    and z in turn, so that rows 9-14 are a (3, 2) component stack; 0.5 k
    width and 0.5 k height; sigma0 = 4 pi (area / lambda)^2; cos_i; and mv
    and mh, the incident (V, H) basis vectors after the PEC mirror rule
    E -> 2 (n.E) n - E, stacked the same way.
    """

    table: np.ndarray
    phase_over_r: np.ndarray


def _lit_facets(mesh: FacetMesh, src: np.ndarray, carrier: CarrierConfig) -> _LitFacets:
    k = carrier.wavenumber
    vi = mesh.centers - src[None, :]
    r_i = np.linalg.norm(vi, axis=1)
    ki = vi / r_i[:, None]
    cos_i = -np.einsum("ij,ij->i", ki, mesh.normals)
    lit = cos_i > 0.0
    ki, r_i, nrm = ki[lit], r_i[lit], mesh.normals[lit]
    ev_i, eh_i = spherical_basis(ki)
    mv = 2.0 * np.einsum("ij,ij->i", nrm, ev_i)[:, None] * nrm - ev_i
    mh = 2.0 * np.einsum("ij,ij->i", nrm, eh_i)[:, None] * nrm - eh_i
    n_lit = len(ki)
    table = np.vstack(
        [
            mesh.centers[lit].T,
            nrm.T,
            ki.T,
            np.stack([mesh.tan_u[lit], mesh.tan_v[lit]], axis=2).reshape(n_lit, 6).T,
            0.5 * k * mesh.width[lit],
            0.5 * k * mesh.height[lit],
            4.0 * math.pi * (mesh.area[lit] / carrier.wavelength) ** 2,
            cos_i[lit],
            np.stack([mv, mh], axis=2).reshape(n_lit, 6).T,
        ]
    )
    return _LitFacets(table=table, phase_over_r=np.exp(-1j * k * r_i) / r_i)


def _dot(a, b, out=None) -> np.ndarray:
    """The dot products of the broadcast (3, ...) component stacks ``a`` and
    ``b``, bit for bit those of ``np.einsum("ij,ij->i")`` over C-contiguous
    rows: the sum (a0 b0 + a2 b2) + a1 b1 in its order, plus the 0.0 of its
    zeroed output, which turns a -0.0 sum into +0.0."""
    out = np.multiply(a[0], b[0], out=out)
    tmp = a[2] * b[2]
    out += tmp
    np.multiply(a[1], b[1], out=tmp)
    out += tmp
    out += 0.0
    return out


def _live_observer_terms(lit: _LitFacets, obs: np.ndarray):
    """(f, counts, live) of the live (receiver, facet) entries of the (s, 3)
    ``obs``, those with ``cos_s > 0``, receiver by receiver in facet order:
    their lit-facet columns ``f``, the (s,) live counts, and the (5, entries)
    block of the unit direction (3 rows), the distance and the cosine from
    the facet to the receiver."""
    n_rx, n_lit = len(obs), lit.table.shape[1]
    grid = np.empty((5, n_rx, n_lit))
    ks = grid[:3]
    np.subtract(obs.T[:, :, None], lit.table[:3, None, :], out=ks)
    ks /= norms(ks.T, out=grid[3].T).T
    visible = _dot(ks, lit.table[3:6, None, :], out=grid[4]) > 0.0
    at = np.flatnonzero(visible)
    counts = np.count_nonzero(visible, axis=1)
    f = at - np.repeat(np.arange(0, n_rx * n_lit, n_lit), counts)
    return f, counts, grid.reshape(5, -1).take(at, axis=1)


def _amplitudes(fields: np.ndarray, live: np.ndarray, phase_over_r: np.ndarray, carrier: CarrierConfig) -> np.ndarray:
    """Scalar facet amplitudes of the live entries, from their gathered
    ``fields`` (rows 6-24 of the lit-facet table), their ``live`` observer
    block and their ``phase_over_r``: plate RCS pattern, spreading and phase
    on both legs.  Overwrites the incident direction and cos_i rows of
    ``fields``."""
    lam = carrier.wavelength
    k = carrier.wavenumber
    r_s = live[3]
    diff = np.subtract(fields[0:3], live[0:3], out=fields[0:3])
    # (diff . tan_u, diff . tan_v), then the x and y pattern arguments
    arg = _dot(diff[:, None], fields[3:9].reshape(3, 2, -1))
    arg *= fields[9:11]
    # np.sinc(arg / pi) ** 2, np.sinc's operations in place
    arg /= math.pi
    arg *= np.pi
    arg[arg == 0.0] = np.finfo(float).eps
    sinc = np.sin(arg)
    sinc /= arg
    sinc *= sinc
    pattern = np.multiply(sinc[0], sinc[1], out=sinc[0])
    sigma = np.add(fields[12], live[4], out=fields[12])
    sigma *= 0.5
    sigma *= sigma
    sigma *= fields[11]
    sigma *= pattern
    sigma /= 4.0 * math.pi
    amp = np.sqrt(sigma, out=sigma)
    amp *= lam / (4.0 * math.pi)
    amp /= r_s
    return amp * np.exp(-1j * k * r_s) * phase_over_r


def _facet_sums(lit: _LitFacets, receivers: np.ndarray, carrier: CarrierConfig) -> tuple[np.ndarray, np.ndarray]:
    """Coherent facet sums at the (S, 3) ``receivers``: the (S, 2, 2)
    transfers and the (S,) counts of live facets, those lit by the source
    and visible from the receiver (``cos_s > 0``).

    Input basis: (V, H) of the per-facet incident direction; output basis:
    (V, H) of the direction pointing from the receiver back toward each
    facet.  Polarization per facet follows the PEC mirror rule, which is
    symmetric and therefore reciprocal.  Each pass takes as many receivers
    as ``FACET_ROW_BUDGET`` allows, forms their observer grid against every
    lit facet component by component, gathers the live entries and their
    facets' fields with one ``take`` each, and sums each receiver's own
    contiguous run of terms, in facet order.
    """
    n_rx = len(receivers)
    transfers = np.zeros((n_rx, 2, 2), dtype=complex)
    live_counts = np.zeros(n_rx, dtype=np.int64)
    n_lit = lit.table.shape[1]
    if not n_lit:
        return transfers, live_counts
    per_pass = max(1, FACET_ROW_BUDGET // n_lit)
    # every pass gathers its live entries' fields into one block of this
    # call, since a fresh block of up to 1 MB per pass costs page faults on
    # every pass; mode="clip" lets take write there without a buffer of its
    # own, and every f is in range
    gathered = lit.table[6:]
    n_fields = len(gathered)
    block = np.empty(n_fields * min(per_pass, n_rx) * n_lit)
    for s0 in range(0, n_rx, per_pass):
        f, counts, live = _live_observer_terms(lit, receivers[s0 : s0 + per_pass])
        fields = block[: n_fields * len(f)].reshape(n_fields, -1)
        gathered.take(f, axis=1, out=fields, mode="clip")
        amp = _amplitudes(fields, live, lit.phase_over_r.take(f), carrier)
        bv, bh = spherical_basis(np.negative(live[0:3], out=live[0:3]), columns=True)
        # the (V, H) output rows against the (V, H) input columns
        mvh = fields[13:19].reshape(3, 2, -1)
        dots = np.empty((2, 2, len(f)))
        _dot(bv[:, None], mvh, out=dots[0])
        _dot(bh[:, None], mvh, out=dots[1])
        terms = np.multiply(amp, dots.reshape(4, -1))

        live_counts[s0 : s0 + len(counts)] = counts
        stop = np.cumsum(counts).tolist()
        for s, (a, b) in enumerate(zip([0] + stop[:-1], stop), start=s0):
            if b > a:
                np.sum(terms[:, a:b], axis=1, out=transfers[s].reshape(4))
    return transfers, live_counts


def inside_scatterers(scatterers: list, points) -> np.ndarray:
    """(P, M) mask of the (P, 3) ``points`` that lie within ``EPS_GEOM`` of
    the body of each of the M cylinders ``scatterers``."""
    rel = np.reshape(points, (-1, 1, 3)) - np.reshape([c.base_center for c in scatterers], (1, -1, 3))
    height, radius = np.array([(c.height, c.radius) for c in scatterers]).reshape(-1, 2).T
    z = rel[..., 2]
    return (z > -EPS_GEOM) & (z < height + EPS_GEOM) & (np.hypot(rel[..., 0], rel[..., 1]) < radius + EPS_GEOM)


def po_scattered_matrix(mesh: FacetMesh, src: np.ndarray, obs: np.ndarray, carrier: CarrierConfig) -> np.ndarray:
    """Scattered 2x2 transfer from the antenna at ``src`` to the one at
    ``obs``: the one-receiver case of the engine's facet sum."""
    src = np.asarray(src, dtype=float)
    obs = np.asarray(obs, dtype=float)
    if mesh.scatterer is not None and inside_scatterers([mesh.scatterer], [src, obs]).any():
        raise ValueError("antenna endpoint lies inside the scatterer body")
    return _facet_sums(_lit_facets(mesh, src, carrier), obs[None], carrier)[0][0]


# ----------------------------------------------------------------------
# path enumeration
# ----------------------------------------------------------------------
#: the keys of :attr:`ScatterEngine.counters`
SCATTER_COUNTERS = ("snapshots", "legs_tested", "echoes", "facet_terms")


class ScatterEngine:
    """The scattering of one transmitter, ``tx``: at construction, the lit
    facets of each scatterer that ``tx`` sees, and per call the echoes at
    any receivers.  No antenna may lie inside a scatterer body.

    ``counters`` holds its deterministic work counts: the receivers it
    evaluated (``snapshots``), the antenna-to-reference legs it gave the
    occlusion query (``legs_tested``), the transmitter's at construction
    included, the ``echoes`` it returned and the live facet terms it summed
    (``facet_terms``).
    """

    def __init__(self, scene: Scene, carrier: CarrierConfig, tx):
        tx = np.asarray(tx, dtype=float)
        if inside_scatterers(scene.scatterers, tx).any():
            raise ValueError("antenna endpoint lies inside the scatterer body")
        self.scene = scene
        self.carrier = carrier
        self.tx = tx
        # the scatterers in the row order of their echoes, which all carry
        # the scatter tag and one interaction: by signature, so S(10:0)
        # comes before S(9:0)
        signatures = [token(SCATTERING, s.id, 0) for s in scene.scatterers]
        order = sorted(range(len(signatures)), key=signatures.__getitem__)
        scatterers = [scene.scatterers[m] for m in order]
        self._signatures = [signatures[m] for m in order]
        self._refs = np.array([s.reference_point for s in scatterers], dtype=float)
        self.counters = dict.fromkeys(SCATTER_COUNTERS, 0)
        # the lit facets of every scatterer the transmitter sees (None for
        # the others); the full meshes are not kept
        sees = self._clear(tx[None])[0] if scatterers else []
        self._lit = [
            _lit_facets(mesh_cylinder(cyl, carrier), tx, carrier) if clear else None
            for cyl, clear in zip(scatterers, sees)
        ]

    def _clear(self, points: np.ndarray) -> np.ndarray:
        """(P, scatterers) mask of the straight legs from each of the (P, 3)
        ``points`` to each scatterer's reference point that are
        unobstructed, from one batched occlusion query."""
        n_pts, n_refs = len(points), len(self._refs)
        starts = np.repeat(points, n_refs, axis=0)
        ends = np.tile(self._refs, (n_pts, 1))
        self.counters["legs_tested"] += len(starts)
        return ~self.scene.segments_blocked(starts, ends).reshape(n_pts, n_refs)

    def paths(self, receivers) -> list[PathRows]:
        """The echoes at each of the (S, 3) ``receivers``, one
        :class:`~railchan.rays.PathRows` block per receiver in
        :func:`~railchan.rays.path_order`, each row with its polyline: one
        echo per scatterer whose direct legs from the transmitter and from
        that receiver are both clear."""
        receivers = np.asarray(receivers, dtype=float)
        if receivers.ndim != 2 or receivers.shape[1] != 3:
            raise ValueError(f"receivers must be an (S, 3) array, got shape {receivers.shape}")
        if inside_scatterers(self.scene.scatterers, receivers).any():
            raise ValueError("antenna endpoint lies inside the scatterer body")
        n_rx = len(receivers)
        if not self.scene.scatterers or not n_rx:
            return [PathRows.empty() for _ in range(n_rx)]
        self.counters["snapshots"] += n_rx
        clear = self._clear(receivers)
        transfers = np.zeros((n_rx, len(self._refs), 2, 2), dtype=complex)
        for m, lit in enumerate(self._lit):
            if lit is None:
                clear[:, m] = False
                continue
            rows = np.flatnonzero(clear[:, m])
            if len(rows):
                transfers[rows, m], live = _facet_sums(lit, receivers[rows], self.carrier)
                self.counters["facet_terms"] += int(live.sum())

        rx_of, ref_of = np.nonzero(clear)
        self.counters["echoes"] += len(rx_of)
        verts = np.empty((len(rx_of), 3, 3))
        verts[:, 0] = self.tx
        verts[:, 1] = self._refs[ref_of]
        verts[:, 2] = receivers[rx_of]
        signatures = [self._signatures[k] for k in ref_of.tolist()]
        echoes = PathRows.from_polylines(signatures, TAG_SCATTER, verts, transfers[rx_of, ref_of])
        return echoes.split(rx_of, n_rx)
