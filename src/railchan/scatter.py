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

:class:`ScatterEngine` tests the direct legs of an antenna in one occlusion
query and keeps the transmitter's incident facet terms while it stays put.
The closed-form RCS oracles call :func:`po_scattered_matrix` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em import CarrierConfig, spherical_basis
from .rays import SCATTERING, TAG_SCATTER, Interaction, RayPath
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
    reference_point: np.ndarray
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
        reference_point=np.asarray(cyl.reference_point, dtype=float),
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
        reference_point=center,
        scatterer=None,
    )


# ----------------------------------------------------------------------
# the facet sum
# ----------------------------------------------------------------------
@dataclass
class _IncidentTerms:
    """Source-side facet quantities, reusable while the source stays put.

    ``phase_over_r`` is exp(-jk r_i)/r_i; ``mv``/``mh`` are the incident
    (V, H) basis vectors after the PEC mirror rule E -> 2 (n.E) n - E.
    """

    ki: np.ndarray
    cos_i: np.ndarray
    phase_over_r: np.ndarray
    mv: np.ndarray
    mh: np.ndarray


def _incident_terms(mesh: FacetMesh, src: np.ndarray, wavenumber: float) -> _IncidentTerms:
    vi = mesh.centers - src[None, :]
    r_i = np.linalg.norm(vi, axis=1)
    ki = vi / r_i[:, None]
    cos_i = -np.einsum("ij,ij->i", ki, mesh.normals)
    phase_over_r = np.exp(-1j * wavenumber * r_i) / r_i
    ev_i, eh_i = spherical_basis(ki)
    nrm = mesh.normals
    mv = 2.0 * np.einsum("ij,ij->i", nrm, ev_i)[:, None] * nrm - ev_i
    mh = 2.0 * np.einsum("ij,ij->i", nrm, eh_i)[:, None] * nrm - eh_i
    return _IncidentTerms(ki=ki, cos_i=cos_i, phase_over_r=phase_over_r, mv=mv, mh=mh)


def _observer_terms(mesh: FacetMesh, obs: np.ndarray, cos_i: np.ndarray):
    """(ks, r_s, cos_s, live): unit directions, distances and cosines from
    the facets to the observer, and the mask of the facets that are lit by
    the source (``cos_i > 0``) and visible from the observer."""
    vs = obs[None, :] - mesh.centers
    r_s = np.linalg.norm(vs, axis=1)
    ks = vs / r_s[:, None]
    cos_s = np.einsum("ij,ij->i", ks, mesh.normals)
    return ks, r_s, cos_s, (cos_i > 0.0) & (cos_s > 0.0)


def _facet_sum(
    mesh: FacetMesh,
    src: np.ndarray,
    obs: np.ndarray,
    carrier: CarrierConfig,
    incident: _IncidentTerms | None = None,
) -> np.ndarray:
    """Coherent facet sum: 2x2 transfer with per-facet spreading and phase.

    Input basis: (V, H) of the per-facet incident direction; output basis:
    (V, H) of the direction pointing from the observer back toward each
    facet.  Polarization per facet follows the PEC mirror rule
    E -> 2 (n.E) n - E, which is symmetric and therefore reciprocal.
    """
    lam = carrier.wavelength
    k = carrier.wavenumber
    if incident is None:
        incident = _incident_terms(mesh, src, k)
    ks, r_s, cos_s, live = _observer_terms(mesh, obs, incident.cos_i)
    t = np.zeros((2, 2), dtype=complex)
    if not np.any(live):
        return t
    ki = incident.ki[live]
    cos_i = incident.cos_i[live]
    pref_i = incident.phase_over_r[live]
    mv, mh = incident.mv[live], incident.mh[live]
    ks, r_s, cos_s = ks[live], r_s[live], cos_s[live]
    tu, tv = mesh.tan_u[live], mesh.tan_v[live]
    w, h, area = mesh.width[live], mesh.height[live], mesh.area[live]

    diff = ki - ks
    x_arg = 0.5 * k * w * np.einsum("ij,ij->i", diff, tu)
    y_arg = 0.5 * k * h * np.einsum("ij,ij->i", diff, tv)
    pattern = np.sinc(x_arg / math.pi) ** 2 * np.sinc(y_arg / math.pi) ** 2
    sigma = 4.0 * math.pi * (area / lam) ** 2 * (0.5 * (cos_i + cos_s)) ** 2 * pattern

    amp = (
        (lam / (4.0 * math.pi))
        * np.sqrt(sigma / (4.0 * math.pi))
        / r_s
        * np.exp(-1j * k * r_s)
        * pref_i
    )

    bv, bh = spherical_basis(-ks)
    t[0, 0] = np.sum(amp * np.einsum("ij,ij->i", bv, mv))
    t[0, 1] = np.sum(amp * np.einsum("ij,ij->i", bv, mh))
    t[1, 0] = np.sum(amp * np.einsum("ij,ij->i", bh, mv))
    t[1, 1] = np.sum(amp * np.einsum("ij,ij->i", bh, mh))
    return t


def _inside_bounding_cylinder(cyl: CylinderScatterer, p: np.ndarray) -> bool:
    """True when ``p`` lies within ``EPS_GEOM`` of the body of ``cyl``."""
    rel = p - np.asarray(cyl.base_center, dtype=float)
    if not (-EPS_GEOM < rel[2] < cyl.height + EPS_GEOM):
        return False
    return math.hypot(rel[0], rel[1]) < cyl.radius + EPS_GEOM


def po_scattered_matrix(
    mesh: FacetMesh,
    src: np.ndarray,
    obs: np.ndarray,
    carrier: CarrierConfig,
    incident: _IncidentTerms | None = None,
) -> np.ndarray:
    """Scattered 2x2 transfer from the antenna at ``src`` to the one at ``obs``.

    The coherent facet sum between the two antennas; ``incident`` optionally
    injects precomputed source-side facet terms for ``src``.
    """
    for p in (src, obs):
        if mesh.scatterer is not None and _inside_bounding_cylinder(mesh.scatterer, p):
            raise ValueError("antenna endpoint lies inside the scatterer body")
    return _facet_sum(mesh, src, obs, carrier, incident=incident)


# ----------------------------------------------------------------------
# path enumeration
# ----------------------------------------------------------------------
class ScatterEngine:
    """Per-scene scattering helper with cached facet meshes."""

    def __init__(self, scene: Scene, carrier: CarrierConfig):
        self.scene = scene
        self.carrier = carrier
        self.meshes = [mesh_cylinder(s, carrier) for s in scene.scatterers]
        self._refs = np.array([m.reference_point for m in self.meshes])
        self._tx_key: bytes | None = None
        self._incident: list[_IncidentTerms | None] = []

    def _clear(self, point: np.ndarray) -> np.ndarray:
        """Whether the straight leg from ``point`` to each mesh's reference
        point is unobstructed, from one batched occlusion query."""
        return ~self.scene.segments_blocked(np.broadcast_to(point, self._refs.shape), self._refs)

    def _prepare_tx(self, tx: np.ndarray):
        """Incident facet terms of every mesh the transmitter sees (None for
        the others), once per transmitter."""
        key = tx.tobytes()
        if self._tx_key == key:
            return
        k = self.carrier.wavenumber
        self._incident = [
            _incident_terms(mesh, tx, k) if clear else None for mesh, clear in zip(self.meshes, self._clear(tx))
        ]
        self._tx_key = key

    def paths(self, tx, rx) -> list[RayPath]:
        tx = np.asarray(tx, dtype=float)
        rx = np.asarray(rx, dtype=float)
        out: list[RayPath] = []
        if not self.meshes:
            return out
        self._prepare_tx(tx)
        for mesh, incident, clear in zip(self.meshes, self._incident, self._clear(rx)):
            if incident is None or not clear:
                continue
            t = po_scattered_matrix(mesh, tx, rx, self.carrier, incident=incident)
            s_rec = Interaction(kind=SCATTERING, object_id=mesh.scatterer.id, element_id=0)
            verts = np.array([tx, mesh.reference_point, rx])
            out.append(RayPath.from_polyline((s_rec,), verts, t, TAG_SCATTER))
        return out
