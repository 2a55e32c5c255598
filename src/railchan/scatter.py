"""Facet-summation scattering from discrete cylinders.

Cylindrical scatterers are meshed into half-wavelength tangent-plane facets.
Each illuminated-and-visible facet contributes a coherent term built from the
analytic bistatic radar cross-section of a PEC rectangular plate, with
per-facet spherical spreading and phase so that no far-field assumption is
made at the whole-body level.  Incident and scattered legs may include one
specular facade reflection each; the reflected leg is handled with the exact
mirror image of the antenna for per-facet distances plus a constant
polarization/Fresnel operator evaluated on the reference geometry.

:class:`ScatterEngine` alone decides which legs exist: it tests the direct
legs of a snapshot side in one occlusion query and builds the clear ones with
:func:`direct_leg`, and :func:`reflected_legs` returns only clear legs, so
every leg that reaches the facet sum is unobstructed.  The closed-form RCS
oracles call :func:`direct_leg` and :func:`po_scattered_matrix` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .em import CarrierConfig, leg_polarization_operator
from .rays import REFLECTION, SCATTERING, TAG_SCATTER, Interaction, RayPath
from .scene import EPS_GEOM, CylinderScatterer, Scene
from .specular import _facade_crossing, _polylines

_J_FLIP = np.diag([1.0, -1.0]).astype(complex)

LEG_POLICIES = ("direct-only", "direct+1-reflection")


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
# legs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScatterLeg:
    """Antenna-to-reference-point polyline with precomputed operators.

    ``outbound_operator`` is the polarization transform for traversal from
    the antenna toward the reference point, ``inbound_operator`` for the
    reverse traversal; ``effective_point`` is the antenna position, mirrored
    across the facade plane when the leg contains a reflection, so that
    per-facet distances along the reflected leg are exact.
    """

    vertices: np.ndarray
    interactions: tuple
    effective_point: np.ndarray
    outbound_operator: np.ndarray = field(default_factory=lambda: _J_FLIP.copy())
    inbound_operator: np.ndarray = field(default_factory=lambda: _J_FLIP.copy())

    @property
    def antenna(self) -> np.ndarray:
        return self.vertices[0]


def direct_leg(point, reference_point) -> ScatterLeg:
    """Straight antenna-to-reference leg; whether it is clear is the caller's
    occlusion test."""
    p = np.asarray(point, dtype=float)
    return ScatterLeg(vertices=np.array([p, reference_point]), interactions=(), effective_point=p)


def reflected_legs(
    scene: Scene, point, reference_points, carrier: CarrierConfig
) -> list[list[ScatterLeg]]:
    """All single-facade-reflection legs from an antenna to each reference.

    ``reference_points`` is (M, 3); the result holds one list of legs per
    reference point, in facade order.  Each leg carries the antenna's mirror
    image and constant polarization operators evaluated on the reference
    geometry.  Occluded candidates are dropped; one facade scan and one
    occlusion query cover the candidates of every reference point.
    """
    p = np.asarray(point, dtype=float)
    refs = np.asarray(reference_points, dtype=float)
    n = scene.fac_normal
    d_p = n @ p - scene.fac_offset
    d_ref = refs @ n.T - scene.fac_offset[None, :]
    m, f = np.nonzero((d_p > EPS_GEOM)[None, :] & (d_ref > EPS_GEOM))
    images = p[None, :] - 2.0 * d_p[f, None] * n[f]
    pts, ok = _facade_crossing(scene, images, refs[m], f)
    verts = _polylines(p, [pts[ok]], refs[m[ok]])
    blocked = scene.segments_blocked(verts[:, :-1].reshape(-1, 3), verts[:, 1:].reshape(-1, 3))
    clear = ~blocked.reshape(-1, 2).any(axis=1)
    legs: list[list[ScatterLeg]] = [[] for _ in refs]
    for i, fi, image, v in zip(m[ok][clear], f[ok][clear], images[ok][clear], verts[clear]):
        rec = Interaction(REFLECTION, int(scene.fac_object[fi]), int(scene.fac_element[fi]))
        legs[i].append(
            ScatterLeg(
                vertices=v,
                interactions=(rec,),
                effective_point=image,
                outbound_operator=leg_polarization_operator(v, (rec,), scene, carrier),
                inbound_operator=leg_polarization_operator(v[::-1], (rec,), scene, carrier),
            )
        )
    return legs


# ----------------------------------------------------------------------
# the facet sum
# ----------------------------------------------------------------------
def _batched_spherical_basis(dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized twin of em.spherical_basis (same pole fallback)."""
    rho = np.hypot(dirs[:, 0], dirs[:, 1])
    safe = rho > 1e-12
    inv = np.where(safe, rho, 1.0)
    cos_phi = np.where(safe, dirs[:, 0] / inv, 1.0)
    sin_phi = np.where(safe, dirs[:, 1] / inv, 0.0)
    cos_theta = dirs[:, 2]
    sin_theta = rho
    v = np.stack([cos_theta * cos_phi, cos_theta * sin_phi, -sin_theta], axis=1)
    h = np.stack([-sin_phi, cos_phi, np.zeros(len(dirs))], axis=1)
    pole = ~safe
    if np.any(pole):
        v[pole] = 0.0
        v[pole, 0] = np.sign(dirs[pole, 2])
        h[pole] = 0.0
        h[pole, 1] = 1.0
    return v, h


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
    ev_i, eh_i = _batched_spherical_basis(ki)
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

    bv, bh = _batched_spherical_basis(-ks)
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
    incident_leg: ScatterLeg,
    scattered_leg: ScatterLeg,
    carrier: CarrierConfig,
    incident: _IncidentTerms | None = None,
) -> np.ndarray:
    """Scattered 2x2 transfer for one pair of clear legs.

    The matrix chains the incident leg's polarization operator, the coherent
    facet sum evaluated between the legs' effective (possibly mirrored)
    endpoints, and the scattered leg's reverse-traversal operator.  The
    path's delay follows the reference-point polyline (see
    ``RayPath.from_polyline``); per-facet differences are absorbed into the
    facet phases.  ``incident`` optionally injects precomputed source-side
    facet terms for the incident leg's effective point.
    """
    for leg in (incident_leg, scattered_leg):
        if np.linalg.norm(leg.vertices[-1] - mesh.reference_point) > 1e-9:
            raise ValueError("leg does not terminate at the mesh reference point")
        if mesh.scatterer is not None and _inside_bounding_cylinder(mesh.scatterer, leg.antenna):
            raise ValueError("antenna endpoint lies inside the scatterer body")
    t_po = _facet_sum(
        mesh,
        incident_leg.effective_point,
        scattered_leg.effective_point,
        carrier,
        incident=incident,
    )
    return scattered_leg.inbound_operator @ _J_FLIP @ t_po @ _J_FLIP @ incident_leg.outbound_operator


# ----------------------------------------------------------------------
# path enumeration
# ----------------------------------------------------------------------
class ScatterEngine:
    """Per-scene scattering helper with cached facet meshes."""

    def __init__(
        self,
        scene: Scene,
        carrier: CarrierConfig,
        leg_policy: str = "direct-only",
    ):
        if leg_policy not in LEG_POLICIES:
            raise ValueError(f"unknown leg policy {leg_policy!r}; expected one of {LEG_POLICIES}")
        self.scene = scene
        self.carrier = carrier
        self.leg_policy = leg_policy
        self.meshes = [mesh_cylinder(s, carrier) for s in scene.scatterers]
        self._tx_key: bytes | None = None
        self._tx_side: list[list[tuple[ScatterLeg, _IncidentTerms]]] = []

    def _legs(self, point: np.ndarray) -> list[list[ScatterLeg]]:
        """Unobstructed legs from ``point`` to each mesh's reference point."""
        refs = np.array([m.reference_point for m in self.meshes])
        # one batched occlusion query covers the direct legs to every mesh
        blocked = self.scene.segments_blocked(np.broadcast_to(point, refs.shape), refs)
        sides = [[] if b else [direct_leg(point, ref)] for ref, b in zip(refs, blocked)]
        if self.leg_policy == "direct+1-reflection":
            for legs, reflected in zip(sides, reflected_legs(self.scene, point, refs, self.carrier)):
                legs.extend(reflected)
        return sides

    def _prepare_tx_side(self, tx: np.ndarray):
        """Transmitter legs and their incident facet terms, once per transmitter."""
        key = tx.tobytes()
        if self._tx_key == key:
            return
        k = self.carrier.wavenumber
        self._tx_side = [
            [(leg, _incident_terms(mesh, leg.effective_point, k)) for leg in legs]
            for mesh, legs in zip(self.meshes, self._legs(tx.copy()))
        ]
        self._tx_key = key

    def paths(self, tx, rx) -> list[RayPath]:
        tx = np.asarray(tx, dtype=float)
        rx = np.asarray(rx, dtype=float)
        out: list[RayPath] = []
        if not self.meshes:
            return out
        self._prepare_tx_side(tx)
        for mesh, tx_legs, rx_legs in zip(self.meshes, self._tx_side, self._legs(rx)):
            s_rec = Interaction(kind=SCATTERING, object_id=mesh.scatterer.id, element_id=0)
            for leg_in, incident in tx_legs:
                for leg_out in rx_legs:
                    t = po_scattered_matrix(mesh, leg_in, leg_out, self.carrier, incident=incident)
                    inters = leg_in.interactions + (s_rec,) + tuple(reversed(leg_out.interactions))
                    verts = np.vstack([leg_in.vertices, leg_out.vertices[::-1][1:]])
                    out.append(RayPath.from_polyline(inters, verts, t, TAG_SCATTER))
        return out
