"""Electromagnetic primitives.

Conventions used throughout:

* Engineering time convention exp(+j omega t); propagation over distance d
  multiplies by exp(-j k d).
* Both antennas are ideal dual-polarized 0 dBi antennas; no gain or
  pattern enters a transfer.  A path's transfer amplitude includes
  spreading: line of sight over distance d has magnitude lambda / (4 pi d),
  so |T|^2 is the Friis power gain between the two antennas.
* Polarization: V = theta_hat and H = phi_hat of the global spherical frame
  evaluated at the departure direction (transmit side) and at the direction
  pointing from the receiver back toward the last path vertex (receive
  side).  With that receive convention, a pure line-of-sight path has the
  transfer matrix g * diag(1, -1), and reversing a path transposes the
  matrix.
* One walker, :func:`leg_polarization_operator`, follows the polarization
  basis along a polyline through every interaction; :func:`compose_path_matrix`
  adds the spreading, the phase and the knife-edge losses to its result.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from railchan.rays import (
    C0,
    EDGE_DIFFRACTION,
    REFLECTION,
    ROOFTOP_DIFFRACTION,
    polyline_length,
)
from railchan.scene import GROUND_OBJECT_ID, Material, Scene

#: Vacuum permittivity, F/m.
EPS0 = 8.8541878128e-12

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CarrierConfig:
    """Carrier frequency and derived quantities."""

    frequency_hz: float

    def __post_init__(self):
        if self.frequency_hz <= 0:
            raise ValueError(f"carrier frequency must be positive, got {self.frequency_hz}")

    @property
    def wavelength(self) -> float:
        return C0 / self.frequency_hz

    @property
    def wavenumber(self) -> float:
        return _TWO_PI / self.wavelength


def spherical_basis(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta_hat, phi_hat) of the global spherical frame at a direction.

    theta_hat points toward increasing polar angle (downward for horizontal
    directions), phi_hat toward increasing azimuth; theta_hat x phi_hat
    equals the unit direction.  At the poles the azimuth is taken as 0.
    """
    d = np.asarray(direction, dtype=float)
    norm = math.sqrt(float(d[0]) ** 2 + float(d[1]) ** 2 + float(d[2]) ** 2)
    if norm == 0.0:
        raise ValueError("zero direction has no polarization basis")
    d = d / norm
    rho = math.hypot(d[0], d[1])
    if rho < 1e-12:
        sign = 1.0 if d[2] > 0 else -1.0
        theta_hat = np.array([sign, 0.0, 0.0])
        phi_hat = np.array([0.0, 1.0, 0.0])
        return theta_hat, phi_hat
    cos_phi, sin_phi = d[0] / rho, d[1] / rho
    cos_theta, sin_theta = d[2], rho
    theta_hat = np.array([cos_theta * cos_phi, cos_theta * sin_phi, -sin_theta])
    phi_hat = np.array([-sin_phi, cos_phi, 0.0])
    return theta_hat, phi_hat


def free_space_transport(distance: float, carrier: CarrierConfig) -> complex:
    """Spherical-spreading amplitude with propagation phase over a distance."""
    if distance <= 0.0:
        raise ValueError(f"propagation distance must be positive, got {distance}")
    lam = carrier.wavelength
    return (lam / (4.0 * math.pi * distance)) * cmath.exp(-1j * _TWO_PI * distance / lam)


def complex_permittivity(material: Material, carrier: CarrierConfig) -> complex:
    """Relative permittivity with conductive loss, eps_r - j sigma/(2 pi f eps0)."""
    return material.eps_r - 1j * material.sigma / (_TWO_PI * carrier.frequency_hz * EPS0)


def fresnel_reflection(
    material: Material, incidence_angle: float, carrier: CarrierConfig
) -> tuple[complex, complex]:
    """(Gamma_TE, Gamma_TM) for a lossy half-space; angle measured from the normal.

    TE is the component perpendicular to the plane of incidence, TM the
    component in it.  A perfect conductor returns (-1, +1) at every angle.
    """
    if not 0.0 <= incidence_angle < math.pi / 2:
        raise ValueError(f"incidence angle must be in [0, pi/2), got {incidence_angle}")
    if material.pec:
        return (-1.0 + 0.0j, +1.0 + 0.0j)
    eps = complex_permittivity(material, carrier)
    sin_i = math.sin(incidence_angle)
    cos_i = math.cos(incidence_angle)
    root = np.sqrt(eps - sin_i * sin_i + 0j)
    gamma_te = (cos_i - root) / (cos_i + root)
    gamma_tm = (eps * cos_i - root) / (eps * cos_i + root)
    return complex(gamma_te), complex(gamma_tm)


def knife_edge_v(h: float, d1: float, d2: float, wavelength: float) -> float:
    """Fresnel-Kirchhoff diffraction parameter for one knife edge.

    ``h`` is the edge clearance above the straight line between the two
    neighbor points (positive when the edge obstructs), ``d1``/``d2`` the
    distances from the edge to those points.
    """
    return h * math.sqrt(2.0 * (d1 + d2) / (wavelength * d1 * d2))


def knife_edge_diffraction(v: float) -> complex:
    """Complex knife-edge coefficient F(v); F(-inf) = 1, |F(0)| = 1/2."""
    # scipy.special is imported on first use: it costs about 0.3 s of startup
    from scipy.special import fresnel

    s, c = fresnel(v)
    return (1.0 + 1.0j) / 2.0 * ((0.5 - c) - 1j * (0.5 - s))


def transition_function(x):
    """Transition function F(x) = 2j sqrt(x) e^{jx} * integral_{sqrt(x)}^inf e^{-j tau^2} d tau.

    Smoothly bridges the diffraction coefficient through shadow boundaries;
    F -> 1 for large arguments.  Accepts scalars or arrays.
    """
    from scipy.special import modfresnelm

    arr = np.asarray(x, dtype=float)
    sqrt_x = np.sqrt(arr)
    fm = modfresnelm(sqrt_x)[0]
    out = 2j * sqrt_x * np.exp(1j * arr) * fm
    if np.ndim(x) == 0:
        return complex(out)
    return out


def _diffraction_term(beta: float, n: float, k: float, L: float, sign1: int) -> complex:
    """One cotangent/transition term of the wedge diffraction coefficient.

    Near its shadow/reflection boundary the cotangent pole and the vanishing
    transition function cancel; inside a small window the closed-form limit
    replaces the product to keep the evaluation finite and smooth.
    """
    big_n = round((beta + sign1 * math.pi) / (_TWO_PI * n))
    eps = beta - sign1 * (_TWO_PI * n * big_n - math.pi)
    if abs(eps) < 1e-6:
        sgn = 1.0 if eps >= 0 else -1.0
        val = math.sqrt(_TWO_PI * k * L) * sgn - 2.0 * k * L * eps * cmath.exp(1j * math.pi / 4)
        return n * cmath.exp(1j * math.pi / 4) * val
    a = 2.0 * math.cos((_TWO_PI * n * big_n - beta) / 2.0) ** 2
    cot = 1.0 / math.tan((math.pi + sign1 * beta) / (2.0 * n))
    return cot * transition_function(k * L * a)


def utd_coefficients(
    n_index: float,
    wavenumber: float,
    beta0: float,
    phi_inc: float,
    phi_out: float,
    distance_param: float,
    r_soft: complex,
    r_hard: complex,
) -> tuple[complex, complex]:
    """Uniform wedge diffraction coefficients (D_soft, D_hard).

    ``n_index`` parameterizes the exterior wedge angle n*pi; ``phi_inc`` and
    ``phi_out`` are measured from the o-face in the exterior region;
    ``beta0`` is the skew angle between ray and edge; ``distance_param`` is
    the spherical-wave distance parameter s s' sin^2(beta0) / (s + s').
    Both faces share one material, so one face reflection coefficient per
    polarization multiplies the two reflection-boundary terms; -1/+1
    recover the perfectly-conducting soft/hard cases.
    """
    if distance_param <= 0:
        raise ValueError("distance parameter must be positive")
    sin_b = math.sin(beta0)
    if sin_b <= 1e-9:
        raise ValueError("ray grazing along the edge is outside the model")
    beta_d = phi_out - phi_inc
    beta_s = phi_out + phi_inc
    t1 = _diffraction_term(beta_d, n_index, wavenumber, distance_param, +1)
    t2 = _diffraction_term(beta_d, n_index, wavenumber, distance_param, -1)
    t3 = _diffraction_term(beta_s, n_index, wavenumber, distance_param, +1)
    t4 = _diffraction_term(beta_s, n_index, wavenumber, distance_param, -1)
    pref = -cmath.exp(-1j * math.pi / 4) / (
        2.0 * n_index * math.sqrt(_TWO_PI * wavenumber) * sin_b
    )
    # two products, not r * (t3 + t4), which rounds differently
    d_soft = pref * (t1 + t2 + r_soft * t3 + r_soft * t4)
    d_hard = pref * (t1 + t2 + r_hard * t3 + r_hard * t4)
    return d_soft, d_hard


def _norm3(v) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _cross3(a, b) -> np.ndarray:
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def _unit(v: np.ndarray) -> np.ndarray:
    return v / _norm3(v)


def _rotation_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimal rotation matrix taking unit vector a to unit vector b."""
    c = float(np.dot(a, b))
    axis = _cross3(a, b)
    s = _norm3(axis)
    if s < 1e-12:
        if c > 0:
            return np.eye(3)
        # antiparallel: rotate by pi about any perpendicular axis
        perp = np.array([1.0, 0.0, 0.0])
        if abs(a[0]) > 0.9:
            perp = np.array([0.0, 1.0, 0.0])
        axis = _unit(_cross3(a, perp))
        return 2.0 * np.outer(axis, axis) - np.eye(3)
    axis = axis / s
    kmat = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + s * kmat + (1 - c) * (kmat @ kmat)


def _reflection_frame(k_in: np.ndarray, normal: np.ndarray):
    """(e_perp, e_par_in, e_par_out, k_out, cos_incidence) for a mirror."""
    cos_i = -float(np.dot(k_in, normal))
    if cos_i < 0:
        normal = -normal
        cos_i = -cos_i
    k_out = k_in + 2.0 * cos_i * normal
    perp = _cross3(k_in, normal)
    nrm = _norm3(perp)
    if nrm < 1e-9:
        # normal incidence: any transverse direction works (TE and TM
        # coefficients act identically up to the sign convention here)
        perp, _ = spherical_basis(k_in)
    else:
        perp = perp / nrm
    par_in = _cross3(perp, k_in)
    par_out = _cross3(perp, k_out)
    return perp, par_in, par_out, k_out, min(cos_i, 1.0)


def _facade_normal_material(scene: Scene, rec):
    if rec.object_id == GROUND_OBJECT_ID:
        return np.array([0.0, 0.0, 1.0]), scene.ground_material
    _, _, _, _, normal, material = scene.facade_frame(rec.object_id, rec.element_id)
    return normal, material


def _apply_reflection(b_mat, k_in, scene, rec, carrier):
    normal, material = _facade_normal_material(scene, rec)
    perp, par_in, par_out, k_out, cos_i = _reflection_frame(k_in, normal)
    theta_i = math.acos(min(1.0, cos_i))
    theta_i = min(theta_i, math.pi / 2 - 1e-12)
    gamma_te, gamma_tm = fresnel_reflection(material, theta_i, carrier)
    c_perp = perp @ b_mat
    c_par = par_in @ b_mat
    out = gamma_te * np.outer(perp, c_perp) + gamma_tm * np.outer(par_out, c_par)
    return out, k_out


def _wedge_face_coefficients(wedge, phi_inc, phi_out, carrier):
    """(soft, hard) Fresnel coefficients of the wedge faces, which share one
    material, at a symmetric effective angle.

    The effective grazing angle (pi - |phi_out - phi_inc|)/2 equals the
    geometric-optics grazing angle at each reflection boundary and is
    symmetric under exchanging source and observer, which keeps composed
    paths exactly reciprocal.
    """
    grazing = (math.pi - abs(phi_out - phi_inc)) / 2.0
    cos_theta = abs(math.sin(grazing))
    theta = math.acos(min(1.0, cos_theta))
    theta = min(theta, math.pi / 2 - 1e-12)
    return fresnel_reflection(wedge.material, theta, carrier)


def _apply_edge_diffraction(b_mat, k_in, k_out, s_before, s_after, scene, rec, carrier):
    wedge = scene.wedge(rec.object_id, rec.element_id)
    edge = wedge.edge_dir
    cos_beta = float(np.dot(k_in, edge))
    beta0 = math.acos(np.clip(cos_beta, -1.0, 1.0))
    # angles around the edge, measured from the o-face through the exterior
    d_src = -k_in
    p_src = d_src - np.dot(d_src, edge) * edge
    p_obs = k_out - np.dot(k_out, edge) * edge
    if _norm3(p_src) < 1e-12 or _norm3(p_obs) < 1e-12:
        raise ValueError("ray along the diffracting edge")
    p_src = _unit(p_src)
    p_obs = _unit(p_obs)
    phi_inc = math.atan2(np.dot(p_src, wedge.o_normal), np.dot(p_src, wedge.o_tangent)) % _TWO_PI
    phi_out = math.atan2(np.dot(p_obs, wedge.o_normal), np.dot(p_obs, wedge.o_tangent)) % _TWO_PI
    L = s_before * s_after * math.sin(beta0) ** 2 / (s_before + s_after)
    r_s, r_h = _wedge_face_coefficients(wedge, phi_inc, phi_out, carrier)
    d_soft, d_hard = utd_coefficients(
        n_index=wedge.n_index,
        wavenumber=carrier.wavenumber,
        beta0=beta0,
        phi_inc=phi_inc,
        phi_out=phi_out,
        distance_param=L,
        r_soft=r_s,
        r_hard=r_h,
    )
    # ray-fixed polarization bases: soft acts on the component in the
    # edge-fixed plane of incidence, hard on the perpendicular one
    phi_hat_in = -_cross3(edge, k_in)
    phi_hat_in = _unit(phi_hat_in)
    beta_hat_in = _cross3(phi_hat_in, k_in)
    phi_hat_out = _unit(_cross3(edge, k_out))
    beta_hat_out = _cross3(phi_hat_out, k_out)
    a_b = beta_hat_in @ b_mat
    a_p = phi_hat_in @ b_mat
    out = -(d_soft * np.outer(beta_hat_out, a_b) + d_hard * np.outer(phi_hat_out, a_p))
    spread = math.sqrt((s_before + s_after) / (s_before * s_after))
    return out * spread


def _rooftop_factor(vertices, i, carrier) -> complex:
    """Knife-edge coefficient for the rooftop vertex i from its neighbors."""
    prev_v, apex, next_v = vertices[i - 1], vertices[i], vertices[i + 1]
    chord = next_v - prev_v
    u = _unit(chord)
    rel = apex - prev_v
    offset = rel - np.dot(rel, u) * u
    h = _norm3(offset)
    if h > 0 and offset[2] < 0:
        h = -h
    d1 = _norm3(apex - prev_v)
    d2 = _norm3(next_v - apex)
    v = knife_edge_v(h, d1, d2, carrier.wavelength)
    return knife_edge_diffraction(v)


def leg_polarization_operator(vertices, interactions, scene: Scene, carrier: CarrierConfig) -> np.ndarray:
    """Polarization transform of a validated ray path, without spreading.

    ``vertices`` is the Tx...Rx polyline; ``interactions`` the records for
    the interior vertices in order.  The result maps (V, H) components
    launched along the first segment to (V, H) components in the arrival
    basis of the last segment (pointing back toward the previous vertex).
    It holds the Fresnel and UTD wedge coefficients and the basis rotations,
    but no free-space spreading, propagation phase or knife-edge losses.  A
    straight two-point path therefore returns diag(1, -1).
    """
    verts = np.asarray(vertices, dtype=float)
    if len(verts) != len(interactions) + 2:
        raise ValueError("vertex count does not match interaction count")
    seg = np.diff(verts, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    if np.any(seg_len < 1e-12):
        raise ValueError("zero-length path segment")
    dirs = seg / seg_len[:, None]
    total_len = float(np.sum(seg_len))

    v_hat, h_hat = spherical_basis(dirs[0])
    b_mat = np.empty((3, 2), dtype=complex)
    b_mat[:, 0] = v_hat
    b_mat[:, 1] = h_hat

    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    for i, rec in enumerate(interactions):
        k_in = dirs[i]
        k_out = dirs[i + 1]
        if rec.kind == REFLECTION:
            b_mat, k_ref = _apply_reflection(b_mat, k_in, scene, rec, carrier)
            if abs(float(np.dot(k_ref, k_out)) - 1.0) > 1e-6:
                raise ValueError("path geometry violates the specular law")
        elif rec.kind == EDGE_DIFFRACTION:
            s_before = float(cum[i + 1])
            s_after = total_len - s_before
            b_mat = _apply_edge_diffraction(
                b_mat, k_in, k_out, s_before, s_after, scene, rec, carrier
            )
        elif rec.kind == ROOFTOP_DIFFRACTION:
            b_mat = _rotation_between(k_in, k_out) @ b_mat
        else:
            raise ValueError(f"unsupported interaction kind {rec.kind!r}")

    v_b, h_b = spherical_basis(_unit(verts[-2] - verts[-1]))
    t_mat = np.empty((2, 2), dtype=complex)
    t_mat[0, :] = v_b @ b_mat
    t_mat[1, :] = h_b @ b_mat
    return t_mat


def compose_path_matrix(
    vertices: np.ndarray, interactions, scene: Scene, carrier: CarrierConfig
) -> np.ndarray:
    """2x2 polarimetric transfer matrix of a validated ray path.

    The :func:`leg_polarization_operator` of the path, times the spreading
    and phase over the total unfolded length and the knife-edge coefficient
    of every rooftop vertex.
    """
    verts = np.asarray(vertices, dtype=float)
    t_mat = leg_polarization_operator(verts, interactions, scene, carrier)
    amp = 1.0 + 0.0j
    for i, rec in enumerate(interactions):
        if rec.kind == ROOFTOP_DIFFRACTION:
            amp *= _rooftop_factor(verts, i + 1, carrier)
    return t_mat * (free_space_transport(polyline_length(verts), carrier) * amp)
