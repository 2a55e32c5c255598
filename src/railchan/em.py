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
* One walker, :func:`compose_path_matrix`, follows the polarization basis
  through every interaction of a family of K paths that share one
  interaction sequence: ``vertices`` is (K, n, 3), ``kinds`` names the
  interaction at each interior vertex and ``hosts`` holds one index array
  per interior vertex into the scene's facade table (reflections, rooftop
  edges) or wedge table (vertical-edge diffractions), and scales the result
  by the spreading, the phase and the knife-edge losses.  Every coefficient
  is evaluated on arrays, so a family costs a fixed number of numpy calls
  and a single path is the K = 1 case.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from railchan.rays import (
    C0,
    EDGE_DIFFRACTION,
    REFLECTION,
    ROOFTOP_DIFFRACTION,
    polyline_lengths,
)
from railchan.scene import Scene

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


def spherical_basis(directions, columns: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(theta_hat, phi_hat) of the global spherical frame at (..., 3) unit
    directions, each (..., 3); with ``columns``, at (3, ...) component-major
    directions, each (3, ...).

    theta_hat points toward increasing polar angle (downward for horizontal
    directions), phi_hat toward increasing azimuth; theta_hat x phi_hat
    equals the direction.  At the poles the azimuth is taken as 0.
    """
    d = np.asarray(directions, dtype=float)
    theta_hat = np.empty(d.shape)
    phi_hat = np.empty(d.shape)
    # both forms are written through component-major views; a component is
    # indexed [i, ...] so that a single direction gives 0-d views
    dirs, theta, phi = (d, theta_hat, phi_hat) if columns else (d.T, theta_hat.T, phi_hat.T)
    x, y, z = dirs[0, ...], dirs[1, ...], dirs[2, ...]
    rho = np.hypot(x, y)
    pole = ~(rho > 1e-12)
    cos_phi, sin_phi = phi[1, ...], phi[0, ...]
    any_pole = np.any(pole)
    if any_pole:
        inv = np.where(pole, 1.0, rho)
        cos_phi[...] = np.where(pole, 1.0, x / inv)
        sin_phi[...] = np.where(pole, 0.0, y / inv)
    else:
        np.divide(x, rho, out=cos_phi)
        np.divide(y, rho, out=sin_phi)
    np.multiply(z, cos_phi, out=theta[0, ...])
    np.multiply(z, sin_phi, out=theta[1, ...])
    np.negative(rho, out=theta[2, ...])
    np.negative(sin_phi, out=sin_phi)
    phi[2, ...] = 0.0
    if any_pole:
        theta[0, ...][pole] = np.sign(z[pole])
        theta[1, ...][pole] = 0.0
        theta[2, ...][pole] = 0.0
        sin_phi[pole] = 0.0
        cos_phi[pole] = 1.0
    return theta_hat, phi_hat


def free_space_transport(distance, carrier: CarrierConfig):
    """Spherical-spreading amplitude with propagation phase over distances."""
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError(f"propagation distance must be positive, got {d}")
    lam = carrier.wavelength
    # the phase in real arithmetic: it reaches 1e4-1e5 rad, where dividing a
    # complex array by lam (a reciprocal multiply) would move it by an ulp
    return (lam / (4.0 * math.pi * d)) * np.exp(1j * (-_TWO_PI * d / lam))


def fresnel_reflection(eps_r, sigma, pec, incidence_angle, carrier: CarrierConfig):
    """(Gamma_TE, Gamma_TM) arrays for lossy half-spaces; angles from the normal.

    ``eps_r``, ``sigma`` and ``pec`` are the material columns (see
    :class:`~railchan.scene.Material`); the complex relative permittivity is
    eps_r - j sigma/(2 pi f eps0).  TE is the component perpendicular to the
    plane of incidence, TM the component in it.  A perfect conductor returns
    (-1, +1) at every angle.
    """
    theta = np.asarray(incidence_angle, dtype=float)
    if not np.all((theta >= 0.0) & (theta < math.pi / 2)):
        raise ValueError(f"incidence angle must be in [0, pi/2), got {theta}")
    eps = eps_r - 1j * sigma / (_TWO_PI * carrier.frequency_hz * EPS0)
    sin_i = np.sin(theta)
    cos_i = np.cos(theta)
    root = np.sqrt(eps - sin_i * sin_i + 0j)
    gamma_te = (cos_i - root) / (cos_i + root)
    gamma_tm = (eps * cos_i - root) / (eps * cos_i + root)
    return np.where(pec, -1.0 + 0.0j, gamma_te), np.where(pec, 1.0 + 0.0j, gamma_tm)


def knife_edge_v(h, d1, d2, wavelength: float):
    """Fresnel-Kirchhoff diffraction parameter for knife edges.

    ``h`` is the edge clearance above the straight line between the two
    neighbor points (positive when the edge obstructs), ``d1``/``d2`` the
    distances from the edge to those points.
    """
    return h * np.sqrt(2.0 * (d1 + d2) / (wavelength * d1 * d2))


# E(z) = e^{z^2} erfc(z) on the ray z = r e^{j pi/4}, r >= 0, where both
# Fresnel functions below live.  Up to _TAYLOR_MAX it is a Taylor expansion
# about the nearest node of a grid in r, beyond that a Laplace continued
# fraction of fixed depth; both are accurate to a few ulps.
_SQRT_PI = math.sqrt(math.pi)
_EXP_J_PI_4 = cmath.exp(1j * math.pi / 4)
_TAYLOR_STEP = 0.1
_TAYLOR_NODES = 81
_TAYLOR_MAX = _TAYLOR_STEP * (_TAYLOR_NODES - 1)
_TAYLOR_DEGREE = 17
_CF_DEPTH = 16


def _erfc_fraction(z, depth: int):
    """E(z) from the Laplace continued fraction
    1 / sqrt(pi) / (z + (1/2) / (z + 1 / (z + (3/2) / (z + ...)))), evaluated
    from the ``depth``-th level back."""
    f = z
    for k in range(depth, 0, -1):
        f = z + (0.5 * k) / f
    return 1.0 / (_SQRT_PI * f)


@functools.cache
def _taylor_table() -> tuple[np.ndarray, np.ndarray]:
    """The nodes r0 and, per node, the coefficients b_n with
    E((r0 + rho) e^{j pi/4}) = sum_n b_n rho^n; built on first use.

    The node values come from the power series sum_n (-z)^n / Gamma(n/2 + 1)
    up to r0 = 1 and from a deep continued fraction above; from
    E' = 2 z E - 2 / sqrt(pi), the coefficients a_n of the expansion in
    z - z0 follow a_{n+1} = (2 z0 a_n + 2 a_{n-1}) / (n + 1), and
    b_n = a_n e^{j n pi/4} turns that into b_{n+1} = 2j (r0 b_n + b_{n-1}) / (n + 1).
    """
    r0 = np.arange(_TAYLOR_NODES) * _TAYLOR_STEP
    z0 = r0 * _EXP_J_PI_4
    series = r0 <= 1.0
    b = np.empty((_TAYLOR_NODES, _TAYLOR_DEGREE + 1), dtype=complex)
    b[series, 0] = sum((-z0[series]) ** n / math.gamma(n / 2 + 1) for n in range(40))
    b[~series, 0] = _erfc_fraction(z0[~series], 1000)
    b[:, 1] = 2j * r0 * b[:, 0] - 2.0 / _SQRT_PI * _EXP_J_PI_4
    for n in range(1, _TAYLOR_DEGREE):
        b[:, n + 1] = 2j * (r0 * b[:, n] + b[:, n - 1]) / (n + 1)
    r0.setflags(write=False)  # every caller shares the cached arrays
    b.setflags(write=False)
    return r0, b


def _erfc_taylor(r: np.ndarray) -> np.ndarray:
    """E(r e^{j pi/4}) for finite 0 <= r <= _TAYLOR_MAX, from the nearest node."""
    r0, b = _taylor_table()
    node = np.rint(r * (1.0 / _TAYLOR_STEP)).astype(np.intp)
    powers = np.empty(r.shape + (_TAYLOR_DEGREE + 1,))
    powers[..., 0] = 1.0
    powers[..., 1:] = (r - r0[node])[..., None]
    np.cumprod(powers, axis=-1, out=powers)
    return np.einsum("...k,...k->...", b[node], powers)


def _erfc_ray(r: np.ndarray) -> np.ndarray:
    """E(r e^{j pi/4}) for a float array ``r`` of finite values >= 0."""
    near = r <= _TAYLOR_MAX
    if near.all():
        return _erfc_taylor(r)
    out = np.empty(r.shape, dtype=complex)
    out[near] = _erfc_taylor(r[near])
    far = ~near
    out[far] = _erfc_fraction(r[far] * _EXP_J_PI_4, _CF_DEPTH)
    return out


def knife_edge_diffraction(v):
    """Complex knife-edge coefficient F(v); F(-inf) = 1, |F(0)| = 1/2.

    F(v) = (1 + j)/2 * integral_v^inf e^{-j pi t^2/2} dt, which is
    e^{-j pi v^2/2} E(sqrt(pi/2) v e^{j pi/4}) / 2 for v >= 0 and 1 minus
    that at |v| for v < 0.  Accepts scalars or arrays.
    """
    # 0-d input is evaluated as a 1-element array: numpy's scalar arithmetic
    # rounds complex products differently from its array loops
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    infinite = np.isinf(arr)
    a = np.where(infinite, 0.0, np.abs(arr))
    shadow = 0.5 * np.exp(-0.5j * math.pi * (a * a)) * _erfc_ray(math.sqrt(math.pi / 2) * a)
    shadow = np.where(infinite, 0.0, shadow)  # E vanishes at infinity
    out = np.where(arr < 0, 1.0 - shadow, shadow)
    return complex(out[0]) if np.ndim(v) == 0 else out


def transition_function(x):
    """Transition function F(x) = 2j sqrt(x) e^{jx} * integral_{sqrt(x)}^inf e^{-j tau^2} d tau.

    Smoothly bridges the diffraction coefficient through shadow boundaries;
    F -> 1 for large arguments.  Evaluated as
    j sqrt(pi x) e^{-j pi/4} E(sqrt(x) e^{j pi/4}), which carries no e^{jx}
    factor.  Accepts scalars or arrays of finite x >= 0.
    """
    root = np.sqrt(np.atleast_1d(np.asarray(x, dtype=float)))
    out = (_EXP_J_PI_4 * _SQRT_PI) * root * _erfc_ray(root)
    return complex(out[0]) if np.ndim(x) == 0 else out


_UTD_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def utd_coefficients(n_index, wavenumber: float, beta0, phi_inc, phi_out, distance_param, r_soft, r_hard):
    """Uniform wedge diffraction coefficients (D_soft, D_hard), as arrays.

    ``n_index`` parameterizes the exterior wedge angle n*pi; ``phi_inc`` and
    ``phi_out`` are measured from the o-face in the exterior region;
    ``beta0`` is the skew angle between ray and edge; ``distance_param`` is
    the spherical-wave distance parameter s s' sin^2(beta0) / (s + s').
    Both faces share one material, so one face reflection coefficient per
    polarization multiplies the two reflection-boundary terms; -1/+1
    recover the perfectly-conducting soft/hard cases.  The arguments
    broadcast against each other.

    Each of the four cotangent/transition terms has a shadow or reflection
    boundary, where the cotangent pole and the vanishing transition function
    cancel; inside a small window the closed-form limit replaces the product
    to keep the evaluation finite and smooth.
    """
    L = np.asarray(distance_param, dtype=float)
    if np.any(L <= 0):
        raise ValueError("distance parameter must be positive")
    sin_b = np.sin(beta0)
    if np.any(sin_b <= 1e-9):
        raise ValueError("ray grazing along the edge is outside the model")
    n = np.asarray(n_index, dtype=float)
    k = wavenumber
    beta_d = phi_out - phi_inc
    beta_s = phi_out + phi_inc
    beta = np.stack(np.broadcast_arrays(beta_d, beta_d, beta_s, beta_s))
    sign = _UTD_SIGNS.reshape((4,) + (1,) * (beta.ndim - 1))
    big_n = np.round((beta + sign * math.pi) / (_TWO_PI * n))
    eps = beta - sign * (_TWO_PI * n * big_n - math.pi)
    a = 2.0 * np.cos((_TWO_PI * n * big_n - beta) / 2.0) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        cot = 1.0 / np.tan((math.pi + sign * beta) / (2.0 * n))
        terms = cot * transition_function(k * L * a)
    limit = np.sqrt(_TWO_PI * k * L) * np.where(eps >= 0, 1.0, -1.0) - 2.0 * k * L * eps * _EXP_J_PI_4
    t1, t2, t3, t4 = np.where(np.abs(eps) < 1e-6, n * _EXP_J_PI_4 * limit, terms)
    pref = -cmath.exp(-1j * math.pi / 4) / (2.0 * n * math.sqrt(_TWO_PI * k) * sin_b)
    # two products, not r * (t3 + t4), which rounds differently
    d_soft = pref * (t1 + t2 + r_soft * t3 + r_soft * t4)
    d_hard = pref * (t1 + t2 + r_hard * t3 + r_hard * t4)
    return d_soft, d_hard


def _dot(a, b):
    """Row-wise dot products of (K, d) vectors."""
    return np.einsum("kj,kj->k", a, b)


_NEXT, _PREV = [1, 2, 0], [2, 0, 1]


def _cross(a, b):
    """Row-wise cross products of (K, 3) vectors."""
    return a[:, _NEXT] * b[:, _PREV] - a[:, _PREV] * b[:, _NEXT]


def _project(vectors, basis):
    """Components of the (K, 3, 2) ``basis`` columns along (K, 3) vectors, (K, 2)."""
    return np.einsum("kj,kjc->kc", vectors, basis)


def _outer(vectors, components):
    """(K, 3, 2) columns ``vectors`` scaled by (K, 2) ``components``."""
    return vectors[:, :, None] * components[:, None, :]


def _face_fresnel(scene: Scene, faces, theta, carrier: CarrierConfig):
    return fresnel_reflection(
        scene.fac_eps_r[faces], scene.fac_sigma[faces], scene.fac_pec[faces], theta, carrier
    )


def _reflect(basis, k_in, k_out, scene: Scene, faces, carrier: CarrierConfig):
    """Facade reflection of the basis; checks the specular law against k_out."""
    normal = scene.fac_normal[faces]
    cos_i = -_dot(k_in, normal)
    normal = np.where((cos_i < 0)[:, None], -normal, normal)
    cos_i = np.abs(cos_i)
    k_ref = k_in + 2.0 * cos_i[:, None] * normal
    if np.any(np.abs(_dot(k_ref, k_out) - 1.0) > 1e-6):
        raise ValueError("path geometry violates the specular law")
    perp = _cross(k_in, normal)
    nrm = np.sqrt(_dot(perp, perp))
    normal_incidence = nrm < 1e-9
    perp = perp / np.where(normal_incidence, 1.0, nrm)[:, None]
    if np.any(normal_incidence):
        # any transverse direction works (TE and TM coefficients act
        # identically up to the sign convention here)
        perp[normal_incidence] = spherical_basis(k_in[normal_incidence])[0]
    par_in = _cross(perp, k_in)
    par_out = _cross(perp, k_ref)
    theta = np.minimum(np.arccos(np.minimum(1.0, cos_i)), math.pi / 2 - 1e-12)
    g_te, g_tm = (g[:, None, None] for g in _face_fresnel(scene, faces, theta, carrier))
    return g_te * _outer(perp, _project(perp, basis)) + g_tm * _outer(par_out, _project(par_in, basis))


def _diffract(basis, k_in, k_out, s_before, s_after, scene: Scene, wedges, carrier: CarrierConfig):
    """Vertical-edge UTD diffraction of the basis, with the edge spreading."""
    beta0 = np.arccos(np.clip(k_in[:, 2], -1.0, 1.0))
    # the edge is vertical: angles around it from the horizontal projections
    src_xy = -k_in[:, :2]
    obs_xy = k_out[:, :2]
    src_len = np.hypot(src_xy[:, 0], src_xy[:, 1])
    obs_len = np.hypot(obs_xy[:, 0], obs_xy[:, 1])
    if np.any((src_len < 1e-12) | (obs_len < 1e-12)):
        raise ValueError("ray along the diffracting edge")
    phi_inc = scene.wedge_azimuths(wedges, src_xy)[0]
    phi_out = scene.wedge_azimuths(wedges, obs_xy)[0]
    L = s_before * s_after * np.sin(beta0) ** 2 / (s_before + s_after)
    # the wedge faces' Fresnel coefficients at the symmetric effective
    # grazing angle (pi - |phi_out - phi_inc|)/2: the geometric-optics
    # grazing angle at each reflection boundary, unchanged when source and
    # observer swap, which keeps composed paths exactly reciprocal
    grazing = (math.pi - np.abs(phi_out - phi_inc)) / 2.0
    theta = np.minimum(np.arccos(np.minimum(1.0, np.abs(np.sin(grazing)))), math.pi / 2 - 1e-12)
    r_soft, r_hard = _face_fresnel(scene, scene.wedge_face[wedges], theta, carrier)
    d_soft, d_hard = utd_coefficients(
        scene.wedge_n_index[wedges], carrier.wavenumber, beta0, phi_inc, phi_out, L, r_soft, r_hard
    )
    # ray-fixed bases: soft acts on the component in the edge-fixed plane of
    # incidence (beta_hat), hard on the perpendicular one (phi_hat = z x k,
    # negated on the incident side)
    zero = np.zeros(len(k_in))
    phi_in = np.stack([k_in[:, 1], -k_in[:, 0], zero], axis=1) / src_len[:, None]
    phi_out_hat = np.stack([-k_out[:, 1], k_out[:, 0], zero], axis=1) / obs_len[:, None]
    beta_in = _cross(phi_in, k_in)
    beta_out = _cross(phi_out_hat, k_out)
    out = -(
        d_soft[:, None, None] * _outer(beta_out, _project(beta_in, basis))
        + d_hard[:, None, None] * _outer(phi_out_hat, _project(phi_in, basis))
    )
    spread = np.sqrt((s_before + s_after) / (s_before * s_after))
    return out * spread[:, None, None]


def _rotations(k_in, k_out):
    """The minimal rotations taking (N, 3) directions k_in to k_out, (N, 3, 3)."""
    c = _dot(k_in, k_out)
    axis = _cross(k_in, k_out)
    s = np.sqrt(_dot(axis, axis))
    straight = s < 1e-12
    if np.any(straight & (c < 0)):
        raise ValueError("path turns back on itself")
    axis = axis / np.where(straight, 1.0, s)[:, None]
    # cross-product matrices: kmat[k] @ v = axis[k] x v
    kmat = np.cross(axis[:, None, :], np.eye(3)).transpose(0, 2, 1)
    rot = np.eye(3) + s[:, None, None] * kmat + (1 - c)[:, None, None] * (kmat @ kmat)
    rot[straight] = np.eye(3)
    return rot


def _knife_edge_factors(verts, at, carrier: CarrierConfig):
    """Knife-edge coefficients of the interior vertices ``at`` of (K, n, 3)
    polylines, from their neighbors, (len(at), K)."""
    at = np.asarray(at)
    prev_v, apex, next_v = (verts[:, i].swapaxes(0, 1).reshape(-1, 3) for i in (at - 1, at, at + 1))
    chord = next_v - prev_v
    u = chord / np.linalg.norm(chord, axis=1)[:, None]
    rel = apex - prev_v
    offset = rel - _dot(rel, u)[:, None] * u
    h = np.linalg.norm(offset, axis=1)
    h = np.where((h > 0) & (offset[:, 2] < 0), -h, h)
    d1 = np.linalg.norm(apex - prev_v, axis=1)
    d2 = np.linalg.norm(next_v - apex, axis=1)
    return knife_edge_diffraction(knife_edge_v(h, d1, d2, carrier.wavelength)).reshape(len(at), -1)


def compose_path_matrix(vertices, kinds, hosts, scene: Scene, carrier: CarrierConfig) -> np.ndarray:
    """2x2 polarimetric transfer matrices of a family of validated ray
    paths, (K, 2, 2).

    ``vertices`` holds K Tx...Rx polylines, (K, n, 3); ``kinds`` the
    interaction kind of each of the n - 2 interior vertices and ``hosts``
    one (K,) index array per interior vertex: into the scene's facade table
    for reflections and rooftop edges, into its wedge table for edge
    diffractions.  Each result maps (V, H) components launched along the
    first segment to (V, H) components in the arrival basis of the last
    segment (pointing back toward the previous vertex).  It holds the
    Fresnel and UTD wedge coefficients and the basis rotations, times the
    spreading and phase over the path's total unfolded length and the
    knife-edge coefficient of every rooftop vertex.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 3 or verts.shape[1] != len(kinds) + 2 or len(hosts) != len(kinds):
        raise ValueError("vertex count does not match interaction count")
    seg = np.diff(verts, axis=1)
    seg_len = np.linalg.norm(seg, axis=2)
    if np.any(seg_len < 1e-12):
        raise ValueError("zero-length path segment")
    dirs = seg / seg_len[:, :, None]
    reached = np.cumsum(seg_len, axis=1)  # path length up to vertex i + 1
    total = reached[:, -1]

    # every rooftop vertex's rotation and knife-edge factor in one pass each,
    # vertex-major, applied below in vertex order
    roof = [i for i, kind in enumerate(kinds) if kind == ROOFTOP_DIFFRACTION]
    if roof:
        apexes = [i + 1 for i in roof]  # interaction i sits at vertex i + 1, between dirs i and i + 1
        k_in, k_out = (dirs[:, at].swapaxes(0, 1).reshape(-1, 3) for at in (roof, apexes))
        rotations = iter(_rotations(k_in, k_out).reshape(len(roof), -1, 3, 3))
        factors = iter(_knife_edge_factors(verts, apexes, carrier))

    basis = np.stack(spherical_basis(dirs[:, 0]), axis=2).astype(complex)  # (K, 3, 2)
    amp = np.ones(len(verts), dtype=complex)
    for i, (kind, host) in enumerate(zip(kinds, hosts)):
        k_in, k_out = dirs[:, i], dirs[:, i + 1]
        if kind == REFLECTION:
            basis = _reflect(basis, k_in, k_out, scene, host, carrier)
        elif kind == EDGE_DIFFRACTION:
            basis = _diffract(basis, k_in, k_out, reached[:, i], total - reached[:, i], scene, host, carrier)
        elif kind == ROOFTOP_DIFFRACTION:
            basis = next(rotations) @ basis
            amp = amp * next(factors)
        else:
            raise ValueError(f"unsupported interaction kind {kind!r}")

    theta_hat, phi_hat = spherical_basis(-dirs[:, -1])
    t_mat = np.stack([_project(theta_hat, basis), _project(phi_hat, basis)], axis=1)
    # the spreading length is polyline_lengths', not the cumsum total above:
    # the two sums round differently
    return t_mat * (free_space_transport(polyline_lengths(verts), carrier) * amp)[:, None, None]
