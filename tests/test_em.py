"""Electromagnetic primitive tests.

Oracles:
* free-space magnitude against closed-form path-loss arithmetic,
* Fresnel reflection against the closed-form normal-incidence formula,
* knife-edge coefficient against direct numerical evaluation of the
  Fresnel integral,
* the Fresnel kernel (knife edge and UTD transition function) against
  mpmath at 30 digits and against scipy.special, each within its error,
* UTD wedge coefficients against the total-field continuity requirement
  across shadow boundaries of a PEC half-plane,
* path-matrix composition against hand image constructions, plus the
  reciprocity (transpose) property,
* the array walker against the scalar chain it replaced
  (``oracle_compose_path_matrix``, one path at a time): on every solve of
  the preset at t = 0-2 s and on the small scenes of ``test_specular.py``.
"""

import cmath
import math

import numpy as np
import pytest

from railchan import em
from railchan.config import load_preset
from railchan.em import (
    C0,
    CarrierConfig,
    compose_path_matrix,
    free_space_transport,
    fresnel_reflection,
    knife_edge_diffraction,
    knife_edge_v,
    spherical_basis,
    transition_function,
    utd_coefficients,
)
from railchan.rays import (
    EDGE_DIFFRACTION,
    REFLECTION,
    ROOFTOP_DIFFRACTION,
    TAG_SPECULAR,
    PathRows,
    path_angles,
    polyline_lengths,
)
from railchan.scene import Building, Material, PEC, Scene
from railchan.specular import SpecularTracer, TraceLimits, _clear_masks
from path_oracle import Interaction, RayPath, interactions_of, signature_of
from rooftop_oracle import oracle_rooftop_path
from test_specular import SMALL_SCENES, small_solves

F19 = CarrierConfig(frequency_hz=1.9e9)


def db(x):
    return 20.0 * math.log10(abs(x))


def fresnel(material, incidence_angle, carrier=F19):
    """The array :func:`fresnel_reflection` for one material and angle."""
    return fresnel_reflection(material.eps_r, material.sigma, material.pec, incidence_angle, carrier)


class TestCarrier:
    def test_wavelength_frequency_product_is_c(self):
        assert F19.wavelength * F19.frequency_hz == C0

    def test_1900mhz_wavelength(self):
        assert F19.wavelength == pytest.approx(0.15779, abs=5e-6)


class TestFreeSpace:
    def test_magnitude_at_1m_1900mhz(self):
        # closed-form path loss at 1 m: 20 log10(4π/λ)
        g = free_space_transport(1.0, F19)
        assert db(g) == pytest.approx(-38.0, abs=0.05)

    def test_full_cycle_phase(self):
        g = free_space_transport(F19.wavelength, F19)
        phase = np.angle(g)
        assert phase == pytest.approx(0.0, abs=1e-9)

    def test_inverse_distance_law(self):
        g1 = free_space_transport(123.0, F19)
        g2 = free_space_transport(246.0, F19)
        assert abs(g2) / abs(g1) == pytest.approx(0.5, rel=1e-12)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            free_space_transport(0.0, F19)
        with pytest.raises(ValueError):
            free_space_transport(-1.0, F19)


class TestFresnelReflection:
    def test_pec_all_angles(self):
        for ang in [0.0, 0.3, 1.0, 1.4]:
            gte, gtm = fresnel(PEC, ang, F19)
            assert gte == pytest.approx(-1.0)
            assert gtm == pytest.approx(+1.0)

    def test_lossless_normal_incidence_closed_form(self):
        mat = Material(eps_r=5.0, sigma=0.0)
        gte, gtm = fresnel(mat, 0.0, F19)
        want = (math.sqrt(5) - 1) / (math.sqrt(5) + 1)
        assert abs(gte) == pytest.approx(want, rel=1e-12)
        assert abs(gtm) == pytest.approx(want, rel=1e-12)
        # at normal incidence TE and TM magnitudes coincide; signs follow the
        # basis convention (TE negative, TM positive toward the normal)
        assert gte.real < 0
        assert gtm.real > 0

    def test_grazing_limit(self):
        mat = Material(eps_r=5.0, sigma=0.1)
        gte, _ = fresnel(mat, math.pi / 2 - 1e-6, F19)
        assert gte.real == pytest.approx(-1.0, abs=1e-3)
        assert abs(gte) <= 1.0 + 1e-12

    def test_magnitudes_bounded_by_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            mat = Material(eps_r=float(rng.uniform(1, 15)), sigma=float(rng.uniform(0, 5)))
            ang = float(rng.uniform(0, math.pi / 2 - 1e-9))
            gte, gtm = fresnel(mat, ang, F19)
            assert abs(gte) <= 1.0 + 1e-12
            assert abs(gtm) <= 1.0 + 1e-12

    def test_brewster_dip_tm(self):
        # lossless dielectric: TM reflection vanishes at arctan(sqrt(eps))
        mat = Material(eps_r=5.0, sigma=0.0)
        brewster = math.atan(math.sqrt(5.0))
        _, gtm = fresnel(mat, brewster, F19)
        assert abs(gtm) < 1e-10

    def test_angle_domain(self):
        with pytest.raises(ValueError):
            fresnel(PEC, -0.1, F19)
        with pytest.raises(ValueError):
            fresnel(PEC, math.pi / 2, F19)


class TestKnifeEdge:
    def test_shadow_boundary_is_half(self):
        f = knife_edge_diffraction(0.0)
        assert abs(f) == pytest.approx(0.5, abs=1e-12)
        assert -db(f) == pytest.approx(6.02, abs=0.01)

    def test_deep_los_limit(self):
        f = knife_edge_diffraction(-20.0)
        assert abs(f) == pytest.approx(1.0, abs=2e-2)

    def test_deep_shadow_decays(self):
        assert abs(knife_edge_diffraction(5.0)) < abs(knife_edge_diffraction(2.0)) < 0.2

    def test_v1_against_numerical_quadrature(self):
        # integrate exp(-j pi t^2 / 2) from v to a large T on a fine grid,
        # then add the analytic stationary-phase tail beyond T
        v = 1.0
        T = 400.0
        t = np.linspace(v, T, 4_000_001)
        integrand = np.exp(-1j * math.pi * t**2 / 2)
        integral = np.trapezoid(integrand, t)
        tail = np.exp(-1j * math.pi * T**2 / 2) / (1j * math.pi * T)
        oracle = (1 + 1j) / 2 * (integral + tail)
        got = knife_edge_diffraction(v)
        assert db(got) == pytest.approx(db(oracle), abs=0.2)

    def test_v_parameter_formula(self):
        lam = 0.15
        v = knife_edge_v(h=2.0, d1=100.0, d2=300.0, wavelength=lam)
        want = 2.0 * math.sqrt(2 * 400.0 / (lam * 100.0 * 300.0))
        assert v == pytest.approx(want, rel=1e-12)
        # negative clearance gives negative v
        assert knife_edge_v(-2.0, 100.0, 300.0, lam) == pytest.approx(-want, rel=1e-12)


class TestTransitionFunction:
    def test_large_argument_asymptote(self):
        assert abs(transition_function(10.0)) == pytest.approx(1.0, abs=0.02)
        assert abs(transition_function(100.0)) == pytest.approx(1.0, abs=0.002)

    def test_small_argument_magnitude(self):
        # F(x) ~ sqrt(pi x) e^{j(pi/4 + x)} as x -> 0
        x = 1e-4
        got = transition_function(x)
        assert abs(got) == pytest.approx(math.sqrt(math.pi * x), rel=0.05)
        assert np.angle(got) == pytest.approx(math.pi / 4 + x, abs=0.05)

    def test_vectorized(self):
        xs = np.array([0.01, 0.1, 1.0, 10.0])
        got = transition_function(xs)
        assert got.shape == (4,)
        for i, x in enumerate(xs):
            assert got[i] == pytest.approx(transition_function(float(x)))


def half_plane_total_field(phi_obs, phi_src, s_src, s_obs, carrier, pol):
    """Total (GO + diffracted) field magnitude near a PEC half-plane.

    Half-plane: n = 2, o-face at phi = 0.  The source sits at angle
    ``phi_src``, the observer at ``phi_obs``, both in planes perpendicular
    to the edge (beta0 = 90 degrees).  GO terms use image constructions;
    the diffracted term uses the UTD coefficient.  ``pol`` selects soft
    (field parallel to edge) or hard.
    """
    k = carrier.wavenumber
    n = 2.0
    # geometric terms: incident ray present when the observer is outside the
    # incident shadow (phi < pi + phi_src); reflected ray present when inside
    # the reflection region (phi < pi - phi_src)
    src = s_src * np.array([math.cos(phi_src), math.sin(phi_src)])
    obs = s_obs * np.array([math.cos(phi_obs), math.sin(phi_obs)])
    total = 0.0 + 0.0j
    if phi_obs < math.pi + phi_src:
        d = np.linalg.norm(obs - src)
        total += np.exp(-1j * k * d) / d
    if phi_obs < math.pi - phi_src:
        img = s_src * np.array([math.cos(-phi_src), math.sin(-phi_src)])
        d = np.linalg.norm(obs - img)
        refl = -1.0 if pol == "soft" else +1.0
        total += refl * np.exp(-1j * k * d) / d
    L = s_src * s_obs / (s_src + s_obs)
    ds, dh = utd_coefficients(
        n_index=n,
        wavenumber=k,
        beta0=math.pi / 2,
        phi_inc=phi_src,
        phi_out=phi_obs,
        distance_param=L,
        r_soft=-1.0,
        r_hard=+1.0,
    )
    dcoef = ds if pol == "soft" else dh
    spread = math.sqrt(s_src / (s_obs * (s_src + s_obs)))
    total += (np.exp(-1j * k * s_src) / s_src) * dcoef * spread * np.exp(-1j * k * s_obs)
    return abs(total)


class TestUtd:
    @pytest.mark.parametrize("pol", ["soft", "hard"])
    def test_total_field_continuous_across_shadow_boundary(self, pol):
        carrier = CarrierConfig(frequency_hz=1.9e9)
        phi_src = 0.6
        s_src, s_obs = 40.0, 25.0
        isb = math.pi + phi_src
        eps = 1e-5
        below = half_plane_total_field(isb - eps, phi_src, s_src, s_obs, carrier, pol)
        above = half_plane_total_field(isb + eps, phi_src, s_src, s_obs, carrier, pol)
        jump_db = abs(20 * math.log10(below / above))
        assert jump_db < 0.1

    @pytest.mark.parametrize("pol", ["soft", "hard"])
    def test_total_field_continuous_across_reflection_boundary(self, pol):
        carrier = CarrierConfig(frequency_hz=1.9e9)
        phi_src = 0.6
        s_src, s_obs = 40.0, 25.0
        rsb = math.pi - phi_src
        eps = 1e-5
        below = half_plane_total_field(rsb - eps, phi_src, s_src, s_obs, carrier, pol)
        above = half_plane_total_field(rsb + eps, phi_src, s_src, s_obs, carrier, pol)
        jump_db = abs(20 * math.log10(below / above))
        assert jump_db < 0.1

    def test_symmetry_under_angle_swap(self):
        # swapping incidence and diffraction angles leaves D unchanged
        k = CarrierConfig(frequency_hz=1.9e9).wavenumber
        kwargs = dict(
            n_index=1.5,
            wavenumber=k,
            beta0=math.pi / 2,
            distance_param=20.0,
            r_soft=-1.0,
            r_hard=+1.0,
        )
        a = utd_coefficients(phi_inc=0.7, phi_out=2.2, **kwargs)
        b = utd_coefficients(phi_inc=2.2, phi_out=0.7, **kwargs)
        # for symmetric face coefficients the formula is symmetric in
        # (phi_inc, phi_out) through |phi - phi'| and (phi + phi')
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_transition_smoothing_no_blowup_near_boundary(self):
        k = CarrierConfig(frequency_hz=1.9e9).wavenumber
        phi_src = 0.6
        values = []
        for dphi in [1e-3, 1e-5, 1e-7, 0.0, -1e-7, -1e-5, -1e-3]:
            ds, dh = utd_coefficients(
                n_index=2.0,
                wavenumber=k,
                beta0=math.pi / 2,
                phi_inc=phi_src,
                phi_out=math.pi + phi_src + dphi,
                distance_param=15.0,
                r_soft=-1.0,
                r_hard=+1.0,
            )
            values.append(ds)
        mags = np.abs(values)
        assert np.all(np.isfinite(mags))
        # smooth through the boundary: neighboring evaluations stay within a
        # factor bounded well away from a pole
        assert mags.max() / mags.min() < 3.0


class TestSphericalBasis:
    def test_horizontal_direction(self):
        v_hat, h_hat = spherical_basis(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(v_hat, [0, 0, -1], atol=1e-15)
        np.testing.assert_allclose(h_hat, [0, 1, 0], atol=1e-15)

    def test_orthonormal_right_handed(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            v_hat, h_hat = spherical_basis(d)
            assert np.dot(v_hat, h_hat) == pytest.approx(0, abs=1e-12)
            assert np.dot(v_hat, d) == pytest.approx(0, abs=1e-12)
            assert np.dot(h_hat, d) == pytest.approx(0, abs=1e-12)
            # spherical convention: theta_hat x phi_hat = r_hat
            np.testing.assert_allclose(np.cross(v_hat, h_hat), d, atol=1e-12)

    def test_vertical_direction_degenerate_choice(self):
        v_hat, h_hat = spherical_basis(np.array([0.0, 0.0, 1.0]))
        # deterministic fallback at the pole (phi = 0)
        np.testing.assert_allclose(v_hat, [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(h_hat, [0, 1, 0], atol=1e-15)

    @pytest.mark.parametrize("shape", [(3,), (7, 3), (100_000, 3), (4, 25, 3)])
    @pytest.mark.parametrize("poles", [False, True], ids=["no_pole", "poles"])
    def test_equals_the_stacked_form_bit_for_bit(self, shape, poles):
        rng = np.random.default_rng(sum(shape) + poles)
        d = rng.normal(size=shape)
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        if poles:
            flat = d.reshape(-1, 3)
            flat[:: max(1, len(flat) // 5)] = (0.0, 0.0, 1.0)
            flat[1 :: max(2, len(flat) // 3)] = (0.0, 0.0, -1.0)
            flat[-1] = (1e-13, -1e-13, 1.0)
        got = spherical_basis(d)
        want = stacked_spherical_basis(d)
        for g, w in zip(got, want):
            assert g.shape == w.shape == shape
            assert g.tobytes() == w.tobytes()
        # the column form: (3, ...) component-major in and out
        columns = spherical_basis(np.ascontiguousarray(np.moveaxis(d, -1, 0)), columns=True)
        for g, w in zip(columns, want):
            assert g.shape == np.moveaxis(w, -1, 0).shape
            assert g.tobytes() == np.ascontiguousarray(np.moveaxis(w, -1, 0)).tobytes()


def stacked_spherical_basis(directions):
    """The basis built with ``np.where`` and two ``np.stack`` calls, the form
    :func:`spherical_basis` had before it wrote into its output buffers."""
    d = np.asarray(directions, dtype=float)
    rho = np.hypot(d[..., 0], d[..., 1])
    safe = rho > 1e-12
    inv = np.where(safe, rho, 1.0)
    cos_phi = np.where(safe, d[..., 0] / inv, 1.0)
    sin_phi = np.where(safe, d[..., 1] / inv, 0.0)
    cos_theta = d[..., 2]
    theta_hat = np.stack([cos_theta * cos_phi, cos_theta * sin_phi, -rho], axis=-1)
    phi_hat = np.stack([-sin_phi, cos_phi, np.zeros_like(rho)], axis=-1)
    pole = ~safe
    if np.any(pole):
        theta_hat[pole] = 0.0
        theta_hat[pole, 0] = np.sign(d[pole, 2])
        phi_hat[pole] = (0.0, 1.0, 0.0)
    return theta_hat, phi_hat


def host_index(scene, rec):
    """Facade-table row of a reflection or rooftop record, wedge-table row
    of an edge-diffraction record."""
    if rec.kind == EDGE_DIFFRACTION:
        rows = (scene.wedge_object == rec.object_id) & (scene.wedge_element == rec.element_id)
    else:
        rows = (scene.fac_object == rec.object_id) & (scene.fac_element == rec.element_id)
    (row,) = np.nonzero(rows)[0]
    return row


def record(scene, kind, row):
    """The interaction record of facade- or wedge-table ``row``."""
    if kind == EDGE_DIFFRACTION:
        return Interaction(kind, int(scene.wedge_object[row]), int(scene.wedge_element[row]))
    return Interaction(kind, int(scene.fac_object[row]), int(scene.fac_element[row]))


def compose_one(vertices, interactions, scene, carrier=F19):
    """:func:`compose_path_matrix` of one path (K = 1), its hosts looked up
    from the interaction records."""
    kinds = tuple(rec.kind for rec in interactions)
    hosts = [np.array([host_index(scene, rec)]) for rec in interactions]
    return compose_path_matrix(np.asarray(vertices, dtype=float)[None], kinds, hosts, scene, carrier)[0]


def wall_scene():
    # single long wall along x at y = 10, facing the antennas at y < 10
    b = Building(
        id=1,
        footprint=np.array([[-200, 10], [200, 10], [200, 12], [-200, 12]], dtype=float),
        height=30.0,
        material=PEC,
    )
    return Scene(buildings=[b])


class TestComposePathMatrix:
    def test_los_diagonal(self):
        scene = Scene(buildings=[])
        tx = np.array([0.0, 0.0, 10.0])
        rx = np.array([100.0, 0.0, 10.0])
        T = compose_one(np.array([tx, rx]), [], scene)
        want = F19.wavelength / (4 * math.pi * 100.0)
        assert abs(T[0, 0]) == pytest.approx(want, rel=1e-12)
        assert abs(T[1, 1]) == pytest.approx(want, rel=1e-12)
        assert abs(T[0, 1]) == pytest.approx(0.0, abs=1e-15)
        assert abs(T[1, 0]) == pytest.approx(0.0, abs=1e-15)
        # arrival basis points back toward the transmitter: V co-pol positive,
        # H co-pol negated
        ratio = T[1, 1] / T[0, 0]
        assert ratio.real == pytest.approx(-1.0, rel=1e-12)

    def test_single_pec_reflection_magnitude(self):
        # hand image construction: wall plane y = 10 (PEC); image of tx is at
        # y = 20; path length = |image(tx) - rx|
        scene = wall_scene()
        tx = np.array([-30.0, 0.0, 5.0])
        rx = np.array([40.0, 0.0, 5.0])
        image = np.array([-30.0, 20.0, 5.0])
        d = np.linalg.norm(image - rx)
        # reflection point on the wall
        t = (10.0 - image[1]) / (rx[1] - image[1])
        hit = image + t * (rx - image)
        vertices = np.array([tx, hit, rx])
        inter = [Interaction(kind=REFLECTION, object_id=1, element_id=0)]
        T = compose_one(vertices, inter, scene)
        want = F19.wavelength / (4 * math.pi * d)
        # PEC: |Gamma| = 1 for both polarizations
        assert abs(T[0, 0]) == pytest.approx(want, rel=1e-9)
        assert abs(T[1, 1]) == pytest.approx(want, rel=1e-9)

    def test_v_parallel_wall_uses_te(self):
        # V polarization parallel to the facade vertical axis with a lossy
        # wall: |T_vv| = |Gamma_TE| * lambda / (4 pi L)
        mat = Material(eps_r=5.0, sigma=0.0)
        b = Building(id=1, footprint=np.array([[-200, 10], [200, 10], [200, 12], [-200, 12]], dtype=float), height=30.0, material=mat)
        scene = Scene(buildings=[b])
        tx = np.array([-30.0, 0.0, 5.0])
        rx = np.array([40.0, 0.0, 5.0])
        image = np.array([-30.0, 20.0, 5.0])
        d = np.linalg.norm(image - rx)
        t = (10.0 - image[1]) / (rx[1] - image[1])
        hit = image + t * (rx - image)
        # incidence angle from the wall normal (horizontal path, vertical wall)
        inc_dir = (hit - tx) / np.linalg.norm(hit - tx)
        cos_inc = abs(inc_dir[1])
        gte, gtm = fresnel(mat, math.acos(cos_inc), F19)
        vertices = np.array([tx, hit, rx])
        inter = [Interaction(kind=REFLECTION, object_id=1, element_id=0)]
        T = compose_one(vertices, inter, scene)
        want_v = abs(gte) * F19.wavelength / (4 * math.pi * d)
        want_h = abs(gtm) * F19.wavelength / (4 * math.pi * d)
        assert abs(T[0, 0]) == pytest.approx(want_v, rel=1e-9)
        assert abs(T[1, 1]) == pytest.approx(want_h, rel=1e-9)
        # no cross-polarization for this symmetric geometry
        assert abs(T[0, 1]) < 1e-15

    def test_reflection_reciprocity_transpose(self):
        mat = Material(eps_r=5.0, sigma=0.3)
        b = Building(id=1, footprint=np.array([[-200, 10], [200, 10], [200, 12], [-200, 12]], dtype=float), height=30.0, material=mat)
        scene = Scene(buildings=[b])
        tx = np.array([-30.0, -5.0, 8.0])
        rx = np.array([40.0, 2.0, 3.0])
        image = tx.copy()
        image[1] = 20.0 - image[1]
        t = (10.0 - image[1]) / (rx[1] - image[1])
        hit = image + t * (rx - image)
        inter = [Interaction(kind=REFLECTION, object_id=1, element_id=0)]
        T_fwd = compose_one(np.array([tx, hit, rx]), inter, scene)
        T_rev = compose_one(np.array([rx, hit, tx]), inter, scene)
        np.testing.assert_allclose(T_rev, T_fwd.T, rtol=1e-10)

    def test_energy_not_amplified_by_reflection(self):
        rng = np.random.default_rng(5)
        b = Building(id=1, footprint=np.array([[-200, 10], [200, 10], [200, 12], [-200, 12]], dtype=float), height=60.0)
        scene = Scene(buildings=[b])
        for _ in range(30):
            tx = np.array([rng.uniform(-50, 50), rng.uniform(-40, 5), rng.uniform(1, 30)])
            rx = np.array([rng.uniform(-50, 50), rng.uniform(-40, 5), rng.uniform(1, 30)])
            image = tx.copy()
            image[1] = 20.0 - image[1]
            denom = rx[1] - image[1]
            t = (10.0 - image[1]) / denom
            hit = image + t * (rx - image)
            if not (0 < t < 1) or not (0 <= hit[2] <= 60):
                continue
            d = np.linalg.norm(image - rx)
            inter = [Interaction(kind=REFLECTION, object_id=1, element_id=0)]
            T = compose_one(np.array([tx, hit, rx]), inter, scene)
            free = abs(free_space_transport(d, F19))
            # spectral norm bounded by the free-space gain over the same length
            smax = np.linalg.svd(T, compute_uv=False)[0]
            assert smax <= free * (1 + 1e-9)

    def test_delay_is_polyline_length_over_c(self):
        vertices = np.array([[0, 0, 0], [10, 0, 0], [10, 5, 0], [10, 5, 7.0]])
        inters = (
            Interaction(kind=REFLECTION, object_id=1, element_id=0),
            Interaction(kind=REFLECTION, object_id=2, element_id=0),
        )
        rows = PathRows.from_polylines(
            [signature_of(inters)], TAG_SPECULAR, vertices[None], np.eye(2, dtype=complex)[None]
        )
        path = rows[0]
        length = float(np.sum(np.linalg.norm(np.diff(vertices, axis=0), axis=1)))
        assert length == 22.0
        assert path.delay_s == length / C0  # bit-equal
        assert polyline_lengths(path.vertices) == length
        az, el = path_angles(vertices)
        assert path.aod == (az[0], el[0]) and path.aoa == (az[1], el[1])
        assert path.signature == "R(1:0)|R(2:0)"
        assert path.doppler_hz == 0.0 and path.vertices.tobytes() == vertices.tobytes()

    def test_zero_length_segment_rejected(self):
        scene = Scene(buildings=[])
        p = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            compose_one(np.array([p, p]), [], scene)


# ----------------------------------------------------------------------
# the scalar chain, one path at a time: the walker's differential oracle
# ----------------------------------------------------------------------
_TWO_PI = 2.0 * math.pi


def oracle_spherical_basis(direction):
    d = np.asarray(direction, dtype=float)
    norm = math.sqrt(float(d[0]) ** 2 + float(d[1]) ** 2 + float(d[2]) ** 2)
    d = d / norm
    rho = math.hypot(d[0], d[1])
    if rho < 1e-12:
        sign = 1.0 if d[2] > 0 else -1.0
        return np.array([sign, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    cos_phi, sin_phi = d[0] / rho, d[1] / rho
    cos_theta, sin_theta = d[2], rho
    theta_hat = np.array([cos_theta * cos_phi, cos_theta * sin_phi, -sin_theta])
    phi_hat = np.array([-sin_phi, cos_phi, 0.0])
    return theta_hat, phi_hat


def oracle_fresnel_reflection(material, incidence_angle, carrier):
    if material.pec:
        return (-1.0 + 0.0j, +1.0 + 0.0j)
    eps = material.eps_r - 1j * material.sigma / (_TWO_PI * carrier.frequency_hz * 8.8541878128e-12)
    sin_i = math.sin(incidence_angle)
    cos_i = math.cos(incidence_angle)
    root = np.sqrt(eps - sin_i * sin_i + 0j)
    gamma_te = (cos_i - root) / (cos_i + root)
    gamma_tm = (eps * cos_i - root) / (eps * cos_i + root)
    return complex(gamma_te), complex(gamma_tm)


def oracle_diffraction_term(beta, n, k, L, sign1):
    big_n = round((beta + sign1 * math.pi) / (_TWO_PI * n))
    eps = beta - sign1 * (_TWO_PI * n * big_n - math.pi)
    if abs(eps) < 1e-6:
        sgn = 1.0 if eps >= 0 else -1.0
        val = math.sqrt(_TWO_PI * k * L) * sgn - 2.0 * k * L * eps * cmath.exp(1j * math.pi / 4)
        return n * cmath.exp(1j * math.pi / 4) * val
    a = 2.0 * math.cos((_TWO_PI * n * big_n - beta) / 2.0) ** 2
    cot = 1.0 / math.tan((math.pi + sign1 * beta) / (2.0 * n))
    return cot * transition_function(k * L * a)


def oracle_utd_coefficients(n_index, wavenumber, beta0, phi_inc, phi_out, distance_param, r_soft, r_hard):
    beta_d = phi_out - phi_inc
    beta_s = phi_out + phi_inc
    t1 = oracle_diffraction_term(beta_d, n_index, wavenumber, distance_param, +1)
    t2 = oracle_diffraction_term(beta_d, n_index, wavenumber, distance_param, -1)
    t3 = oracle_diffraction_term(beta_s, n_index, wavenumber, distance_param, +1)
    t4 = oracle_diffraction_term(beta_s, n_index, wavenumber, distance_param, -1)
    pref = -cmath.exp(-1j * math.pi / 4) / (
        2.0 * n_index * math.sqrt(_TWO_PI * wavenumber) * math.sin(beta0)
    )
    d_soft = pref * (t1 + t2 + r_soft * t3 + r_soft * t4)
    d_hard = pref * (t1 + t2 + r_hard * t3 + r_hard * t4)
    return d_soft, d_hard


def _norm3(v):
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _cross3(a, b):
    return np.array(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )


def _unit(v):
    return v / _norm3(v)


def _rotation_between(a, b):
    c = float(np.dot(a, b))
    axis = _cross3(a, b)
    s = _norm3(axis)
    if s < 1e-12:
        if c > 0:
            return np.eye(3)
        perp = np.array([1.0, 0.0, 0.0])
        if abs(a[0]) > 0.9:
            perp = np.array([0.0, 1.0, 0.0])
        axis = _unit(_cross3(a, perp))
        return 2.0 * np.outer(axis, axis) - np.eye(3)
    axis = axis / s
    kmat = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + s * kmat + (1 - c) * (kmat @ kmat)


def _building_material(scene, object_id):
    return next(b.material for b in scene.buildings if b.id == object_id)


def _apply_reflection(b_mat, k_in, scene, rec, carrier):
    normal = scene.fac_normal[host_index(scene, rec)]
    cos_i = -float(np.dot(k_in, normal))
    if cos_i < 0:
        normal = -normal
        cos_i = -cos_i
    k_out = k_in + 2.0 * cos_i * normal
    perp = _cross3(k_in, normal)
    nrm = _norm3(perp)
    perp = oracle_spherical_basis(k_in)[0] if nrm < 1e-9 else perp / nrm
    par_in = _cross3(perp, k_in)
    par_out = _cross3(perp, k_out)
    theta_i = min(math.acos(min(1.0, cos_i)), math.pi / 2 - 1e-12)
    material = _building_material(scene, rec.object_id)
    gamma_te, gamma_tm = oracle_fresnel_reflection(material, theta_i, carrier)
    out = gamma_te * np.outer(perp, perp @ b_mat) + gamma_tm * np.outer(par_out, par_in @ b_mat)
    return out, k_out


def _oracle_azimuth(p, o_tangent, o_normal):
    """Wedge azimuth in [0, 2 pi); within 1e-9 rad below 2 pi it reads 0, on
    the o-face, as in ``Scene.wedge_azimuths``."""
    phi = math.atan2(np.dot(p, o_normal), np.dot(p, o_tangent)) % _TWO_PI
    return 0.0 if phi >= _TWO_PI - 1e-9 else phi


def _apply_edge_diffraction(b_mat, k_in, k_out, s_before, s_after, scene, rec, carrier):
    w = host_index(scene, rec)
    o_tangent = np.array([*scene.wedge_o_tangent[w], 0.0])
    o_normal = np.array([*scene.wedge_o_normal[w], 0.0])
    edge = np.array([0.0, 0.0, 1.0])
    beta0 = math.acos(np.clip(float(np.dot(k_in, edge)), -1.0, 1.0))
    d_src = -k_in
    p_src = _unit(d_src - np.dot(d_src, edge) * edge)
    p_obs = _unit(k_out - np.dot(k_out, edge) * edge)
    phi_inc = _oracle_azimuth(p_src, o_tangent, o_normal)
    phi_out = _oracle_azimuth(p_obs, o_tangent, o_normal)
    L = s_before * s_after * math.sin(beta0) ** 2 / (s_before + s_after)
    grazing = (math.pi - abs(phi_out - phi_inc)) / 2.0
    theta = min(math.acos(min(1.0, abs(math.sin(grazing)))), math.pi / 2 - 1e-12)
    r_s, r_h = oracle_fresnel_reflection(_building_material(scene, rec.object_id), theta, carrier)
    d_soft, d_hard = oracle_utd_coefficients(
        scene.wedge_n_index[w], carrier.wavenumber, beta0, phi_inc, phi_out, L, r_s, r_h
    )
    phi_hat_in = _unit(-_cross3(edge, k_in))
    beta_hat_in = _cross3(phi_hat_in, k_in)
    phi_hat_out = _unit(_cross3(edge, k_out))
    beta_hat_out = _cross3(phi_hat_out, k_out)
    out = -(
        d_soft * np.outer(beta_hat_out, beta_hat_in @ b_mat)
        + d_hard * np.outer(phi_hat_out, phi_hat_in @ b_mat)
    )
    return out * math.sqrt((s_before + s_after) / (s_before * s_after))


def _rooftop_factor(vertices, i, carrier):
    prev_v, apex, next_v = vertices[i - 1], vertices[i], vertices[i + 1]
    u = _unit(next_v - prev_v)
    rel = apex - prev_v
    offset = rel - np.dot(rel, u) * u
    h = _norm3(offset)
    if h > 0 and offset[2] < 0:
        h = -h
    v = float(knife_edge_v(h, _norm3(apex - prev_v), _norm3(next_v - apex), carrier.wavelength))
    return complex(knife_edge_diffraction(v))


def oracle_polarization_operator(vertices, interactions, scene, carrier):
    """The scalar walker: one validated path, its interaction records looked
    up one at a time."""
    verts = np.asarray(vertices, dtype=float)
    seg = np.diff(verts, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    dirs = seg / seg_len[:, None]
    total_len = float(np.sum(seg_len))
    b_mat = np.empty((3, 2), dtype=complex)
    b_mat[:, 0], b_mat[:, 1] = oracle_spherical_basis(dirs[0])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    for i, rec in enumerate(interactions):
        k_in, k_out = dirs[i], dirs[i + 1]
        if rec.kind == REFLECTION:
            b_mat, k_ref = _apply_reflection(b_mat, k_in, scene, rec, carrier)
            assert abs(float(np.dot(k_ref, k_out)) - 1.0) <= 1e-6
        elif rec.kind == EDGE_DIFFRACTION:
            s_before = float(cum[i + 1])
            b_mat = _apply_edge_diffraction(
                b_mat, k_in, k_out, s_before, total_len - s_before, scene, rec, carrier
            )
        else:
            assert rec.kind == ROOFTOP_DIFFRACTION
            b_mat = _rotation_between(k_in, k_out) @ b_mat
    v_b, h_b = oracle_spherical_basis(_unit(verts[-2] - verts[-1]))
    return np.array([v_b @ b_mat, h_b @ b_mat])


def oracle_compose_path_matrix(vertices, interactions, scene, carrier):
    verts = np.asarray(vertices, dtype=float)
    t_mat = oracle_polarization_operator(verts, interactions, scene, carrier)
    amp = 1.0 + 0.0j
    for i, rec in enumerate(interactions):
        if rec.kind == ROOFTOP_DIFFRACTION:
            amp *= _rooftop_factor(verts, i + 1, carrier)
    length = float(polyline_lengths(verts))
    lam = carrier.wavelength
    g = (lam / (4.0 * math.pi * length)) * cmath.exp(-1j * _TWO_PI * length / lam)
    return t_mat * (g * amp)


def _oracle_above_floor(transfer, floor_db):
    power = float(np.sum(np.abs(transfer) ** 2))
    return power > 0.0 and 10.0 * math.log10(power) >= -floor_db


def oracle_trace(tracer, rx, limits):
    """``SpecularTracer.trace`` with the scalar chain: candidates and
    occlusion from the tracer, then one record lookup and one
    :func:`oracle_compose_path_matrix` call per kept candidate."""
    scene, carrier, tx = tracer.scene, tracer.carrier, tracer.tx
    rx = np.asarray(rx, dtype=float)
    families = tracer.candidates(rx[None], limits)
    clear, _ = _clear_masks(scene, families)
    paths, seen = [], set()
    for (verts, (kinds, hosts), _), ok in zip(families, clear):
        for k in np.nonzero(ok)[0]:
            geo_key = np.round(verts[k], 6).tobytes()
            if geo_key in seen:
                continue
            seen.add(geo_key)
            inters = tuple(record(scene, kind, idx[k]) for kind, idx in zip(kinds, hosts))
            transfer = oracle_compose_path_matrix(verts[k], inters, scene, carrier)
            if _oracle_above_floor(transfer, limits.power_floor_db):
                paths.append(RayPath.from_polyline(inters, verts[k].copy(), transfer))
    if limits.rooftop and not clear[0].any():
        roof = oracle_rooftop_path(scene, tx, rx, carrier)
        if roof is not None:
            transfer = oracle_compose_path_matrix(roof.vertices, roof.interactions, scene, carrier)
            if _oracle_above_floor(transfer, limits.power_floor_db):
                paths.append(RayPath.from_polyline(roof.interactions, roof.vertices, transfer))
    paths.sort(key=lambda p: (len(p.interactions), p.signature))
    return paths


#: transfer bound, relative to each path's largest entry.  numpy's tan,
#: arccos, arctan2 and hypot differ from libm in the last bit for a few
#: percent of arguments, and einsum sums in another order; where the four
#: UTD terms nearly cancel, one ulp of a cotangent moves D by about 3e-12.
#: The preset's worst case is 1.3e-12.
WALKER_RTOL = 1e-10


def relative_error(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def assert_matches_oracle(got, want):
    """Kept paths, their order, records and geometry bit for bit; transfers
    within WALKER_RTOL.  Returns the worst relative transfer difference."""
    assert [interactions_of(p.signature) for p in got] == [p.interactions for p in want]
    worst = 0.0
    for p, q in zip(got, want):
        assert p.vertices.tobytes() == q.vertices.tobytes(), p.signature
        assert np.array([p.delay_s, *p.aod, *p.aoa, p.doppler_hz]).tobytes() == np.array(
            [q.delay_s, *q.aod, *q.aoa, q.doppler_hz]
        ).tobytes(), p.signature
        assert p.tag == q.tag
        worst = max(worst, relative_error(p.transfer, q.transfer))
    assert worst <= WALKER_RTOL
    return worst


@pytest.fixture(scope="module")
def preset():
    cfg = load_preset()
    return cfg, cfg.load_scene(), CarrierConfig(cfg.carrier_hz)


class TestWalkerAgainstScalarOracle:
    def test_every_preset_solve_t0_to_2s(self, preset):
        cfg, scene, carrier = preset
        tracer = SpecularTracer(scene, carrier, cfg.tx_position)
        traj = cfg.trajectory()
        kinds = set()
        for i in range(201):
            rx = traj.position(i * cfg.update_step_s)
            (got,) = tracer.trace(rx[None], cfg.limits)
            assert_matches_oracle(got, oracle_trace(tracer, rx, cfg.limits))
            kinds.update(tuple(r.kind for r in interactions_of(p.signature)) for p in got)
        # every family the preset keeps, the rooftop path included
        assert {("D",), ("R", "R"), ("R", "D"), ("D", "R")} <= kinds
        assert any(k and k[0] == ROOFTOP_DIFFRACTION for k in kinds)

    @pytest.mark.parametrize("name", SMALL_SCENES)
    def test_small_scenes(self, name):
        for scene, tx, rx in small_solves(name):
            tracer = SpecularTracer(scene, F19, tx)
            for limits in (TraceLimits(), TraceLimits(max_reflections=1)):
                (got,) = tracer.trace(rx[None], limits)
                assert got
                assert_matches_oracle(got, oracle_trace(tracer, rx, limits))

    def test_o_face_wrap(self):
        # a transmitter 1 nm inside the o-face plane of edge D(1:6) is outside
        # the building (within EPS_GEOM of its footprint); the generator and
        # the walker both read its azimuth as 0, so the path keeps the
        # transfer it has with the transmitter on the plane
        box = Building(1, np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float), 10.0)
        rx = np.array([20.0, 20.0, 3.0])
        found = {}
        for y in (0.0, 1e-9):
            tracer = SpecularTracer(Scene(buildings=[box]), F19, np.array([5.0, y, 5.0]))
            (paths,) = tracer.trace(rx[None])
            assert_matches_oracle(paths, oracle_trace(tracer, rx, TraceLimits()))
            found[y] = next(p for p in paths if p.signature == "D(1:6)")
        assert relative_error(found[1e-9].transfer, found[0.0].transfer) <= WALKER_RTOL

    def test_utd_arrays_against_scalar_terms(self):
        # random wedges and angles, a quarter of them within 1e-7 of a
        # shadow or reflection boundary, where the closed-form limit applies
        rng = np.random.default_rng(7)
        n = rng.uniform(1.05, 2.0, 400)
        phi_inc = rng.uniform(0.01, 1.0, 400) * n * math.pi
        phi_out = rng.uniform(0.01, 1.0, 400) * n * math.pi
        edge = slice(0, 100)
        phi_out[edge] = math.pi + phi_inc[edge] + rng.uniform(-1e-7, 1e-7, 100)
        beta0 = rng.uniform(0.2, math.pi - 0.2, 400)
        L = rng.uniform(0.5, 500.0, 400)
        r_soft = rng.uniform(-1, 0, 400) + 1j * rng.uniform(-0.2, 0.2, 400)
        r_hard = rng.uniform(0, 1, 400) + 1j * rng.uniform(-0.2, 0.2, 400)
        k = F19.wavenumber
        got = np.array(utd_coefficients(n, k, beta0, phi_inc, phi_out, L, r_soft, r_hard)).T
        for row, args in zip(got, zip(n, beta0, phi_inc, phi_out, L, r_soft, r_hard)):
            want = np.array(oracle_utd_coefficients(args[0], k, *args[1:]))
            assert relative_error(row, want) <= WALKER_RTOL


# ----------------------------------------------------------------------
# the Fresnel kernel against mpmath and scipy
# ----------------------------------------------------------------------
KERNEL_RTOL = 1e-13


def mp_transition(x):
    """j sqrt(pi x) e^{-j pi/4} e^{z^2} erfc(z), z = sqrt(x) e^{j pi/4}, at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        x = mpmath.mpf(float(x))
        z = mpmath.sqrt(x) * mpmath.expjpi(mpmath.mpf(1) / 4)
        return complex(1j * mpmath.sqrt(mpmath.pi * x) * mpmath.expjpi(-mpmath.mpf(1) / 4) * mpmath.exp(z * z) * mpmath.erfc(z))


def mp_knife(v):
    """erfc(sqrt(pi/2) v e^{j pi/4}) / 2 at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        z = mpmath.sqrt(mpmath.pi / 2) * mpmath.mpf(float(v)) * mpmath.expjpi(mpmath.mpf(1) / 4)
        return complex(mpmath.erfc(z) / 2)


def worst_relative(got, want):
    want = np.asarray(want)
    return float(np.max(np.abs(got - want) / np.abs(want)))


@pytest.fixture(scope="module")
def preset_fresnel_arguments(preset):
    """Every transition-function and knife-edge argument of the preset's
    solves at t = 0-0.2 s."""
    cfg, scene, carrier = preset
    logged = {"transition": [], "knife": []}
    real_transition, real_knife = em.transition_function, em.knife_edge_diffraction

    def transition(x):
        logged["transition"].append(np.ravel(x))
        return real_transition(x)

    def knife(v):
        logged["knife"].append(np.ravel(v))
        return real_knife(v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(em, "transition_function", transition)
        mp.setattr(em, "knife_edge_diffraction", knife)
        tracer = SpecularTracer(scene, carrier, cfg.tx_position)
        traj = cfg.trajectory()
        for i in range(21):
            tracer.trace(traj.position(i * cfg.update_step_s)[None], cfg.limits)
    return {k: np.unique(np.concatenate(v)) for k, v in logged.items()}


class TestFresnelKernel:
    def test_transition_function_on_log_grid(self):
        # plus squares of a grid in sqrt(x) at 1/4 the Taylor node spacing,
        # through the switch to the continued fraction at sqrt(x) = 8
        xs = np.concatenate([np.logspace(-10, 10, 401), np.arange(0.0125, 10.0, 0.025) ** 2])
        got = transition_function(xs)
        assert worst_relative(got, [mp_transition(x) for x in xs]) <= KERNEL_RTOL

    def test_transition_function_at_preset_arguments(self, preset_fresnel_arguments):
        xs = preset_fresnel_arguments["transition"]
        xs = xs[xs > 0]  # F(0) = 0 exactly, checked below
        assert len(xs) > 1000
        assert worst_relative(transition_function(xs), [mp_transition(x) for x in xs]) <= KERNEL_RTOL
        assert transition_function(0.0) == 0.0

    def test_knife_edge_up_to_ten(self, preset_fresnel_arguments):
        preset_v = preset_fresnel_arguments["knife"]
        assert 8.0 < np.abs(preset_v).max() <= 10.0
        vs = np.concatenate([np.linspace(-10.0, 10.0, 801), preset_v])
        assert worst_relative(knife_edge_diffraction(vs), [mp_knife(v) for v in vs]) <= KERNEL_RTOL

    def test_knife_edge_beyond_ten_within_phase_conditioning(self):
        # e^{-j pi v^2 / 2} turns an ulp of v^2 into a phase error of pi v^2 2^-53
        vs = np.concatenate([np.linspace(10.0, 50.0, 401), -np.linspace(10.0, 50.0, 401)])
        want = np.array([mp_knife(v) for v in vs])
        err = np.abs(knife_edge_diffraction(vs) - want) / np.abs(want)
        assert np.all(err <= 4.0 * math.pi * vs**2 * 2.0**-53)

    def test_limits_hold_exactly(self):
        assert knife_edge_diffraction(-math.inf) == 1.0
        assert knife_edge_diffraction(math.inf) == 0.0
        assert abs(knife_edge_diffraction(0.0)) == 0.5
        assert knife_edge_diffraction(np.array([-math.inf, 0.0])).tolist() == [1.0, 0.5]

    def test_scalars_and_arrays_agree(self):
        vs = np.array([-3.0, -0.5, 0.0, 0.25, 7.9, 9.0, 40.0])
        got = knife_edge_diffraction(vs)
        assert got.shape == vs.shape
        assert all(got[i] == knife_edge_diffraction(float(v)) for i, v in enumerate(vs))
        xs = np.array([0.0, 1e-6, 0.3, 50.0, 63.9, 64.1, 1e8])
        got = transition_function(xs)
        assert all(got[i] == transition_function(float(x)) for i, x in enumerate(xs))
        assert isinstance(knife_edge_diffraction(1.0), complex)
        assert isinstance(transition_function(1.0), complex)

    def test_each_value_independent_of_the_array(self):
        # the rooftop chain evaluates every vertex's knife edge in one call:
        # an element's bits must not depend on its neighbors or the length
        r = np.concatenate([np.random.default_rng(7).random(60) * 12.0, [0.0, 0.05, 7.95, 8.0, np.nextafter(8.0, 9.0)]])
        alone = np.concatenate([em._erfc_ray(r[i : i + 1]) for i in range(len(r))])
        assert em._erfc_ray(r).tobytes() == alone.tobytes()
        assert em._erfc_ray(r.reshape(5, 13)).tobytes() == alone.tobytes()
        assert np.array([em._erfc_ray(np.float64(x)) for x in r]).tobytes() == alone.tobytes()

    def test_agrees_with_scipy_within_its_error(self):
        special = pytest.importorskip("scipy.special")
        # scipy's 2j sqrt(x) e^{jx} fm(sqrt(x)) is itself off by up to
        # 1.2e-10 relative near x = 7e5 (against mpmath at 30 digits)
        xs = np.logspace(-10, 6, 321)
        root = np.sqrt(xs)
        theirs = 2j * root * np.exp(1j * xs) * special.modfresnelm(root)[0]
        err = np.abs(transition_function(xs) - theirs) / np.abs(theirs)
        assert err[xs <= 1e3].max() <= 2e-13
        assert err.max() <= 2e-10
        vs = np.linspace(-10.0, 10.0, 801)
        s, c = special.fresnel(vs)
        theirs = (1.0 + 1.0j) / 2.0 * ((0.5 - c) - 1j * (0.5 - s))
        assert worst_relative(knife_edge_diffraction(vs), theirs) <= KERNEL_RTOL


# ----------------------------------------------------------------------
# the rooftop chain along its vertex axis against the per-vertex walk
# ----------------------------------------------------------------------
def per_vertex_rooftop_walk(vertices, carrier):
    """The rooftop composition as it was walked before: at each vertex in
    turn its own rotation and its own knife-edge call, for a (K, n, 3)
    family of rooftop paths."""
    verts = np.asarray(vertices, dtype=float)
    seg = np.diff(verts, axis=1)
    dirs = seg / np.linalg.norm(seg, axis=2)[:, :, None]
    basis = np.stack(spherical_basis(dirs[:, 0]), axis=2).astype(complex)
    amp = np.ones(len(verts), dtype=complex)
    for i in range(verts.shape[1] - 2):
        k_in, k_out = dirs[:, i], dirs[:, i + 1]
        c = em._dot(k_in, k_out)
        axis = em._cross(k_in, k_out)
        s = np.sqrt(em._dot(axis, axis))
        straight = s < 1e-12
        axis = axis / np.where(straight, 1.0, s)[:, None]
        kmat = np.cross(axis[:, None, :], np.eye(3)).transpose(0, 2, 1)
        rot = np.eye(3) + s[:, None, None] * kmat + (1 - c)[:, None, None] * (kmat @ kmat)
        rot[straight] = np.eye(3)
        basis = rot @ basis

        prev_v, apex, next_v = verts[:, i], verts[:, i + 1], verts[:, i + 2]
        chord = next_v - prev_v
        u = chord / np.linalg.norm(chord, axis=1)[:, None]
        rel = apex - prev_v
        offset = rel - em._dot(rel, u)[:, None] * u
        h = np.linalg.norm(offset, axis=1)
        h = np.where((h > 0) & (offset[:, 2] < 0), -h, h)
        d1 = np.linalg.norm(apex - prev_v, axis=1)
        d2 = np.linalg.norm(next_v - apex, axis=1)
        amp = amp * knife_edge_diffraction(knife_edge_v(h, d1, d2, carrier.wavelength))
    theta_hat, phi_hat = spherical_basis(-dirs[:, -1])
    t_mat = np.stack([em._project(theta_hat, basis), em._project(phi_hat, basis)], axis=1)
    return t_mat * (free_space_transport(polyline_lengths(verts), carrier) * amp)[:, None, None]


class TestRooftopVertexAxis:
    def test_preset_solves_t0_to_2s_bit_for_bit(self, preset):
        cfg, scene, carrier = preset
        traj = cfg.trajectory()
        tx = np.asarray(cfg.tx_position, dtype=float)
        paths = [oracle_rooftop_path(scene, tx, traj.position(i * cfg.update_step_s), carrier) for i in range(201)]
        assert all(p is not None for p in paths)
        for p in paths:
            assert p.transfer.tobytes() == per_vertex_rooftop_walk(p.vertices[None], carrier)[0].tobytes()
        # the same paths as families of K > 1, one per vertex count
        by_count = {}
        for p in paths:
            by_count.setdefault(len(p.vertices), []).append(p)
        for n, group in by_count.items():
            verts = np.stack([p.vertices for p in group])
            kinds = (ROOFTOP_DIFFRACTION,) * (n - 2)
            hosts = [np.zeros(len(group), dtype=int)] * (n - 2)  # not read for rooftop edges
            got = compose_path_matrix(verts, kinds, hosts, scene, carrier)
            assert got.tobytes() == np.stack([p.transfer for p in group]).tobytes()
            assert got.tobytes() == per_vertex_rooftop_walk(verts, carrier).tobytes()
