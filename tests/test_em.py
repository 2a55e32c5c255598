"""Electromagnetic primitive tests.

Oracles:
* free-space magnitude against closed-form path-loss arithmetic,
* Fresnel reflection against the closed-form normal-incidence formula,
* knife-edge coefficient against direct numerical evaluation of the
  Fresnel integral,
* UTD wedge coefficients against the total-field continuity requirement
  across shadow boundaries of a PEC half-plane,
* path-matrix composition against hand image constructions, plus the
  reciprocity (transpose) property.
"""

import math

import numpy as np
import pytest

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
from railchan.rays import Interaction, REFLECTION, polyline_length
from railchan.scene import Building, Material, PEC, Scene

F19 = CarrierConfig(frequency_hz=1.9e9)


def db(x):
    return 20.0 * math.log10(abs(x))


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
            gte, gtm = fresnel_reflection(PEC, ang, F19)
            assert gte == pytest.approx(-1.0)
            assert gtm == pytest.approx(+1.0)

    def test_lossless_normal_incidence_closed_form(self):
        mat = Material(eps_r=5.0, sigma=0.0)
        gte, gtm = fresnel_reflection(mat, 0.0, F19)
        want = (math.sqrt(5) - 1) / (math.sqrt(5) + 1)
        assert abs(gte) == pytest.approx(want, rel=1e-12)
        assert abs(gtm) == pytest.approx(want, rel=1e-12)
        # at normal incidence TE and TM magnitudes coincide; signs follow the
        # basis convention (TE negative, TM positive toward the normal)
        assert gte.real < 0
        assert gtm.real > 0

    def test_grazing_limit(self):
        mat = Material(eps_r=5.0, sigma=0.1)
        gte, _ = fresnel_reflection(mat, math.pi / 2 - 1e-6, F19)
        assert gte.real == pytest.approx(-1.0, abs=1e-3)
        assert abs(gte) <= 1.0 + 1e-12

    def test_magnitudes_bounded_by_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            mat = Material(eps_r=float(rng.uniform(1, 15)), sigma=float(rng.uniform(0, 5)))
            ang = float(rng.uniform(0, math.pi / 2 - 1e-9))
            gte, gtm = fresnel_reflection(mat, ang, F19)
            assert abs(gte) <= 1.0 + 1e-12
            assert abs(gtm) <= 1.0 + 1e-12

    def test_brewster_dip_tm(self):
        # lossless dielectric: TM reflection vanishes at arctan(sqrt(eps))
        mat = Material(eps_r=5.0, sigma=0.0)
        brewster = math.atan(math.sqrt(5.0))
        _, gtm = fresnel_reflection(mat, brewster, F19)
        assert abs(gtm) < 1e-10

    def test_angle_domain(self):
        with pytest.raises(ValueError):
            fresnel_reflection(PEC, -0.1, F19)
        with pytest.raises(ValueError):
            fresnel_reflection(PEC, math.pi / 2, F19)


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
        T = compose_path_matrix(np.array([tx, rx]), [], scene, F19)
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
        T = compose_path_matrix(vertices, inter, scene, F19)
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
        gte, gtm = fresnel_reflection(mat, math.acos(cos_inc), F19)
        vertices = np.array([tx, hit, rx])
        inter = [Interaction(kind=REFLECTION, object_id=1, element_id=0)]
        T = compose_path_matrix(vertices, inter, scene, F19)
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
        T_fwd = compose_path_matrix(np.array([tx, hit, rx]), inter, scene, F19)
        T_rev = compose_path_matrix(np.array([rx, hit, tx]), inter, scene, F19)
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
            T = compose_path_matrix(np.array([tx, hit, rx]), inter, scene, F19)
            free = abs(free_space_transport(d, F19))
            # spectral norm bounded by the free-space gain over the same length
            smax = np.linalg.svd(T, compute_uv=False)[0]
            assert smax <= free * (1 + 1e-9)

    def test_delay_is_polyline_length_over_c(self):
        from railchan.rays import RayPath, path_angles

        vertices = np.array([[0, 0, 0], [10, 0, 0], [10, 5, 0], [10, 5, 7.0]])
        inters = (
            Interaction(kind=REFLECTION, object_id=1, element_id=0),
            Interaction(kind=REFLECTION, object_id=2, element_id=0),
        )
        path = RayPath.from_polyline(inters, vertices, np.eye(2, dtype=complex))
        length = float(np.sum(np.linalg.norm(np.diff(vertices, axis=0), axis=1)))
        assert length == 22.0
        assert path.delay_s == length / C0  # bit-equal
        assert polyline_length(path.vertices) == length
        az, el = path_angles(vertices)
        assert path.aod == (az[0], el[0]) and path.aoa == (az[1], el[1])
        assert path.interactions is inters
        # the length follows the vertices, it is not stored
        path.vertices = vertices[:2]
        assert polyline_length(path.vertices) == 10.0

    def test_zero_length_segment_rejected(self):
        scene = Scene(buildings=[])
        p = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            compose_path_matrix(np.array([p, p]), [], scene, F19)
