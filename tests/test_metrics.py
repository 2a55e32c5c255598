"""Metric oracles: every numeric target below is hand-computed.

Narrowband power: 100 m free space at 1.9 GHz is a 78.0 dB loss, so a 43 dBm
transmitter is received at -35.0 dBm.  Delay stats for 3:1 powers at 0/100 ns
give mean 25 ns and spread sqrt(0.75*25^2 + 0.25*75^2) = 43.30 ns.  The
raised-cosine pulse has unit peak and energy T*(1 - beta/4).  NRMSE for a
constant 2.29 dB error against a reference whose Q90-Q10 gap is 22.9 dB is
exactly 0.10.

The per-statistic helpers that ``snapshot_metrics`` replaced live on below
as ``oracle_*`` functions: ``metric_series`` and ``power_decomposition``
must equal them bit for bit on preset streams and on crafted snapshots.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from path_oracle import RayPath, read_rows, rows_of
from preset_streams import preset_stream, pylon_window

from railchan.dynamics import ChannelSnapshot
from railchan.em import CarrierConfig
from railchan.metrics import (
    METRIC_NAMES,
    PULSE_SUPPORT_SYMBOLS,
    _pulse_of,
    compare_series,
    metric_series,
    power_decomposition,
    snapshot_metrics,
    synthesize_tv_cir,
)
from railchan.rays import TAG_SCATTER, TAG_SPECULAR
from railchan.scene import Scene
from railchan.specular import SpecularTracer, TraceLimits

F19 = CarrierConfig(frequency_hz=1.9e9)
_DUMMY_VERTS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


def make_path(delay=1e-6, t00=1.0, transfer=None, aoa=(0.0, 0.0), doppler=0.0, tag=TAG_SPECULAR):
    if transfer is None:
        transfer = np.array([[t00, 0.0], [0.0, 0.0]], dtype=complex)
    return RayPath(
        interactions=(),
        vertices=_DUMMY_VERTS,
        delay_s=delay,
        aod=(0.0, 0.0),
        aoa=aoa,
        transfer=np.asarray(transfer, dtype=complex),
        tag=tag,
        doppler_hz=doppler,
    )


def snap(paths, t=0.0):
    """A snapshot holding the rows of ``paths``."""
    return ChannelSnapshot(timestamp=t, paths=rows_of(paths))


def metric_row(paths, tx_power_dbm=0.0) -> dict:
    """The kernel's row for ``paths``, keyed by metric name."""
    row = snapshot_metrics(rows_of(paths), tx_power_dbm)
    assert len(row) == len(METRIC_NAMES)
    return dict(zip(METRIC_NAMES, row))


class TestNarrowbandPower:
    def test_free_space_100m_43dbm(self):
        scene = Scene(buildings=[])
        (paths,) = SpecularTracer(scene, F19, np.array([0.0, 0.0, 10.0])).trace(
            np.array([[100.0, 0.0, 10.0]]),
            TraceLimits(0, 0, rooftop=False),
        )
        p = metric_row(read_rows(paths), tx_power_dbm=43.0)["power_vv"]
        assert p == pytest.approx(-35.0, abs=0.1)

    def test_out_of_phase_cancellation(self):
        a = make_path(t00=1.0)
        b = make_path(t00=-1.0)
        assert metric_row([a, b])["power_vv"] == -math.inf

    def test_in_phase_doubling(self):
        one = metric_row([make_path(t00=0.5)])["power_vv"]
        two = metric_row([make_path(t00=0.5), make_path(t00=0.5)])["power_vv"]
        assert two - one == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    def test_empty_sentinel(self):
        row = metric_row([])
        for pol in ("vv", "vh", "hv", "hh"):
            assert row[f"power_{pol}"] == -math.inf

    def test_pol_pair_selects_entry(self):
        t = np.array([[1.0, 0.5], [0.25, 2.0]], dtype=complex)
        row = metric_row([make_path(transfer=t)])
        assert row["power_vv"] == pytest.approx(0.0)
        assert row["power_vh"] == pytest.approx(20 * math.log10(0.5))
        assert row["power_hv"] == pytest.approx(20 * math.log10(0.25))
        assert row["power_hh"] == pytest.approx(20 * math.log10(2.0))


def delay_of(paths):
    row = metric_row(paths)
    return row["mean_delay"], row["delay_spread"]


def angles_of(paths):
    row = metric_row(paths)
    return row["mean_haoa"], row["haoa_spread"], row["mean_vaoa"], row["vaoa_spread"]


def doppler_of(paths):
    row = metric_row(paths)
    return row["mean_doppler"], row["doppler_spread"]


class TestDelayStats:
    def test_single_path(self):
        mean, spread = delay_of([make_path(delay=1e-6)])
        assert mean == pytest.approx(1e-6)
        assert spread == 0.0

    def test_equal_powers(self):
        mean, spread = delay_of([make_path(delay=0.0), make_path(delay=100e-9)])
        assert mean == pytest.approx(50e-9)
        assert spread == pytest.approx(50e-9)

    def test_three_to_one_powers(self):
        paths = [
            make_path(delay=0.0, t00=math.sqrt(3.0)),
            make_path(delay=100e-9, t00=1.0),
        ]
        mean, spread = delay_of(paths)
        assert mean == pytest.approx(25e-9, rel=1e-12)
        assert spread == pytest.approx(math.sqrt(0.75 * 625 + 0.25 * 5625) * 1e-9, rel=1e-12)

    def test_empty_sentinel(self):
        mean, spread = delay_of([])
        assert math.isnan(mean) and math.isnan(spread)

    def test_scale_invariance(self):
        paths = [make_path(delay=0.0, t00=2.0), make_path(delay=80e-9, t00=0.7)]
        scaled = [make_path(delay=p.delay_s, t00=10.0 * p.transfer[0, 0].real) for p in paths]
        assert delay_of(paths)[1] == pytest.approx(delay_of(scaled)[1], rel=1e-12)


class TestAngleStats:
    def test_single_path(self):
        mh, sh, mv, sv = angles_of([make_path(aoa=(math.radians(30), 0.1))])
        assert mh == pytest.approx(math.radians(30))
        assert sh == pytest.approx(0.0, abs=1e-9)
        assert mv == pytest.approx(0.1)
        assert sv == pytest.approx(0.0, abs=1e-12)

    def test_wraparound_mean(self):
        paths = [make_path(aoa=(math.radians(170), 0.0)), make_path(aoa=(math.radians(-170), 0.0))]
        mh, sh, _, _ = angles_of(paths)
        assert math.cos(mh - math.pi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_mean_45deg(self):
        paths = [make_path(aoa=(0.0, 0.0)), make_path(aoa=(math.pi / 2, 0.0))]
        mh, _, _, _ = angles_of(paths)
        assert mh == pytest.approx(math.pi / 4, rel=1e-12)

    def test_small_cluster_spread_matches_rms(self):
        d = math.radians(2.0)
        paths = [make_path(aoa=(d, 0.0)), make_path(aoa=(-d, 0.0))]
        _, sh, _, _ = angles_of(paths)
        assert sh == pytest.approx(d, rel=1e-3)

    def test_rotation_invariance(self):
        paths = [
            make_path(aoa=(0.3, 0.0), t00=1.0),
            make_path(aoa=(1.1, 0.0), t00=0.5),
            make_path(aoa=(-0.4, 0.0), t00=0.25),
        ]
        alpha = 2.5
        rotated = [make_path(aoa=(p.aoa[0] + alpha, 0.0), t00=abs(p.transfer[0, 0])) for p in paths]
        mh0, sh0, _, _ = angles_of(paths)
        mh1, sh1, _, _ = angles_of(rotated)
        assert math.cos(mh1 - mh0 - alpha) == pytest.approx(1.0, abs=1e-12)
        assert sh1 == pytest.approx(sh0, rel=1e-9)

    def test_vertical_linear_stats(self):
        paths = [make_path(aoa=(0.0, 0.0)), make_path(aoa=(0.0, 0.2))]
        _, _, mv, sv = angles_of(paths)
        assert mv == pytest.approx(0.1)
        assert sv == pytest.approx(0.1)


class TestDopplerStats:
    def test_head_on_values(self):
        mean, spread = doppler_of([make_path(doppler=176.05)])
        assert mean == pytest.approx(176.05)
        assert spread == 0.0

    def test_symmetric_pair(self):
        mean, spread = doppler_of([make_path(doppler=176.0), make_path(doppler=-176.0)])
        assert mean == pytest.approx(0.0, abs=1e-9)
        assert spread == pytest.approx(176.0, rel=1e-12)

    def test_empty_sentinel(self):
        mean, spread = doppler_of([])
        assert math.isnan(mean) and math.isnan(spread)


class TestSnapshotMetrics:
    def test_fields_populated(self):
        m = metric_row([make_path(delay=1e-6, aoa=(0.5, 0.1), doppler=10.0)], tx_power_dbm=43.0)
        assert m["power_vv"] == pytest.approx(43.0)
        assert m["power_hh"] == -math.inf
        assert m["mean_delay"] == pytest.approx(1e-6)
        assert m["delay_spread"] == 0.0
        assert m["mean_haoa"] == pytest.approx(0.5)
        assert m["mean_vaoa"] == pytest.approx(0.1)
        assert m["mean_doppler"] == pytest.approx(10.0)
        series = metric_series([snap([make_path(doppler=10.0)], t=0.0), snap([], t=0.01)], 43.0)
        assert list(series) == ["timestamp_s", *METRIC_NAMES]
        assert series["timestamp_s"].tolist() == [0.0, 0.01]
        assert series["mean_doppler"][0] == 10.0 and math.isnan(series["mean_doppler"][1])


class TestRaisedCosine:
    B = 100e6
    BETA = 0.95

    def pulse(self, t):
        """The TV-CIR's pulse, ``metrics._pulse_of``, at the time ``t`` in
        seconds."""
        return float(_pulse_of(np.array([t]) * self.B, self.BETA)[0])

    def test_unit_peak(self):
        assert self.pulse(0.0) == 1.0

    def test_singular_point_finite(self):
        t_sing = 1.0 / (2.0 * self.BETA * self.B)
        want = (math.pi / 4.0) * np.sinc(1.0 / (2.0 * self.BETA))
        got = self.pulse(t_sing)
        assert got == pytest.approx(want, rel=1e-12)
        # approaching the singularity from both sides agrees with the limit
        eps = 1e-14
        assert self.pulse(t_sing + eps) == pytest.approx(want, rel=1e-4)

    def test_zero_crossings_at_symbol_times(self):
        T = 1.0 / self.B
        for k in (1, 2, 3):
            assert abs(self.pulse(k * T)) < 1e-12


class TestTVCir:
    B = 100e6
    BETA = 0.95

    def test_single_path_peak_on_nearest_bin(self):
        s = snap([make_path(delay=200e-9, t00=2.0)])
        cir = synthesize_tv_cir([s], self.B, self.BETA)
        k = int(np.argmax(np.abs(cir.amplitude[:, 0])))
        assert abs(cir.delays[k] - 200e-9) <= 0.5 / (2.0 * self.B) + 1e-15
        assert np.abs(cir.amplitude[k, 0]) == pytest.approx(2.0, rel=1e-6)

    def test_energy_conservation_when_resolvable(self):
        # separation 100 ns > 2/B = 20 ns
        s = snap([make_path(delay=200e-9, t00=1.0), make_path(delay=300e-9, t00=0.5)])
        cir = synthesize_tv_cir([s], self.B, self.BETA)
        d_tau = cir.delays[1] - cir.delays[0]
        energy = float(np.sum(np.abs(cir.amplitude[:, 0]) ** 2) * d_tau)
        T = 1.0 / self.B
        e_pulse = T * (1.0 - self.BETA / 4.0)
        want = (1.0**2 + 0.5**2) * e_pulse
        assert energy == pytest.approx(want, rel=0.01)

    def test_time_axis_matches_snapshots(self):
        snaps = [snap([make_path(delay=50e-9)], t=0.0), snap([make_path(delay=60e-9)], t=0.01)]
        cir = synthesize_tv_cir(snaps, self.B, self.BETA)
        np.testing.assert_allclose(cir.times, [0.0, 0.01])
        assert cir.amplitude.shape == (len(cir.delays), 2)

    def test_empty_snapshot_column_is_zero(self):
        snaps = [snap([make_path(delay=50e-9)], t=0.0), snap([], t=0.01)]
        cir = synthesize_tv_cir(snaps, self.B, self.BETA)
        assert np.all(cir.amplitude[:, 1] == 0.0)

    @pytest.mark.parametrize("bandwidth", [0.0, -1e6])
    def test_bandwidth_must_be_positive(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            synthesize_tv_cir([snap([make_path()])], bandwidth, self.BETA)

    @pytest.mark.parametrize("rolloff", [-1e-9, 1.0 + 1e-9, math.nan])
    def test_rolloff_must_lie_in_unit_interval(self, rolloff):
        with pytest.raises(ValueError, match=r"rolloff must lie in \[0, 1\]"):
            synthesize_tv_cir([snap([make_path()])], self.B, rolloff)


def oracle_pulse(x, rolloff):
    """The unit-peak raised-cosine pulse at the times ``x`` in symbols, by
    its closed form ``sinc(x) * cos(pi*beta*x) / (1 - (2*beta*x)^2)``, the
    removable singularity at ``|x| = 1/(2*beta)`` filled with its limit
    ``(pi/4) * sinc(1/(2*beta))``: the operations of ``metrics._pulse_of``,
    in its order."""
    den = 1.0 - (2.0 * rolloff * x) ** 2
    singular = np.abs(den) < 1e-12
    vals = np.sinc(x) * np.cos(math.pi * rolloff * x) / np.where(singular, 1.0, den)
    if rolloff > 0.0:
        vals[singular] = (math.pi / 4.0) * np.sinc(1.0 / (2.0 * rolloff))
    return vals


def oracle_tv_cir(snapshots, bandwidth, rolloff, grid=None):
    """Per-path oracle of ``synthesize_tv_cir``: one pulse evaluation per
    path per snapshot, its V->V entry times the pulse added into the
    snapshot's column in path order, on ``grid`` or, when none is given, on
    the default delay grid."""
    if grid is None:
        max_delay = 0.0
        for s in snapshots:
            for p in read_rows(s.paths):
                max_delay = max(max_delay, p.delay_s)
        max_spacing = 1.0 / (2.0 * bandwidth)
        n = int(math.ceil((max_delay + PULSE_SUPPORT_SYMBOLS / bandwidth) / max_spacing)) + 1
        grid = np.arange(n) * max_spacing
    amp = np.zeros((grid.size, len(snapshots)), dtype=complex)
    for j, s in enumerate(snapshots):
        for p in read_rows(s.paths):
            entry = p.transfer[0, 0]
            if entry == 0.0:
                continue
            amp[:, j] += entry * oracle_pulse((grid - p.delay_s) * bandwidth, rolloff)
    return grid, amp


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.fixture(scope="module")
def pylon_cfg_snaps():
    cfg, result = pylon_window()
    return cfg, result.snapshots


class TestTVCirAgainstOracle:
    B = 100e6
    BETA = 0.95

    def check(self, snaps, bandwidth=B, rolloff=BETA):
        """The CIR against the oracle of all rows and its ``scattered`` part
        against the oracle of the scatter rows alone, on the same grid."""
        cir = synthesize_tv_cir(snaps, bandwidth, rolloff)
        grid, amp = oracle_tv_cir(snaps, bandwidth, rolloff)
        assert_bits_equal(cir.delays, grid)
        assert_bits_equal(cir.amplitude, amp)
        scatter = [replace(s, paths=s.paths.take(s.paths.tag == TAG_SCATTER)) for s in snaps]
        assert_bits_equal(cir.scattered, oracle_tv_cir(scatter, bandwidth, rolloff, grid)[1])
        return cir

    def test_pylon_window(self, pylon_cfg_snaps):
        cfg, snaps = pylon_cfg_snaps
        cir = self.check(snaps, cfg.bandwidth_hz, cfg.rolloff)
        assert np.count_nonzero(cir.amplitude) > 0.9 * cir.amplitude.size
        # the window's pylon echoes reach the scatter-only column
        assert np.count_nonzero(cir.scattered) > 0

    def test_zero_entry_is_skipped(self):
        # a path with a zero entry adds nothing to either sum: the CIR is
        # that of the snapshot without it (the latest delay, which sets the
        # grid, is kept)
        paths = [
            make_path(delay=100e-9, t00=0.7 - 0.2j),
            make_path(delay=60e-9, t00=0.0),
            make_path(delay=120e-9, t00=0.3j, tag=TAG_SCATTER),
            make_path(delay=80e-9, t00=-0.0, tag=TAG_SCATTER),
        ]
        cir = self.check([snap(paths)])
        alone = synthesize_tv_cir([snap([paths[0], paths[2]])], self.B, self.BETA)
        assert_bits_equal(cir.amplitude, alone.amplitude)
        assert_bits_equal(cir.scattered, alone.scattered)

    def test_singular_grid_point(self):
        # a delay 1/(2 beta B) before a point of the default grid puts that
        # point on the pulse's removable singularity
        spacing = 1.0 / (2.0 * self.B)
        delay = 40 * spacing - 1.0 / (2.0 * self.BETA * self.B)
        snaps = [snap([make_path(delay=delay, t00=1.0 + 1.0j), make_path(delay=7 * spacing, t00=-0.5)])]
        cir = self.check(snaps)
        x = (cir.delays - delay) * self.B
        assert np.any(np.abs(1.0 - (2.0 * self.BETA * x) ** 2) < 1e-12)

    def test_zero_rolloff(self):
        paths = [make_path(delay=d, t00=a) for d, a in ((30e-9, 1.0), (31e-9, 0.3j), (90e-9, -0.2 + 0.1j))]
        self.check([snap(paths), snap(paths[1:], t=0.01)], rolloff=0.0)

    def test_snapshot_without_paths(self):
        snaps = [snap([], t=0.0), snap([make_path(delay=50e-9, t00=0.5j)], t=0.01), snap([], t=0.02)]
        cir = self.check(snaps)
        assert not cir.amplitude[:, [0, 2]].any()
        cir = self.check([snap([])])
        assert cir.delays.size == int(math.ceil(PULSE_SUPPORT_SYMBOLS * 2.0)) + 1


def power_series_snapshots(values_db, t0=0.0, dt=0.01, aoa=None, doppler=0.0):
    """One single-path snapshot per value, with power_vv equal to the value."""
    out = []
    for i, v in enumerate(values_db):
        amp = 10.0 ** (v / 20.0)
        a = aoa[i] if aoa is not None else (0.0, 0.0)
        out.append(snap([make_path(t00=amp, aoa=a, doppler=doppler)], t=t0 + i * dt))
    return out


def compare(reference, test):
    """``compare_series`` of the metric tables of two snapshot lists."""
    return compare_series(metric_series(reference), metric_series(test))


class TestCompareStreams:
    def test_self_compare_all_zero(self):
        ref = power_series_snapshots(np.linspace(-60, -30, 25))
        rep = compare(ref, ref)
        for name, m in rep.items():
            if m.n_samples == 0:  # e.g. power_hh of a VV-only synthetic stream
                continue
            assert m.rmse == 0.0, name
            if not m.degenerate:
                assert m.nrmse == 0.0, name

    def test_constant_error_nrmse_point_one(self):
        base = np.linspace(0.0, 28.625, 101)  # Q90 - Q10 = 0.8 * 28.625 = 22.9 dB
        ref = power_series_snapshots(base)
        test = power_series_snapshots(base + 2.29)
        rep = compare(ref, test)
        m = rep["power_vv"]
        assert m.q90 - m.q10 == pytest.approx(22.9, rel=1e-9)
        assert m.rmse == pytest.approx(2.29, rel=1e-9)
        assert m.nrmse == pytest.approx(0.10, rel=1e-9)

    def test_timestamp_mismatch_rejected(self):
        ref = power_series_snapshots([-40, -41, -42], t0=0.0)
        test = power_series_snapshots([-40, -41, -42], t0=0.005)
        with pytest.raises(ValueError, match=r"identical timestamps \(3 reference vs 3 test"):
            compare(ref, test)
        with pytest.raises(ValueError, match=r"identical timestamps \(3 reference vs 2 test"):
            compare(ref, ref[:2])

    def test_shift_invariance(self):
        base = np.linspace(-60, -30, 50)
        noise = np.sin(np.arange(50))
        r1 = compare(power_series_snapshots(base), power_series_snapshots(base + noise))
        r2 = compare(power_series_snapshots(base + 7.0), power_series_snapshots(base + noise + 7.0))
        m1, m2 = r1["power_vv"], r2["power_vv"]
        assert m1.rmse == pytest.approx(m2.rmse, rel=1e-9)
        assert m1.nrmse == pytest.approx(m2.nrmse, rel=1e-9)

    def test_rmse_symmetric_under_swap(self):
        base = np.linspace(-60, -30, 50)
        noise = np.cos(np.arange(50))
        a = power_series_snapshots(base)
        b = power_series_snapshots(base + noise)
        assert compare(a, b)["power_vv"].rmse == pytest.approx(
            compare(b, a)["power_vv"].rmse, rel=1e-12
        )

    def test_circular_error_wraps(self):
        n = 20
        aoa_ref = [(math.radians(179.0), 0.0)] * n
        aoa_test = [(math.radians(-179.0), 0.0)] * n
        ref = power_series_snapshots(np.linspace(-50, -40, n), aoa=aoa_ref)
        test = power_series_snapshots(np.linspace(-50, -40, n), aoa=aoa_test)
        m = compare(ref, test)["mean_haoa"]
        assert m.rmse == pytest.approx(math.radians(2.0), rel=1e-6)

    def test_degenerate_normalization_flagged(self):
        # vaoa spread is identically zero -> Q90-Q10 = 0 -> flagged, excluded
        base = np.linspace(-60, -30, 30)
        ref = power_series_snapshots(base)
        test = power_series_snapshots(base + 0.5)
        rep = compare(ref, test)
        assert rep["vaoa_spread"].degenerate
        assert math.isnan(rep["vaoa_spread"].nrmse) and not rep["power_vv"].degenerate

    def test_error_cdf_quantiles(self):
        base = np.linspace(-60, -30, 100)
        err = np.linspace(0.0, 1.0, 100)
        rep = compare(power_series_snapshots(base), power_series_snapshots(base + err))
        m = rep["power_vv"]
        assert m.quantiles[50] == pytest.approx(0.5, abs=0.02)
        assert m.quantiles[99] == pytest.approx(0.99, abs=0.02)
        assert m.n_samples == 100
        levels = list(m.quantiles.values())
        assert levels == sorted(levels)


class TestPowerDecomposition:
    def test_no_scatter(self):
        snaps = [snap([make_path(t00=1.0)], t=0.0)]
        dec = power_decomposition(snaps)
        assert dec.scattered_dbm[0] == -math.inf
        assert dec.total_dbm[0] == dec.specular_dbm[0]

    def test_scatter_only(self):
        snaps = [snap([make_path(t00=0.5, tag=TAG_SCATTER)], t=0.0)]
        dec = power_decomposition(snaps)
        assert dec.specular_dbm[0] == -math.inf
        assert dec.total_dbm[0] == dec.scattered_dbm[0]

    def test_orthogonal_phasors_fractions(self):
        spec = make_path(t00=1.0, tag=TAG_SPECULAR)
        scat = make_path(transfer=np.array([[1j, 0], [0, 0]]), tag=TAG_SCATTER)
        dec = power_decomposition([snap([spec, scat])])
        assert dec.total_dbm[0] == pytest.approx(10 * math.log10(2.0))
        assert dec.specular_fraction == pytest.approx(0.5, rel=1e-12)
        assert dec.scattered_fraction == pytest.approx(0.5, rel=1e-12)

    def test_tx_power_offset(self):
        snaps = [snap([make_path(t00=1.0)], t=0.0)]
        dec = power_decomposition(snaps, tx_power_dbm=43.0)
        assert dec.specular_dbm[0] == pytest.approx(43.0)


# ----------------------------------------------------------------------
# the metric kernel and power_decomposition against per-path oracles
# ----------------------------------------------------------------------
def oracle_narrowband_power(paths, r, c, tx_power_dbm):
    total = 0.0 + 0.0j
    for p in paths:
        total += p.transfer[r, c]
    mag = abs(total)
    if mag == 0.0:
        return -math.inf
    return tx_power_dbm + 20.0 * math.log10(mag)


def oracle_weighted_mean_rms(values, weights):
    total = float(np.sum(weights))
    if total <= 0.0:
        return math.nan, math.nan
    w = weights / total
    mean = float(np.sum(w * values))
    var = float(np.sum(w * (values - mean) ** 2))
    return mean, math.sqrt(max(var, 0.0))


def oracle_angle_stats(paths, weights):
    total = float(np.sum(weights))
    if total <= 0.0:
        return math.nan, math.nan, math.nan, math.nan
    az = np.array([p.aoa[0] for p in paths], dtype=float)
    el = np.array([p.aoa[1] for p in paths], dtype=float)
    w = weights / total
    resultant = complex(np.sum(w * np.exp(1j * az)))
    mean_h = float(np.angle(resultant))
    r_len = min(abs(resultant), 1.0)
    spread_h = math.sqrt(2.0 * (1.0 - r_len))
    return (mean_h, spread_h, *oracle_weighted_mean_rms(el, weights))


def oracle_snapshot_row(paths, tx_power_dbm):
    """The per-statistic helpers the kernel replaced: one Python walk over
    the paths per power, per weight and per statistic."""
    powers = [oracle_narrowband_power(paths, r, c, tx_power_dbm) for r in (0, 1) for c in (0, 1)]
    if not paths:
        return (*powers, *[math.nan] * 8)
    weights = np.array([float(np.sum(np.abs(p.transfer) ** 2)) for p in paths], dtype=float)
    delays = np.array([p.delay_s for p in paths], dtype=float)
    dopplers = np.array([p.doppler_hz for p in paths], dtype=float)
    return (
        *powers,
        *oracle_weighted_mean_rms(delays, weights),
        *oracle_angle_stats(paths, weights),
        *oracle_weighted_mean_rms(dopplers, weights),
    )


def oracle_metric_series(snapshots, tx_power_dbm=0.0):
    rows = [oracle_snapshot_row(read_rows(s.paths), tx_power_dbm) for s in snapshots]
    return {name: np.array([row[k] for row in rows], dtype=float) for k, name in enumerate(METRIC_NAMES)}


def oracle_power_decomposition(snapshots, tx_power_dbm=0.0):
    scale = 10.0 ** (tx_power_dbm / 10.0)
    n = len(snapshots)
    db = {k: np.full(n, -math.inf) for k in ("spec", "scat", "tot")}
    lin = {k: np.zeros(n) for k in ("spec", "scat", "tot")}
    for i, s in enumerate(snapshots):
        paths = read_rows(s.paths)
        sums = {
            "spec": sum((p.transfer[0, 0] for p in paths if p.tag == TAG_SPECULAR), 0.0 + 0.0j),
            "scat": sum((p.transfer[0, 0] for p in paths if p.tag != TAG_SPECULAR), 0.0 + 0.0j),
            "tot": sum((p.transfer[0, 0] for p in paths), 0.0 + 0.0j),
        }
        for k, z in sums.items():
            lin[k][i] = scale * abs(z) ** 2
            if abs(z) > 0.0:
                db[k][i] = tx_power_dbm + 20.0 * math.log10(abs(z))
    mean_tot = float(np.mean(lin["tot"])) if n else 0.0
    if mean_tot > 0.0:
        fractions = (float(np.mean(lin["spec"])) / mean_tot, float(np.mean(lin["scat"])) / mean_tot)
    else:
        fractions = (math.nan, math.nan)
    return db["spec"], db["scat"], db["tot"], fractions


def crafted_metric_snapshots():
    """Snapshots that reach every branch of the kernel, one case each."""
    rng = np.random.default_rng(11)

    def full(k, tag=TAG_SPECULAR, scale=1.0):
        t = scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        aoa = (rng.uniform(-math.pi, math.pi), rng.uniform(-0.3, 0.3))
        return make_path(delay=rng.uniform(0, 2e-6), transfer=t, aoa=aoa, doppler=rng.normal() * 100, tag=tag)

    zero = np.zeros((2, 2), dtype=complex)
    neg_zero = np.full((2, 2), complex(-0.0, -0.0))
    tiny = np.full((2, 2), 1e-200 + 1e-200j)  # |T|^2 underflows to 0
    nan_t = np.array([[complex(math.nan, 0.0), 1.0], [0.5j, 1.0]])
    mixed = [full(k, (TAG_SPECULAR, TAG_SCATTER)[k % 3 == 0], 10.0 ** (k % 5 - 2)) for k in range(37)]
    cases = [
        [],
        [make_path(delay=1e-6, t00=0.3 - 0.4j, aoa=(0.5, 0.1), doppler=10.0)],
        [make_path(t00=1.0, delay=0.0), make_path(t00=-1.0, delay=50e-9)],  # cancelling pair
        [make_path(transfer=zero), make_path(transfer=zero, delay=2e-6)],
        [make_path(transfer=tiny), make_path(transfer=tiny, delay=2e-6, tag=TAG_SCATTER)],
        [make_path(transfer=neg_zero), make_path(transfer=neg_zero, tag=TAG_SCATTER)],
        [make_path(transfer=neg_zero), full(0), make_path(transfer=neg_zero, tag=TAG_SCATTER)],
        [make_path(aoa=(math.pi - 0.01, 0.0)), make_path(aoa=(-math.pi + 0.02, 0.1), t00=0.7j)],
        [full(k, TAG_SCATTER) for k in range(9)],  # no specular rows
        [full(k) for k in range(9)],  # no scatter rows
        [make_path(transfer=nan_t), full(0, TAG_SCATTER)],
        mixed,
        mixed[::-1],
    ]
    return [snap(paths, t=0.01 * k) for k, paths in enumerate(cases)]


@pytest.fixture(scope="module")
def interp_run_snaps():
    """``run --duration 1.5 --kf-interval 0.5 --scatter interpolated``."""
    cfg, result = preset_stream(duration_s=1.5, kf_interval_s=0.5, scatter_mode="interpolated")
    return cfg, result.snapshots


class TestKernelAgainstOracle:
    def check(self, snaps, tx_power_dbm=43.0):
        with np.errstate(invalid="ignore", over="ignore"):
            series = metric_series(snaps, tx_power_dbm)
            want = oracle_metric_series(snaps, tx_power_dbm)
            dec = power_decomposition(snaps, tx_power_dbm)
            spec, scat, tot, fractions = oracle_power_decomposition(snaps, tx_power_dbm)
        stamps = np.array([s.timestamp for s in snaps], dtype=float)
        assert list(series) == ["timestamp_s", *METRIC_NAMES]
        assert_bits_equal(series["timestamp_s"], stamps)
        for name in METRIC_NAMES:
            assert_bits_equal(series[name], want[name])
        assert_bits_equal(dec.timestamp_s, stamps)
        assert_bits_equal(dec.specular_dbm, spec)
        assert_bits_equal(dec.scattered_dbm, scat)
        assert_bits_equal(dec.total_dbm, tot)
        assert_bits_equal(np.array([dec.specular_fraction, dec.scattered_fraction]), np.array(fractions))
        return series, dec

    def test_preset_run_stream(self, interp_run_snaps):
        cfg, snaps = interp_run_snaps
        series, _ = self.check(snaps, cfg.tx_power_dbm)
        assert np.isfinite(series["delay_spread"]).all()

    def test_pylon_window(self, pylon_cfg_snaps):
        cfg, snaps = pylon_cfg_snaps
        _, dec = self.check(snaps, cfg.tx_power_dbm)
        assert np.isfinite(dec.scattered_dbm).all()

    def test_crafted_snapshots(self):
        snaps = crafted_metric_snapshots()
        series, dec = self.check(snaps)
        self.check(snaps[::-1], tx_power_dbm=0.0)
        # no paths, cancellation, all-zero and -0.0 transfers: no power
        for k in (0, 2, 3, 5):
            assert series["power_vv"][k] == -math.inf
        # transfers whose weights underflow: a power, but no statistics
        assert np.isfinite(series["power_vv"][4]) and np.isnan(series["mean_delay"][4])
        # a NaN coherent sum: NaN power here, -inf in the power split
        assert np.isnan(series["power_vv"][10]) and dec.specular_dbm[10] == -math.inf
        assert dec.specular_dbm[8] == -math.inf and dec.scattered_dbm[9] == -math.inf

    def test_empty_stream(self):
        series, dec = self.check([])
        assert all(series[name].shape == (0,) for name in METRIC_NAMES)
        assert dec.total_dbm.shape == (0,)
