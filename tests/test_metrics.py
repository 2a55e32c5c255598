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

import functools
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
    PULSE_BLOCK,
    PULSE_SUPPORT_SYMBOLS,
    _PulseGrid,
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


def grid_pulse(x, bandwidth, rolloff):
    """The TV-CIR's grid kernel, ``metrics._PulseGrid``, at ``x`` symbols
    from a path's delay: the path is placed so that a bin of the half-symbol
    grid falls on ``x``."""
    i = math.ceil(2.0 * x)
    delay = (i / 2.0 - x) / bandwidth
    return float(_PulseGrid(i + 1, bandwidth, rolloff, delay)(np.array([delay]))[0, i])


class TestRaisedCosine:
    B = 100e6
    BETA = 0.95

    def pulse(self, t):
        """The TV-CIR's pulse at the time ``t`` in seconds."""
        return grid_pulse(t * self.B, self.B, self.BETA)

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
        assert self.pulse(t_sing - eps) == pytest.approx(want, rel=1e-4)

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
    ``(pi/4) * sinc(1/(2*beta))``: the rule the TV-CIR used before its
    pulses were range-reduced, kept as a differential check."""
    den = 1.0 - (2.0 * rolloff * x) ** 2
    singular = np.abs(den) < 1e-12
    vals = np.sinc(x) * np.cos(math.pi * rolloff * x) / np.where(singular, 1.0, den)
    if rolloff > 0.0:
        vals[singular] = (math.pi / 4.0) * np.sinc(1.0 / (2.0 * rolloff))
    return vals


#: Dekker's splitter for doubles, 2**27 + 1
SPLIT = 134217729.0


def reduced_delay(delay, bandwidth):
    """(j, h) of one delay: j = round(2*d*B) half to even, as ``np.rint``,
    and h = d*B - j/2 from Dekker's exact product d*B = p + e."""

    def halves(v):
        hi = v * SPLIT
        hi = hi - (hi - v)
        return hi, v - hi

    p = delay * bandwidth
    (d_hi, d_lo), (b_hi, b_lo) = halves(delay), halves(bandwidth)
    e = ((d_hi * b_hi - p) + d_hi * b_lo + d_lo * b_hi) + d_lo * b_lo
    j = round(2.0 * p)
    return j, (p - 0.5 * j) + e


@functools.lru_cache(maxsize=1 << 14)
def half_angle_trig(k, w):
    """cos and sin of w * k/2, by Python ``math``."""
    angle = (k * 0.5) * w
    return math.cos(angle), math.sin(angle)


def rule_pulse(delay, bandwidth, rolloff, n):
    """One path's pulses on bins 0..n-1 of the half-symbol grid by the
    range-reduced rule of ``synthesize_tv_cir``, path by path: bin i at
    x = k/2 - h, k = i - j; sin(pi*x) picked by k mod 4 from sin and cos of
    pi*h; cos(pi*beta*x) = cos(pi*beta*k/2)*cos(pi*beta*h) +
    sin(pi*beta*k/2)*sin(pi*beta*h); each sine and cosine a Python ``math``
    call, the arithmetic in the kernel's order.  Where |den| < 1e-2 the
    near-singular form (sin(pi*x) / (pi*x)) * sin(pi*u/2) / (u*(2 - u)),
    u = 1 - 2*beta*|x| (pi/4 at u = 0); 1.0 at x = 0."""
    j, h = reduced_delay(delay, bandwidth)
    k = np.arange(n) - j
    x = k * 0.5 - h
    sh, ch = math.sin(math.pi * h), math.cos(math.pi * h)
    sin_x = np.array([-sh, ch, sh, -ch])[k % 4]
    w = math.pi * rolloff
    cb, sb = math.cos(w * h), math.sin(w * h)
    cos_k, sin_k = np.array([half_angle_trig(kk, w) for kk in k.tolist()]).T
    cos_x = cos_k * cb + sin_k * sb
    den = 1.0 - (x * (2.0 * rolloff)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        pulse = (sin_x * cos_x) / ((x * math.pi) * den)
    for i in np.flatnonzero(np.abs(den) < 1e-2).tolist():
        u = 1.0 - (2.0 * rolloff) * abs(x[i])
        q = math.pi / 4.0 if u == 0.0 else math.sin((math.pi / 2.0) * u) / (u * (2.0 - u))
        pulse[i] = sin_x[i] / (math.pi * x[i]) * q
    pulse[x == 0.0] = 1.0
    return pulse


def closed_form_pulses(grid, delay, bandwidth, rolloff):
    return oracle_pulse((grid - delay) * bandwidth, rolloff)


def rule_pulses(grid, delay, bandwidth, rolloff):
    return rule_pulse(delay, bandwidth, rolloff, grid.size)


def default_grid(snapshots, bandwidth):
    """The TV-CIR's delay grid: 0 to the latest delay plus the pulse support
    at spacing 1/(2*bandwidth)."""
    max_delay = 0.0
    for s in snapshots:
        for p in read_rows(s.paths):
            max_delay = max(max_delay, p.delay_s)
    spacing = 1.0 / (2.0 * bandwidth)
    n = int(math.ceil((max_delay + PULSE_SUPPORT_SYMBOLS / bandwidth) / spacing)) + 1
    return np.arange(n) * spacing


def oracle_tv_cir(snapshots, bandwidth, rolloff, pulses_of, grid):
    """Per-path oracle of ``synthesize_tv_cir`` on ``grid``: one pulse
    evaluation ``pulses_of(grid, delay, bandwidth, rolloff)`` per path per
    snapshot, its V->V entry times the pulse added into the snapshot's
    column in path order."""
    amp = np.zeros((grid.size, len(snapshots)), dtype=complex)
    for j, s in enumerate(snapshots):
        for p in read_rows(s.paths):
            entry = p.transfer[0, 0]
            if entry == 0.0:
                continue
            amp[:, j] += entry * pulses_of(grid, p.delay_s, bandwidth, rolloff)
    return amp


def entry_sums(snapshots):
    """Each snapshot's sum of |V->V entry|, the scale of its column."""
    return np.array([np.abs(s.paths.transfer[:, 0, 0]).sum() for s in snapshots])


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.fixture(scope="module")
def pylon_cfg_snaps():
    cfg, result = pylon_window()
    return cfg, result.snapshots


#: per bin, the largest |range-reduced - closed form| of a TV-CIR column,
#: relative to the column's sum of |entry|
CLOSED_FORM_TOLERANCE = 1e-12


class TestTVCirAgainstOracle:
    B = 100e6
    BETA = 0.95

    def check(self, snaps, bandwidth=B, rolloff=BETA):
        """The CIR against the rule's oracle bit for bit, and within
        :data:`CLOSED_FORM_TOLERANCE` of the closed form's; its ``scattered``
        part likewise against the oracles of the scatter rows alone, on the
        same grid."""
        cir = synthesize_tv_cir(snaps, bandwidth, rolloff)
        grid = default_grid(snaps, bandwidth)
        assert_bits_equal(cir.delays, grid)
        scatter = [replace(s, paths=s.paths.take(s.paths.tag == TAG_SCATTER)) for s in snaps]
        for got, rows in ((cir.amplitude, snaps), (cir.scattered, scatter)):
            assert_bits_equal(got, oracle_tv_cir(rows, bandwidth, rolloff, rule_pulses, grid))
            closed = oracle_tv_cir(rows, bandwidth, rolloff, closed_form_pulses, grid)
            assert np.all(np.abs(got - closed) <= CLOSED_FORM_TOLERANCE * entry_sums(rows))
        return cir

    def test_pylon_window(self, pylon_cfg_snaps):
        cfg, snaps = pylon_cfg_snaps
        cir = self.check(snaps, cfg.bandwidth_hz, cfg.rolloff)
        assert np.count_nonzero(cir.amplitude) > 0.9 * cir.amplitude.size
        # the window's pylon echoes reach the scatter-only column
        assert np.count_nonzero(cir.scattered) > 0
        # its snapshots take several blocks of pulses each
        assert max(len(s.paths) for s in snaps) > 2 * PULSE_BLOCK

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


def exact_pulse(mp, i, delay, bandwidth, rolloff):
    """The pulse at bin i of a path of ``delay`` at mpmath's precision: x =
    i/2 - delay*bandwidth from the floats' exact values."""
    x = mp.mpf(int(i)) / 2 - mp.mpf(delay) * mp.mpf(bandwidth)
    if x == 0:
        return mp.mpf(1)
    beta = mp.mpf(rolloff)
    den = 1 - (2 * beta * x) ** 2
    sinc = mp.sinpi(x) / (mp.pi * x)
    if den == 0:
        return sinc * mp.pi / 4
    return sinc * mp.cospi(beta * x) / den


def grid_errors(mp, delays, bandwidth, rolloff, n, bins_of):
    """Per path of ``delays``, the largest |pulse - exact| over the bins
    ``bins_of(delay)`` of the grid kernel and of the closed form."""
    grid = np.arange(n) * (1.0 / (2.0 * bandwidth))
    pulses = _PulseGrid(n, bandwidth, rolloff, float(delays.max()))
    new, closed = [], []
    for b in range(0, len(delays), PULSE_BLOCK):
        block = delays[b : b + PULSE_BLOCK]
        for d, got in zip(block.tolist(), pulses(block)):
            bins = bins_of(d)
            want = np.array([float(exact_pulse(mp, i, d, bandwidth, rolloff)) for i in bins.tolist()])
            new.append(np.abs(got[bins] - want).max())
            closed.append(np.abs(closed_form_pulses(grid[bins], d, bandwidth, rolloff) - want).max())
    return np.array(new), np.array(closed)


class TestGridKernelAccuracy:
    """The range-reduced pulses against 40-digit mpmath at the exact bin
    times, beside the closed form on the same bins."""

    B = 100e6
    BETA = 0.95

    def test_pylon_snapshots_no_less_accurate_than_the_closed_form(self, pylon_cfg_snaps):
        mp = pytest.importorskip("mpmath").mp
        cfg, snaps = pylon_cfg_snaps
        bandwidth, rolloff = cfg.bandwidth_hz, cfg.rolloff
        n = default_grid(snaps, bandwidth).size
        rng = np.random.default_rng(36)
        near_bins = []

        def bins_of(delay):
            # 12 bins at random and every bin near the singularity
            x = np.arange(n) / 2.0 - delay * bandwidth
            near = np.flatnonzero(np.abs(1.0 - (2.0 * rolloff * x) ** 2) < 0.05)
            near_bins.append(near.size)
            return np.union1d(rng.choice(n, 12, replace=False), near)

        news, closeds = [], []
        with mp.workdps(40):
            for s in (snaps[0], snaps[len(snaps) // 2], snaps[-1]):
                new, closed = grid_errors(mp, s.paths.delay_s, bandwidth, rolloff, n, bins_of)
                news.append(new)
                closeds.append(closed)
        new, closed = np.concatenate(news), np.concatenate(closeds)
        assert sum(near_bins) > 0
        print(f"largest error: range-reduced {new.max():.2e}, closed form {closed.max():.2e}")
        assert new.max() <= closed.max()

    def near_singularity(self, rolloff, offsets):
        """Pulses and exact values at bins ``offsets`` symbols past x =
        1/(2*rolloff), one path per offset, all on bin 40."""
        mp = pytest.importorskip("mpmath").mp
        delays = np.array([(20.0 - 1.0 / (2.0 * rolloff) - o) / self.B for o in offsets])
        with np.errstate(all="raise"):
            got = _PulseGrid(41, self.B, rolloff, float(delays.max()))(delays)[:, 40]
        with mp.workdps(40):
            want = np.array([float(exact_pulse(mp, 40, d, self.B, rolloff)) for d in delays.tolist()])
        return got, want

    def test_bins_a_billionth_of_a_symbol_either_side_of_the_singularity(self):
        got, want = self.near_singularity(self.BETA, [-1e-9, 0.0, 1e-9])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        limit = (math.pi / 4.0) * np.sinc(1.0 / (2.0 * self.BETA))
        np.testing.assert_allclose(got, limit, rtol=1e-8)

    def test_exact_singular_bin(self):
        # B = 2**26 Hz and a dyadic delay make d*B exact, so bin 2 sits at
        # exactly x, the float whose den and u are exactly 0 at beta = 0.95;
        # at beta = 1, delay 0 puts bin 1 at x = 1/2
        bandwidth = 2.0**26
        x = np.nextafter(1.0 / 1.9, 2.0)
        assert 1.0 - (x * 1.9) ** 2 == 0.0 and 1.0 - 1.9 * abs(x) == 0.0
        for rolloff, delay, i in ((0.95, (1.0 - x) / bandwidth, 2), (1.0, 0.0, 1)):
            with np.errstate(all="raise"):
                got = _PulseGrid(i + 1, bandwidth, rolloff, delay)(np.array([delay]))[0, i]
            assert got == rule_pulse(delay, bandwidth, rolloff, i + 1)[i]
            assert got == pytest.approx((math.pi / 4.0) * np.sinc(1.0 / (2.0 * rolloff)), rel=1e-15)
        # the last case's limit: (pi/4) * sinc(1/2) = 1/2
        assert got == pytest.approx(0.5, rel=1e-15)

    def test_delay_on_a_bin_gives_exactly_one(self):
        # a dyadic delay and bandwidth put bin 6 at x = 0 exactly; 7 half
        # symbols at 100 MHz put bin 7 within an ulp of it
        for bandwidth, delay, i in ((2.0**26, 3.0 / 2.0**26, 6), (self.B, 7 / (2.0 * self.B), 7)):
            with np.errstate(all="raise"):
                pulse = _PulseGrid(i + 3, bandwidth, self.BETA, delay)(np.array([delay]))[0]
            assert pulse[i] == 1.0

    def test_delay_zero(self):
        # bin 0 is the peak and every other even bin a symbol time, where
        # sin(pi*x) is exactly zero
        with np.errstate(all="raise"):
            pulse = _PulseGrid(41, self.B, self.BETA, 0.0)(np.zeros(1))[0]
        assert pulse[0] == 1.0
        assert not pulse[2::2].any()
        np.testing.assert_allclose(pulse, oracle_pulse(np.arange(41) / 2.0, self.BETA), rtol=0.0, atol=1e-15)

    def test_zero_rolloff_is_a_pure_sinc(self):
        delays = np.array([0.0, 31e-9, 90.25e-9])
        n = 40
        pulses = _PulseGrid(n, self.B, 0.0, float(delays.max()))(delays)
        for d, pulse in zip(delays.tolist(), pulses):
            np.testing.assert_allclose(pulse, np.sinc(np.arange(n) / 2.0 - d * self.B), rtol=0.0, atol=1e-15)

    def test_largest_delay_reads_its_tables_from_the_start(self):
        # the latest path has the largest j: its slices start at the
        # tables' first entry, k = -j
        mp = pytest.importorskip("mpmath").mp
        delays = np.array([12e-9, 0.0, 987.6543e-9])
        n = 2 * 100 + 17
        pulses = _PulseGrid(n, self.B, self.BETA, float(delays.max()))(delays)
        for d, pulse in zip(delays.tolist(), pulses):
            assert_bits_equal(pulse, rule_pulse(d, self.B, self.BETA, n))
        peak = int(round(2.0 * delays[-1] * self.B))
        with mp.workdps(40):
            want = [float(exact_pulse(mp, i, delays[-1], self.B, self.BETA)) for i in range(peak - 4, peak + 5)]
        np.testing.assert_allclose(pulses[-1, peak - 4 : peak + 5], want, rtol=0.0, atol=1e-15)


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
