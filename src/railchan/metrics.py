"""Per-snapshot channel metrics, raised-cosine TV-CIR synthesis, and the
reference-vs-interpolated error harness (RMSE, quantile-normalized RMSE,
error CDFs).

Conventions: per-path weights are the Frobenius-squared transfer power, so
delay/angle/Doppler statistics are polarization-agnostic.  Horizontal
arrival angles use circular statistics (power-weighted resultant vector;
spread is the angular deviation sqrt(2*(1-R)), which matches the RMS spread
for tight clusters); vertical angles are linear.  Empty snapshots yield
minus-infinity powers and NaN statistics.  Normalization quantiles are
always taken over the *reference* series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rays import TAG_SPECULAR

_POL_INDEX = {"v": 0, "h": 1}

#: error-CDF quantile table (percent)
QUANTILE_LEVELS = (1, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 99)

#: metrics whose errors must be wrapped onto (-pi, pi]
_CIRCULAR_METRICS = frozenset({"mean_haoa"})

#: minimum reference Q90-Q10 gap per metric before NRMSE is reported; the
#: vertical-angle spread of a near-planar scene varies by well under a
#: degree, which makes its normalized error meaningless
DEFAULT_DEGENERATE_GAPS = {"vaoa_spread": 0.05}

#: delay support, in symbols (1 / bandwidth), that a synthesized TV-CIR grid
#: keeps past the longest path delay
PULSE_SUPPORT_SYMBOLS = 8.0

METRIC_NAMES = (
    "power_vv",
    "power_vh",
    "power_hv",
    "power_hh",
    "mean_delay",
    "delay_spread",
    "mean_haoa",
    "haoa_spread",
    "mean_vaoa",
    "vaoa_spread",
    "mean_doppler",
    "doppler_spread",
)


def _paths(snapshot_or_paths) -> list:
    if hasattr(snapshot_or_paths, "paths"):
        return snapshot_or_paths.paths
    return list(snapshot_or_paths)


def _pol_entry(pol_pair: str) -> tuple[int, int]:
    pp = pol_pair.lower()
    if len(pp) != 2 or pp[0] not in _POL_INDEX or pp[1] not in _POL_INDEX:
        raise ValueError(f"pol_pair must be two of 'v'/'h', got {pol_pair!r}")
    return _POL_INDEX[pp[0]], _POL_INDEX[pp[1]]


# ----------------------------------------------------------------------
# per-snapshot statistics
# ----------------------------------------------------------------------
def narrowband_power(snapshot_or_paths, pol_pair: str = "vv", tx_power_dbm: float = 0.0) -> float:
    """Coherent narrowband received power in dBm for one polarization pair.

    ``tx_power_dbm + 20*log10(|sum of T[pol] over paths|)``; minus infinity
    for an empty snapshot or perfect cancellation.
    """
    r, c = _pol_entry(pol_pair)
    total = 0.0 + 0.0j
    for p in _paths(snapshot_or_paths):
        total += p.transfer[r, c]
    mag = abs(total)
    if mag == 0.0:
        return -math.inf
    return tx_power_dbm + 20.0 * math.log10(mag)


def _weights(paths) -> np.ndarray:
    return np.array([p.power for p in paths], dtype=float)


def _weighted_mean_rms(values: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    total = float(np.sum(weights))
    if total <= 0.0:
        return math.nan, math.nan
    w = weights / total
    mean = float(np.sum(w * values))
    var = float(np.sum(w * (values - mean) ** 2))
    return mean, math.sqrt(max(var, 0.0))


def delay_stats(snapshot_or_paths, weights: np.ndarray | None = None) -> tuple[float, float]:
    """Power-weighted mean delay and RMS delay spread in seconds.

    ``weights`` are the path powers when the caller already has them."""
    paths = _paths(snapshot_or_paths)
    if not paths:
        return math.nan, math.nan
    delays = np.array([p.delay_s for p in paths], dtype=float)
    return _weighted_mean_rms(delays, _weights(paths) if weights is None else weights)


def angle_stats(
    snapshot_or_paths, weights: np.ndarray | None = None
) -> tuple[float, float, float, float]:
    """(mean_haoa, haoa_spread, mean_vaoa, vaoa_spread) in radians.

    Horizontal: circular mean = argument of the power-weighted resultant,
    spread = sqrt(2*(1-R)) with R the resultant length.  Vertical: linear
    power-weighted mean and RMS spread.  ``weights`` as for
    :func:`delay_stats`.
    """
    paths = _paths(snapshot_or_paths)
    if not paths:
        return math.nan, math.nan, math.nan, math.nan
    if weights is None:
        weights = _weights(paths)
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
    mean_v, spread_v = _weighted_mean_rms(el, weights)
    return mean_h, spread_h, mean_v, spread_v


def doppler_stats(snapshot_or_paths, weights: np.ndarray | None = None) -> tuple[float, float]:
    """Power-weighted mean Doppler and RMS Doppler spread in Hz; ``weights``
    as for :func:`delay_stats`."""
    paths = _paths(snapshot_or_paths)
    if not paths:
        return math.nan, math.nan
    dop = np.array([p.doppler_hz for p in paths], dtype=float)
    return _weighted_mean_rms(dop, _weights(paths) if weights is None else weights)


@dataclass
class SnapshotMetrics:
    """The per-timestamp channel descriptors tracked by the harness."""

    timestamp: float
    power_vv: float
    power_vh: float
    power_hv: float
    power_hh: float
    mean_delay: float
    delay_spread: float
    mean_haoa: float
    haoa_spread: float
    mean_vaoa: float
    vaoa_spread: float
    mean_doppler: float
    doppler_spread: float

    def value(self, name: str) -> float:
        return getattr(self, name)


def snapshot_metrics(snapshot, tx_power_dbm: float = 0.0) -> SnapshotMetrics:
    paths = snapshot.paths
    weights = _weights(paths)
    mean_d, spread_d = delay_stats(paths, weights)
    mh, sh, mv, sv = angle_stats(paths, weights)
    md, sd = doppler_stats(paths, weights)
    return SnapshotMetrics(
        timestamp=float(snapshot.timestamp),
        power_vv=narrowband_power(paths, "vv", tx_power_dbm),
        power_vh=narrowband_power(paths, "vh", tx_power_dbm),
        power_hv=narrowband_power(paths, "hv", tx_power_dbm),
        power_hh=narrowband_power(paths, "hh", tx_power_dbm),
        mean_delay=mean_d,
        delay_spread=spread_d,
        mean_haoa=mh,
        haoa_spread=sh,
        mean_vaoa=mv,
        vaoa_spread=sv,
        mean_doppler=md,
        doppler_spread=sd,
    )


# ----------------------------------------------------------------------
# TV-CIR synthesis
# ----------------------------------------------------------------------
def raised_cosine_pulse(t, bandwidth: float, rolloff: float):
    """Unit-peak raised-cosine impulse response sampled at time(s) ``t``.

    ``h(t) = sinc(t/T) * cos(pi*beta*t/T) / (1 - (2*beta*t/T)^2)`` with
    ``T = 1/bandwidth``; the removable singularity at ``|t| = T/(2*beta)``
    is filled with its limit ``(pi/4) * sinc(1/(2*beta))``.
    """
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    if not 0.0 <= rolloff <= 1.0:
        raise ValueError("rolloff must lie in [0, 1]")
    x = np.array(t, dtype=float, ndmin=1) * bandwidth
    den = 1.0 - (2.0 * rolloff * x) ** 2
    singular = np.abs(den) < 1e-12
    den[singular] = 1.0
    # in place, in the order sinc * cos / den
    vals = np.sinc(x)
    vals *= np.cos(math.pi * rolloff * x)
    vals /= den
    if rolloff > 0.0:
        vals[singular] = (math.pi / 4.0) * np.sinc(1.0 / (2.0 * rolloff))
    if np.isscalar(t):
        return float(vals[0])
    return vals.reshape(np.shape(t))


@dataclass
class TVCir:
    """Time-variant impulse response on a uniform delay grid."""

    times: np.ndarray
    delays: np.ndarray
    amplitude: np.ndarray  # (n_delays, n_times) complex
    pol_pair: str
    bandwidth: float
    rolloff: float


def synthesize_tv_cir(
    snapshots,
    bandwidth: float,
    rolloff: float,
    pol_pair: str = "vv",
    delay_grid: np.ndarray | None = None,
) -> TVCir:
    """Band-limited TV-CIR: each path contributes its transfer entry times a
    raised-cosine pulse centered on its delay.

    The delay grid must resolve the bandwidth (spacing <= 1/(2*bandwidth));
    a grid from 0 to the maximum path delay plus ``PULSE_SUPPORT_SYMBOLS``
    symbols is built when none is given.

    Each snapshot's pulses are one (paths x delay grid) evaluation; paths
    with a zero entry are masked out, and the kept paths are added into the
    snapshot's column one by one in path order, so every bin is the same
    sequential sum a per-path loop gives.
    """
    r, c = _pol_entry(pol_pair)
    times, per_snapshot = [], []
    for s in snapshots:
        times.append(s.timestamp)
        delays = np.array([p.delay_s for p in s.paths], dtype=float)
        entries = np.array([p.transfer[r, c] for p in s.paths], dtype=complex)
        per_snapshot.append((delays, entries))
    max_spacing = 1.0 / (2.0 * bandwidth)
    if delay_grid is not None:
        grid = np.asarray(delay_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("delay_grid must be a 1D array with >= 2 points")
        steps = np.diff(grid)
        if np.any(steps <= 0.0):
            raise ValueError("delay_grid must be strictly increasing")
        if np.max(steps) > max_spacing * (1.0 + 1e-9):
            raise ValueError(
                f"delay grid spacing {np.max(steps):.3e} s is coarser than "
                f"1/(2*bandwidth) = {max_spacing:.3e} s"
            )
    else:
        max_delay = max([0.0] + [float(d.max()) for d, _ in per_snapshot if d.size])
        span = max_delay + PULSE_SUPPORT_SYMBOLS / bandwidth
        n = int(math.ceil(span / max_spacing)) + 1
        grid = np.arange(n) * max_spacing

    amp = np.zeros((grid.size, len(times)), dtype=complex)
    column = np.empty(grid.size, dtype=complex)
    for j, (delays, entries) in enumerate(per_snapshot):
        keep = entries != 0.0
        if not keep.any():
            continue
        pulses = raised_cosine_pulse(grid - delays[keep, None], bandwidth, rolloff)
        column[:] = 0.0
        for entry, pulse in zip(entries[keep], pulses):
            column += entry * pulse
        amp[:, j] = column
    return TVCir(
        times=np.array(times, dtype=float),
        delays=grid,
        amplitude=amp,
        pol_pair=pol_pair,
        bandwidth=bandwidth,
        rolloff=rolloff,
    )


# ----------------------------------------------------------------------
# stream comparison
# ----------------------------------------------------------------------
@dataclass
class MetricError:
    """Error summary of one metric across the compared streams."""

    name: str
    rmse: float
    q10: float
    q90: float
    nrmse: float
    degenerate: bool
    abs_errors: np.ndarray
    quantiles: dict
    n_samples: int
    n_excluded: int


@dataclass
class ErrorReport:
    """compare_streams output: per-metric errors on the reference timestamps."""

    metrics: dict
    timestamps: np.ndarray

    def summary(self) -> dict:
        """name -> NRMSE for every metric with a usable normalization."""
        return {
            name: m.nrmse
            for name, m in self.metrics.items()
            if not m.degenerate and m.n_samples > 0
        }


def _wrap_angle(x: np.ndarray) -> np.ndarray:
    return np.arctan2(np.sin(x), np.cos(x))


def metric_series(snapshots, tx_power_dbm: float = 0.0) -> dict:
    """name -> np.ndarray of per-timestamp metric values."""
    rows = [snapshot_metrics(s, tx_power_dbm) for s in snapshots]
    return {name: np.array([r.value(name) for r in rows], dtype=float) for name in METRIC_NAMES}


def compare_streams(
    reference,
    test,
    tx_power_dbm: float = 0.0,
) -> ErrorReport:
    """Per-metric RMSE / NRMSE / error CDFs of a test stream against a
    reference stream on identical timestamps.

    NRMSE divides the RMSE by the Q90-Q10 gap of the *reference* series; a
    metric whose gap is below its degeneracy threshold is flagged and left
    out of :meth:`ErrorReport.summary`.  The thresholds come from
    :data:`DEFAULT_DEGENERATE_GAPS`; a metric it does not name needs a gap of
    at least 1e-15.
    """
    t_ref = np.array([s.timestamp for s in reference], dtype=float)
    t_test = np.array([s.timestamp for s in test], dtype=float)
    if t_ref.shape != t_test.shape or not np.allclose(t_ref, t_test, rtol=0.0, atol=1e-12):
        raise ValueError(
            f"streams must share identical timestamps ({t_ref.size} reference vs "
            f"{t_test.size} test samples)"
        )
    ref_series = metric_series(reference, tx_power_dbm)
    test_series = metric_series(test, tx_power_dbm)
    metrics: dict[str, MetricError] = {}
    for name in METRIC_NAMES:
        rv = ref_series[name]
        tv = test_series[name]
        mask = np.isfinite(rv) & np.isfinite(tv)
        errors = tv[mask] - rv[mask]
        if name in _CIRCULAR_METRICS:
            errors = _wrap_angle(errors)
        n = int(errors.size)
        n_excluded = int(rv.size - n)
        rmse = float(np.sqrt(np.mean(errors**2))) if n else math.nan
        finite_ref = rv[np.isfinite(rv)]
        if finite_ref.size:
            q10 = float(np.quantile(finite_ref, 0.10))
            q90 = float(np.quantile(finite_ref, 0.90))
        else:
            q10 = q90 = math.nan
        gap = q90 - q10
        min_gap = max(DEFAULT_DEGENERATE_GAPS.get(name, 0.0), 1e-15)
        degenerate = (not np.isfinite(gap)) or gap < min_gap or n == 0
        nrmse = rmse / gap if not degenerate else math.nan
        abs_errors = np.sort(np.abs(errors))
        quantiles = {
            level: (float(np.quantile(abs_errors, level / 100.0)) if n else math.nan)
            for level in QUANTILE_LEVELS
        }
        metrics[name] = MetricError(
            name=name,
            rmse=rmse,
            q10=q10,
            q90=q90,
            nrmse=nrmse,
            degenerate=degenerate,
            abs_errors=abs_errors,
            quantiles=quantiles,
            n_samples=n,
            n_excluded=n_excluded,
        )
    return ErrorReport(metrics=metrics, timestamps=t_ref)


# ----------------------------------------------------------------------
# specular / scattered power decomposition
# ----------------------------------------------------------------------
@dataclass
class PowerDecomposition:
    """Coherent specular / scattered / total narrowband power series plus
    interval-average linear-domain power fractions."""

    timestamps: np.ndarray
    specular_dbm: np.ndarray
    scattered_dbm: np.ndarray
    total_dbm: np.ndarray
    specular_fraction: float
    scattered_fraction: float


def power_decomposition(
    snapshots, pol_pair: str = "vv", tx_power_dbm: float = 0.0
) -> PowerDecomposition:
    """Split each snapshot's coherent sum by path tag.

    The fractions are ratios of interval-average linear powers
    (mean specular power / mean total power), i.e. energy fractions over
    the window; coherent cross-terms mean they need not sum to one.
    """
    r, c = _pol_entry(pol_pair)
    scale = 10.0 ** (tx_power_dbm / 10.0)
    n = len(snapshots)
    spec_db = np.full(n, -math.inf)
    scat_db = np.full(n, -math.inf)
    tot_db = np.full(n, -math.inf)
    spec_lin = np.zeros(n)
    scat_lin = np.zeros(n)
    tot_lin = np.zeros(n)
    times = np.array([s.timestamp for s in snapshots], dtype=float)
    for i, s in enumerate(snapshots):
        spec = sum((p.transfer[r, c] for p in s.paths if p.tag == TAG_SPECULAR), 0.0 + 0.0j)
        scat = sum((p.transfer[r, c] for p in s.paths if p.tag != TAG_SPECULAR), 0.0 + 0.0j)
        total = sum((p.transfer[r, c] for p in s.paths), 0.0 + 0.0j)
        spec_lin[i] = scale * abs(spec) ** 2
        scat_lin[i] = scale * abs(scat) ** 2
        tot_lin[i] = scale * abs(total) ** 2
        if abs(spec) > 0.0:
            spec_db[i] = tx_power_dbm + 20.0 * math.log10(abs(spec))
        if abs(scat) > 0.0:
            scat_db[i] = tx_power_dbm + 20.0 * math.log10(abs(scat))
        if abs(total) > 0.0:
            tot_db[i] = tx_power_dbm + 20.0 * math.log10(abs(total))
    mean_tot = float(np.mean(tot_lin)) if n else 0.0
    if mean_tot > 0.0:
        spec_frac = float(np.mean(spec_lin)) / mean_tot
        scat_frac = float(np.mean(scat_lin)) / mean_tot
    else:
        spec_frac = scat_frac = math.nan
    return PowerDecomposition(
        timestamps=times,
        specular_dbm=spec_db,
        scattered_dbm=scat_db,
        total_dbm=tot_db,
        specular_fraction=spec_frac,
        scattered_fraction=scat_frac,
    )
