"""Per-snapshot channel metrics, raised-cosine TV-CIR synthesis, and the
reference-vs-interpolated error harness (RMSE, quantile-normalized RMSE,
error CDFs).

One kernel, :func:`snapshot_metrics`, reads the columns of a snapshot's
:class:`~railchan.rays.PathRows` block and returns its row of the twelve
:data:`METRIC_NAMES`; coherent sums add the paths in path order, as a
per-path loop does.

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
from dataclasses import dataclass

import numpy as np

from .rays import TAG_SCATTER, TAG_SPECULAR, PathRows

_POL_INDEX = {"v": 0, "h": 1}

#: error-CDF quantile table (percent)
QUANTILE_LEVELS = (1, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 99)

#: metrics whose errors must be wrapped onto (-pi, pi]
_CIRCULAR_METRICS = frozenset({"mean_haoa"})

#: minimum reference Q90-Q10 gap per metric before NRMSE is reported; the
#: vertical-angle spread of a near-planar scene varies by well under a
#: degree, which makes its normalized error meaningless
DEGENERATE_GAPS = {"vaoa_spread": 0.05}

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


def _pol_entry(pol_pair: str) -> tuple[int, int]:
    pp = pol_pair.lower()
    if len(pp) != 2 or pp[0] not in _POL_INDEX or pp[1] not in _POL_INDEX:
        raise ValueError(f"pol_pair must be two of 'v'/'h', got {pol_pair!r}")
    return _POL_INDEX[pp[0]], _POL_INDEX[pp[1]]


def _path_order_sum(x: np.ndarray):
    """Sum of ``x`` over its first (path) axis, added in path order as a
    sequential ``+=`` adds it (``np.sum`` pairs terms up); zero when empty."""
    return np.cumsum(x, axis=0)[-1] if len(x) else np.zeros(x.shape[1:], x.dtype)


# ----------------------------------------------------------------------
# per-snapshot statistics
# ----------------------------------------------------------------------
def _weighted_mean_rms(values: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    total = float(np.sum(weights))
    if total <= 0.0:
        return math.nan, math.nan
    w = weights / total
    mean = float(np.sum(w * values))
    var = float(np.sum(w * (values - mean) ** 2))
    return mean, math.sqrt(max(var, 0.0))


def snapshot_metrics(paths: PathRows, tx_power_dbm: float = 0.0) -> tuple:
    """The :data:`METRIC_NAMES` values of one snapshot's path rows, in order.

    Powers are ``tx_power_dbm + 20*log10(|coherent sum of T[pol]|)`` in dBm,
    minus infinity for no paths or perfect cancellation.  Delay, vertical
    angle and Doppler take the power-weighted mean and RMS spread; the
    horizontal angle takes the argument of the power-weighted resultant and
    the spread sqrt(2*(1-R)), R the resultant length.  Statistics are NaN
    when no path carries power.
    """
    if not paths:
        return (-math.inf,) * 4 + (math.nan,) * 8
    transfers = paths.transfer
    az, el = paths.aoa.T
    # scalar abs is libm hypot; the array np.abs may differ in the last bit
    powers = [
        -math.inf if abs(z) == 0.0 else tx_power_dbm + 20.0 * math.log10(abs(z))
        for z in _path_order_sum(transfers).ravel().tolist()
    ]
    weights = np.sum(np.abs(transfers) ** 2, axis=(1, 2))
    total = float(np.sum(weights))
    mean_h = spread_h = math.nan
    if total > 0.0:
        resultant = complex(np.sum(weights / total * np.exp(1j * az)))
        mean_h = float(np.angle(resultant))
        spread_h = math.sqrt(2.0 * (1.0 - min(abs(resultant), 1.0)))
    return (
        *powers,
        *_weighted_mean_rms(paths.delay_s, weights),
        mean_h,
        spread_h,
        *_weighted_mean_rms(el, weights),
        *_weighted_mean_rms(paths.doppler_hz, weights),
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
    _check_pulse(bandwidth, rolloff)
    vals = _pulse_of(np.array(t, dtype=float, ndmin=1) * bandwidth, rolloff)
    if np.isscalar(t):
        return float(vals[0])
    return vals.reshape(np.shape(t))


def _check_pulse(bandwidth: float, rolloff: float) -> None:
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    if not 0.0 <= rolloff <= 1.0:
        raise ValueError("rolloff must lie in [0, 1]")


def _pulse_of(x, rolloff: float):
    """The raised-cosine pulse at times ``x`` in symbols (a float array, left
    unchanged), evaluated with one work array beside the result by the
    operations of ``np.sinc(x) * cos(pi*beta*x) / den``, in that order."""
    # np.sinc: y = pi * x, 0 replaced by eps, then sin(y) / y
    work = np.multiply(math.pi, x)
    work[work == 0] = np.finfo(float).eps
    vals = np.sin(work)
    vals /= work
    np.multiply(math.pi * rolloff, x, out=work)
    vals *= np.cos(work, out=work)
    den = np.multiply(2.0 * rolloff, x, out=work)
    np.square(den, out=den)
    np.subtract(1.0, den, out=den)
    singular = (den < 1e-12) & (den > -1e-12)  # |den| < 1e-12, without an |den| array
    den[singular] = 1.0
    vals /= den
    if rolloff > 0.0:
        vals[singular] = (math.pi / 4.0) * np.sinc(1.0 / (2.0 * rolloff))
    return vals


@dataclass
class TVCir:
    """Time-variant impulse response on a uniform delay grid."""

    times: np.ndarray
    delays: np.ndarray
    amplitude: np.ndarray  # (n_delays, n_times) complex
    scattered: np.ndarray  # the scatter-tag rows' share of ``amplitude``


def synthesize_tv_cir(snapshots, bandwidth: float, rolloff: float, pol_pair: str = "vv") -> TVCir:
    """Band-limited TV-CIR: each path contributes its transfer entry times a
    raised-cosine pulse centered on its delay.

    The delay grid runs from 0 to the maximum path delay plus
    ``PULSE_SUPPORT_SYMBOLS`` symbols at spacing 1/(2*bandwidth).

    Each snapshot's pulses are one (paths x delay grid) evaluation; paths
    with a zero entry are masked out, and the kept paths are added into the
    snapshot's column one by one in path order, so every bin is the same
    sequential sum a per-path loop gives.  ``scattered`` holds the same
    sums over the scatter-tag rows alone, from the same pulses.
    """
    r, c = _pol_entry(pol_pair)
    _check_pulse(bandwidth, rolloff)
    times, per_snapshot = [], []
    for s in snapshots:
        times.append(s.timestamp)
        rows = s.paths
        per_snapshot.append((rows.delay_s, rows.transfer[:, r, c], rows.tag == TAG_SCATTER))
    max_spacing = 1.0 / (2.0 * bandwidth)
    max_delay = max([0.0] + [float(d.max()) for d, _, _ in per_snapshot if d.size])
    span = max_delay + PULSE_SUPPORT_SYMBOLS / bandwidth
    n = int(math.ceil(span / max_spacing)) + 1
    grid = np.arange(n) * max_spacing

    amp = np.zeros((grid.size, len(times)), dtype=complex)
    scattered = np.zeros_like(amp)
    column = np.empty(grid.size, dtype=complex)
    part = np.empty_like(column)
    for j, (delays, entries, scatter) in enumerate(per_snapshot):
        keep = entries != 0.0
        if not keep.any():
            continue
        pulses = _pulse_of((grid - delays[keep, None]) * bandwidth, rolloff)
        column[:] = 0.0
        part[:] = 0.0
        for entry, pulse, is_scatter in zip(entries[keep], pulses, scatter[keep]):
            term = entry * pulse
            column += term
            if is_scatter:
                part += term
        amp[:, j] = column
        scattered[:, j] = part
        # free this snapshot's pulses (``pulse`` is a view of them) before
        # the next snapshot's are evaluated: with ``scattered`` beside
        # ``amp``, holding both would raise the peak memory
        del pulses, pulse
    return TVCir(
        times=np.array(times, dtype=float),
        delays=grid,
        amplitude=amp,
        scattered=scattered,
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


def _wrap_angle(x: np.ndarray) -> np.ndarray:
    return np.arctan2(np.sin(x), np.cos(x))


def metric_series(snapshots, tx_power_dbm: float = 0.0) -> dict:
    """name -> np.ndarray of per-timestamp metric values."""
    rows = [snapshot_metrics(s.paths, tx_power_dbm) for s in snapshots]
    columns = np.array(rows, dtype=float).reshape(len(rows), len(METRIC_NAMES)).T.copy()
    return dict(zip(METRIC_NAMES, columns))


def compare_streams(
    reference,
    test,
    tx_power_dbm: float = 0.0,
    reference_series: dict | None = None,
) -> dict[str, MetricError]:
    """Per-metric RMSE / NRMSE / error CDFs of a test stream against a
    reference stream on identical timestamps, as ``name -> MetricError``
    in :data:`METRIC_NAMES` order.

    ``reference_series`` is ``metric_series(reference, tx_power_dbm)`` when
    the caller has it already, as a sweep does for its one reference.

    NRMSE divides the RMSE by the Q90-Q10 gap of the *reference* series; a
    metric whose gap is below its degeneracy threshold is flagged
    ``degenerate`` and its NRMSE is NaN.  The thresholds come from
    :data:`DEGENERATE_GAPS`; a metric it does not name needs a gap of
    at least 1e-15.
    """
    t_ref = np.array([s.timestamp for s in reference], dtype=float)
    t_test = np.array([s.timestamp for s in test], dtype=float)
    if t_ref.shape != t_test.shape or not np.allclose(t_ref, t_test, rtol=0.0, atol=1e-12):
        raise ValueError(
            f"streams must share identical timestamps ({t_ref.size} reference vs "
            f"{t_test.size} test samples)"
        )
    ref_series = reference_series if reference_series is not None else metric_series(reference, tx_power_dbm)
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
        min_gap = max(DEGENERATE_GAPS.get(name, 0.0), 1e-15)
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
    return metrics


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
    # rows: specular, scattered, total
    dbm = np.full((3, n), -math.inf)
    lin = np.zeros((3, n))
    times = np.array([s.timestamp for s in snapshots], dtype=float)
    for i, s in enumerate(snapshots):
        entries = s.paths.transfer[:, r, c]
        specular = s.paths.tag == TAG_SPECULAR
        for k, part in enumerate((entries[specular], entries[~specular], entries)):
            mag = abs(_path_order_sum(part))
            lin[k, i] = scale * mag**2
            if mag > 0.0:
                dbm[k, i] = tx_power_dbm + 20.0 * math.log10(mag)
    mean_tot = float(np.mean(lin[2])) if n else 0.0
    if mean_tot > 0.0:
        spec_frac = float(np.mean(lin[0])) / mean_tot
        scat_frac = float(np.mean(lin[1])) / mean_tot
    else:
        spec_frac = scat_frac = math.nan
    return PowerDecomposition(
        timestamps=times,
        specular_dbm=dbm[0],
        scattered_dbm=dbm[1],
        total_dbm=dbm[2],
        specular_fraction=spec_frac,
        scattered_fraction=scat_frac,
    )
