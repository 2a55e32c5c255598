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
#: Dekker's splitter for doubles, 2**27 + 1
_SPLIT = 134217729.0

#: paths whose pulses are evaluated at once: the work buffers of a
#: synthesis hold this many rows of the delay grid
PULSE_BLOCK = 16

#: a bin with |1 - (2*beta*x)^2| below this takes the pulse's well
#: conditioned form near its removable singularity
_NEAR_SINGULAR = 1e-2


class _PulseGrid:
    """Unit-peak raised-cosine pulses of rolloff beta on the first ``n`` bins
    of the half-symbol delay grid, bin i at x = i/2 - d*B symbols from a
    path of delay d (B the bandwidth):

    ``h(x) = sinc(x) * cos(pi*beta*x) / (1 - (2*beta*x)^2)``, 1.0 at x = 0.

    Each path's delay is range-reduced in half symbols: j = rint(2*d*B) and
    h = d*B - j/2 in [-1/4, 1/4], from Dekker's exact product, so bin i sits
    at x = k/2 - h, k = i - j.  Then sin(pi*x) is one of -sin(pi*h),
    cos(pi*h), sin(pi*h), -cos(pi*h) by k mod 4, each accurate to its last
    bits near its zeros, and cos(pi*beta*x) = C[k]*cos(pi*beta*h) +
    S[k]*sin(pi*beta*h), C and S the cosines and sines of pi*beta*k/2, one
    table per grid that each path reads a contiguous slice of.  A bin is
    ``(sin(pi*x) * cos(pi*beta*x)) / ((pi*x) * den)``, den = 1 - (2*beta*x)^2;
    where |den| < :data:`_NEAR_SINGULAR` it is ``(sin(pi*x) / (pi*x)) * q``,
    q = sin(pi*u/2) / (u*(2 - u)) with u = 1 - 2*beta*|x|, and pi/4 at u = 0,
    a form without the cancellation of cos(pi*beta*x) / den there.

    Calling it with up to :data:`PULSE_BLOCK` delays, none past
    ``max_delay``, returns their (paths, n) pulses, a view of work buffers
    that the next call overwrites.
    """

    def __init__(self, n: int, bandwidth: float, rolloff: float, max_delay: float):
        self.n, self.bandwidth, self.rolloff = n, bandwidth, rolloff
        b_hi = bandwidth * _SPLIT
        b_hi -= b_hi - bandwidth
        self.b_halves = b_hi, bandwidth - b_hi
        j_max = int(self.reduce_delays(np.array([max_delay]))[0][0])
        # k = i - j runs over [-j_max, n): the tables hold k/2 and the
        # cosines and sines of pi*beta*k/2 at k + j_max, and row j_max - j
        # of each view is a path's slice
        half_k = np.arange(-j_max, n) * 0.5
        angle = half_k * (math.pi * rolloff)
        self.views = [
            np.lib.stride_tricks.sliding_window_view(table, n)[::-1]
            for table in (half_k, np.cos(angle), np.sin(angle))
        ]
        self.buffers = np.empty((4, PULSE_BLOCK * n))

    def reduce_delays(self, delays: np.ndarray):
        """(j, h): j = rint(2*d*B), h = d*B - j/2, with d*B = p + e exactly."""
        b_hi, b_lo = self.b_halves
        p = delays * self.bandwidth
        d_hi = delays * _SPLIT
        d_hi -= d_hi - delays
        d_lo = delays - d_hi
        e = ((d_hi * b_hi - p) + d_hi * b_lo + d_lo * b_hi) + d_lo * b_lo
        j = np.rint(2.0 * p)
        return j, (p - 0.5 * j) + e

    def __call__(self, delays: np.ndarray) -> np.ndarray:
        n, beta = self.n, self.rolloff
        rows = len(delays)
        j, h = self.reduce_delays(delays)
        j = j.astype(np.intp)
        sin_x, cos_x, x, work = self.buffers[:, : rows * n].reshape(4, rows, n)
        # sin(pi*x) by k mod 4, filled by i mod 4
        sh = np.sin(math.pi * h)
        ch = np.cos(math.pi * h)
        by_k = np.array((-sh, ch, sh, -ch))
        group = by_k[(np.arange(4)[:, None] - j) % 4, np.arange(rows)]
        for r in range(4):
            sin_x[:, r::4] = group[r, :, None]
        # x and cos(pi*beta*x) from each path's slice of the tables
        half_v, cos_v, sin_v = self.views
        bh = (math.pi * beta) * h
        np.subtract(half_v[j], h[:, None], out=x)
        np.multiply(cos_v[j], np.cos(bh)[:, None], out=cos_x)
        np.multiply(sin_v[j], np.sin(bh)[:, None], out=work)
        cos_x += work
        sin_x *= cos_x
        den = np.multiply(x, 2.0 * beta, out=cos_x)
        np.square(den, out=den)
        np.subtract(1.0, den, out=den)
        pulse = np.multiply(x, math.pi, out=work)
        pulse *= den
        # bins near the singularity or at x = 0 (k = 0 and h = 0) are set
        # after the division
        near_r, near_i = np.divmod(np.flatnonzero(np.abs(den, out=den) < _NEAR_SINGULAR), n)
        zero_r = np.flatnonzero((h == 0.0) & (j < n))
        zero_i = j[zero_r]
        pulse[near_r, near_i] = 1.0
        pulse[zero_r, zero_i] = 1.0
        np.divide(sin_x, pulse, out=pulse)
        if near_r.size:
            xs = x[near_r, near_i]
            u = 1.0 - (2.0 * beta) * np.abs(xs)
            q = np.full(u.shape, math.pi / 4.0)
            off = u != 0.0
            q[off] = np.sin((math.pi / 2.0) * u[off]) / (u[off] * (2.0 - u[off]))
            pulse[near_r, near_i] = group[near_i % 4, near_r] / (math.pi * xs) * q
        pulse[zero_r, zero_i] = 1.0
        return pulse


@dataclass
class TVCir:
    """Time-variant impulse response on a uniform delay grid."""

    times: np.ndarray
    delays: np.ndarray
    amplitude: np.ndarray  # (n_delays, n_times) complex
    scattered: np.ndarray  # the scatter-tag rows' share of ``amplitude``


def synthesize_tv_cir(snapshots, bandwidth: float, rolloff: float) -> TVCir:
    """Band-limited TV-CIR: each path contributes its V->V transfer entry
    times a raised-cosine pulse centered on its delay.

    The delay grid runs from 0 to the maximum path delay plus
    ``PULSE_SUPPORT_SYMBOLS`` symbols at spacing 1/(2*bandwidth); ``delays``
    holds bin i as ``i * spacing``, and its pulses are evaluated at exactly
    i/(2*bandwidth), i.e. x = i/2 - d*bandwidth symbols from a path of
    delay d (see :class:`_PulseGrid`).

    Paths with a zero entry are masked out.  The kept paths' pulses are
    evaluated :data:`PULSE_BLOCK` at a time in reused buffers, and each
    block's terms are added into the snapshot's column in path order, so
    every bin is the same sequential sum a per-path loop gives.
    ``scattered`` holds the same sums over the scatter-tag rows alone, from
    the same pulses.
    """
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    if not 0.0 <= rolloff <= 1.0:
        raise ValueError("rolloff must lie in [0, 1]")
    times, per_snapshot = [], []
    for s in snapshots:
        times.append(s.timestamp)
        rows = s.paths
        per_snapshot.append((rows.delay_s, rows.transfer[:, 0, 0], rows.tag == TAG_SCATTER))
    spacing = 1.0 / (2.0 * bandwidth)
    max_delay = max([0.0] + [float(d.max()) for d, _, _ in per_snapshot if d.size])
    span = max_delay + PULSE_SUPPORT_SYMBOLS / bandwidth
    n = int(math.ceil(span / spacing)) + 1
    grid = np.arange(n) * spacing
    pulses = _PulseGrid(n, bandwidth, rolloff, max_delay)

    amp = np.zeros((grid.size, len(times)), dtype=complex)
    scattered = np.zeros_like(amp)
    # row 0 holds the running sum, the rows after it a block's terms
    terms = np.empty((PULSE_BLOCK + 1, n), dtype=complex)
    scatter_terms = np.empty_like(terms)
    for j, (delays, entries, scatter) in enumerate(per_snapshot):
        keep = entries != 0.0
        if not keep.any():
            continue
        delays, entries, scatter = delays[keep], entries[keep], scatter[keep]
        terms[0] = 0.0
        scatter_terms[0] = 0.0
        for b in range(0, len(delays), PULSE_BLOCK):
            rows = min(PULSE_BLOCK, len(delays) - b)
            np.multiply(entries[b : b + rows, None], pulses(delays[b : b + rows]), out=terms[1 : rows + 1])
            own = np.flatnonzero(scatter[b : b + rows]) + 1
            if own.size:
                np.take(terms, own, axis=0, out=scatter_terms[1 : own.size + 1])
                scatter_terms[0] = np.add.reduce(scatter_terms[: own.size + 1], axis=0)
            terms[0] = np.add.reduce(terms[: rows + 1], axis=0)
        amp[:, j] = terms[0]
        scattered[:, j] = scatter_terms[0]
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

    rmse: float
    q10: float
    q90: float
    nrmse: float
    degenerate: bool
    quantiles: dict
    n_samples: int
    n_excluded: int


def _wrap_angle(x: np.ndarray) -> np.ndarray:
    return np.arctan2(np.sin(x), np.cos(x))


def metric_series(snapshots, tx_power_dbm: float = 0.0) -> dict:
    """The stream's metric table, ``metrics.csv``'s: ``timestamp_s``, then
    each of :data:`METRIC_NAMES`, as ``name -> column``, one entry per
    snapshot, in column order."""
    rows = [(s.timestamp, *snapshot_metrics(s.paths, tx_power_dbm)) for s in snapshots]
    columns = np.array(rows, dtype=float).reshape(len(rows), 1 + len(METRIC_NAMES)).T.copy()
    return dict(zip(("timestamp_s", *METRIC_NAMES), columns))


def compare_series(reference: dict, test: dict) -> dict[str, MetricError]:
    """Per-metric RMSE / NRMSE / error CDFs of a test stream against a
    reference stream on identical timestamps, from their
    :func:`metric_series` tables, as ``name -> MetricError`` in
    :data:`METRIC_NAMES` order.

    NRMSE divides the RMSE by the Q90-Q10 gap of the *reference* series; a
    metric whose gap is below its degeneracy threshold is flagged
    ``degenerate`` and its NRMSE is NaN.  The thresholds come from
    :data:`DEGENERATE_GAPS`; a metric it does not name needs a gap of
    at least 1e-15.
    """
    t_ref, t_test = reference["timestamp_s"], test["timestamp_s"]
    if t_ref.shape != t_test.shape or not np.allclose(t_ref, t_test, rtol=0.0, atol=1e-12):
        raise ValueError(
            f"streams must share identical timestamps ({t_ref.size} reference vs "
            f"{t_test.size} test samples)"
        )
    metrics: dict[str, MetricError] = {}
    for name in METRIC_NAMES:
        rv = reference[name]
        tv = test[name]
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
        sorted_errors = np.sort(np.abs(errors))
        quantiles = {
            level: (float(np.quantile(sorted_errors, level / 100.0)) if n else math.nan)
            for level in QUANTILE_LEVELS
        }
        metrics[name] = MetricError(
            rmse=rmse,
            q10=q10,
            q90=q90,
            nrmse=nrmse,
            degenerate=degenerate,
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

    timestamp_s: np.ndarray
    specular_dbm: np.ndarray
    scattered_dbm: np.ndarray
    total_dbm: np.ndarray
    specular_fraction: float
    scattered_fraction: float


def power_decomposition(snapshots, tx_power_dbm: float = 0.0) -> PowerDecomposition:
    """Split each snapshot's coherent V->V sum by path tag.

    The fractions are ratios of interval-average linear powers
    (mean specular power / mean total power), i.e. energy fractions over
    the window; coherent cross-terms mean they need not sum to one.
    """
    scale = 10.0 ** (tx_power_dbm / 10.0)
    n = len(snapshots)
    # rows: specular, scattered, total
    dbm = np.full((3, n), -math.inf)
    lin = np.zeros((3, n))
    times = np.array([s.timestamp for s in snapshots], dtype=float)
    for i, s in enumerate(snapshots):
        entries = s.paths.transfer[:, 0, 0]
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
        timestamp_s=times,
        specular_dbm=dbm[0],
        scattered_dbm=dbm[1],
        total_dbm=dbm[2],
        specular_fraction=spec_frac,
        scattered_fraction=scat_frac,
    )
