"""Deterministic CSV / JSON writers for simulation products.

Every float is rendered with repr-faithful precision (%.17g), so a value
survives a write/read round trip bit-for-bit and two identical runs produce
byte-identical files.  The bytes of every CSV are those of formatting each
cell on its own with ``"%.17g" %`` and joining the cells with a ``csv``
writer (``\\r\\n`` line ends); no text field (signature, tag, metric or stage
name) contains a comma, a quote or a line break, so no field needs quoting.

The large float tables (``trace.csv``, ``metrics.csv``, the TV-CIR and the
power split) go through one block formatter, :func:`_float_rows`, a slab of
at most ``SLAB_CELLS`` cells at a time, each slab written as it is made
(``trace.csv`` cuts its slabs at whole rows, the other tables wherever
their cells fall):

- :func:`_decimal` finds each cell's 17 significant digits and decimal
  exponent as arrays: |x| times a cached double-double power of ten, with
  Dekker's error-free product, rounded half to even;
- the digits come from a table of 3-digit groups, and each cell's layout
  (fixed or scientific, exponent, significant digits left after trailing
  zeros are stripped, sign, exponent width, end of row) picks one row of a
  mask table over one fixed template, and one boolean selection by the
  masks (``np.compress`` without its index array) yields the bytes;
- the cells :func:`_decimal` does not vouch for are formatted by Python's
  own ``"%.17g" %`` and spliced in: zeros of either sign, subnormals, NaN,
  infinities, |x| outside (1e-280, 1e280), and cells whose scaled value
  lies within ``TIE_BAND`` of a rounding tie.

``trace.csv`` joins its text columns (timestamp, path id, signature, tag)
around each row's float segment.  The small tables (sweep errors, error
CDF, timing, scatter summary, bench) hold at most a few hundred cells mixed
with text; they format each row with one ``%`` template through
:func:`_write_table`, whose ``%.17g`` is the rule the fallback calls.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from pathlib import Path

import numpy as np

from .metrics import METRIC_NAMES, TVCir

TRACE_COLUMNS = (
    "timestamp_s",
    "path_id",
    "signature",
    "delay_s",
    "aod_az_rad",
    "aod_el_rad",
    "aoa_az_rad",
    "aoa_el_rad",
    "doppler_hz",
    "t_vv_re",
    "t_vv_im",
    "t_vh_re",
    "t_vh_im",
    "t_hv_re",
    "t_hv_im",
    "t_hh_re",
    "t_hh_im",
    "tag",
)

_EOL = "\r\n"
#: the one per-cell float rule of every CSV
_CELL = "%.17g"

#: cells of one slab of the block formatter: its working arrays take about
#: 250 bytes per cell, so a slab stays near 0.5 MB, in a core's L2 cache
SLAB_CELLS = 2048

#: a cell whose scaled value |x| * 10**(16 - X) has a fractional part within
#: this of 1/2 is a tie or a near tie, and falls back to ``%``
TIE_BAND = 1e-6


# ----------------------------------------------------------------------
# %.17g of a float block
# ----------------------------------------------------------------------
#: Dekker's splitter for doubles, 2**27 + 1
_SPLIT = 134217729.0
#: exponents k of the cached powers 10**k: k = 16 - X for the decimal
#: exponents X of |x| in (1e-280, 1e280), two correction rounds either side
_K_MIN, _K_MAX = -266, 298
#: per k: hi (10**k rounded), lo (10**k - hi rounded) and hi's Dekker
#: halves; NaN until first used
_POW10 = np.full((4, _K_MAX - _K_MIN + 1), np.nan)


def _pow10_row(k: int) -> tuple[float, float, float, float]:
    """hi, lo and hi's halves of 10**k, from exact integer arithmetic.

    ``float`` of an int and the true division of two ints are correctly
    rounded, so hi is 10**k rounded and lo is the exact rest rounded.
    """
    if k >= 0:
        big = 10**k
        hi = float(big)
        lo = float(big - int(hi))
    else:
        big = 10**-k
        hi = 1 / big
        num, den = hi.as_integer_ratio()
        lo = (den - num * big) / (den * big)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    return hi, lo, hi_hi, hi - hi_hi


def _pow10(k: np.ndarray):
    """(hi, lo, hi_hi, hi_lo) arrays of 10**k for the int array ``k``."""
    j = k - _K_MIN
    hi = _POW10[0].take(j)
    missing = np.isnan(hi)
    if missing.any():
        for i in set(j[missing].tolist()):
            _POW10[:, i] = _pow10_row(i + _K_MIN)
        hi = _POW10[0].take(j)
    return hi, _POW10[1].take(j), _POW10[2].take(j), _POW10[3].take(j)


def _scaled(a: np.ndarray, X: np.ndarray):
    """a * 10**(16 - X) as n + r: n integer-valued, r the small rest.

    a * hi is p + e exactly (Dekker's product, with a split by
    ``_SPLIT``); r = (p - n) + (e + a * lo), summed in place.
    """
    hi, lo, hi_hi, hi_lo = _pow10(16 - X)
    p = a * hi
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    # e = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    e = a_hi * hi_hi
    e -= p
    e += a_hi * hi_lo
    e += a_lo * hi_hi
    e += a_lo * hi_lo
    e += a * lo
    n = np.rint(p)
    p -= n
    p += e
    return n, p


def _decimal(x: np.ndarray):
    """Decimal exponents X, 17-digit integers D and fallback mask of ``x``.

    Outside the fallback mask, ``"%.17g" % x`` has the digits of D, in
    [10**16, 10**17), and the exponent X: |x| rounds half to even to
    D * 10**(X - 16).

    X starts from floor(log10|x|), which is off by at most one near a power
    of ten; up to two rounds move it by one where the floor of the scaled
    value V = |x| * 10**(16 - X) lies outside [10**16, 10**17).  Then D is V
    rounded; a round-up to 10**17 is a carry (X + 1, D = 10**16).

    V is found to within 1e-14: p + e is exact, lo is 10**k to 2**-106
    relative (under 1.3e-15 of V < 10**17), and a * lo and the sum
    e + a * lo, each under 20, are rounded once each (under 2e-15 each);
    p - n is 0, since V > 2**53 makes p an integer.  So rounding V is
    decided right unless its fractional part lies within ``TIE_BAND`` of
    1/2, and those cells fall back.  A floor wrong by that error puts V
    within 1e-14 of 10**16 or 10**17, where either X gives the same
    rounded value.

    The fallback mask also holds zeros of either sign, subnormals, NaN,
    infinities, |x| outside (1e-280, 1e280), and any cell the rounds leave
    with D outside [10**16, 10**17], which the digit layout needs; fallback
    cells get D = 10**16.
    """
    a = np.abs(x)
    fallback = ~((a > 1e-280) & (a < 1e280))
    a[fallback] = 1.0
    X = np.floor(np.log10(a)).astype(np.int64)
    n, r = _scaled(a, X)
    for _ in range(2):
        floor = n.astype(np.int64) + np.floor(r).astype(np.int64)
        off = np.flatnonzero((floor < 10**16) | (floor >= 10**17))
        if not len(off):
            break
        X[off] += np.where(floor[off] < 10**16, -1, 1)
        n[off], r[off] = _scaled(a[off], X[off])
    q = np.rint(r)
    fallback |= np.abs(np.abs(r - q) - 0.5) < TIE_BAND
    D = n.astype(np.int64) + q.astype(np.int64)
    fallback |= (D < 10**16) | (D > 10**17)
    carry = D == 10**17
    X[carry] += 1
    D[carry | fallback] = 10**16
    return X, D, fallback


def _digit_groups() -> np.ndarray:
    """The 1,000 3-digit groups "000".."999" as uint32 words (4th byte 0)."""
    words = np.zeros((1000, 4), np.uint8)
    words[:, :3] = np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
    return words.view(np.uint32).ravel()


_GROUPS = _digit_groups()
#: bytes of the six group words of D that hold its 17 digits (the first
#: group holds two)
_DIGIT_BYTES = np.array([1, 2] + [4 * g + i for g in range(1, 6) for i in range(3)])

# The template of one cell, 48 bytes:
#   0      '-'
#   1-5    '0.000'            (X < 0: "0." and -X - 1 zeros)
#   6-22   the 17 digits      (integer part, or the one scientific digit)
#   23     '.'
#   24-40  the 17 digits      (fraction part: a run of them)
#   41-47  'e', exponent sign, three exponent digits, ',' or '\r', '\n'
_WIDTH = 48
_HEAD = np.frombuffer(b"-0.000", np.uint8)


def _tail_words() -> np.ndarray:
    """Bytes 41-47 of the template as uint64 words, indexed by
    |X| + 1000 * end of row + 2000 * (X < 0)."""
    words = np.zeros((2, 2, 1000, 8), np.uint8)
    words[..., 0] = ord("e")
    words[0, ..., 1] = ord("+")
    words[1, ..., 1] = ord("-")
    words[..., 2:5] = _GROUPS.view(np.uint8).reshape(1000, 4)[:, :3]
    words[:, 0, :, 5] = ord(",")
    words[:, 1, :, 5] = ord("\r")
    words[..., 6] = ord("\n")
    return words.view(np.uint64).ravel()


_TAILS = _tail_words()

#: layout modes: 0-20 fixed with X = mode - 4; 21-24 scientific, 21 + 2 *
#: (X < 0) + (|X| >= 100); 25 a fallback cell (its terminator only)
_MODES = 26
_FALLBACK = 25


def _layout_masks() -> np.ndarray:
    """The template bytes each layout key keeps, as uint64 words.

    key = ((mode * 17 + s - 1) * 2 + negative) * 2 + end of row, with s the
    significant digits left after trailing zeros are stripped.
    """
    mode, s, neg, eol = (v.reshape(-1, 1) for v in np.indices((_MODES, 17, 2, 2)))
    s = s + 1
    X = mode - 4
    fixed = mode < 21
    sci = (mode >= 21) & (mode < _FALLBACK)
    small = fixed & (X < 0)
    digit = np.arange(17)
    n_int = np.where(fixed & (X >= 0), X + 1, sci)  # integer digits shown
    first = np.where(small, 0, n_int)  # first fraction digit shown
    keep = np.zeros((len(mode), _WIDTH), bool)
    keep[:, 0:1] = neg & (mode < _FALLBACK)
    keep[:, 1:3] = small
    keep[:, 3:6] = small & (np.arange(3) < -X - 1)
    keep[:, 6:23] = digit < n_int
    keep[:, 23:24] = ~small & (s > first) & (mode < _FALLBACK)
    keep[:, 24:41] = (digit >= first) & (digit < s) & (mode < _FALLBACK)
    keep[:, 41:43] = sci
    keep[:, 43:44] = sci & ((mode - 21) % 2 == 1)  # a third exponent digit
    keep[:, 44:46] = sci
    keep[:, 46:47] = True
    keep[:, 47:48] = eol == 1
    return keep.view(np.uint64)


_MASKS = _layout_masks()
_MASK_LENGTHS = _MASKS.view(bool).sum(axis=1)


def _digits(D: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each D, (n, 17) uint8, from its 3-digit groups."""
    halves = np.stack(np.divmod(D, 10**9), axis=1)  # 8 and 9 digits
    groups = np.empty((len(D), 2, 3), np.intp)
    rest, groups[:, :, 2] = np.divmod(halves, 1000)
    groups[:, :, 0], groups[:, :, 1] = np.divmod(rest, 1000)
    return _GROUPS.take(groups.reshape(-1, 6)).view(np.uint8)[:, _DIGIT_BYTES]


def _float_rows(cells, n_cols: int, first: int = 0) -> bytes:
    """The CSV bytes of ``cells``, float cells of an ``n_cols``-wide table
    read row by row, the first in column ``first``.

    Every cell is exactly ``"%.17g" % x``; a cell is followed by ``,``, or
    in the table's last column by ``\\r\\n``.
    """
    x = np.ascontiguousarray(cells, dtype=float).ravel()
    n = len(x)
    X, D, fallback = _decimal(x)
    digits = _digits(D)
    s = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)

    eol = np.zeros(n, np.intp)
    eol[n_cols - 1 - first :: n_cols] = 1
    neg_exp = X < 0
    wide_exp = np.abs(X) >= 100
    mode = np.where((X >= -4) & (X < 17), X + 4, 21 + 2 * neg_exp + wide_exp)
    mode[fallback] = _FALLBACK
    key = ((mode * 17 + s - 1) * 2 + np.signbit(x)) * 2 + eol

    buf = np.empty((n, _WIDTH), np.uint8)
    buf[:, 0:6] = _HEAD
    buf[:, 6:23] = digits
    buf[:, 23] = ord(".")
    buf[:, 24:41] = digits
    tails = _TAILS.take(np.abs(X) + 1000 * eol + 2000 * neg_exp)
    buf[:, 41:48] = tails.view(np.uint8).reshape(n, 8)[:, :7]
    out = buf.ravel()[_MASKS.take(key, axis=0).view(bool).ravel()].tobytes()
    if not fallback.any():
        return out
    # a fallback cell keeps only its terminator: its text goes in before it
    cells = np.flatnonzero(fallback)
    lengths = _MASK_LENGTHS.take(key)
    starts = (np.cumsum(lengths) - lengths)[cells].tolist()
    pieces = []
    done = 0
    for start, value in zip(starts, x[cells].tolist()):
        pieces += (out[done:start], (_CELL % value).encode())
        done = start
    pieces.append(out[done:])
    return b"".join(pieces)


def _write_floats(fh, n_rows: int, n_cols: int, rows) -> None:
    """Write an ``n_rows`` x ``n_cols`` float table through the block
    formatter, ``SLAB_CELLS`` cells at a time, a slab starting and ending
    wherever its cells do, mid-row included; ``rows(s)`` gives the block of
    the rows in slice ``s``."""
    n = n_rows * n_cols
    for start in range(0, n, SLAB_CELLS):
        stop = min(start + SLAB_CELLS, n)
        skip = start // n_cols * n_cols
        block = rows(slice(start // n_cols, -(-stop // n_cols)))
        fh.write(_float_rows(np.ravel(block)[start - skip : stop - skip], n_cols, start - skip))


def _header(names) -> bytes:
    return (",".join(names) + _EOL).encode()


# ----------------------------------------------------------------------
# writers
# ----------------------------------------------------------------------
def _floats(n: int) -> str:
    """Template cells for ``n`` comma-separated floats."""
    return ",".join((_CELL,) * n)


def _write_table(path, header, template: str, rows) -> None:
    """The header line, then ``template % row`` for each tuple ``row``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + _EOL)
        fh.writelines(template % row for row in rows)


def write_trace_csv(path, snapshots) -> dict[str, int]:
    """Write one row per (snapshot, path); returns the signature -> id map.

    Path ids number each distinct signature in order of first appearance, so
    a physical path keeps one id for its whole life.  Transfer entries are
    [out, in] with V=row/column 0: vv = T[0,0], vh = T[0,1] (H in, V out).
    Each snapshot's 14 float columns join the rows pending for the block
    formatter, which writes them a slab at a time, each row's float segment
    between its timestamp, path id and signature and its tag.
    """
    ids: dict[str, int] = {}
    heads: dict[str, bytes] = {}  # signature -> b"<path id>,<signature>,"
    tag_ends: dict[str, bytes] = {}  # tag -> b",<tag>\r\n"
    step = SLAB_CELLS // 14
    blocks, leads, ends = [], [], []

    def flush(fh, n_rows: int) -> None:
        """Write the first ``n_rows`` pending rows."""
        block = np.concatenate(blocks)
        for start in range(0, n_rows, step):
            stop = min(start + step, n_rows)
            segments = _float_rows(block[start:stop], 14).split(b"\r\n")
            fh.write(b"".join(chain.from_iterable(zip(leads[start:stop], segments, ends[start:stop]))))
        blocks[:] = [block[n_rows:]]
        del leads[:n_rows], ends[:n_rows]

    with open(path, "wb") as fh:
        fh.write(_header(TRACE_COLUMNS))
        for snap in snapshots:
            rows = snap.paths
            block = np.empty((len(rows), 14))
            block[:, 0] = rows.delay_s
            block[:, 1:3] = rows.aod
            block[:, 3:5] = rows.aoa
            block[:, 5] = rows.doppler_hz
            block[:, 6:] = rows.transfer.reshape(-1, 4).view(float)
            blocks.append(block)
            sigs, tags = rows.signature.tolist(), rows.tag.tolist()
            for sig in sigs:
                if sig not in ids:
                    ids[sig] = len(ids)
                    heads[sig] = f"{ids[sig]},{sig},".encode()
            for tag in set(tags).difference(tag_ends):
                tag_ends[tag] = f",{tag}{_EOL}".encode()
            stamp = (_CELL % snap.timestamp + ",").encode()
            leads += [stamp + heads[sig] for sig in sigs]
            ends += map(tag_ends.__getitem__, tags)
            if len(leads) >= step:
                flush(fh, len(leads) - len(leads) % step)
        if leads:
            flush(fh, len(leads))
    return ids


def write_metrics_csv(path, timestamps, series: dict) -> None:
    """Per-snapshot metric table: timestamp_s plus one column per metric."""
    columns = [np.asarray(c, dtype=float) for c in [timestamps] + [series[n] for n in METRIC_NAMES]]

    def rows(s):
        return np.column_stack([c[s] for c in columns])

    with open(path, "wb") as fh:
        fh.write(_header(("timestamp_s",) + tuple(METRIC_NAMES)))
        _write_floats(fh, len(columns[0]), len(columns), rows)


def write_tvcir_csv(path, cir: TVCir) -> None:
    """Delay-bin rows; per-timestamp re/im column pairs."""
    header = ["delay_s"]
    for t in cir.times:
        stamp = "%.6f" % t
        header.append(f"re@{stamp}")
        header.append(f"im@{stamp}")
    delays = np.asarray(cir.delays, dtype=float)
    amplitude = np.asarray(cir.amplitude, dtype=complex)

    def rows(s):
        # a C-contiguous complex row viewed as floats interleaves re and im
        return np.column_stack((delays[s], np.ascontiguousarray(amplitude[s]).view(float)))

    with open(path, "wb") as fh:
        fh.write(_header(header))
        _write_floats(fh, len(delays), 2 * len(cir.times) + 1, rows)


def write_nrmse_csv(path, rows) -> None:
    """Long-format sweep errors: one row per (interval, metric)."""
    header = (
        "kf_interval_s",
        "metric",
        "rmse",
        "q10",
        "q90",
        "nrmse",
        "degenerate",
        "n_samples",
        "n_excluded",
    )

    def cells():
        for interval, errors in rows:
            for name in METRIC_NAMES:
                m = errors[name]
                yield (interval, name, m.rmse, m.q10, m.q90, m.nrmse, m.degenerate, m.n_samples, m.n_excluded)

    _write_table(path, header, "%.17g,%s," + _floats(4) + ",%d,%d,%d" + _EOL, cells())


def write_timing_csv(path, rows) -> None:
    """Per-interval compute cost relative to the exact reference.

    ``rows`` hold (kf_interval_s, reference_seconds, test_seconds,
    normalized_compute_time, rt_invocations_reference, rt_invocations_test).
    """
    header = (
        "kf_interval_s",
        "reference_seconds",
        "test_seconds",
        "normalized_compute_time",
        "rt_invocations_reference",
        "rt_invocations_test",
    )
    _write_table(path, header, _floats(4) + ",%d,%d" + _EOL, (tuple(r) for r in rows))


def write_error_cdf_csv(path, rows) -> None:
    """Long-format error quantiles: one row per (interval, metric, level)."""
    _write_table(
        path,
        ("kf_interval_s", "metric", "quantile_pct", "abs_error"),
        "%.17g,%s,%d,%.17g" + _EOL,
        (
            (interval, name, level, value)
            for interval, errors in rows
            for name in METRIC_NAMES
            for level, value in errors[name].quantiles.items()
        ),
    )


def write_power_split_csv(path, decomp) -> None:
    header = (
        "timestamp_s",
        "specular_dbm",
        "scattered_dbm",
        "total_dbm",
        "specular_fraction",
        "scattered_fraction",
    )
    columns = [
        np.asarray(c, dtype=float)
        for c in (decomp.timestamps, decomp.specular_dbm, decomp.scattered_dbm, decomp.total_dbm)
    ]
    fractions = (decomp.specular_fraction, decomp.scattered_fraction)

    def rows(s):
        block = np.empty((len(columns[0][s]), 6))
        block[:, :4] = np.column_stack([c[s] for c in columns])
        block[:, 4:] = fractions
        return block

    with open(path, "wb") as fh:
        fh.write(_header(header))
        _write_floats(fh, len(columns[0]), 6, rows)


def write_scatter_summary_csv(path, rows) -> None:
    """Per-scatterer aggregates over the studied window."""
    header = (
        "scatterer_id",
        "n_path_rows",
        "n_snapshots_visible",
        "mean_power_dbm",
        "mean_excess_delay_ns",
    )
    _write_table(
        path,
        header,
        "%d,%d,%d,%.17g,%.17g" + _EOL,
        (
            (
                r["scatterer_id"],
                r["n_path_rows"],
                r["n_snapshots_visible"],
                r["mean_power_dbm"],
                r["mean_excess_delay_ns"],
            )
            for r in rows
        ),
    )


def write_bench_csv(path, rows) -> None:
    _write_table(
        path,
        ("stage", "repeat", "units", "seconds", "per_unit_ms"),
        "%s,%d,%d,%.17g,%.17g" + _EOL,
        ((r["stage"], r["repeat"], r["units"], r["seconds"], r["per_unit_ms"]) for r in rows),
    )


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
