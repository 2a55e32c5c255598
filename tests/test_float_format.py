"""The block formatter of ``traceio`` against Python's own ``%.17g``.

``_float_rows`` must give, bit for bit, the bytes of formatting every cell
with ``"%.17g" %``, joining the cells with ``,`` and ending each row in
``\\r\\n``: on random 64-bit patterns, on every power of ten and its
neighbours, on exact 17-digit ties, on integers around 10**16 and 10**17
and on the writers' crafted values.  The cached powers of ten are pinned to
exact rationals here, where ``fractions`` may be imported.
"""

from __future__ import annotations

import io
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from preset_streams import preset_stream, pylon_window
from test_traceio import ODD_VALUES

from railchan import traceio
from railchan.metrics import metric_series, power_decomposition, synthesize_tv_cir
from railchan.traceio import (
    SLAB_CELLS,
    _decimal,
    _float_rows,
    _pow10,
    write_metrics_csv,
    write_power_split_csv,
    write_trace_csv,
    write_tvcir_csv,
)


def oracle_rows(block) -> bytes:
    return "".join(",".join("%.17g" % v for v in row) + "\r\n" for row in block.tolist()).encode()


def assert_formats(values, n_cols: int = 8) -> None:
    """Every value, in slabs of whole ``n_cols``-cell rows, against ``%``."""
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate((values, np.zeros(-len(values) % n_cols)))
    rows = values.reshape(-1, n_cols)
    step = SLAB_CELLS // n_cols
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        got, want = _float_rows(block, n_cols), oracle_rows(block)
        if got != want:
            bad = [(g, w) for g, w in zip(got.split(b"\r\n"), want.split(b"\r\n")) if g != w]
            pytest.fail(f"first differing row: {bad[0]}")


@pytest.mark.parametrize("n_cols, slab", [(SLAB_CELLS + SLAB_CELLS // 3 + 1, SLAB_CELLS), (5, 7)], ids=["wide", "narrow"])
def test_slabs_that_start_and_end_mid_row(monkeypatch, n_cols, slab):
    # a table wider than a slab, and a narrow one under a slab of a width
    # no row count divides: slabs start and end inside rows, and a row's
    # last cell may open a slab
    monkeypatch.setattr(traceio, "SLAB_CELLS", slab)
    rng = np.random.default_rng(30)
    table = rng.integers(0, 2**64, size=(7, n_cols), dtype=np.uint64).view(float)
    calls = []

    def spy(*args):
        calls.append(args)
        return _float_rows(*args)

    monkeypatch.setattr(traceio, "_float_rows", spy)
    fh = io.BytesIO()
    traceio._write_floats(fh, len(table), n_cols, lambda s: table[s])
    assert fh.getvalue() == oracle_rows(table)
    firsts = [first for _, _, first in calls]
    assert len(calls) == -(-table.size // slab) and len(set(firsts)) > 2 and n_cols - 1 in firsts


def test_random_bit_patterns():
    # uniform 64-bit patterns: every exponent, subnormals, NaN payloads
    # and infinities among them, then the special patterns themselves
    rng = np.random.default_rng(20261020)
    bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False)
    specials = np.array(
        [
            0x7FF0000000000000,  # +inf
            0xFFF0000000000000,  # -inf
            0x7FF8000000000001,  # NaN payloads, both signs
            0xFFF4000000000000,
            0x7FF0000000000001,
            0x0000000000000001,  # smallest subnormals
            0x8000000000000001,
            0x000FFFFFFFFFFFFF,  # largest subnormal
            0x0010000000000000,  # smallest normal
            0x7FEFFFFFFFFFFFFF,  # largest finite
        ],
        dtype=np.uint64,
    )
    values = np.concatenate((bits, specials)).view(np.float64)
    assert np.isnan(values).any() and np.isinf(values).any()
    assert ((values != 0) & (np.abs(values) < np.finfo(float).tiny)).any()
    assert_formats(values)


def test_powers_of_ten_and_their_neighbours():
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_formats(np.concatenate((p, np.nextafter(p, 0), np.nextafter(p, np.inf), -p)))


def test_exact_17_digit_ties():
    # n + 1/4 and n + 3/4 are doubles for n < 2**51, and their 17th digit
    # is a tie: half to even keeps n.2 and rounds n.75 up to n.8
    rng = np.random.default_rng(7)
    n = rng.integers(10**15, 225 * 10**13, size=20_000).astype(float)
    ties = np.concatenate((n + 0.25, n + 0.75, -(n + 0.25)))
    assert_formats(ties)
    assert ("%.17g" % (1234567890123456.0 + 0.25)).endswith(".2")


def test_integers_around_ten_to_the_16_and_17():
    around = [float(10**16 + m) for m in range(-3000, 3000)]
    around += [float(10**17 + m) for m in range(-48_000, 48_000, 7)]
    assert_formats(around)


def test_odd_values():
    assert_formats(ODD_VALUES, n_cols=len(ODD_VALUES))
    assert_formats(ODD_VALUES, n_cols=1)


def test_fixed_and_scientific_layouts():
    # every fixed exponent -4..16 and the scientific edges, with 1 to 17
    # significant digits, both signs
    digits = [1.0, 1.5, 1.25, 1.125, 1.2345678901234567, 9.999999999999998]
    values = [d * 10.0**X for d in digits for X in range(-7, 20)]
    values += [d * 10.0**X for d in digits for X in (-101, -100, -99, 99, 100, 101)]
    assert_formats(values + [-v for v in values], n_cols=6)


def test_cached_powers_of_ten_are_exact():
    k = np.arange(traceio._K_MIN, traceio._K_MAX + 1)
    hi, lo, hi_hi, hi_lo = _pow10(k)
    assert not np.isnan(traceio._POW10).any()
    for kk, h, l, hh, hl in zip(k.tolist(), hi.tolist(), lo.tolist(), hi_hi.tolist(), hi_lo.tolist()):
        exact = Fraction(10) ** kk
        assert h == float(exact), kk
        assert l == float(exact - Fraction(h)), kk
        # Dekker's halves: exact, each with at most 26 significant bits
        assert hh + hl == h, kk
        for half in (hh, hl):
            assert (math.frexp(half)[0] * 2**26).is_integer(), kk


def exact_fallback(value: float) -> bool:
    """The fallback set of ``_decimal``'s docstring, decided exactly."""
    a = abs(value)
    if not (1e-280 < a < 1e280):  # zeros, subnormals, NaN, inf, range edges
        return True
    num, den = a.as_integer_ratio()
    X = math.floor(math.log10(a))
    while num * 10 ** max(-X, 0) < den * 10 ** max(X, 0):  # a < 10**X
        X -= 1
    while num * 10 ** max(-X - 1, 0) >= den * 10 ** max(X + 1, 0):  # a >= 10**(X+1)
        X += 1
    k = 16 - X
    vn, vd = (num * 10**k, den) if k >= 0 else (num, den * 10**-k)
    rest = vn % vd
    return abs(2 * rest - vd) < 2 * traceio.TIE_BAND * vd


def near_ties(offsets) -> np.ndarray:
    """Doubles a in [1, 2) whose a * 10**16 is an integer + 1/2 + j / 2**36
    for each j of ``offsets``: a = m / 2**52 makes a * 10**16 = m * 5**16 /
    2**36, so m is solved modulo 2**36."""
    inverse = pow(5**16, -1, 2**36)
    return np.array([(2**52 + (2**35 + j) * inverse % 2**36) / 2**52 for j in offsets])


#: j / 2**36 inside TIE_BAND (the last one by 0.5 / 2**36), then outside it
INSIDE_BAND = (1, -1, 1000, -1000, 68719, -68719)
OUTSIDE_BAND = (68720, -68720, 137438, 2**33)


def test_near_ties():
    values = near_ties(INSIDE_BAND + OUTSIDE_BAND)
    for v, j in zip(values.tolist(), INSIDE_BAND + OUTSIDE_BAND):
        rest = Fraction(v) * 10**16 % 1
        assert rest == Fraction(1, 2) + Fraction(j, 2**36)
    assert_formats(np.concatenate((values, -values)))


def test_fallback_is_exactly_the_named_cells():
    rng = np.random.default_rng(3)
    n = rng.integers(10**15, 225 * 10**13, size=200).astype(float)
    fall = np.concatenate((np.array(ODD_VALUES), n + 0.25, n + 0.75, near_ties(INSIDE_BAND)))
    fast = np.concatenate((n + 0.5, near_ties(OUTSIDE_BAND), [np.nextafter(1e280, 0), np.nextafter(1e-280, 1)]))
    mixed = np.concatenate(
        (rng.integers(0, 2**64, size=3000, dtype=np.uint64).view(np.float64), [1e280, -1e280, 1e-280])
    )
    values = np.concatenate((fall, fast, mixed))
    got = _decimal(values)[2]
    want = np.array([exact_fallback(v) for v in values.tolist()])
    assert (got == want).all(), values[got != want]
    # ties and near ties in the band fall back; n + 1/2, near ties outside
    # the band and the range's inner neighbours do not; the crafted values
    # mix both
    assert want[len(ODD_VALUES) : len(fall)].all() and not want[len(fall) : len(fall) + len(fast)].any()
    assert want[: len(ODD_VALUES)].any() and not want[: len(ODD_VALUES)].all()


def test_carry_to_the_next_power_of_ten():
    # the doubles nearest 1e98 and 1e-14 lie below those powers, and their
    # 17 digits round up to 10**17: the array path carries, no fallback
    X, D, slow = _decimal(np.array([1e98, 1e-14, -1e98]))
    assert not slow.any()
    assert (D == 10**16).all() and X.tolist() == [98, -14, 98]
    assert Fraction(1e98) < 10**98 and Fraction(1e-14) < Fraction(1, 10**14)


# ----------------------------------------------------------------------
# the fallback on real streams, per writer
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def streams():
    """The ``run`` stream of ``test_traceio`` and the pylon window."""
    return preset_stream(duration_s=0.4, kf_interval_s=0.1), pylon_window()


def test_fallback_cells_per_writer_on_preset_streams(tmp_path, monkeypatch, streams):
    (cfg, run), (pylon_cfg, pylon) = streams
    cir = synthesize_tv_cir(pylon.snapshots, pylon_cfg.bandwidth_hz, pylon_cfg.rolloff)
    writers = {
        "trace.csv (run)": lambda p: write_trace_csv(p, run.snapshots),
        "trace.csv (pylon)": lambda p: write_trace_csv(p, pylon.snapshots),
        "metrics.csv (run)": lambda p: write_metrics_csv(p, metric_series(run.snapshots, cfg.tx_power_dbm)),
        "tvcir_total.csv (pylon)": lambda p: write_tvcir_csv(p, cir),
        "tvcir_scatter.csv (pylon)": lambda p: write_tvcir_csv(p, replace(cir, amplitude=cir.scattered)),
        "power_split.csv (pylon)": lambda p: write_power_split_csv(
            p, power_decomposition(pylon.snapshots, pylon_cfg.tx_power_dbm)
        ),
    }
    blocks = []

    def spy(cells, *layout):
        blocks.append(np.array(cells, dtype=float).ravel())
        return _float_rows(cells, *layout)

    monkeypatch.setattr(traceio, "_float_rows", spy)
    report = {}
    for name, write in writers.items():
        blocks.clear()
        write(tmp_path / "out.csv")
        cells = np.concatenate(blocks)
        got = _decimal(cells)[2]
        want = np.array([exact_fallback(v) for v in cells.tolist()])
        assert (got == want).all(), (name, cells[got != want])
        report[name] = f"{int(got.sum())} of {len(cells)}"
    print("fallback cells per writer:", report)
    assert len(report) == len(writers)

