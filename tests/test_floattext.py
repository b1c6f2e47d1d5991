"""The vectorized writers against "%.17g" and json.dumps, float by float.

floattext._table_texts must write exactly the text of one "%.17g" call per
float, and with floattext._json_list exactly what json.dumps(..., indent=1)
writes for a list of floats (float.__repr__; NaN, Infinity): each with a
seeded corpus of random bit patterns and hard cases, a hypothesis property,
tables that share and straddle the writer's passes, a guard that a result's
floats take one pass per _CHUNK floats, and a guard that the per-element
fallback stays the exception on real spectra.  The power-of-ten table both
share is pinned against exact rationals.
"""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mollowpair import floattext
from mollowpair.floattext import _POW10_MAX, _POW10_MIN, _json_list, _table_texts
from mollowpair.sweep import GridSpec, SweepSpec, emit, load_preset, preset_names, run_sweep

MAX = sys.float_info.max
TINY = sys.float_info.min  # smallest normal


def block_text(values, columns=1):
    flat = np.asarray(values, dtype=float)
    return b"".join(_table_texts([flat.reshape(-1, columns)])).decode()


def reference_text(values, columns=1):
    row = ",".join(["%.17g"] * columns) + "\n"
    return (row * (len(values) // columns)) % tuple(np.asarray(values, dtype=float).tolist())


def assert_same_text(values, columns=1):
    got, want = block_text(values, columns), reference_text(values, columns)
    if got != want:
        bad = next(i for i, (g, w) in enumerate(zip(got.split("\n"), want.split("\n"))) if g != w)
        pytest.fail(f"row {bad}: {got.split(chr(10))[bad]!r} != {want.split(chr(10))[bad]!r}")


def powers_of_ten():
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    return np.concatenate([powers, np.nextafter(powers, -np.inf), np.nextafter(powers, np.inf)])


def ties():
    # 16-digit integers plus a quarter: 18 significant digits ending in 5, so
    # 17-digit rounding is an exact tie (to even).
    n = np.random.default_rng(7).integers(10**15, 10**16, 500).astype(float)
    return np.concatenate([[1e15 + 0.25, 1e15 + 0.75], n + 0.25, n + 0.75])


EDGES = [
    1e-5, 9.9999999999999995e-5, 1e-4, 0.0001, 9.99999999999999e-5, 1e16, 99999999999999999.0,
    1e17, 9.999999999999999e16, 12345678901234567.0, 0.5, 0.1, 1.0, 2.0 / 3.0,
    1.2345e-123, 6.02214076e200, 1e-100, 1e100, 9.999999999999999e99, 1e-280, 1e280,
    9.999999999999999e-281, 1.0000000000000001e280,
    0.0, -0.0, math.nan, math.inf, -math.inf, MAX, -MAX, TINY, -TINY,
    5e-324, -5e-324, 2.2250738585072009e-308, 1.5e-310, 4.9406564584124654e-320,
]


def test_corpus_matches_g17():
    # 2**20 seeded random bit patterns cover every exponent and both signs,
    # specials included; then every power of ten and its neighbours, ties and
    # edges, each with both signs.
    bits = np.random.default_rng(20261019).integers(0, 2**64, 2**20, dtype=np.uint64)
    cases = np.concatenate([powers_of_ten(), ties(), EDGES])
    assert_same_text(np.concatenate([bits.view(np.float64), cases, -cases]), columns=2)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_floats_match_g17(values):
    assert_same_text(values)


def test_tables_split_back_across_chunks():
    # Tables of 1, 2 and 4 columns, one empty, sharing and straddling the passes.
    rng = np.random.default_rng(3)
    shapes = [(3, 4), (floattext._CHUNK - 1, 2), (0, 4), (1, 1), (floattext._CHUNK + 5, 2), (2, 4),
              (0, 2)]
    tables = [rng.standard_normal((n, k)) * 10.0 ** rng.integers(-30, 30, (n, k))
              for n, k in shapes]
    texts = [text.decode() for text in _table_texts(iter(tables))]
    assert texts == [reference_text(t.ravel(), t.shape[1]) for t in tables]


def test_no_tables_no_text():
    assert list(_table_texts([])) == []
    assert list(_table_texts([np.empty((0, 2))] * 2)) == [b"", b""]


class CountingFormat(str):
    """The "%.17g" format string, counting the floats it formats."""

    calls = 0

    def __mod__(self, value):
        CountingFormat.calls += 1
        return str.__mod__(self, value)


SPECTRUM_PRESETS = [name for name in preset_names()
                    if {"spectrum", "decomposition"} & set(load_preset(name).observables)]


@pytest.mark.parametrize("name", SPECTRUM_PRESETS)
def test_fallback_only_for_zeros_and_nonfinite(name, monkeypatch):
    # Byte tests pass even if every float went through the per-element
    # fallback; this pins the fast path as the rule on real spectra.
    result = run_sweep(load_preset(name))
    floats = np.concatenate([np.column_stack((b.grid, b.values)).ravel() for b in result.spectra]
                            + [np.ravel(b.components) for b in result.decompositions])
    monkeypatch.setattr(floattext, "_G17", CountingFormat("%.17g"))
    CountingFormat.calls = 0
    emit(result, "csv")
    assert floats.size > 1000
    assert CountingFormat.calls == np.count_nonzero((floats == 0) | ~np.isfinite(floats))


def test_decimal_table_is_exact():
    # Each column: hi and lo correctly rounded from 10**e and 10**e - hi, and
    # the Dekker split of hi into two halves of at most 26 significant bits.
    pow10 = floattext._decimal_tables()[0]
    for col, e in enumerate(range(_POW10_MIN, _POW10_MAX + 1)):
        hi, lo, bh, bl = pow10[:, col].tolist()
        exact = Fraction(10) ** e
        assert (hi, lo) == (float(exact), float(exact - Fraction(hi))), e
        assert bh + bl == hi and all((math.frexp(v)[0] * 2**26).is_integer() for v in (bh, bl)), e


# --- the repr layout: json.dumps text ----------------------------------------

def json_text(values):
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    return _json_list(next(_table_texts([column], True)), b" ").decode()


def assert_same_json(values):
    got, want = json_text(values), json.dumps(np.asarray(values, dtype=float).tolist(), indent=1)
    if got != want:
        bad = next(i for i, (g, w) in enumerate(zip(got.split("\n"), want.split("\n"))) if g != w)
        pytest.fail(f"line {bad}: {got.split(chr(10))[bad]!r} != {want.split(chr(10))[bad]!r}")


def powers_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    return np.concatenate([powers, np.nextafter(powers, -np.inf), np.nextafter(powers, np.inf)])


def short_decimals():
    # Values whose shortest text has 1 to 17 significant digits, over a wide exponent range.
    rng = np.random.default_rng(17)
    digits = np.repeat(np.arange(1, 18), 400)
    mantissa = rng.uniform(1.0, 10.0, digits.size)
    exponent = rng.integers(-30, 30, digits.size)
    return np.array([float(f"{m:.{d - 1}f}e{k}") for m, d, k in zip(mantissa, digits, exponent)])


SWITCH_POINTS = [
    1e15, 1e16, 1e17, 999999999999999.9, 9999999999999998.0, 9999999999999999.0,
    1.0000000000000002e16, 123456789012345.6, 1234567890123456.0, 1234567890123456.8,
    100.0, 2.0, 10.0, 1e22, 1e-4, 1e-5,
    0.00012345678901234567, 1.2345678901234567e-5, 5e-324, 2.2250738585072014e-308,
]


def test_corpus_matches_repr():
    # The same 2**20 random bit patterns as the "%.17g" corpus (many passes of
    # the writer), powers of ten and of two with both neighbours, 1- to 17-digit
    # decimals, the fixed/exponent switch points and whole numbers, ties and
    # edges (zeros, subnormals, the extremes, nan and inf), each with both signs.
    bits = np.random.default_rng(20261019).integers(0, 2**64, 2**20, dtype=np.uint64)
    cases = np.concatenate([powers_of_ten(), powers_of_two(), short_decimals(), ties(),
                            SWITCH_POINTS, EDGES])
    assert_same_json(np.concatenate([bits.view(np.float64), cases, -cases]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=64))
def test_any_floats_match_repr(values):
    assert_same_json(values)


def test_json_lists_share_and_straddle_passes():
    # Lists of 1, _CHUNK - 1, _CHUNK + 5 and 2001 floats (the spectrum
    # presets' grids), one empty, converted together: they share passes and
    # straddle their bounds, and each reads back as its own json.dumps.
    rng = np.random.default_rng(5)
    sizes = [1, floattext._CHUNK - 1, 0, floattext._CHUNK + 5, 2001, 1, 2001]
    lists = [rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n) for n in sizes]
    texts = _table_texts((v.reshape(-1, 1) for v in lists), True)
    assert [_json_list(text, b" ").decode() for text in texts] == [
        json.dumps(v.tolist(), indent=1) for v in lists]


@pytest.mark.parametrize("format", ["csv", "json"])
def test_one_pass_per_chunk_of_a_result(format, monkeypatch):
    # A five-block spectra result: its floats take ceil(floats / _CHUNK)
    # passes, whatever the block bounds (CSV: every spectrum and decomposition
    # table; JSON: every grid and values list).
    spec = SweepSpec(param="omega1", grid=GridSpec(0.5, 2.0, 5),
                     fixed={"g": 0.7, "gamma": 0.4, "theta": 1.0},
                     observables=("spectrum", "decomposition"))
    result = run_sweep(spec)
    floats = sum(b.grid.size + b.values.size for b in result.spectra)
    if format == "csv":
        floats += sum(4 * len(b.components) for b in result.decompositions)
    text_matrix, calls = floattext._text_matrix, []

    def counting(x, sep, shortest=False):
        calls.append(x.size)
        return text_matrix(x, sep, shortest)

    monkeypatch.setattr(floattext, "_text_matrix", counting)
    emit(result, format)
    assert len(result.spectra) == len(result.decompositions) == 5
    assert sum(calls) == floats
    assert len(calls) == -(-floats // floattext._CHUNK)


@pytest.mark.parametrize("name", [name for name in SPECTRUM_PRESETS
                                  if "spectrum" in load_preset(name).observables])
def test_repr_fallback_is_rare_on_spectra(name, monkeypatch):
    # JSON writes the spectrum blocks' grids and values through the repr
    # layout; fewer than 1 % of them may go to json.dumps one at a time.
    result = run_sweep(load_preset(name))
    floats = sum(b.grid.size + b.values.size for b in result.spectra)
    decimal17, fallbacks = floattext._decimal17, []

    def counting(x, shortest=False):
        n, X, fast = decimal17(x, shortest)
        fallbacks.append(np.count_nonzero(~fast) if shortest else 0)
        return n, X, fast

    monkeypatch.setattr(floattext, "_decimal17", counting)
    emit(result, "json")
    assert floats > 1000
    assert sum(fallbacks) < 0.01 * floats
