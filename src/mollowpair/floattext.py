"""Exact text of float arrays in vectorized numpy passes: "%.17g" and repr.

The writers' spectrum and decomposition blocks hold most of the floats a
sweep writes.  ``_table_texts`` is the one pass driver for both formats: it
joins the floats of all of a result's tables and converts them _CHUNK per
pass, whatever the table bounds, then hands each table's text back in order,
each float as one ``"%.17g"`` call writes it, or as ``float.__repr__``
(``json.dumps``) does.  ``_json_list`` lays a one-column table's text out as
``json.dumps(..., indent=1)`` writes the list.

For finite x with 1e-280 <= |x| <= 1e280, k = floor(log10|x|) and the
double-double product r = |x| * 10**(16 - k) (Dekker's exact TwoProduct
against a (hi, lo) table of powers of ten) give the 17-digit integer N and
the fraction left over.  k moves once if N falls outside [1e16, 1e17); N is
then rounded to nearest and carries at 1e17.  The product is within 1e-14 of
the exact value, so a fraction more than 2**-40 away from one half rounds as
the exact one does.  The digits are laid out by the %g rules (fixed notation
for -4 <= k < 17, else an exponent of at least two digits; trailing zeros and
a bare point dropped) in a zero-padded uint8 matrix, which is then compacted.
Every other element (zeros, non-finite values, |x| outside that range,
fractions within 2**-40 of one half, exact ties included, and an exponent
still wrong after one move) is written by ``"%.17g"`` itself, so the text is
exact by construction.  (Dekker, "A floating-point technique for extending
the available precision", Numer. Math. 18, 1971; Adams, "Ryu revisited:
printf floating point conversion", OOPSLA 2019, for fixed-precision digits.)

The repr layout keeps the shortest digits that round-trip (Steele & White,
"How to print floating-point numbers accurately", PLDI 1990; Adams, "Ryu:
fast float-to-string conversion", PLDI 2018).  Half an ulp of x = m * 2**e
(1/2 <= m < 1) is h = 2**(e - 54) * 10**(16 - k) < 11.2 in the units of r,
and a decimal closer than h to r reads back as x.  So the rounding of r to
16 or 15 digits round-trips when its distance to r is below h, and the
shorter one that does (else the 17-digit one) is kept as a 17-digit
integer with trailing zeros.
Shorter roundings need no test: at most one multiple of 100 lies within h of
r, so when the 15-digit rounding round-trips, the shortest is the same
integer with its trailing zeros dropped.  The layout is %g's with the
exponent form from k >= 16 and ".0" kept on whole numbers.  Besides the
elements "%.17g" writes itself, powers of two (whose interval below x is half
as wide) and distances within 2**-40 of h or of a tie are written by
``json.dumps`` (``float.__repr__``, or NaN, Infinity, -Infinity).
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math

import numpy as np

#: CSV float text: 17 significant digits, round-trip exact.  The %-operator
#: writes the same text as f"{x:.17g}", nan, inf and -0 included.
_G17 = "%.17g"
#: Exponents e of the double-double table of 10**e: the scales 10**(16 - k)
#: of the block writer's range 1e-280 <= |x| <= 1e280, one step either side.
_POW10_MIN, _POW10_MAX = -266, 298
#: Dekker's splitting constant, 2**27 + 1.
_SPLIT = 134217729.0
#: Floats per pass of the block writer: at most about 90 (%.17g) or 125 (repr)
#: bytes of temporaries per float, 1.1 or 1.5 MB; larger passes were no faster.
_CHUNK = 12288
#: Bytes per float in the block writer's matrix: sign and "0.000" (6), 17
#: digits and a point (18), "e+ddd" (5), the separator (1).
_ROWS = 30
_J = np.arange(18, dtype=np.uint8)[:, None]
#: The matrix's fixed characters as uint8 scalars, so that their rows are built as bytes.
_MINUS, _PLUS, _ZERO, _POINT, _E = np.frombuffer(b"-+0.e", np.uint8)


@functools.cache
def _decimal_tables() -> tuple[np.ndarray, np.ndarray]:
    """10**e for e in [_POW10_MIN, _POW10_MAX], and the text of 0..9999.

    Column e - _POW10_MIN of the first table is (hi, lo, Dekker split of hi):
    hi + lo = 10**e to 106 bits, each part correctly rounded from exact
    integers.  Entry n of the second holds the four ASCII digits of n.
    """
    pow10 = np.empty((4, _POW10_MAX - _POW10_MIN + 1))
    q = 1  # 10**e, each power from the one before
    for e in range(_POW10_MAX + 1):
        hi = float(q)
        pow10[:2, e - _POW10_MIN] = hi, float(q - int(hi))
        if e <= -_POW10_MIN:  # 10**-e = 1/q = hi + lo, lo = (den - num q) / (den q), den = 2**s
            hi = 1 / q
            num, den = hi.as_integer_ratio()
            pow10[:2, -e - _POW10_MIN] = hi, math.ldexp((den - num * q) / q, 1 - den.bit_length())
        q *= 10
    c = _SPLIT * pow10[0]
    pow10[2] = c - (c - pow10[0])
    pow10[3] = pow10[0] - pow10[2]
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)
    chars = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(4):
        quads[..., place] = chars.reshape([10 if i == place else 1 for i in range(4)])
    return pow10, quads.view(np.uint32).ravel()


def _scaled(a: np.ndarray, col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part and fraction of a * 10**e, e = col + _POW10_MIN, for a * 10**e >= 2**53.

    The product is a double-double: Dekker's exact TwoProduct a * hi plus
    a * lo, with an error below 1e-14 for products under 1e17, summed in place
    term by term as ((ah bh - p) + ah bl + al bh) + al bl + a lo.
    """
    hi, lo, bh, bl = _decimal_tables()[0]
    p = a * np.take(hi, col)
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    r, t = -p, np.empty_like(a)
    for u, table in ((ah, bh), (ah, bl), (al, bh), (al, bl), (a, lo)):
        np.take(table, col, out=t, mode="clip")  # col is in range; "clip" skips a buffer
        t *= u
        r += t
    f = np.floor(r, out=t)
    r -= f
    return p.astype(np.int64) + f.astype(np.int64), r


def _decimal17(x: np.ndarray, shortest: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17 significant digits and decimal exponent of each x, where they are certain.

    Returns N in [1e16, 1e17) and X with |x| = N * 10**(X - 16) rounded to
    17 digits as "%.17g" rounds it (shortest: N is the shortest rounding
    that reads back as x, padded with zeros), and the mask of the elements
    for which that holds.  The rest (see the module docstring) are left to
    the per-element writer.
    """
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    col = 16 - _POW10_MIN - np.floor(np.log10(a)).astype(np.int64)  # of 10**(16 - k)
    n, f = _scaled(a, col)
    move = (n >= 10 ** 17).astype(np.int8) - (n < 10 ** 16)  # log10 can be off by one
    redo = np.flatnonzero(move)
    if redo.size:
        col[redo] -= move[redo]
        n[redo], f[redo] = _scaled(a[redo], col[redo])
        fast[redo] &= (n[redo] >= 10 ** 16) & (n[redo] < 10 ** 17)
    fast &= np.abs(f - 0.5) > 2.0 ** -40
    rounded = n + (f > 0.5)
    if shortest:
        m, e = np.frexp(a)
        h = np.ldexp(np.take(_decimal_tables()[0][0], col), e - 54)  # half an ulp, units of r
        fast &= m != 0.5
        for p in (10, 100):  # 16 and 15 digits; a shorter form has the 15's trailing zeros
            rem = n % p
            down, up = rem + f, (p - rem) - f  # distances to the multiples of p either side
            d = np.minimum(down, up)
            fast &= (np.abs(d - h) > 2.0 ** -40) & (np.abs(up - down) > 2.0 ** -40)
            np.copyto(rounded, n - rem + p * (up < down), where=d < h)
    carry = rounded == 10 ** 17
    rounded[carry] = 10 ** 16
    return rounded, (16 - _POW10_MIN + carry - col).astype(np.int16), fast


def _text_matrix(x: np.ndarray, sep: np.ndarray, shortest: bool = False) -> np.ndarray:
    """Column i: the ASCII of x[i] then sep[i], among zero bytes; shape (_ROWS, len(x)).

    The text is _G17 % x[i], or json.dumps(x[i]) if shortest.
    """
    m = x.size
    n, X, fast = _decimal17(x, shortest)
    # Rows 0..19: n in five groups of four characters (the first: 000 and the leading
    # digit); rows 1..17 of digits = rows 2..20 are the 17 digits, rows 0 and 18 never shown.
    digits = np.zeros((21, m), np.uint8)
    quad = digits[:20].reshape(5, 4, m)
    for j in range(4, -1, -1):
        q = n // 10000
        quad[j] = np.take(_decimal_tables()[1], n - q * 10000).view(np.uint8).reshape(m, 4).T
        n = q
    digits = digits[2:]
    # %g: fixed notation for -4 <= X < 17, else d.ddde+XX; trailing zeros and a bare '.' go.
    # repr: the same with fixed notation for X < 16 and ".0" after a whole number.
    kept = ((digits[1:18] > ord("0")) * _J[1:]).max(axis=0)
    fixed = (X >= -4) & (X < 17 - shortest)
    whole = fixed & (X >= 0)
    shown = np.where(whole, np.maximum(kept, X + (1 + shortest)), kept).astype(np.uint8)
    point = np.where(whole, X + 1, np.where(fixed, 18, 1)).astype(np.uint8)  # 18: none
    point += (point >= shown) * (18 - point)
    lead = fixed & (X < 0)  # "0." and -X - 1 zeros before the digits
    T = np.empty((_ROWS, m), np.uint8)
    T[0] = _MINUS * np.signbit(x)
    T[1] = _ZERO * lead
    T[2] = _POINT * lead
    T[3:6] = _ZERO * (_J[:3] < lead * (-1 - X))
    # Row c of the body: digit c before the point, '.' at it, digit c - 1 after it.
    body = np.subtract(digits[1:], digits[:18], out=T[6:24])
    body *= _J < point
    body += digits[:18]
    np.copyto(body, ord("."), where=_J == point)
    body *= _J < shown + (point < 18)
    sci = ~fixed
    ax = np.abs(X)
    T[24] = _E * sci
    T[25] = sci * np.where(X < 0, _MINUS, _PLUS)
    T[26] = (sci & (ax >= 100)) * (ord("0") + ax // 100)
    T[27] = sci * (ord("0") + ax // 10 % 10)
    T[28] = sci * (ord("0") + ax % 10)
    T[29] = sep
    slow = np.flatnonzero(~fast)
    if slow.size:
        write = json.dumps if shortest else _G17.__mod__
        text = "".join([write(v).ljust(_ROWS - 1, "\0") for v in x[slow].tolist()])
        T[:-1, slow] = np.frombuffer(text.encode(), np.uint8).reshape(-1, _ROWS - 1).T
    return T


def _table_texts(tables, shortest: bool = False):
    """Yield the text of each 2-D float table in order: its rows as lines, floats comma-separated.

    Each float is written as _G17 % x, or json.dumps(x) if shortest.  The
    tables are read one at a time, and their joined floats are converted
    _CHUNK per pass, whatever the table bounds.
    """
    x, sep = np.empty(0), np.empty(0, np.uint8)  # floats read and not yet converted
    sizes, part = collections.deque(), b""  # floats left per table; the front one's text so far
    for table in itertools.chain(tables, [None]):  # None: the end, which converts the rest
        if table is not None:
            row = np.tile(np.frombuffer(b"," * (table.shape[1] - 1) + b"\n", np.uint8), len(table))
            x, sep = np.concatenate((x, np.ravel(table))), np.concatenate((sep, row))
            sizes.append(table.size)
        while x.size >= _CHUNK or (table is None and x.size):
            raw, pos = _text_matrix(x[:_CHUNK], sep[:_CHUNK], shortest).T.tobytes(), 0
            x, sep = x[_CHUNK:], sep[_CHUNK:]
            while sizes and pos + sizes[0] * _ROWS <= len(raw):
                end = pos + sizes.popleft() * _ROWS
                yield (part + raw[pos:end]).translate(None, b"\0")
                part, pos = b"", end
            if sizes:
                part += raw[pos:]
                sizes[0] -= (len(raw) - pos) // _ROWS
    yield from (b"" for _ in sizes)  # empty tables after the last float


def _json_list(text: bytes, indent: bytes) -> bytes:
    """A one-column table's text as json.dumps(..., indent=1) writes the list, items at indent."""
    inner = text[:-1].replace(b"\n", b",\n" + indent)
    return b"".join([b"[\n", indent, inner, b"\n", indent[1:], b"]"]) if text else b"[]"
