"""Exact text of float arrays in vectorized numpy passes: "%.17g" and repr.

The writers' spectrum and decomposition blocks hold most of the floats a
sweep writes.  ``_csv_blocks`` turns the CSV blocks into the bytes that one
``"%.17g"`` call per float would write, for all blocks of a result at once;
``_json_array`` turns one float array into the bytes that ``json.dumps(...,
indent=1)`` writes for it, each float as ``float.__repr__`` writes it.

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

import functools
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
#: Floats per pass of the block writer; bounds its temporaries to a few hundred KB.
_CHUNK = 2048
#: Bytes per float in the block writer's matrix: sign and "0.000" (6), 17
#: digits and a point (18), "e+ddd" (5), the separator (1).
_ROWS = 30
_J = np.arange(18, dtype=np.uint8)[:, None]


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
    a * lo, with an error below 1e-14 for products under 1e17.
    """
    hi, lo, bh, bl = (np.take(t, col) for t in _decimal_tables()[0])
    p = a * hi
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    r = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo
    f = np.floor(r)
    return p.astype(np.int64) + f.astype(np.int64), r - f


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
    move = (n >= 10 ** 17).astype(np.int64) - (n < 10 ** 16)  # log10 can be off by one
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
            rounded = np.where(d < h, n - rem + p * (up < down), rounded)
    carry = rounded == 10 ** 17
    rounded[carry] = 10 ** 16
    return rounded, (16 - _POW10_MIN + carry - col).astype(np.int16), fast


def _text_matrix(x: np.ndarray, sep: np.ndarray, shortest: bool = False) -> np.ndarray:
    """Column i: the ASCII of x[i] then sep[i], among zero bytes; shape (_ROWS, len(x)).

    The text is _G17 % x[i], or json.dumps(x[i]) if shortest.
    """
    m = x.size
    n, X, fast = _decimal17(x, shortest)
    groups = np.empty((5, m), np.uint16)  # four digits each, the leading one digit
    for j in range(4, 0, -1):
        q = n // 10000
        groups[j] = n - q * 10000
        n = q
    groups[0] = n
    digits = np.zeros((19, m), np.uint8)  # rows 1..17: the 17 digit characters
    digits[1:18] = (np.take(_decimal_tables()[1], groups).view(np.uint8).reshape(5, m, 4)
                    .transpose(0, 2, 1).reshape(20, m)[3:])
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
    T[0] = ord("-") * np.signbit(x)
    T[1] = ord("0") * lead
    T[2] = ord(".") * lead
    T[3:6] = ord("0") * (_J[:3] < lead * (-1 - X))
    # Row c of the body: digit c before the point, '.' at it, digit c - 1 after it.
    body = digits[:18] + (_J < point) * (digits[1:] - digits[:18])
    body += (_J == point) * (np.uint8(ord(".")) - body)
    np.multiply(body, _J < shown + (point < 18), out=T[6:24])
    sci = ~fixed
    ax = np.abs(X)
    T[24] = ord("e") * sci
    T[25] = sci * np.where(X < 0, ord("-"), ord("+")).astype(np.uint8)
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


def _csv_blocks(titles, tables):
    """Yield each title, then the CSV lines of _G17 text of its float table.

    tables is an iterable of 2-D float arrays, read one at a time in order.
    Consecutive tables are converted together until they hold _CHUNK
    floats, so small ones share a pass.
    """
    batch, size = [], 0
    for title, table in zip(titles, tables):
        batch.append((title, table))
        size += table.size
        if size >= _CHUNK:
            yield from _batch_text(batch)
            batch, size = [], 0
    if batch:
        yield from _batch_text(batch)


def _batch_text(batch):
    """Each (title, table) of batch as its title and CSV lines, _CHUNK floats per pass."""
    flat = np.concatenate([np.ravel(t) for _, t in batch])
    sep = np.concatenate([np.tile(np.frombuffer(("," * (t.shape[1] - 1) + "\n").encode(),
                                                np.uint8), len(t)) for _, t in batch])
    raw = b"".join(_text_matrix(flat[i:i + _CHUNK], sep[i:i + _CHUNK]).T.tobytes()
                   for i in range(0, flat.size, _CHUNK))
    pos = 0
    for title, table in batch:
        yield title
        yield raw[pos * _ROWS:(pos + table.size) * _ROWS].translate(None, b"\0")
        pos += table.size


def _json_array(values: np.ndarray, indent: bytes) -> bytes:
    """A 1-D float array as json.dumps(..., indent=1) writes it, its items at indent.

    indent is the spaces before each item, one more than before the closing
    bracket.  The text is written _CHUNK floats per pass.
    """
    if values.size == 0:
        return b"[]"
    sep = np.full(values.size, ord(","), np.uint8)
    sep[-1] = 0
    inner = b",\n" + indent
    return b"".join([b"[\n" + indent,
                     *(_text_matrix(values[i:i + _CHUNK], sep[i:i + _CHUNK], True).T.tobytes()
                       .translate(None, b"\0").replace(b",", inner)
                       for i in range(0, values.size, _CHUNK)),
                     b"\n" + indent[1:] + b"]"])
