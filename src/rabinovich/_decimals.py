"""The text of trajectory rows, written and read, a block of rows at a time.

A row is t,x,y,z,u,active,r: each number as ``format(x, ".17g")`` writes
it, so that it reads back bit for bit, active as 0 or 1, and r empty when
it is NaN.  ``io`` keeps the file around the rows and imports this module
on its first trajectory write or read, so a process that does neither does
not compile it or build its tables.

Writing.  In the fixed notation of "%.17g" (decimal exponent E of |x| in
[-4, 16]), the text of x is its sign, then the 17-digit mantissa m =
round(|x| * 10**(16-E)) with the point after digit E (or "0." and -E-1
zeros before it when E < 0), less the trailing zeros after the point.  m is
exact: 10**(16-E) <= 1e20 is a double, so Dekker's error-free product gives
s + e == |x| * 10**(16-E) exactly, with s the rounded product and e its
rounding error (|e| <= 8).  s >= 1e16 > 2**53 is an even integer, so m = s
+ rint(e), and rint's ties to even are format()'s.  An E that log10 got one
off (s + e below 1e16, or s not below 1e17), exponent notation, nan and inf
go through one "%.17g" string format per block instead, which gives
format()'s digits.

Reading.  A block whose numbers are all plain decimals, [-]digits[.digits],
skips numpy's float parser, which spends most of a read on correctly
rounded conversion.  Each number less its point and sign is an integer m,
read by numpy's integer parser, and its value is m / 10**f, f being the
digits after the point.  With at most 18 significant digits (m < 10**18 <
2**63) and f <= 22 (10**f is a double), m / 10**f rounds correctly in one
division when m <= 2**53 (Clinger's fast path).  Above that, q =
fl(fl(m) / 10**f) is within 1.5 ulps of it; the residual m - q * 10**f is
exact from Dekker's product, and q moves one ulp towards m / 10**f when the
residual passes half an ulp times 10**f.  A residual within 2**-20 of that
(ties included), a q that is a power of two (its ulp below is half the one
above) and any text outside the grammar leave the block to numpy's C text
reader, which reads it to the same bits.
"""

from __future__ import annotations

from io import StringIO
from itertools import chain, product
from typing import Optional

import numpy as np

# Rows per block, written or read.  Either kernel makes about 60 numpy calls
# a block, so smaller blocks pay more call overhead; 512 rows run fastest,
# and larger ones only raise peak memory (the writer holds about 0.8 kB a
# row).
_BLOCK_ROWS = 512
_WIDTH = 7  # fields a row

_VELTKAMP = 134217729.0  # 2**27 + 1


def _split(a):
    """Veltkamp's split of a into a high part of 26 bits and the rest."""
    c = a * _VELTKAMP
    high = c - (c - a)
    return high, a - high


# 10**k for k = 0..22 (exact: 5**22 < 2**53) and its two parts; the writer
# uses k <= 20, the reader k <= 22.  The module's constants and tables are
# made without numpy arithmetic, which would page in numpy code that the
# kernels never run.
_POW10, _POW10_HIGH, _POW10_LOW = np.array([
    (p, *_split(p)) for p in (float(10 ** k) for k in range(23))
]).T


def _times_pow10(a, k):
    """(s, e) with s + e == a * 10**k exactly: s is the rounded product and e
    its rounding error (Dekker's product)."""
    s = a * _POW10.take(k)
    high, low = _split(a)
    p_high, p_low = _POW10_HIGH.take(k), _POW10_LOW.take(k)
    return s, low * p_low - (((s - high * p_high) - low * p_high) - high * p_low)


# --- writing ------------------------------------------------------------------
#
# Each number takes four little-endian words (32 bytes) of a block's buffer,
# and the buffer less its NUL and space bytes is the block's text (a number
# left to "%.17g" is padded with spaces):
#   byte 0        the sign
#   bytes 1-5     "0." and the zeros after it, when E < 0
#   bytes 7-23    the 17 digits; those after the point move up one byte,
#                 and the point takes byte 8+E
#   bytes 29-31   the separator; u is followed by ",", the active flag and ","
# Digits 1-16 come from a table of four-digit groups.  A layout code
# (E+4)*18 + L, where L is one past the last digit kept, picks the masks of
# the integer digits and the kept fraction digits, and the constant bytes.
_WORD = np.dtype("<u8")
# The last word of each column: "," at byte 29, and for u also at byte 31
# (the active flag goes between), "\n" for r.
_SEPARATORS = np.array([c << 40 for c in (44, 44, 44, 44, 44 << 16 | 44, 10)], _WORD)
_ACTIVE_BYTE = np.array([ord("0") << 48, ord("1") << 48], _WORD)
_LEAD_DIGIT = np.array([(ord("0") + d) << 56 for d in range(10)], _WORD)  # at byte 7
_GROUP_OFFSETS = np.array([[0], [10000], [20000], [30000]])  # rows of _KEPT

# _GROUP_TEXT[g] is the four ASCII digits of g as one word.
_GROUP_TEXT = np.frombuffer(bytes(chain.from_iterable(product(b"0123456789", repeat=4))), "<u4")
# _LAST[g]: where the last nonzero digit of g's four is, 0 for g = 0; of
# g = 10q + d with k digits, it is k if d else that of q.
_LAST = b"\0"
for _k in range(1, 5):
    _LAST = b"".join(bytes([q]) + bytes([_k]) * 9 for q in _LAST)
# _KEPT[j, g] is L when g, the value of digit group j (digits 4j+1 to 4j+4),
# is the last nonzero group, and 1 (the leading digit only) when g = 0.
_KEPT = np.frombuffer(b"".join(
    _LAST.translate(bytes([1, 4 * j + 2, 4 * j + 3, 4 * j + 4, 4 * j + 5]) + bytes(251))
    for j in range(4)
), np.uint8).reshape(4, 10000)


def _layout_row(E, L) -> bytes:
    """The integer-digit mask (which keeps the separator bytes too), the
    fraction-digit mask and the constant bytes of one layout code."""
    n_int = max(E + 1, 0)
    n_frac = max(L - n_int, 0)
    integer = bytes(7) + b"\xff" * n_int + bytes(22 - n_int) + b"\xff" * 3
    fraction = bytes(7 + n_int) + b"\xff" * n_frac + bytes(25 - n_int - n_frac)
    if E < 0:
        const = b"\0" + b"0." + b"0" * (-E - 1) + bytes(30 + E)
    else:
        const = bytes(8 + E) + (b"." if L > E + 1 else b"\0") + bytes(23 - E)
    return integer + fraction + const


# A row of four words per layout code, each.
_INTEGER_MASK, _FRACTION_MASK, _CONST_BYTES = np.frombuffer(
    b"".join(_layout_row(E, L) for E in range(-4, 17) for L in range(18)), _WORD,
).reshape(21 * 18, 3, 4).transpose(1, 0, 2)


def _scales(ax):
    """16 - E for each ax in [1e-4, 1e17), as floats; log10 may put E one
    off next to a power of ten, which _mantissas detects."""
    k = np.log10(ax)
    np.floor(k, out=k)
    return np.subtract(16.0, k, out=k)


def _mantissas(v):
    """The scale k = 16-E, the mantissa m and whether m is exact, for each
    |v|; ±0 gets k = 16 and m = 10**16, as 1.0 does."""
    ax = np.abs(v)
    fixed = (ax >= 1e-4) & (ax < 1e17)
    ax = np.where(fixed, ax, 1.0)  # no log10(0), no nan cast to int
    k = np.where(fixed, _scales(ax), 16.0)
    np.minimum(k, 20.0, out=k)
    np.maximum(k, 0.0, out=k)
    k = k.astype(np.intp)
    s, e = _times_pow10(ax, k)
    exact = fixed & (s < 1e17) & (s - 1e16 + e >= 0)
    m = s.astype(np.int64)
    m += np.rint(e).astype(np.int64)
    return k, m, exact


def _number_words(v):
    """(done, words): whether each number of a block is formatted here
    (exact, or ±0), and its words laid out as its text and its column's
    separators."""
    k, m, done = _mantissas(v)
    zero = v == 0.0
    done |= zero
    lead = m // 10 ** 16
    m -= lead * 10 ** 16
    lead -= zero  # ±0 was scaled as 1.0: "1" and 16 zeros
    high = m // 10 ** 8
    m -= high * 10 ** 8
    groups = np.empty((4, len(m)), np.intp)
    np.floor_divide(high, 10 ** 4, out=groups[0])
    np.subtract(high, groups[0] * 10 ** 4, out=groups[1])
    np.floor_divide(m, 10 ** 4, out=groups[2])
    np.subtract(m, groups[2] * 10 ** 4, out=groups[3])
    words = np.empty((len(m), 4), _WORD)
    words[:, 0] = _LEAD_DIGIT.take(lead, mode="clip")  # any lead where not done
    words.view("<u4")[:, 2:6] = _GROUP_TEXT.take(groups).T
    words.reshape(-1, 6, 4)[:, :, 3] = _SEPARATORS
    groups += _GROUP_OFFSETS
    kept = _KEPT.take(groups)
    code = (20 - k) * 18 + np.maximum(np.maximum(kept[0], kept[1]), np.maximum(kept[2], kept[3]))
    del groups, kept, lead, high, m  # before the layout's temporaries
    _lay_out(words, code, v)
    return done, words


def _lay_out(words, code, v) -> None:
    """Lays out each number's words by its code: the integer digits stay,
    the kept fraction digits move up a byte, and the sign and the constant
    bytes (point, "0." and zeros) come in."""
    fraction = _FRACTION_MASK.take(code, axis=0, mode="clip")
    fraction &= words
    spare = _INTEGER_MASK.take(code, axis=0, mode="clip")
    words &= spare
    words |= _CONST_BYTES.take(code, axis=0, out=spare, mode="clip")
    words |= np.left_shift(fraction, 8, out=spare)
    flat, moved = words.reshape(-1), np.right_shift(fraction, 56, out=fraction).reshape(-1)
    flat[1:] |= moved[:-1]
    words[:, 0] |= np.signbit(v).astype(_WORD) * ord("-")


def _csv_rows(t, states, u, active, r) -> bytes:
    """The rows of one block, each number as format(x, ".17g") writes it."""
    rows = len(t)
    v = np.empty((rows, 6))
    v[:, 0], v[:, 1:4], v[:, 4], v[:, 5] = t, states, u, r
    v = v.reshape(-1)
    done, words = _number_words(v)
    words.reshape(rows, 6, 4)[:, 4, 3] |= _ACTIVE_BYTE.take(active.astype(np.intp))
    text = words.view(np.uint8).reshape(-1, 32)
    absent = np.isnan(r)
    text.reshape(rows, 6, 32)[absent, 5, :29] = 0
    done.reshape(rows, 6)[:, 5] |= absent
    rest = np.flatnonzero(~done)
    if len(rest):
        numbers = ("%-29.17g" * len(rest)) % tuple(v[rest].tolist())
        text[rest, :29] = np.frombuffer(numbers.encode(), np.uint8).reshape(-1, 29)
    return words.tobytes().translate(None, b" \0")


# --- reading ------------------------------------------------------------------

# "\n" becomes the separator ",", and a byte outside the grammar becomes
# "x", which numpy's integer parser refuses; "." and "-" are deleted as the
# table is used, and the sign is read from the text.
_INTEGER_TEXT = bytes(
    c if c in b",0123456789" else ord(",") if c == ord("\n") else ord("x")
    for c in range(256)
)
_SIGNS = np.array([1.0, -1.0])

# A row as numpy's C reader converts it.  ``active`` stays text: two
# characters tell "1" from "10", "1.0", "+1" or " 1", which read as 1.
_ROW_DTYPE = np.dtype([
    ("t", float), ("states", float, (3,)), ("u", float), ("active", "U2"), ("r", float),
])


def _quotients(m, f):
    """m / 10**f correctly rounded, for int64 0 <= m < 10**18 and 0 <= f <=
    22, or None if a quotient is too near a tie, or next to a power of two,
    to settle here."""
    q = m.astype(float)
    q /= _POW10.take(f)
    big = np.flatnonzero(m > 2**53)
    if not len(big):
        return q
    qb, fb = q.take(big), f.take(big)
    if not (qb.view(np.int64) & (2**52 - 1)).all():  # a power of two
        return None
    s, e = _times_pow10(qb, fb)
    # s >= 2**52 is an integer, so m - s is exact in int64 and the residual
    # m - qb * 10**f is (m - s) - e.
    residual = (m.take(big) - s.astype(np.int64)).astype(float)
    residual -= e
    step = np.spacing(qb)
    half = step * _POW10.take(fb) * 0.5
    past = np.abs(residual) - half
    if (np.abs(past) <= half * 2.0**-20).any():
        return None
    q[big] = qb + np.copysign(step, residual) * (past > 0.0)
    return q


def _layout(a, rows: int) -> Optional[tuple]:
    """For the bytes a of rows lines, each ended by its one "\\n" and made of
    digits, "-", ".", "," and "\\n" only: the digits after the point, the
    sign and whether r is empty, field by field, or None unless each row has
    7 fields, each number is [-]digits[.digits] with at most 22 digits after
    the point, active is one byte and only r is empty."""
    ends = np.flatnonzero(a < ord("-"))  # the "," or "\n" after each field
    if len(ends) != rows * _WIDTH or (a.take(ends[_WIDTH - 1::_WIDTH]) != ord("\n")).any():
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    negative = a.take(starts) == ord("-")
    if np.count_nonzero(a == ord("-")) != np.count_nonzero(negative):
        return None  # a "-" that does not start its field
    points = np.flatnonzero(a == ord("."))
    field = np.searchsorted(ends, points)
    if (field[1:] == field[:-1]).any():
        return None  # two points in one field
    f = np.zeros_like(ends)
    f[field] = ends.take(field) - points - 1
    length = ends - starts
    absent = length[_WIDTH - 1::_WIDTH] == 0
    digits = length - negative
    digits[field] -= 1
    # the only fields with no digit are the empty r
    if np.count_nonzero(digits < 1) != np.count_nonzero(absent):
        return None
    if f.max() > 22 or (length[5::_WIDTH] != 1).any():
        return None
    return f, negative, absent


def exact(text: str, rows: int) -> Optional[tuple]:
    """The columns of a block of rows lines, each ended by its one "\\n",
    read as plain decimals (see above), or None unless every number is one,
    each row has 7 fields, active is 0 or 1 and only r is empty (NaN)."""
    if not text.isascii():
        return None
    raw = text.encode()
    integers = raw.translate(_INTEGER_TEXT, b".-")
    if b"x" in integers:
        return None
    layout = _layout(np.frombuffer(raw, np.uint8), rows)
    if layout is None:
        return None
    f, negative, absent = layout
    if absent.any():
        integers = integers.replace(b",,", b",0,")
    try:
        m = np.fromstring(integers, np.int64, sep=",")
    except ValueError:  # numpy 1 returns what it read where numpy 2 raises
        return None
    # The parser saturates, so 19 significant digits or more read as at
    # least 10**18.
    if len(m) != len(f) or m.max() >= 10**18:
        return None
    active = m[5::_WIDTH]
    if active.max() > 1:
        return None
    values = _quotients(m, f)
    if values is None:
        return None
    values *= _SIGNS.take(negative)
    values = values.reshape(rows, _WIDTH)
    values[absent, _WIDTH - 1] = np.nan
    return values[:, 0], values[:, 1:4], values[:, 4], active == 1, values[:, 6]


def _loaded(text: str) -> np.ndarray:
    return np.loadtxt(
        StringIO(text), dtype=_ROW_DTYPE, delimiter=",",
        comments=None, quotechar=None, ndmin=1,
    )


def _parsed(lines) -> Optional[tuple]:
    """The columns of a block of lines as numpy's C reader reads them, or
    None if it refuses one; a block of plain decimals is read exactly in
    numpy instead, to the same bits.  numpy's C reader would skip a blank
    line, read "...,0,0,1\\r\\n" as a row and "1\\0" as an active of 1, so
    blank lines, CR and NUL are refused before it, and so is a last line with
    no "\\n".  Quotes need no check: with quoting off a quote stays in its
    field, and no number or active flag holds one.
    """
    text = "".join(lines)
    if "\n" in lines or "\r" in text or "\0" in text or not text.endswith("\n"):
        return None
    block = exact(text, len(lines))
    if block is not None:
        return block
    # An empty r, the last field of its line, is NaN.  Any other text holds
    # no ",\n" and is left as it is.
    try:
        block = _loaded(text.replace(",\n", ",nan\n"))
    except ValueError:
        return None
    active = block["active"]
    ones = active == "1"
    if not (ones | (active == "0")).all():
        return None
    return block["t"], block["states"], block["u"], ones, block["r"]
