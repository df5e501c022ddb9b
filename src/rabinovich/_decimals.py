"""Plain decimals read exactly in numpy, for the trajectory reader.

A block whose numbers are all plain decimals, [-]digits[.digits], skips
numpy's float parser, which spends most of a read on correctly rounded
conversion.  Each number less its point and sign is an integer m, read by
numpy's integer parser, and its value is m / 10**f, f being the digits
after the point.  With at most 18 significant digits (m < 10**18 < 2**63)
and f <= 22 (10**f is a double), m / 10**f rounds correctly in one
division when m <= 2**53 (Clinger's fast path).  Above that, q =
fl(fl(m) / 10**f) is within 1.5 ulps of it; the residual m - q * 10**f is
exact from Dekker's product, as in the writer, and q moves one ulp towards
m / 10**f when the residual passes half an ulp times 10**f.  A residual
within 2**-20 of that (ties included), a q that is a power of two (its ulp
below is half the one above) and any text outside the grammar leave the
block to numpy's C reader.

``io`` imports this module on its first read, so a process that reads no
trajectory does not compile it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .io import _POW10, _POW10_HIGH, _POW10_LOW, TRAJECTORY_HEADER, _split

# "\n" becomes the separator ",", and a byte outside the grammar becomes
# "x", which numpy's integer parser refuses; "." and "-" are deleted as the
# table is used, and the sign is read from the text.
_INTEGER_TEXT = bytes(
    c if c in b",0123456789" else ord(",") if c == ord("\n") else ord("x")
    for c in range(256)
)
_SIGNS = np.array([1.0, -1.0])


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
    high, low = _split(qb)
    p, p_high, p_low = _POW10.take(fb), _POW10_HIGH.take(fb), _POW10_LOW.take(fb)
    s = qb * p
    e = low * p_low - (((s - high * p_high) - low * p_high) - high * p_low)
    # s + e == qb * 10**f exactly, and s >= 2**52 is an integer, so m - s is
    # exact in int64 and the residual m - qb * 10**f is (m - s) - e.
    residual = (m.take(big) - s.astype(np.int64)).astype(float)
    residual -= e
    step = np.spacing(qb)
    half = step * p * 0.5
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
    width = len(TRAJECTORY_HEADER)
    if len(ends) != rows * width or (a.take(ends[width - 1::width]) != ord("\n")).any():
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
    absent = length[width - 1::width] == 0
    digits = length - negative
    digits[field] -= 1
    # the only fields with no digit are the empty r
    if np.count_nonzero(digits < 1) != np.count_nonzero(absent):
        return None
    if f.max() > 22 or (length[5::width] != 1).any():
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
    width = len(TRAJECTORY_HEADER)
    active = m[5::width]
    if active.max() > 1:
        return None
    values = _quotients(m, f)
    if values is None:
        return None
    values *= _SIGNS.take(negative)
    values = values.reshape(rows, width)
    values[absent, width - 1] = np.nan
    # copies, so that the reader can free a column's blocks once it is joined
    return (
        values[:, 0].copy(), values[:, 1:4].copy(), values[:, 4].copy(),
        active == 1, values[:, 6].copy(),
    )
