"""CSV and report output.

All floats are written as ``format(x, ".17g")`` writes them, with 17
significant digits, so a written trajectory reads back bit-for-bit.  Line
endings are "\n" on every platform.

Trajectory files are written and read in blocks of rows, so memory stays
bounded by the block, not the file.  A block of ``_WRITE_ROWS`` rows is
formatted by a numpy kernel that gives the bytes of ``format(x, ".17g")``
from exact integer arithmetic (see "17 significant digits in numpy" below);
values it leaves out, those in exponent notation, nan and inf, go through
one ``"%.17g"`` string format per block.  A block of ``_BLOCK_ROWS`` rows is
read exactly in numpy when all its numbers are plain decimals (see the
``_decimals`` module), and by numpy's C text reader otherwise, to the same
bits.  Only the writer's format is read: LF line ends, the exact header,
no blank lines, no quotes, and numbers as that reader reads them.  In a
block it refuses, a read error names the first bad row (its line in the
file) and, where one field is at fault, the column.
"""

from __future__ import annotations

import csv
import functools
from io import StringIO
from itertools import chain, islice, product
from typing import Optional, TextIO, Union

import numpy as np

from .harness import (
    GATE_NOTE, R_NORM_NOTE, ConvergenceReport, SweepReport, Trajectory, _SampleError,
)

__all__ = [
    "TRAJECTORY_HEADER",
    "SWEEP_HEADER",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_sweep_csv",
    "render_report",
    "write_report",
]

TRAJECTORY_HEADER = ("t", "x", "y", "z", "u", "active", "r")
SWEEP_HEADER = (
    "K", "epsilon", "mode", "stabilized", "target",
    "tail_max_distance", "control_effort", "max_abs_u",
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# Rows per block when a trajectory is read.  The exact decimal kernel makes
# about 60 numpy calls a block, so smaller blocks pay more call overhead;
# 512 rows read fastest, and larger ones only raise peak memory.
_BLOCK_ROWS = 512

# Rows per block when a trajectory is written.  The kernel makes about 60
# numpy calls a block and holds about 0.8 kB a row, so smaller blocks pay
# more call overhead and larger ones only raise peak memory (about 0.4 MB at
# 512 rows).
_WRITE_ROWS = 512

# --- 17 significant digits in numpy -----------------------------------------
#
# In the fixed notation of "%.17g" (decimal exponent E of |x| in [-4, 16]),
# the text of x is its sign, then the 17-digit mantissa m = round(|x| *
# 10**(16-E)) with the point after digit E (or "0." and -E-1 zeros before
# it when E < 0), less the trailing zeros after the point.  m is exact:
# 10**(16-E) <= 1e20 is a double, so Dekker's error-free product gives
# s + e == |x| * 10**(16-E) exactly, with s the rounded product and e its
# rounding error (|e| <= 8).  s >= 1e16 > 2**53 is an even integer, so
# m = s + rint(e), and rint's ties to even are format()'s.  An E that log10
# got one off (s + e below 1e16, or s not below 1e17), exponent notation,
# nan and inf go through "%.17g" instead, which gives format()'s digits.

_VELTKAMP = 134217729.0  # 2**27 + 1


def _split(a):
    """Veltkamp's split of a into a high part of 26 bits and the rest."""
    c = a * _VELTKAMP
    high = c - (c - a)
    return high, a - high


# 10**k for k = 0..22 (exact: 5**22 < 2**53) and its two parts; the writer
# uses k <= 20, the reader k <= 22.  Module constants are made without numpy
# arithmetic, as the tables are.
_POW10, _POW10_HIGH, _POW10_LOW = np.array([
    (p, *_split(p)) for p in (float(10 ** k) for k in range(23))
]).T

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
_GROUP_OFFSETS = np.array([[0], [10000], [20000], [30000]])  # rows of kept


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


@functools.cache
def _tables():
    """(group_text, kept, integer, fraction, const), built on first use, so
    a process that writes no trajectory pays neither their time nor their
    memory.  They are built from bytes: numpy arithmetic here would page in
    numpy code the kernel never runs.

    group_text[g] is the four ASCII digits of g as one word; kept[j, g] is L
    when g, the value of digit group j (digits 4j+1 to 4j+4), is the last
    nonzero group, and 1 (the leading digit only) when g = 0.  The other
    three hold a row of four words per layout code.
    """
    text = bytes(chain.from_iterable(product(b"0123456789", repeat=4)))
    # last[g]: where the last nonzero digit of g's four is, 0 for g = 0; of
    # g = 10q + d with k digits, it is k if d else that of q.
    last = b"\0"
    for k in range(1, 5):
        last = b"".join(bytes([q]) + bytes([k]) * 9 for q in last)
    kept = b"".join(
        last.translate(bytes([1, 4 * j + 2, 4 * j + 3, 4 * j + 4, 4 * j + 5]) + bytes(251))
        for j in range(4)
    )
    layout = b"".join(_layout_row(E, L) for E in range(-4, 17) for L in range(18))
    masks = np.frombuffer(layout, _WORD).reshape(21 * 18, 3, 4).transpose(1, 0, 2)
    return (np.frombuffer(text, "<u4"), np.frombuffer(kept, np.uint8).reshape(4, 10000), *masks)


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
    s = ax * _POW10.take(k)
    high, low = _split(ax)
    p_high, p_low = _POW10_HIGH.take(k), _POW10_LOW.take(k)
    e = low * p_low - (((s - high * p_high) - low * p_high) - high * p_low)
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
    group_text, kept_table, *masks = _tables()
    words.view("<u4")[:, 2:6] = group_text.take(groups).T
    words.reshape(-1, 6, 4)[:, :, 3] = _SEPARATORS
    groups += _GROUP_OFFSETS
    kept = kept_table.take(groups)
    code = (20 - k) * 18 + np.maximum(np.maximum(kept[0], kept[1]), np.maximum(kept[2], kept[3]))
    del groups, kept, lead, high, m  # before the layout's temporaries
    _lay_out(words, code, v, *masks)
    return done, words


def _lay_out(words, code, v, integer_mask, fraction_mask, const_bytes) -> None:
    """Lays out each number's words by its code: the integer digits stay,
    the kept fraction digits move up a byte, and the sign and the constant
    bytes (point, "0." and zeros) come in."""
    fraction = fraction_mask.take(code, axis=0, mode="clip")
    fraction &= words
    spare = integer_mask.take(code, axis=0, mode="clip")
    words &= spare
    words |= const_bytes.take(code, axis=0, out=spare, mode="clip")
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


def write_trajectory_csv(traj: Trajectory, dest: Union[str, TextIO]) -> None:
    """Write one sample per row: t,x,y,z,u,active,r.

    ``active`` is 0/1; ``r`` is empty on samples where the delayed state is
    not yet available (the first tau of the run, and all of an uncontrolled
    run).
    """
    if isinstance(dest, str):
        with open(dest, "wb") as fh:
            _write_rows(traj, fh.write)
        return
    _write_rows(traj, lambda data: dest.write(data.decode("ascii")))


def _write_rows(traj: Trajectory, write) -> None:
    write(",".join(TRAJECTORY_HEADER).encode() + b"\n")
    active = np.asarray(traj.active, dtype=bool)
    for lo in range(0, traj.n_samples, _WRITE_ROWS):
        block = slice(lo, lo + _WRITE_ROWS)
        write(_csv_rows(
            traj.t[block], traj.states[block], traj.u[block], active[block], traj.r[block],
        ))


# A row as numpy's C reader converts it.  ``active`` stays text: two
# characters tell "1" from "10", "1.0", "+1" or " 1", which read as 1.
_ROW_DTYPE = np.dtype([
    ("t", float), ("states", float, (3,)), ("u", float), ("active", "U2"), ("r", float),
])


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
    from ._decimals import exact  # compiled on the first read only

    block = exact(text, len(lines))
    if block is not None:
        return block
    try:
        block = _loaded(text)
    except ValueError:
        # Once more with each empty r, the last field of its line, as NaN;
        # looking for one first would cost more than this retry.
        try:
            block = _loaded(text.replace(",\n", ",nan\n"))
        except ValueError:
            return None
    active = block["active"]
    ones = active == "1"
    if not (ones | (active == "0")).all():
        return None
    return block["t"], block["states"], block["u"], ones, block["r"]


def _locate(lines, first_row: int) -> None:
    """Raises for the first of a refused block's lines that _parsed refuses
    alone (a block is refused only for such a line), naming its row and,
    where one field is at fault, its column."""
    width = len(TRAJECTORY_HEADER)
    for row, line in enumerate(lines, first_row):
        if _parsed([line]) is not None:
            continue
        fields = line.removesuffix("\n").split(",")
        if len(fields) != width:
            raise ValueError(f"row {row}: expected {width} fields, got {len(fields)}")
        if fields[5] not in ("0", "1"):
            raise ValueError(f"row {row}: active must be 0 or 1, got {fields[5]!r}")
        for k, name in enumerate(TRAJECTORY_HEADER):
            alone = ["0"] * width
            alone[k] = fields[k]
            if _parsed([",".join(alone) + "\n"]) is None:
                raise ValueError(f"row {row}: {name} is not a number: {fields[k]!r}")
        raise ValueError(f"row {row}: not a line of the trajectory format: {line!r}")


def read_trajectory_csv(source: Union[str, TextIO]) -> Trajectory:
    """Inverse of write_trajectory_csv: reads the format it writes and no
    other.  That is the exact header and one row a line, each line ended by
    "\\n": no CR, no blank lines, no quotes, and numbers as numpy's C reader
    reads them (not 1_0 or non-ASCII digits, which float reads).  A stream
    must not translate line ends.

    An error names the first bad row in file order (its line in the file)
    and, where one field is at fault, its column.  The sample checks of
    Trajectory run once every row has been read.
    """
    if isinstance(source, str):
        with open(source, "r", newline="\n") as fh:
            return read_trajectory_csv(fh)
    header = source.readline()
    if not header:
        raise ValueError("empty trajectory file")
    expected = ",".join(TRAJECTORY_HEADER)
    if header != expected + "\n":
        raise ValueError(f"bad trajectory header: expected {expected}, got {header!r}")
    blocks = []
    while lines := list(islice(source, _BLOCK_ROWS)):
        block = _parsed(lines)
        if block is None:
            _locate(lines, 2 + len(blocks) * _BLOCK_ROWS)
        blocks.append(block)
    if not blocks:
        raise ValueError("a trajectory needs at least two samples")
    # Joined one column at a time, and a column's blocks are freed once it
    # is, so the file's numbers are not all held twice.
    columns = list(zip(*blocks))
    del blocks, block
    t, states, u, active, r = (np.concatenate(columns.pop(0)) for _ in range(5))
    try:
        return Trajectory(t=t, states=states, u=u, active=active, r=r)
    except _SampleError as exc:
        raise ValueError(f"row {exc.index + 2}: {exc}") from None


def write_sweep_csv(report: SweepReport, dest: Union[str, TextIO]) -> None:
    """One row per (K, epsilon, mode) cell, in the order the sweep ran.

    Cells whose simulation diverged carry the grid coordinates and empty
    outcome fields.
    """
    if isinstance(dest, str):
        with open(dest, "w", newline="") as fh:
            write_sweep_csv(report, fh)
        return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for cell in report.cells:
        if cell.report is None:
            writer.writerow(
                (_fmt(cell.K), _fmt(cell.epsilon), cell.mode, "", "", "", "", "")
            )
            continue
        rep = cell.report
        writer.writerow(
            (
                _fmt(cell.K),
                _fmt(cell.epsilon),
                cell.mode,
                "1" if rep.stabilized else "0",
                rep.target_label,
                _fmt(rep.tail_max_distance),
                _fmt(rep.control_effort),
                _fmt(rep.max_abs_u_post_activation),
            )
        )


def _fmt_point(point) -> str:
    return "(" + ", ".join(format(v, ".6f") for v in (point.x, point.y, point.z)) + ")"


def render_report(report: ConvergenceReport) -> str:
    """Deterministic plain-text summary of one run's outcome."""
    c = report.controller
    lines = ["run summary", "-----------"]
    if c is None:
        lines.append("control: off")
    else:
        lines.append(f"control: {c.mode.value} prediction")
        lines.append(f"K = {_fmt(c.K)}")
        lines.append(f"epsilon = {_fmt(c.epsilon)}")
        lines.append(f"t_on = {_fmt(c.t_on)}")
        lines.append(f"tau = {_fmt(c.tau)}")
    lines.append(f"dt = {_fmt(report.dt)}")
    lines.append(f"t_end = {_fmt(report.t_end)}")
    lines.append(f"capture_radius = {_fmt(report.capture_radius)}")
    lines.append(f"tail = {_fmt(report.tail)}")
    lines.append("")
    lines.append(f"target: {report.target_label} at {_fmt_point(report.target)}")
    lines.append(f"tail_max_distance = {_fmt(report.tail_max_distance)}")
    lines.append(f"tail_mean_distance = {_fmt(report.tail_mean_distance)}")
    lines.append(f"stabilized = {'yes' if report.stabilized else 'no'}")
    lines.append(f"control_effort = {_fmt(report.control_effort)}")
    lines.append(
        f"max_abs_u_post_activation = {_fmt(report.max_abs_u_post_activation)}"
    )
    lines.append("")
    lines.append(f"note: distances use the {R_NORM_NOTE}")
    lines.append(f"note: {GATE_NOTE}")
    return "\n".join(lines) + "\n"


def write_report(report: ConvergenceReport, dest: Union[str, TextIO]) -> None:
    if isinstance(dest, str):
        with open(dest, "w", newline="") as fh:
            fh.write(render_report(report))
        return
    dest.write(render_report(report))
