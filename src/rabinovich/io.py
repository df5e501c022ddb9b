"""Trajectory, sweep and report files.

Every file is UTF-8 text with "\n" line endings, whatever the platform and
locale; the sweep CSV and the reports write each float as ``format(x,
".17g")`` does.  A trajectory file is the header and one row a sample.  It
is written and read in blocks of rows; the text of a block, written or
read, is the ``_decimals`` module's (17 significant digits, which read back
bit for bit), imported on the first trajectory write or read.  A write holds
one block.  A read counts the rows first and reads each block into its
slice of output arrays allocated once, so it holds its output and one
block.  Only the writer's format is read: LF line ends, the exact header,
no blank lines, no quotes, and numbers as numpy's C text reader reads
them.  A read error names the first bad row (its line in the file) and,
where one field is at fault, the column.
"""

from __future__ import annotations

import csv
from functools import partial
from itertools import islice
from shutil import copyfileobj
from tempfile import TemporaryFile
from typing import TextIO, Union

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
_SHORTEST_ROW = "0,0,0,0,0,0,\n"  # one digit a number, r empty
SWEEP_HEADER = (
    "K", "epsilon", "mode", "stabilized", "target",
    "tail_max_distance", "control_effort", "max_abs_u",
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
    from ._decimals import _BLOCK_ROWS, _csv_rows  # compiled on first use only

    write(",".join(TRAJECTORY_HEADER).encode() + b"\n")
    active = np.asarray(traj.active, dtype=bool)
    for lo in range(0, traj.n_samples, _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        write(_csv_rows(
            traj.t[block], traj.states[block], traj.u[block], active[block], traj.r[block],
        ))


def _locate(lines, first_row: int) -> None:
    """Raises for the first of a refused block's lines that _parsed refuses
    alone (a block is refused only for such a line), naming its row and,
    where one field is at fault, its column."""
    from ._decimals import _parsed

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

    The rows are counted first, in one pass that the stream is rewound after
    (a stream that cannot seek, a pipe say, is first copied to a temporary
    file), so that each block is read straight into its slice of the output.
    An error names the first bad row in file order (its line in the file)
    and, where one field is at fault, its column.  A file whose row count
    changes between the count and the read fails at the first row that only
    one of the two has.  The sample checks of Trajectory run once every row
    has been read.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="\n") as fh:
            return read_trajectory_csv(fh)
    if not source.seekable():
        # surrogatepass keeps any str, a lone surrogate too, to be refused
        # with its row as it is in a stream that can seek
        with TemporaryFile("w+", encoding="utf-8", errors="surrogatepass", newline="\n") as copy:
            copyfileobj(source, copy)
            copy.seek(0)
            return read_trajectory_csv(copy)
    start = source.tell()
    lines = characters = 0
    for chunk in iter(partial(source.read, 1 << 16), ""):
        lines += chunk.count("\n")
        characters += len(chunk)
    source.seek(start)
    # No row the reader takes is shorter than _SHORTEST_ROW, so this caps
    # only a count that blank or junk lines inflate, whose first bad row
    # then fails before the cap is reached.
    return _read_rows(source, min(lines - 1, characters // len(_SHORTEST_ROW)))


def _read_rows(source: TextIO, rows: int) -> Trajectory:
    """Reads source, header first, into arrays for the rows data rows
    counted before."""
    from ._decimals import _BLOCK_ROWS, _parsed  # compiled on first use only

    header = source.readline()
    if not header:
        raise ValueError("empty trajectory file")
    expected = ",".join(TRAJECTORY_HEADER)
    if header != expected + "\n":
        raise ValueError(f"bad trajectory header: expected {expected}, got {header!r}")
    rows = max(rows, 0)  # -1 only if the file changed after the count
    t, states, u, active, r = (
        np.empty(rows), np.empty((rows, 3)), np.empty(rows), np.empty(rows, bool), np.empty(rows),
    )
    lo = 0
    while lines := list(islice(source, _BLOCK_ROWS)):
        block = _parsed(lines)
        if block is None:
            _locate(lines, 2 + lo)
        hi = lo + len(lines)
        if hi > rows:
            raise _changed(2 + rows, rows)
        t[lo:hi], states[lo:hi], u[lo:hi], active[lo:hi], r[lo:hi] = block
        lo = hi
        del lines, block  # before the next block is read
    if lo < rows:
        raise _changed(2 + lo, rows)
    if not rows:
        raise ValueError("a trajectory needs at least two samples")
    try:
        return Trajectory(t=t, states=states, u=u, active=active, r=r)
    except _SampleError as exc:
        raise ValueError(f"row {exc.index + 2}: {exc}") from None


def _changed(row: int, rows: int) -> ValueError:
    return ValueError(
        f"row {row}: the file changed while it was read ({rows} data rows counted before)"
    )


def write_sweep_csv(report: SweepReport, dest: Union[str, TextIO]) -> None:
    """One row per (K, epsilon, mode) cell, in the order the sweep ran.

    Cells whose simulation diverged carry the grid coordinates and empty
    outcome fields.
    """
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
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
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            fh.write(render_report(report))
        return
    dest.write(render_report(report))
