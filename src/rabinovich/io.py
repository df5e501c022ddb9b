"""Trajectory, sweep and report files.

Line endings are "\n" on every platform; the sweep CSV and the reports
write each float as ``format(x, ".17g")`` does.  A trajectory file is the
header and one row a sample.  It is written and read in blocks of rows, so
memory stays bounded by the block, not the file; the text of a block,
written or read, is the ``_decimals`` module's (17 significant digits,
which read back bit for bit), imported on the first trajectory write or
read.  Only the writer's format is read: LF line ends, the exact header, no
blank lines, no quotes, and numbers as numpy's C text reader reads them.  A
read error names the first bad row (its line in the file) and, where one
field is at fault, the column.
"""

from __future__ import annotations

import csv
from itertools import islice
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

    An error names the first bad row in file order (its line in the file)
    and, where one field is at fault, its column.  The sample checks of
    Trajectory run once every row has been read.
    """
    if isinstance(source, str):
        with open(source, "r", newline="\n") as fh:
            return read_trajectory_csv(fh)
    from ._decimals import _BLOCK_ROWS, _parsed  # compiled on first use only

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
