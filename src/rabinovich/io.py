"""CSV and report output.

All floats are written with 17 significant digits so a written trajectory
reads back bit-for-bit.  Line endings are "\n" on every platform.

Trajectory files are written and read in blocks of ``_BLOCK_ROWS`` rows:
each block is formatted or converted column by column, so memory stays
bounded by the block, not the file.  Read errors name the row (its line in
the file) and the column.
"""

from __future__ import annotations

import csv
from itertools import islice
from typing import TextIO, Union

import numpy as np

from .harness import GATE_NOTE, R_NORM_NOTE, ConvergenceReport, SweepReport, Trajectory

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


# Rows per block when a trajectory is written or read.  Blocks of 128 to
# 1024 rows run equally fast; larger ones only raise peak memory (about 5 MB
# more at 4096 rows on a 20001-row file).
_BLOCK_ROWS = 256

# One trajectory row; "%.17g" gives the digits of format(x, ".17g").  An
# absent r (NaN) is written "nan" here and blanked per block.
_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%d,%.17g\n"


def write_trajectory_csv(traj: Trajectory, dest: Union[str, TextIO]) -> None:
    """Write one sample per row: t,x,y,z,u,active,r.

    ``active`` is 0/1; ``r`` is empty on samples where the delayed state is
    not yet available (the first tau of the run, and all of an uncontrolled
    run).
    """
    if isinstance(dest, str):
        with open(dest, "w", newline="") as fh:
            write_trajectory_csv(traj, fh)
        return
    dest.write(",".join(TRAJECTORY_HEADER) + "\n")
    active = np.asarray(traj.active, dtype=bool)
    for lo in range(0, traj.n_samples, _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        x, y, z = traj.states[block].T.tolist()
        rows = zip(
            traj.t[block].tolist(), x, y, z, traj.u[block].tolist(),
            active[block].tolist(), traj.r[block].tolist(),
        )
        dest.write("".join(map(_ROW.__mod__, rows)).replace(",nan\n", ",\n"))


def _checked_rows(reader):
    """The non-blank data rows, each checked for its field count and active
    flag and extended by its line number in the file."""
    width = len(TRAJECTORY_HEADER)
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) != width:
            raise ValueError(f"row {line}: expected {width} fields, got {len(row)}")
        if row[5] not in ("0", "1"):
            raise ValueError(f"row {line}: active must be 0 or 1, got {row[5]!r}")
        row.append(line)
        yield row


def _floats(column, name: str, lines) -> np.ndarray:
    try:
        return np.fromiter(map(float, column), dtype=float, count=len(column))
    except ValueError:
        for text, line in zip(column, lines):
            try:
                float(text)
            except ValueError:
                raise ValueError(
                    f"row {line}: {name} is not a number: {text!r}"
                ) from None
        raise


def read_trajectory_csv(source: Union[str, TextIO]) -> Trajectory:
    """Inverse of write_trajectory_csv; rejects files with a wrong header.

    Errors in the data name the row by its line number and the column.
    """
    if isinstance(source, str):
        with open(source, "r", newline="") as fh:
            return read_trajectory_csv(fh)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty trajectory file") from None
    if tuple(header) != TRAJECTORY_HEADER:
        raise ValueError(
            f"bad trajectory header: expected {','.join(TRAJECTORY_HEADER)}, "
            f"got {','.join(header)}"
        )
    rows = _checked_rows(reader)
    blocks = []
    while block := list(islice(rows, _BLOCK_ROWS)):
        t, x, y, z, u, active, r, lines = zip(*block)
        blocks.append((
            _floats(t, "t", lines),
            _floats(x, "x", lines),
            _floats(y, "y", lines),
            _floats(z, "z", lines),
            _floats(u, "u", lines),
            np.fromiter(map("1".__eq__, active), dtype=bool, count=len(active)),
            _floats([text or "nan" for text in r], "r", lines),
        ))
    if not blocks:
        raise ValueError("a trajectory needs at least two samples")
    t, x, y, z, u, active, r = (np.concatenate(col) for col in zip(*blocks))
    return Trajectory(t=t, states=np.column_stack((x, y, z)), u=u, active=active, r=r)


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
