import csv
import errno
import io
import math
import os
import re
import threading
import tracemalloc
import warnings
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rabinovich import (
    ControllerConfig,
    Params,
    PredictionMode,
    State,
    SweepCell,
    SweepReport,
    TimeGrid,
    Trajectory,
    convergence_report,
    parse_config,
    read_trajectory_csv,
    render_report,
    run_controlled,
    run_uncontrolled,
    sweep,
    write_report,
    write_sweep_csv,
    write_trajectory_csv,
)
from rabinovich import _decimals
from rabinovich.cli import cli_dispatch
from rabinovich._decimals import _BLOCK_ROWS, exact
from pins import PINS, digest

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def examples(n):
    """``n`` examples under the suite's profile, as many times more as the
    loaded profile raises its ``max_examples`` (20 times under thorough)."""
    return n * settings.default.max_examples // settings.get_profile("suite").max_examples


def tiny_trajectory():
    return Trajectory(
        t=np.array([0.0, 0.1, 0.2]),
        states=np.array([[1.5, -1.25, 3.5], [0.2, -0.9, 3.1], [0.1, -0.6, 2.8]]),
        u=np.array([0.0, 0.0, -0.75]),
        active=np.array([False, False, True]),
        r=np.array([math.nan, 0.4, 0.05]),
    )


def test_three_samples_make_four_lines():
    buf = io.StringIO()
    write_trajectory_csv(tiny_trajectory(), buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 4
    assert lines[0] == "t,x,y,z,u,active,r"


def test_active_column_is_zero_one_and_r_blank_when_absent():
    buf = io.StringIO()
    write_trajectory_csv(tiny_trajectory(), buf)
    rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
    assert [row[5] for row in rows] == ["0", "0", "1"]
    assert rows[0][6] == ""          # NaN -> empty field
    assert rows[1][6] != ""


def test_round_trip_is_bit_exact():
    traj = tiny_trajectory()
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    back = read_trajectory_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.t, traj.t)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.u, traj.u)
    assert np.array_equal(back.active, traj.active)
    assert np.array_equal(back.r, traj.r, equal_nan=True)


def test_reserialization_is_idempotent(params, s0, grid, controller):
    # full-length run: write -> read -> write must reproduce the bytes
    traj = run_controlled(params, s0, grid, controller)
    first = io.StringIO()
    write_trajectory_csv(traj, first)
    back = read_trajectory_csv(io.StringIO(first.getvalue()))
    second = io.StringIO()
    write_trajectory_csv(back, second)
    assert second.getvalue() == first.getvalue()
    # the run's work counts are in no file, so the read trajectory has none
    assert traj.work is not None and back.work is None


def test_report_survives_round_trip(params, s0, grid, controller, eqs):
    traj = run_controlled(params, s0, grid, controller)
    back = read_trajectory_csv(io.StringIO(_dump(traj)))
    a = convergence_report(traj, eqs, grid, cfg=controller)
    b = convergence_report(back, eqs, grid, cfg=controller)
    assert a.target_label == b.target_label
    assert a.tail_max_distance == b.tail_max_distance
    assert a.tail_mean_distance == b.tail_mean_distance
    assert a.control_effort == b.control_effort
    assert a.stabilized == b.stabilized


def _dump(traj) -> str:
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    return buf.getvalue()


@given(st.lists(finite, min_size=2, max_size=8))
def test_seventeen_digits_round_trip_any_double(values):
    n = len(values)
    traj = Trajectory(
        t=np.arange(n, dtype=float),
        states=np.array([[v, -v, v * 0.5] for v in values]),
        u=np.zeros(n),
        active=np.zeros(n, dtype=bool),
        r=np.full(n, math.nan),
    )
    back = read_trajectory_csv(io.StringIO(_dump(traj)))
    assert np.array_equal(back.states, traj.states)


# --- byte format against the per-row reference writer ---------------------------

def _reference_csv(traj) -> str:
    """The per-row writer the block writer replaced: csv.writer and
    format(x, ".17g") on every field, one row at a time."""
    def fmt(x):
        return format(float(x), ".17g")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("t", "x", "y", "z", "u", "active", "r"))
    for k in range(traj.n_samples):
        x, y, z = traj.states[k]
        r = traj.r[k]
        writer.writerow((
            fmt(traj.t[k]), fmt(x), fmt(y), fmt(z), fmt(traj.u[k]),
            "1" if traj.active[k] else "0",
            "" if math.isnan(r) else fmt(r),
        ))
    return buf.getvalue()


def test_block_writer_matches_reference_on_gated_run(params, s0):
    # 2 * block + 1 rows: two full blocks and a one-row tail
    dt = 0.01
    g = TimeGrid(2 * _BLOCK_ROWS * dt, dt)
    cfg = ControllerConfig(K=-0.3, epsilon=5.0, t_on=0.0, mode=PredictionMode.EULER)
    traj = run_controlled(params, s0, g, cfg)
    assert traj.n_samples == 2 * _BLOCK_ROWS + 1
    assert 0 < traj.active.sum() < traj.n_samples
    assert np.isnan(traj.r).any() and (traj.u != 0.0).any()
    text = _dump(traj)
    assert text == _reference_csv(traj)
    back = read_trajectory_csv(io.StringIO(text))
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.r, traj.r, equal_nan=True)


@pytest.fixture(scope="module")
def long_gated_run():
    # 20001 rows, the gate open on 41% of them, and one value in exponent
    # notation
    cfg = parse_config(PINS["gated_long.csv"].config)
    return run_controlled(cfg.params, cfg.s0, cfg.grid, cfg.controller)


def test_long_gated_csv_keeps_its_bytes(long_gated_run):
    # the pin is of this file as the per-row "%.17g" writer wrote it
    text = _dump(long_gated_run)
    assert long_gated_run.n_samples == 20001
    assert 0.4 < long_gated_run.active.mean() < 0.42
    assert digest(text.encode()) == PINS["gated_long.csv"].sha256


def _write_peak(traj, path) -> int:
    tracemalloc.start()
    try:
        write_trajectory_csv(traj, str(path))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_is_bounded_by_its_block(tmp_path, long_gated_run):
    # the writer holds one block at a time: its peak neither exceeds 768 KiB
    # nor grows with the row count
    short = Trajectory(
        t=long_gated_run.t[:5001], states=long_gated_run.states[:5001],
        u=long_gated_run.u[:5001], active=long_gated_run.active[:5001],
        r=long_gated_run.r[:5001],
    )
    # a first write builds the writer's tables; neither peak may count them
    write_trajectory_csv(short, str(tmp_path / "warm.csv"))
    short_peak = _write_peak(short, tmp_path / "short.csv")
    long_peak = _write_peak(long_gated_run, tmp_path / "long.csv")
    assert long_peak <= 768 * 1024
    assert long_peak <= short_peak + 32 * 1024


edge_doubles = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, -1e-300,
    1e300, -1e300, 1.7976931348623157e308, 0.1, 1.0 / 3.0,
])


@given(st.lists(st.one_of(finite, edge_doubles), min_size=2, max_size=12))
def test_block_writer_matches_reference_on_any_double(values):
    n = len(values)
    r = np.array(values[::-1])
    r[0] = math.nan
    traj = Trajectory(
        t=np.arange(n, dtype=float),
        states=np.array([[v, -v, v * 0.5] for v in values]),
        u=np.array(values),
        active=np.ones(n, dtype=bool),
        r=r,
    )
    assert _dump(traj) == _reference_csv(traj)


def test_block_writer_matches_reference_on_nonfinite_values():
    # only an absent r is written blank; NaN and inf elsewhere keep their text
    nan, inf = math.nan, math.inf
    traj = Trajectory(
        t=np.array([0.0, 0.5, 1.0]),
        states=np.array([[nan, inf, -inf], [1.0, nan, 2.0], [nan, nan, nan]]),
        u=np.array([0.0, nan, -inf]),
        active=np.array([False, True, True]),
        r=np.array([nan, inf, nan]),
    )
    text = _dump(traj)
    assert text == _reference_csv(traj)
    assert text.splitlines()[3] == "1,nan,nan,nan,-inf,1,"


def _decade_edges():
    """Powers of ten from 1e-5 to 1e17 and their neighbours up to 4 ulps
    away.  17 digits tell every double apart, so none rounds up into the
    next decade; the ones just below a power come nearest."""
    out = []
    for j in range(-5, 18):
        x = float(f"1e{j}")
        out.append(x)
        up = down = x
        for _ in range(4):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
            out += [up, down]
    return out


def _ties():
    """Doubles whose 17-digit mantissa lies exactly halfway between two
    integers: odd multiples of 2**-(k+1) in the decade 10**(16-k)."""
    out = []
    for E in range(-4, 16):
        k = 16 - E
        scale = 2 ** (k + 1)
        lo = math.ceil(Fraction(10) ** E * scale)
        hi = min(math.ceil(Fraction(10) ** (E + 1) * scale), 2**53)  # exclusive
        for odd in (lo | 1, lo + 2 | 1, (lo + hi) // 2 | 1, hi - 2 | 1):
            x = odd / scale
            assert (Fraction(x) * 10 ** k).denominator == 2
            out.append(x)
    return out


TARGETED = np.array(
    _decade_edges() + _ties()
    + [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
       math.nan, -math.nan, math.inf, -math.inf, 1e-4, 9.9999999999999991e-05]
    + [0.01 * k for k in (1, 3, 7, 10, 29, 100, 4999, 10001, 19999, 20000)]
)
raw_double = st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
)


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(_BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 7),
    share=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
    picked=st.lists(st.one_of(raw_double, st.sampled_from(TARGETED.tolist())), max_size=24),
)
def test_writer_matches_format_on_raw_and_targeted_doubles(seed, rows, share, picked):
    # raw 64-bit patterns over more than one block, a share of them replaced
    # by targeted values, and a few drawn values in front
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**64, size=(rows, 5), dtype=np.uint64).view(np.float64)
    targeted = rng.random((rows, 5)) < share
    values[targeted] = rng.choice(TARGETED, targeted.sum())
    values.flat[:len(picked)] = picked
    active = rng.random(rows) < 0.5
    traj = Trajectory(
        t=(rng.integers(0, 10**6) + np.arange(rows)) * 0.01,
        states=values[:, :3], u=np.where(active, values[:, 3], 0.0),
        active=active, r=values[:, 4],
    )
    assert _dump(traj) == _reference_csv(traj)


@settings(max_examples=examples(30))
@given(seed=st.integers(0, 2**32 - 1), share=st.sampled_from([0.0, 0.6, 1.0]))
def test_writer_matches_format_when_log10_is_one_off(seed, share):
    # the kernel takes E from log10, which may be one off next to a power of
    # ten; give it such errors at random and the bytes must stay format()'s
    rng = np.random.default_rng(seed)
    exact_scales = _decimals._scales

    def one_off(ax):
        k = exact_scales(ax)
        return k + rng.integers(-1, 2, size=len(k))

    rows = _BLOCK_ROWS + 3
    values = rng.integers(0, 2**64, size=(rows, 5), dtype=np.uint64).view(np.float64)
    targeted = rng.random((rows, 5)) < share
    values[targeted] = rng.choice(TARGETED, targeted.sum())
    traj = Trajectory(
        t=np.arange(rows) * 0.01, states=values[:, :3], u=np.zeros(rows),
        active=np.ones(rows, dtype=bool), r=values[:, 4],
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_decimals, "_scales", one_off)
        text = _dump(traj)
    assert text == _reference_csv(traj)


def test_writer_gives_the_same_bytes_to_a_path(tmp_path, long_gated_run):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(long_gated_run, str(path))
    assert path.read_bytes() == _dump(long_gated_run).encode()


@pytest.mark.parametrize("second", ["path", "stream"])
def test_writer_gives_each_of_two_destinations_the_bytes_of_one(tmp_path, long_gated_run, second):
    # each block is formatted once and written to both
    first = tmp_path / "first.csv"
    other = tmp_path / "second.csv" if second == "path" else io.StringIO()
    _stale(first, 7)
    write_trajectory_csv(long_gated_run, str(first), str(other) if second == "path" else other)
    text = _dump(long_gated_run)
    assert digest(text.encode()) == PINS["gated_long.csv"].sha256
    assert first.read_bytes() == text.encode()
    if second == "path":
        assert other.read_bytes() == text.encode()
    else:
        assert other.getvalue() == text


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_second_destination_is_named_and_the_first_cut(tmp_path, long_gated_run):
    path = tmp_path / "traj.csv"
    _stale(path, len(_dump(long_gated_run)))
    with pytest.raises(OSError) as failed:
        write_trajectory_csv(long_gated_run, str(path), "/dev/full")
    assert failed.value.errno == errno.ENOSPC and failed.value.filename == "/dev/full"
    assert path.read_bytes() == HEADER.encode()  # the header, then /dev/full failed


# --- the sink: a path is written over, then cut -----------------------------------

def _stale(path, size):
    """Fills path with size bytes that no writer writes."""
    path.write_bytes(b"#" * size)


def _reproduced(tmp_path):
    assert cli_dispatch(["reproduce", "all", "--out-dir", str(tmp_path)]) == 0
    return {p.name: p.read_bytes() for p in tmp_path.iterdir()}


def test_rewrite_of_a_longer_file_leaves_exactly_the_new_bytes_in_the_same_inode(
    tmp_path, params, s0, controller, free_run, grid, eqs
):
    short = TimeGrid(30.0, 0.1)
    for write, value, name in [
        (write_trajectory_csv, run_controlled(params, s0, short, controller), "traj.csv"),
        (write_sweep_csv, sweep(params, s0, short, [-0.6, -0.3], [0.1], controller, tail=10.0),
         "sweep.csv"),
        (write_report, convergence_report(free_run, eqs, grid), "report.txt"),
    ]:
        text = io.StringIO()
        write(value, text)
        new = text.getvalue().encode()
        path = tmp_path / name
        _stale(path, 3 * len(new) + 7)
        inode = path.stat().st_ino
        write(value, str(path))
        assert path.read_bytes() == new, name
        assert path.stat().st_ino == inode, name


def test_reproduce_rewrites_its_outputs_and_fig5s_copy_exactly(tmp_path, capsys):
    fresh, again = tmp_path / "fresh", tmp_path / "again"
    fresh.mkdir(), again.mkdir()
    first = _reproduced(fresh)
    for name, data in first.items():
        _stale(again / name, 2 * len(data) + 7)
    assert _reproduced(again) == first
    assert first["fig5_trajectory.csv"] == first["fig4_trajectory.csv"]


def test_exception_between_blocks_leaves_only_the_bytes_written_before_it(
    tmp_path, monkeypatch, long_gated_run
):
    rows, blocks = _decimals._csv_rows, []

    def fails_on_the_second_block(*args):
        if blocks:
            raise RuntimeError("stopped between blocks")
        blocks.append(rows(*args))
        return blocks[-1]

    path = tmp_path / "traj.csv"
    _stale(path, len(_dump(long_gated_run)))
    monkeypatch.setattr(_decimals, "_csv_rows", fails_on_the_second_block)
    with pytest.raises(RuntimeError, match="stopped between blocks"):
        write_trajectory_csv(long_gated_run, str(path))
    assert path.read_bytes() == HEADER.encode() + blocks[0]


def test_failed_write_is_cut_where_it_stopped_and_names_its_file(tmp_path, monkeypatch,
                                                                  long_gated_run):
    # the device fills after 100000 bytes: a short write, then ENOSPC
    path = tmp_path / "traj.csv"
    full = _dump(long_gated_run).encode()
    _stale(path, len(full))
    room, write = [100_000], os.write

    def filling(fd, data):
        if fd != descriptor[0]:
            return write(fd, data)
        if not room[0]:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        written = write(fd, bytes(data[:room[0]]))
        room[0] -= written
        return written

    descriptor, open_ = [None], os.open

    def opening(*args):
        descriptor[0] = open_(*args)
        return descriptor[0]

    monkeypatch.setattr(os, "open", opening)
    monkeypatch.setattr(os, "write", filling)
    with pytest.raises(OSError) as failed:
        write_trajectory_csv(long_gated_run, str(path))
    monkeypatch.undo()
    assert failed.value.errno == errno.ENOSPC and failed.value.filename == str(path)
    assert path.read_bytes() == full[:100_000]


def test_new_file_gets_the_mode_open_wb_gives(tmp_path, free_run, grid, eqs):
    rep = convergence_report(free_run, eqs, grid)
    for umask in (0o022, 0o077, 0o002):
        old = os.umask(umask)
        try:
            write_report(rep, str(tmp_path / f"new-{umask:o}.txt"))
            with open(tmp_path / f"wb-{umask:o}.txt", "wb"):
                pass
        finally:
            os.umask(old)
        mode = (tmp_path / f"new-{umask:o}.txt").stat().st_mode & 0o777
        assert mode == 0o666 & ~umask == (tmp_path / f"wb-{umask:o}.txt").stat().st_mode & 0o777


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_devices_and_fifos_are_written_and_never_cut(tmp_path, monkeypatch, free_run, grid,
                                                      eqs, long_gated_run):
    cut, ftruncate = [], os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, size: cut.append(size) or ftruncate(fd, size))
    write_trajectory_csv(long_gated_run, "/dev/null")
    write_report(convergence_report(free_run, eqs, grid), "/dev/null")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_trajectory_csv(long_gated_run, str(fifo))
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == [_dump(long_gated_run).encode()]
    assert cut == []
    write_report(convergence_report(free_run, eqs, grid), str(tmp_path / "report.txt"))
    assert len(cut) == 1  # a regular file is cut


# --- read errors ------------------------------------------------------------------

HEADER = "t,x,y,z,u,active,r\n"


def _rows_past_one_block(bad_row: str, newline: str = "\n") -> tuple:
    """A file whose bad row comes after the first block; returns the text and
    the bad row's line number."""
    good = [f"{0.1 * k!r},1,2,3,0,0,{newline}" for k in range(_BLOCK_ROWS + 40)]
    text = HEADER.replace("\n", newline) + "".join(good) + bad_row + newline
    return text, len(good) + 2


def test_read_bad_number_names_row_and_column():
    text, line = _rows_past_one_block("1e9,1,abc,3,0,0,")
    with pytest.raises(ValueError, match=rf"row {line}: y is not a number: 'abc'"):
        read_trajectory_csv(io.StringIO(text))


def test_read_bad_r_names_row_and_column():
    text, line = _rows_past_one_block("1e9,1,2,3,0,0,x")
    with pytest.raises(ValueError, match=rf"row {line}: r is not a number"):
        read_trajectory_csv(io.StringIO(text))


def test_read_short_row_after_first_block_names_its_row():
    text, line = _rows_past_one_block("1e9,1,2,3,0,0")
    with pytest.raises(ValueError, match=rf"row {line}: expected 7 fields"):
        read_trajectory_csv(io.StringIO(text))


def test_read_bad_active_after_first_block_names_its_row():
    text, line = _rows_past_one_block("1e9,1,2,3,0,2,")
    with pytest.raises(ValueError, match=rf"row {line}: active must be 0 or 1"):
        read_trajectory_csv(io.StringIO(text))


def test_read_accepts_crlf_and_blank_lines(tmp_path):
    # Neither is the writer's format: a CRLF header is a wrong header, and
    # under an LF header the first CRLF or blank line names its row.
    rows = [f"{0.1 * k!r},{k!r},2,3,0,0,\r\n" for k in range(_BLOCK_ROWS + 5)]
    rows[3] = "\r\n"
    rows[_BLOCK_ROWS + 1] = "\r\n"
    text = HEADER.replace("\n", "\r\n") + "".join(rows)
    path = tmp_path / "crlf.csv"
    path.write_bytes(text.encode())
    bad = text + "1e9,1,zz,3,0,0,\r\n"
    crlf_header = r"bad trajectory header: .* got 't,x,y,z,u,active,r\\r\\n'"
    cases = [
        (io.StringIO(text), crlf_header),
        (str(path), crlf_header),
        (io.StringIO(bad), crlf_header),
        (io.StringIO(HEADER + "".join(rows)), r"row 2: r is not a number: '\\r'"),
        (io.StringIO(HEADER + "".join(rows).replace("\r", "")), r"row 5: expected 7 fields, got 1"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for source, message in cases:
            with pytest.raises(ValueError, match=rf"^{message}$"):
                read_trajectory_csv(source)


@pytest.mark.parametrize("row, message", [
    # numpy's C reader reads the first three; a guard before it refuses them
    ("0.1,1,2,3,0,0,0.5\r\n", r"r is not a number: '0.5\\r'"),
    ("0.1,1,2,3,0.5,1\x00,\n", r"active must be 0 or 1, got '1\\x00'"),
    ("0.1,1,2,3,0,0,0.5", r"not a line of the trajectory format: '0.1,1,2,3,0,0,0.5'"),
    ("0.1,1\x00,2,3,0,0,\n", r"x is not a number: '1\\x00'"),
    ("0.1,1_0,2,3,0,0,\n", r"x is not a number: '1_0'"),
    ('0.1,"1.5",2,3,0,0,\n', r"""x is not a number: '"1.5"'"""),
])
def test_read_rejects_forms_the_writer_never_writes(row, message):
    text = HEADER + "0,1,2,3,0,0,\n" + row
    with pytest.raises(ValueError, match=rf"^row 3: {message}$"):
        read_trajectory_csv(io.StringIO(text))


def test_read_rejects_header_only_file():
    with pytest.raises(ValueError, match="two samples"):
        read_trajectory_csv(io.StringIO(HEADER))


def test_read_rejects_header_and_one_row():
    with pytest.raises(ValueError, match="^a trajectory needs at least two samples$"):
        read_trajectory_csv(io.StringIO(HEADER + "0,1,2,3,0,0,\n"))


def test_refused_block_with_empty_r_is_loaded_once(monkeypatch):
    # exponent notation sends the block past the exact kernel; its first rows
    # have an empty r
    calls = []
    loaded = _decimals._loaded
    monkeypatch.setattr(_decimals, "_loaded", lambda text: calls.append(text) or loaded(text))
    text = "0,1e0,2,3,0,0,\n0.1,1,2,3,0,0,\n0.2,1,2,3,0.5,1,0.25\n"
    t, states, u, active, r = _decimals._parsed(io.StringIO(text).readlines())
    assert len(calls) == 1
    assert states[0].tolist() == [1.0, 2.0, 3.0]
    assert active.tolist() == [False, False, True]
    assert np.array_equal(r, [math.nan, math.nan, 0.25], equal_nan=True)


def test_read_rejects_wrong_header():
    with pytest.raises(ValueError, match="header"):
        read_trajectory_csv(io.StringIO("time,x,y,z,u,active,r\n0,0,0,0,0,0,\n"))


def test_read_rejects_empty_file():
    with pytest.raises(ValueError, match="empty"):
        read_trajectory_csv(io.StringIO(""))


def test_read_rejects_short_row():
    text = "t,x,y,z,u,active,r\n0,1,2,3,0,0\n"
    with pytest.raises(ValueError, match="7 fields"):
        read_trajectory_csv(io.StringIO(text))


def test_read_rejects_bad_active_flag():
    text = "t,x,y,z,u,active,r\n0,1,2,3,0,yes,\n0.1,1,2,3,0,0,\n"
    with pytest.raises(ValueError, match="active"):
        read_trajectory_csv(io.StringIO(text))


def test_file_path_interface(tmp_path):
    traj = Trajectory(
        t=np.array([0.0, 0.1]),
        states=np.zeros((2, 3)),
        u=np.zeros(2),
        active=np.zeros(2, dtype=bool),
        r=np.full(2, math.nan),
    )
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    back = read_trajectory_csv(str(path))
    assert np.array_equal(back.t, traj.t)
    # unix newlines regardless of platform
    assert b"\r" not in path.read_bytes()


@pytest.mark.parametrize("writer", ["trajectory", "trajectory-more", "sweep", "report"])
def test_each_writer_takes_a_path_object_as_its_str(tmp_path, free_run, grid, eqs, writer):
    # a pathlib.Path names a file, as its str does: it is not a stream
    write = {
        "trajectory": lambda dest: write_trajectory_csv(free_run, dest),
        "trajectory-more": lambda dest: write_trajectory_csv(free_run, io.StringIO(), dest),
        "sweep": lambda dest: write_sweep_csv(
            SweepReport(cells=(SweepCell(-0.6, 0.1, "literal", None, "diverged"),)), dest),
        "report": lambda dest: write_report(convergence_report(free_run, eqs, grid), dest),
    }[writer]
    write(str(tmp_path / "by-str"))
    write(tmp_path / "by-path")
    assert (tmp_path / "by-path").read_bytes() == (tmp_path / "by-str").read_bytes()


def test_reader_takes_a_path_object_as_its_str(tmp_path, free_run):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(free_run, str(path))
    by_path, by_str = read_trajectory_csv(path), read_trajectory_csv(str(path))
    for name in ("t", "states", "u", "active", "r"):
        assert getattr(by_path, name).tobytes() == getattr(by_str, name).tobytes()


def test_a_byte_that_is_not_utf8_names_its_row_in_a_path_as_in_a_stream(tmp_path):
    data = HEADER.encode() + b"0,1,2,3,0,0,\n0.1,1,2,3,0,0,\n\xff0.2,1,2,3,0,0,\n"
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    message = r"^row 4: t is not a number: '\\udcff0.2'$"
    with pytest.raises(ValueError, match=message):
        read_trajectory_csv(str(path))
    with pytest.raises(ValueError, match=message):
        read_trajectory_csv(io.StringIO(data.decode("utf-8", "surrogateescape")))


def test_read_names_the_row_of_a_time_that_does_not_increase():
    text = HEADER + "0,1,2,3,0,0,\n0.1,1,2,3,0,0,\n0.1,1,2,3,0,0,\n0.3,1,2,3,0,0,\n"
    with pytest.raises(ValueError, match=r"^row 4: sample times must be strictly increasing$"):
        read_trajectory_csv(io.StringIO(text))


def test_read_names_the_row_of_a_nonzero_u_at_an_inactive_sample():
    text, _ = _rows_past_one_block("1e9,1,2,3,0,1,")
    text += "2e9,1,2,3,-0.5,0,\n"
    line = _BLOCK_ROWS + 40 + 3
    with pytest.raises(ValueError, match=rf"^row {line}: u must be zero at every inactive sample$"):
        read_trajectory_csv(io.StringIO(text))


def test_read_peak_memory_per_sample_is_bounded(tmp_path, params, s0):
    # The bound is 5% over 130.4 bytes a sample, the tracemalloc peak on
    # this file of the csv/float row reader that blocks replaced.
    cfg = ControllerConfig(K=-0.3, epsilon=5.0, mode=PredictionMode.EULER)
    traj = run_controlled(params, s0, TimeGrid(200.0, 0.01), cfg)
    assert traj.n_samples == 20001
    path = tmp_path / "long.csv"
    write_trajectory_csv(traj, str(path))
    tracemalloc.start()
    try:
        read_trajectory_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / traj.n_samples <= 1.05 * 130.4


@contextmanager
def _pipe_path(data):
    """A path to the read end of a pipe that a thread fills with data: a
    path that cannot seek, as a named pipe or a shell's process
    substitution gives."""
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd on this platform")
    read_end, write_end = os.pipe()

    def feed():
        try:
            with open(write_end, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped early
            pass

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)
        feeder.join()


@pytest.mark.parametrize("through", ["path", "pipe"])
def test_read_holds_its_output_and_one_block(tmp_path, params, s0, through):
    # The read fills arrays allocated once from a count of the rows, so its
    # tracemalloc peak is the output plus what one block takes, however
    # many blocks the file has.  A pipe is copied to a temporary file to be
    # counted, which holds no more.
    cfg = ControllerConfig(K=-0.3, epsilon=5.0, mode=PredictionMode.EULER)
    traj = run_controlled(params, s0, TimeGrid(1000.0, 0.01), cfg)
    path = tmp_path / "longer.csv"
    write_trajectory_csv(traj, str(path))
    del traj
    data = path.read_bytes() if through == "pipe" else None
    tracemalloc.start()
    try:
        if through == "pipe":
            with _pipe_path(data) as fd_path:
                back = read_trajectory_csv(fd_path)
        else:
            back = read_trajectory_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.n_samples == 100001
    output = sum(a.nbytes for a in (back.t, back.states, back.u, back.active, back.r))
    assert peak <= output + 2**20


def test_blank_lines_fail_without_arrays_for_them(tmp_path):
    # No row the reader takes is shorter than 13 characters, so the count
    # of a million blank lines is capped at 1/13 of the characters, and the
    # first blank line fails as it does in a short file.
    lines = 10**6
    path = tmp_path / "blank.csv"
    path.write_bytes((HEADER + "0,1,2,3,0,0,\n" + "\n" * lines).encode())
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^row 3: expected 7 fields, got 1$"):
            read_trajectory_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_row = 8 + 24 + 8 + 1 + 8  # the bytes of t, states, u, active and r
    assert peak < lines * per_row / 8


class _Unseekable(io.StringIO):
    """A text stream that can only be read forward, as a pipe is."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


def test_unseekable_stream_reads_as_the_path_does(tmp_path, long_gated_run):
    # A stream that cannot seek, and a path to a pipe, are copied to a
    # temporary file to be counted, and then read as a file is.
    path = tmp_path / "long.csv"
    write_trajectory_csv(long_gated_run, str(path))
    text = path.read_text(encoding="utf-8")

    def through_a_pipe(stream):
        with _pipe_path(stream.read().encode("utf-8", "surrogateescape")) as fd_path:
            return read_trajectory_csv(fd_path)

    def unseekable(stream):
        return read_trajectory_csv(_Unseekable(stream.read()))

    bad = text.replace("\n", "\n1e9,1,2,3,0,0,\n", 1)  # row 3's time does not increase
    surrogate = text.replace("\n", "\n\udcff,1,2,3,0,0,\n", 1)  # as surrogateescape reads a bad byte
    for each, fails in ((text, False), (bad, True), (surrogate, True), (text[:-1], True)):
        from_file = _outcome(read_trajectory_csv, each)
        assert (from_file[0] is ValueError) == fails
        assert _outcome(unseekable, each) == from_file
        assert _outcome(through_a_pipe, each) == from_file


class _Changing(io.StringIO):
    """A text stream whose text becomes ``later`` once it is rewound after
    the reader has counted its rows."""

    def __init__(self, text, later):
        super().__init__(text)
        self.later = later

    def seek(self, *args):
        if self.later is not None:
            super().seek(0)
            self.truncate()
            self.write(self.later)
            self.later = None
        return super().seek(*args)


@pytest.mark.parametrize("counted, read, row", [
    (3, 4, 5),  # one row more than counted: the first row past the count
    (3, 2, 4),  # one row fewer: the first row missing
    (_BLOCK_ROWS, _BLOCK_ROWS + 1, _BLOCK_ROWS + 2),
    (_BLOCK_ROWS + 1, _BLOCK_ROWS, _BLOCK_ROWS + 2),
    (2, 0, 2),
    (0, 2, 2),
])
def test_rows_that_change_after_the_count_name_a_row(counted, read, row):
    def text(rows):
        return HEADER + "".join(f"{k},1,2,3,0,0,\n" for k in range(rows))

    stream = _Changing(text(counted), text(read))
    message = rf"^row {row}: the file changed while it was read \({counted} data rows counted before\)$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            read_trajectory_csv(stream)


@pytest.mark.parametrize("rows", [_BLOCK_ROWS, 2 * _BLOCK_ROWS])
def test_last_line_with_no_lf_at_a_block_boundary_names_its_row(tmp_path, rows):
    # The count takes the last line for no row, so it is the first row past
    # the count, and it is named for what it is.
    last = "1e9,1,2,3,0,0,0.5"
    text = HEADER + "".join(f"{k},1,2,3,0,0,\n" for k in range(rows)) + last
    path = tmp_path / "no-lf.csv"
    path.write_bytes(text.encode())
    message = rf"^row {rows + 2}: not a line of the trajectory format: '{last}'$"
    for source in (io.StringIO(text), str(path), _Unseekable(text)):
        with pytest.raises(ValueError, match=message):
            read_trajectory_csv(source)


@pytest.mark.parametrize("tail", ["", "\n", "\n\n\n", "\n" * (_BLOCK_ROWS + 3)])
@pytest.mark.parametrize("rows", [0, 1, 2, 256, 257, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_read_of_blank_endings_warns_nothing(rows, tail):
    text = HEADER + "".join(f"{k},1,2,3,0,0,\n" for k in range(rows)) + tail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if tail:  # the first blank line is a row with one field
            with pytest.raises(ValueError, match=rf"^row {rows + 2}: expected 7 fields, got 1$"):
                read_trajectory_csv(io.StringIO(text))
        else:
            assert _outcome(read_trajectory_csv, text) == _outcome(_reference_read, text)


# --- the block reader against the row reader it replaced -----------------------

def _reference_read(source):
    """The reader before blocks went through numpy's C reader: csv.reader,
    the row checks and Python's float for every block; the two Trajectory
    errors are prefixed with the row of the first failing sample."""
    if isinstance(source, str):
        with open(source, "r", newline="") as fh:
            return _reference_read(fh)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty trajectory file") from None
    if tuple(header) != ("t", "x", "y", "z", "u", "active", "r"):
        raise ValueError(
            f"bad trajectory header: expected t,x,y,z,u,active,r, got {','.join(header)}"
        )

    def checked():
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != 7:
                raise ValueError(f"row {line}: expected 7 fields, got {len(row)}")
            if row[5] not in ("0", "1"):
                raise ValueError(f"row {line}: active must be 0 or 1, got {row[5]!r}")
            yield row + [line]

    def floats(column, name, lines):
        for text, line in zip(column, lines):
            try:
                float(text)
            except ValueError:
                raise ValueError(f"row {line}: {name} is not a number: {text!r}") from None
        return np.array([float(text) for text in column])

    rows = checked()
    blocks = []
    while block := list(islice(rows, _BLOCK_ROWS)):
        t, x, y, z, u, active, r, lines = zip(*block)
        blocks.append((
            floats(t, "t", lines), floats(x, "x", lines), floats(y, "y", lines),
            floats(z, "z", lines), floats(u, "u", lines),
            np.array([a == "1" for a in active], dtype=bool),
            floats([text or "nan" for text in r], "r", lines), lines,
        ))
    if not blocks:
        raise ValueError("a trajectory needs at least two samples")
    t, x, y, z, u, active, r, lines = (np.concatenate(col) for col in zip(*blocks))
    if len(t) >= 2:
        for k in range(1, len(t)):
            if not t[k] > t[k - 1]:
                raise ValueError(f"row {lines[k]}: sample times must be strictly increasing")
        for k in range(len(t)):
            if u[k] != 0.0 and not active[k]:
                raise ValueError(f"row {lines[k]}: u must be zero at every inactive sample")
    return Trajectory(t=t, states=np.column_stack((x, y, z)), u=u, active=active, r=r)


def _outcome(read, text):
    """The bytes, dtype and shape of every array read, or the error raised."""
    try:
        traj = read(io.StringIO(text))
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc)
    arrays = (traj.t, traj.states, traj.u, traj.active, traj.r)
    return tuple((a.tobytes(), a.dtype.str, a.shape) for a in arrays)


BASE_FILE_COUNT = 5


@cache
def _base_files():
    """Files from real runs and from arbitrary doubles, two full blocks and
    a partial one each; made on first use, so that a run that fails fails
    the tests that use them, not the file's collection."""
    p, s0 = Params(4.0, 1.0, 1.0, 6.75), State(1.5, -1.25, 3.5)
    grid = TimeGrid(round(0.1 * (2 * _BLOCK_ROWS + 89), 1), 0.1)
    runs = [
        run_uncontrolled(p, s0, grid),
        run_controlled(p, s0, grid, ControllerConfig(K=-0.6, epsilon=0.1, t_on=5.0)),
        run_controlled(p, s0, grid, ControllerConfig(K=-0.6, epsilon=2.0, t_on=5.0)),
        run_controlled(p, s0, grid, ControllerConfig(
            K=-0.3, epsilon=5.0, t_on=0.0, mode=PredictionMode.EULER)),
    ]
    assert not runs[1].active.any() and runs[2].active.any() and runs[3].active.any()
    n = grid.n_steps + 1
    bits = np.random.default_rng(9).integers(0, 2**64, size=(n, 5), dtype=np.uint64)
    doubles = bits.view(np.float64)
    active = doubles[:, 0] > 0.0
    runs.append(Trajectory(
        t=np.arange(n) * 0.1, states=doubles[:, 1:4],
        u=np.where(active, doubles[:, 4], 0.0), active=active, r=doubles[:, 0],
    ))
    assert len(runs) == BASE_FILE_COUNT
    return [_dump(run) for run in runs]


# A row in the first block, at both sides of the first block boundary, in
# the middle block, and in the last partial block.
ROW_PICKS = (
    0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, _BLOCK_ROWS * 3 // 2,
    2 * _BLOCK_ROWS + 5, -1,
)
NUMBER_TEXTS = (
    "abc", "", " ", "1e", "1_0", "\u0661", "-nan", "nan", "NaN", "+nan", "Infinity",
    "-Infinity", "inf", "-inf", "1e999", " 1.5", "1.5 ", "\xa01", "\ufeff1", "1\x0b",
    "0x1p3", "1d0", '"1.5"', '"1,5"', "1\u20282", "1\x00", "\x1c2",
    # plain decimals the writer never writes, in and out of the exact kernel's
    # grammar: at most 18 significant digits and 22 after the point
    "007.5", "1.", ".5", "-.5", "-0", "1.50", "-", ".", "1..2", "1-2", "--1",
    "9007199254740993", "1234567890123456789", "12345678901234567890",
    "1234567890.1234567890", "0.12345678901234567890123", "0.00000000000000000000123",
    "-0.0000123456789012345678",
)
ACTIVE_TEXTS = (
    "0", "1", "2", "1.0", "+1", " 1", "1 ", "01", "", "10", "1\x00", "\u0661", '"1"',
    "1.", ".1",
)


def _mutate(text, mutations):
    header, *rows = text.split("\n")[:-1]
    ends = ["\n"] * len(rows)
    for kind, pick, value in mutations:
        k = ROW_PICKS[pick] % len(rows)
        fields = rows[k].split(",")
        column = {"number": value % 7 if value % 7 != 5 else 6, "active": 5, "u-inactive": 5}
        if column.get(kind, 0) >= len(fields):
            continue  # an earlier width mutation took the column away
        if kind == "number":
            fields[column[kind]] = NUMBER_TEXTS[value % len(NUMBER_TEXTS)]
        elif kind == "active":
            fields[5] = ACTIVE_TEXTS[value % len(ACTIVE_TEXTS)]
        elif kind == "width":
            fields = fields[:-1] if value % 2 else fields + ["0"]
        elif kind == "repeat-t" and k:
            fields[0] = rows[k - 1].split(",")[0]
        elif kind == "u-inactive":
            fields[4], fields[5] = "0.5", "0"
        elif kind == "crlf":
            ends[k] = "\r\n"
        elif kind == "cr":
            ends[k] = "\r"
        elif kind == "blank":
            ends[k] += "\n" * (1 + value % 3)
        elif kind == "spaces":
            ends[k] += " \n"
        rows[k] = ",".join(fields)
    return header + "\n" + "".join(row + end for row, end in zip(rows, ends))


mutation = st.tuples(
    st.sampled_from(
        ["number", "active", "width", "repeat-t", "u-inactive", "crlf", "cr", "blank", "spaces"]
    ),
    st.integers(0, len(ROW_PICKS) - 1),
    st.integers(0, 1000),
)


# Number spellings Python's float reads and numpy's C reader does not.
FLOAT_ONLY = ("1_0", "\u0661")


def _row(outcome):
    """The row an error outcome names (a wrong header is row 1), else None."""
    if outcome[0] is not ValueError:
        return None
    if outcome[1].startswith("bad trajectory header"):
        return 1
    named = re.match(r"row (\d+): ", outcome[1])
    return int(named[1]) if named else None


def _only_the_row_reader_reads(text) -> bool:
    """Whether a file has a form the row reader read and the writer never
    writes: CR, a quote, a blank line, no "\\n" at the end, or a number
    only float reads."""
    return (
        "\r" in text or '"' in text or "\n\n" in text or not text.endswith("\n")
        or any(spelling in text for spelling in FLOAT_ONLY)
    )


@settings(max_examples=examples(150))
@given(
    st.integers(0, BASE_FILE_COUNT - 1),
    st.lists(mutation, max_size=3),
    st.sampled_from(["keep", "all-crlf", "no-final-newline", "blank-tail"]),
)
# a mutation of a column that an earlier width mutation of its row removed
@example(0, [("width", 0, 1), ("width", 0, 1), ("active", 0, 0)], "keep")
@example(0, [("width", 0, 1), ("number", 0, 6)], "keep")
@example(0, [("width", 0, 1), ("width", 0, 1), ("u-inactive", 0, 0)], "keep")
def test_block_reader_matches_row_reader(tmp_path_factory, base, mutations, ending):
    text = _mutate(_base_files()[base], mutations)
    if ending == "all-crlf":
        text = text.replace("\n", "\r\n")
    elif ending == "no-final-newline":
        text = text[:-1]
    elif ending == "blank-tail":
        text += "\n" * 300
    got = _outcome(read_trajectory_csv, text)
    # numpy's C reader takes the separator \x1c next to a number for white
    # space, and float does not; the row reader reads the file without it.
    expected = _outcome(_reference_read, text.replace("\x1c", ""))
    newly_rejected = _only_the_row_reader_reads(text)
    if '"' in text:  # numpy's C reader refuses every quoted field
        assert _row(got) is not None
    if expected[0] not in (ValueError, csv.Error):  # the row reader read it
        assert got == expected or (newly_rejected and _row(got) is not None)
    elif len(mutations) == 1 and not newly_rejected and _row(expected):
        assert got == expected
    else:
        # The first bad row in file order, no later than the row reader's,
        # except that a sample check runs only once every row reads: a newly
        # rejected row after the failing sample is named instead.
        assert _row(got) is not None
        if _row(expected) is not None and _row(got) > _row(expected):
            assert newly_rejected
            assert expected[1].endswith(("strictly increasing", "every inactive sample"))
    # a path reads as the same text as a stream
    path = tmp_path_factory.mktemp("read") / "traj.csv"
    path.write_bytes(text.encode())
    assert _outcome(lambda fh: read_trajectory_csv(str(path)), text) == got


def _kernel_file(rows=24):
    """The header and first rows of a gated run: negative numbers, empty
    and nonempty r, a block the exact kernel reads."""
    text = "\n".join(_base_files()[3].split("\n")[:rows + 1]) + "\n"
    body = text.split("\n", 1)[1]
    assert exact(body, rows) is not None
    return text


@pytest.mark.parametrize("column", range(7))
def test_each_field_text_reads_as_the_row_reader_reads_it(column):
    # one text at a time, in one field of a block the exact kernel reads, so
    # the kernel and then numpy's C reader decide on it
    header, *rows = _kernel_file().split("\n")[:-1]
    for text in ACTIVE_TEXTS if column == 5 else NUMBER_TEXTS:
        fields = rows[3].split(",")
        fields[column] = text
        lines = [header] + rows[:3] + [",".join(fields)] + rows[4:]
        mutated = "\n".join(lines) + "\n"
        got = _outcome(read_trajectory_csv, mutated)
        if _only_the_row_reader_reads(mutated):
            assert _row(got) == 5, text
        else:
            assert got == _outcome(_reference_read, mutated.replace("\x1c", "")), text


def _with_point(digits: str, f: int) -> str:
    """digits with a point f places from the right: "1.25", ".005"."""
    if not f:
        return digits
    if len(digits) <= f:
        return "." + digits.rjust(f, "0")
    return digits[:-f] + "." + digits[-f:]


# The %.17g text of a double with raw sign and mantissa bits, its binary
# exponent in [-14, 56], which covers the fixed notation [1e-4, 1e17).
double_text = st.builds(
    lambda sign, exponent, mantissa: format(
        float(np.array(sign << 63 | exponent << 52 | mantissa, np.uint64).view(np.float64)),
        ".17g",
    ),
    st.integers(0, 1), st.integers(1023 - 14, 1023 + 56), st.integers(0, 2**52 - 1),
).filter(lambda text: "e" not in text)
digit_text = st.builds(
    _with_point, st.text("0123456789", min_size=1, max_size=18), st.integers(0, 22),
)


@st.composite
def halfway_text(draw):
    """A number m / 10**f halfway between two doubles above 2**53, or a few
    units of m off it: m0 + 1/2 ulp for m0 a double in [2**k, 2**(k+1)),
    times 5**f (m / 10**f is then the tie m0 / 2**f)."""
    k, f = draw(st.integers(53, 59)), draw(st.integers(0, 2))
    ulp = 2 ** (k - 52)
    hi = min(2 ** (k + 1), 10**18 // 5**f) // ulp
    if hi <= 2**k // ulp:
        f, hi = 0, min(2 ** (k + 1), 10**18) // ulp
    m = draw(st.integers(2**k // ulp, hi - 1)) * ulp + ulp // 2
    m = m * 5**f + draw(st.sampled_from([0, 0, 0, 1, -1, 2, -2]))
    return _with_point(str(m), f)


@st.composite
def power_of_two_text(draw):
    """2**k written exactly, or the %.17g text of a neighbouring double."""
    k = draw(st.integers(-22, 59))
    exact = str(2**k) if k >= 0 else _with_point(str(5**-k), -k)
    side = draw(st.sampled_from([0, 1, -1]))
    if side:
        text = format(math.nextafter(2.0**k, side * math.inf), ".17g")
        if "e" not in text:
            return text
    return exact


def _numbers_csv(numbers) -> str:
    """Rows of six numbers each, in t, x, y, z, u and r, active 1."""
    rows = [numbers[k:k + 6] for k in range(0, len(numbers), 6)]
    return "".join(",".join(row[:5]) + ",1," + row[5] + "\n" for row in rows)


def _kernel_values(text: str, rows: int):
    block = exact(text, rows)
    if block is None:
        return None
    t, states, u, _, r = block
    return np.column_stack((t, states, u, r)).reshape(-1)


@settings(max_examples=examples(100))
@given(st.lists(
    st.one_of(double_text, digit_text, halfway_text(), power_of_two_text()),
    min_size=1, max_size=48,
))
def test_exact_kernel_rounds_as_float_does(texts):
    # every value the kernel reads is float's, bit for bit; a block it
    # leaves to numpy's float parser holds a number it leaves alone too
    numbers = texts + ["0"] * (-len(texts) % 6)
    expected = np.array([float(text) for text in numbers])
    got = _kernel_values(_numbers_csv(numbers), len(numbers) // 6)
    if got is not None:
        assert got.tobytes() == expected.tobytes()
        return
    alone = [_kernel_values(_numbers_csv([text] * 6), 1) for text in texts]
    assert any(values is None for values in alone)
    for values, text in zip(alone, texts):
        if values is not None:
            assert values.tobytes() == np.full(6, float(text)).tobytes(), text
        else:  # one division is exact up to 2**53, so only larger m are left
            assert int(text.lstrip("-").replace(".", "")) > 2**53, text


# --- sweep CSV --------------------------------------------------------------------

def test_sweep_csv_layout(params, s0):
    g = TimeGrid(30.0, 0.1)
    base = ControllerConfig(K=-0.6, epsilon=0.5, t_on=10.0)
    # K=0 completes (free flow); K=20 with the gate pinned open diverges
    rep = sweep(params, s0, g, [0.0, 20.0], [1e9], base, tail=10.0)
    buf = io.StringIO()
    write_sweep_csv(rep, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "K,epsilon,mode,stabilized,target,tail_max_distance,control_effort,max_abs_u"
    assert len(lines) == 3
    ok_row = lines[1].split(",")
    assert ok_row[0] == "0"
    assert ok_row[2] == "literal"
    assert ok_row[3] in ("0", "1")
    failed_row = lines[2].split(",")
    assert failed_row[0] == "20"
    assert failed_row[3:] == ["", "", "", "", ""]


def test_sweep_csv_bytes_are_csv_writers(tmp_path, params, s0):
    # cells that complete and a cell that diverges; the reference is csv.writer's
    g = TimeGrid(30.0, 0.1)
    base = ControllerConfig(K=-0.6, epsilon=0.5, t_on=10.0)
    rep = sweep(params, s0, g, [0.0, 20.0], [1e9], base,
                modes=[PredictionMode.DERIVATIVE, PredictionMode.EULER], tail=10.0)
    assert {cell.report is None for cell in rep.cells} == {False, True}
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(("K", "epsilon", "mode", "stabilized", "target",
                     "tail_max_distance", "control_effort", "max_abs_u"))
    for cell in rep.cells:
        outcome = ("",) * 5 if cell.report is None else (
            int(cell.report.stabilized), cell.report.target_label,
            *(format(x, ".17g") for x in (cell.report.tail_max_distance,
                                          cell.report.control_effort,
                                          cell.report.max_abs_u_post_activation)),
        )
        writer.writerow((format(cell.K, ".17g"), format(cell.epsilon, ".17g"), cell.mode,
                         *outcome))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rep, str(path))
    assert path.read_bytes() == expected.getvalue().encode()
    buf = io.StringIO()
    write_sweep_csv(rep, buf)
    assert buf.getvalue() == expected.getvalue()


def test_sweep_csv_file_interface(tmp_path, params, s0):
    g = TimeGrid(30.0, 0.1)
    base = ControllerConfig(K=-0.6, epsilon=0.1, t_on=10.0)
    rep = sweep(params, s0, g, [-0.6], [0.1], base, tail=10.0)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rep, str(path))
    assert path.read_text().startswith("K,epsilon,mode,")


# --- plain-text report ------------------------------------------------------------

def test_render_report_controlled(params, s0, grid, controller, eqs):
    traj = run_controlled(params, s0, grid, controller)
    rep = convergence_report(traj, eqs, grid, cfg=controller)
    text = render_report(rep)
    assert "control: literal prediction" in text
    assert "K = -0.59999999999999998" in text
    assert "target: positive-x" in text
    assert "stabilized = no" in text
    assert "euclidean norm" in text
    assert "step's start" in text
    # deterministic
    assert render_report(rep) == text


def test_render_report_uncontrolled(free_run, grid, eqs):
    rep = convergence_report(free_run, eqs, grid)
    text = render_report(rep)
    assert "control: off" in text
    assert "K =" not in text


def test_write_report_to_file(tmp_path, free_run, grid, eqs):
    rep = convergence_report(free_run, eqs, grid)
    path = tmp_path / "report.txt"
    write_report(rep, str(path))
    assert path.read_text() == render_report(rep)
