import contextlib
import io
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rabinovich import Trajectory, cli, read_trajectory_csv
from rabinovich.cli import _same_bits, cli_dispatch
from rabinovich.config import _FLOAT_KEYS, default_config


def run_cli(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- dispatch / exit codes -----------------------------------------------------

def test_no_arguments_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower()


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "equilibria" in out and "reproduce" in out


# --- gain-check ------------------------------------------------------------------

def test_gain_check_reference_pair(capsys):
    code, out, _ = run_cli(capsys, "gain-check", "--d", "1", "--K", "-0.6")
    assert code == 0
    assert "(-1, 0)" in out
    assert "K inside: yes" in out
    assert "+0.2" in out
    assert "discrete check (spectral radius < 1): PASS" in out
    assert "continuous check (max Re < 0): FAIL" in out
    assert "criteria disagree" in out  # the explanatory note


def test_gain_check_agreeing_pair_has_no_note(capsys):
    # K=-0.4 at d=1: coefficient -0.2, both checks pass
    code, out, _ = run_cli(capsys, "gain-check", "--d", "1", "--K", "-0.4")
    assert code == 0
    assert "discrete check (spectral radius < 1): PASS" in out
    assert "continuous check (max Re < 0): PASS" in out
    assert "disagree" not in out


def test_gain_check_outside_interval(capsys):
    code, out, _ = run_cli(capsys, "gain-check", "--d", "1", "--K", "0.5")
    assert code == 0
    assert "K inside: no" in out
    assert "discrete check (spectral radius < 1): FAIL" in out


def test_gain_check_rejects_bad_d(capsys):
    code, _, err = run_cli(capsys, "gain-check", "--d", "-1", "--K", "-0.6")
    assert code == 1
    assert "error" in err


def test_gain_check_rejects_nan_gain(capsys):
    code, out, err = run_cli(capsys, "gain-check", "--K", "nan")
    assert code == 1
    assert "--K" in err and "finite" in err
    assert out == ""


def test_gain_check_rejects_nan_d(capsys):
    code, out, err = run_cli(capsys, "gain-check", "--d", "nan")
    assert code == 1
    assert "--d" in err and "finite" in err
    assert out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, option", [
    (("gain-check", "--K", "1e308"), "--K"),
    (("gain-check", "--d", "1e308", "--K", "5"), "--d"),
    (("equilibria", "--K", "1e308"), "--K"),
], ids=["gain-check-K", "gain-check-d", "equilibria-K"])
def test_huge_finite_input_names_the_option(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith(f"error: {option}: ") and "too large" in err
    assert out == ""


def test_inputs_and_bounds_echo_distinct_numbers_distinctly(capsys):
    # 6 significant digits print both K and the upper bound as -1
    code, out, _ = run_cli(capsys, "gain-check", "--d", "1e7", "--K", "-0.9999999")
    assert code == 0
    assert out.startswith(
        "gain K = -0.9999999 at d = 1e+07\n"
        "admissible interval: (-1, -0.99999980000002) -> K inside: yes\n"
    )
    code, out, _ = run_cli(capsys, "equilibria", "--K", "-0.9999999")
    assert code == 0
    assert out.count("gain check (K=-0.9999999)") == 3
    assert out.count("controlled jacobian (K=-0.9999999)") == 3
    # numbers that 6 digits hold print as before
    code, out, _ = run_cli(capsys, "gain-check")
    assert out.startswith("gain K = -0.6 at d = 1\nadmissible interval: (-1, 0) -> K inside: yes\n")


def test_parser_is_reused_across_calls(capsys):
    first = run_cli(capsys, "gain-check", "--K", "-0.4")
    code, _, err = run_cli(capsys, "gain-check", "--K", "abc")
    assert code == 1
    assert "--K" in err
    third = run_cli(capsys, "gain-check", "--K", "-0.4")
    assert first == third
    assert third[0] == 0 and third[2] == ""


# --- equilibria --------------------------------------------------------------------

def test_equilibria_lists_reference_points(capsys):
    code, out, _ = run_cli(capsys, "equilibria")
    assert code == 0
    assert "origin: (0.0000, 0.0000, 0.0000)" in out
    assert "positive-x: (4.6119, 1.3979, 6.4469)" in out
    assert "negative-x: (-4.6119, -1.3979, 6.4469)" in out
    # per-point verdicts, open and closed loop
    assert out.count("open loop") == 3
    assert out.count("gain check (K=-0.6)") == 3
    assert out.count("controlled jacobian") == 3


def test_equilibria_degenerate_parameters(capsys, tmp_path):
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text("h = 1\n")  # h^2 <= ab
    code, out, _ = run_cli(capsys, "equilibria", "--config", str(cfg))
    assert code == 0
    assert "only the origin" in out
    assert "positive-x" not in out


# --- simulate ----------------------------------------------------------------------

def test_simulate_with_defaults(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "simulate")
    assert code == 0
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "report.txt").exists()
    assert "run summary" in out
    assert "target:" in out
    traj = read_trajectory_csv(str(tmp_path / "trajectory.csv"))
    assert traj.n_samples == 2001


def test_simulate_uncontrolled_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "simulate", "--uncontrolled",
                           "--out-csv", "free.csv", "--out-report", "free.txt")
    assert code == 0
    assert "control: off" in out
    traj = read_trajectory_csv(str(tmp_path / "free.csv"))
    assert not traj.active.any()


@pytest.mark.parametrize("t0, t_end", [(1.0, 201.0), (0.3, 200.3)])
def test_simulate_report_echoes_the_configured_grid(capsys, tmp_path, monkeypatch, t0, t_end):
    # the samples' own spacing is not dt here: t[1] - t[0] is 0.10000000000000009
    # at t0 = 1 and 0.10000000000000003 at t0 = 0.3
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"t0 = {t0!r}\nt_end = {t_end!r}\n")
    code, out, _ = run_cli(capsys, "simulate", "--config", "run.cfg")
    assert code == 0
    assert "\ndt = 0.10000000000000001\n" in out
    assert f"\nt_end = {t_end:.17g}\n" in out
    assert (tmp_path / "report.txt").read_text() == out


@pytest.mark.parametrize("csv_path, report_path", [
    ("same.txt", "same.txt"), ("same.txt", "./same.txt"), ("sub/../same.txt", "same.txt"),
])
def test_simulate_same_output_file_exits_one_before_running(
        capsys, tmp_path, monkeypatch, csv_path, report_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code, out, err = run_cli(
        capsys, "simulate", "--out-csv", csv_path, "--out-report", report_path,
    )
    assert code == 1
    assert err == (
        f"error: out_csv ({csv_path!r}) and out_report ({report_path!r}) name the same file\n"
    )
    assert out == ""
    assert not (tmp_path / "same.txt").exists()


def test_simulate_same_output_file_from_config_exits_one(capsys, tmp_path, monkeypatch):
    # an existing file, and paths from the config
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kept.txt").write_text("kept\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out_csv = kept.txt\nout_report = {tmp_path / 'kept.txt'}\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    assert "out_csv ('kept.txt') and out_report (" in err and "name the same file" in err
    assert (tmp_path / "kept.txt").read_text() == "kept\n"
    # an override that parts them runs
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out-report", "r.txt")
    assert code == 0
    assert (tmp_path / "kept.txt").read_text().startswith("t,x,y,z,u,active,r\n")


def test_simulate_bad_config_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("a = 4\nwhat = 7\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(bad))
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize("line, field", [
    ("tail = nan", "tail"),
    ("capture_radius = inf", "capture_radius"),
    ("capture_radius = nan", "capture_radius"),
])
def test_simulate_nonfinite_setting_exits_one(capsys, tmp_path, line, field):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(
        capsys, "simulate", "--config", str(cfg),
        "--out-csv", str(tmp_path / "t.csv"), "--out-report", str(tmp_path / "r.txt"),
    )
    assert code == 1
    assert f"{field} must be finite" in err
    assert out == ""
    assert not (tmp_path / "t.csv").exists()


def test_simulate_oversized_grid_exits_one_without_allocating(capsys, tmp_path):
    cfg = tmp_path / "tiny_dt.cfg"
    cfg.write_text("dt = 1e-9\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "simulate", "--config", str(cfg),
            "--out-csv", str(tmp_path / "t.csv"), "--out-report", str(tmp_path / "r.txt"),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert err.startswith("error: dt = 1e-09 gives 200000000000 steps, more than")
    assert out == ""
    assert not (tmp_path / "t.csv").exists()
    assert peak < 1_000_000


def test_simulate_overflowing_delay_ratio_exits_one(capsys, tmp_path):
    cfg = tmp_path / "tau.cfg"
    cfg.write_text("t_end = 1e-9\ndt = 1e-10\ntau = 1e300\ntail = 1e-10\n")
    code, out, err = run_cli(
        capsys, "simulate", "--config", str(cfg),
        "--out-csv", str(tmp_path / "t.csv"), "--out-report", str(tmp_path / "r.txt"),
    )
    assert code == 1
    assert err.startswith("error: tau must be a positive integer multiple of dt")
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("text, error", [
    ("tau = 300\n", "tau (300.0) must be shorter than the run span (200.0)"),
    ("tau = 200\n", "tau (200.0) must be shorter than the run span (200.0)"),
    ("t0 = 150\ntau = 50\ntail = 10\n", "tau (50.0) must be shorter than the run span (50.0)"),
    ("t_on = 200\n", "t_on (200.0) must be before the last step starts, at t = 199.9"),
    ("t_on = 199.9\n", "t_on (199.9) must be before the last step starts, at t = 199.9"),
    ("t_end = 30\ntail = 10\n",
     "t_on (40.0) must be before the last step starts, at t = 29.900000000000002"),
])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_controller_that_can_never_act_exits_one(capsys, tmp_path, command, text, error):
    # the delay window would never fill, or t > t_on would hold at no sample
    # that starts a step: the run would report "control: literal prediction"
    # with no control at all
    cfg = tmp_path / "idle.cfg"
    cfg.write_text(text)
    argv = {
        "simulate": ["--out-csv", str(tmp_path / "t.csv"), "--out-report", str(tmp_path / "r.txt")],
        "sweep": ["--K", "-0.6", "--epsilon", "0.1", "--out", str(tmp_path / "s.csv")],
    }[command]
    code, out, err = run_cli(capsys, command, "--config", str(cfg), *argv)
    assert code == 1
    assert err == f"error: {error}\n"
    assert out == "" and list(tmp_path.iterdir()) == [cfg]


def test_simulate_missing_config_exits_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "nope.cfg"))
    assert code == 1
    assert "cannot read config" in err


def test_simulate_divergence_exits_two(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text("K = 20\nepsilon = 1e9\nt_on = 0\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert "aborted at step" in err


def test_simulate_unwritable_output_exits_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate",
                           "--out-csv", str(tmp_path / "no" / "dir" / "x.csv"))
    assert code == 1
    assert "error" in err


# --- sweep --------------------------------------------------------------------------

def test_sweep_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    cfg = tmp_path / "short.cfg"
    cfg.write_text("t_end = 30\nt_on = 10\ntail = 10\n")
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                           "--K=-0.6,-0.3", "--epsilon", "0.1,0.5",
                           "--modes", "literal,euler", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("K,epsilon,mode,")
    assert len(lines) == 9  # header + 2*2*2 cells
    assert "8 cells" in out


def test_sweep_readme_example_with_negative_gains(capsys, tmp_path, monkeypatch):
    # the README's command, negative list after a space, default --out
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "sweep", "--K", "-0.9,-0.6,-0.3",
                             "--epsilon", "0.1,0.5", "--modes", "literal,euler")
    assert code == 0, err
    assert "12 cells" in out
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 13  # header + 2 modes * 3 gains * 2 epsilons
    assert [float(line.split(",")[0]) for line in lines[1:4:2]] == [-0.9, -0.6]


def test_sweep_negative_epsilon_list_names_the_field(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--K", "-0.6", "--epsilon", "-0.1,0.5",
                           "--out", str(tmp_path / "s.csv"))
    assert code == 1
    assert "epsilon must be positive" in err


def test_sweep_option_is_not_taken_for_a_gain_list(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--K", "--epsilon", "0.1",
                           "--out", str(tmp_path / "s.csv"))
    assert code == 1
    assert "expected one argument" in err


def test_sweep_rejects_bad_gain_list(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--K", "abc", "--epsilon", "0.1",
                           "--out", str(tmp_path / "s.csv"))
    assert code == 1
    assert "comma-separated" in err


def test_sweep_rejects_unknown_mode(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--K=-0.6", "--epsilon", "0.1",
                           "--modes", "rk4", "--out", str(tmp_path / "s.csv"))
    assert code == 1
    assert "modes" in err


# --- reproduce -----------------------------------------------------------------------

def test_reproduce_fig4(capsys, tmp_path):
    code, out, err = run_cli(capsys, "reproduce", "fig4", "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "fig4_trajectory.csv").exists()
    assert (tmp_path / "fig4_report.txt").exists()
    assert "fig4: target =" in out
    report = (tmp_path / "fig4_report.txt").read_text()
    assert "t_on = 40" in report


def test_reproduce_fig5_activation_time(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "reproduce", "fig5", "--out-dir", str(tmp_path))
    assert code == 0
    assert "t_on = 100" in (tmp_path / "fig5_report.txt").read_text()


def test_reproduce_all(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "reproduce", "all", "--out-dir", str(tmp_path))
    assert code == 0
    for name in ("fig4", "fig5"):
        assert (tmp_path / f"{name}_trajectory.csv").exists()
    # The gate never opens at the default epsilon: both presets are one free run.
    fig4 = (tmp_path / "fig4_trajectory.csv").read_bytes()
    assert (tmp_path / "fig5_trajectory.csv").read_bytes() == fig4


def test_reproduce_all_steps_one_run(capsys, tmp_path, core_calls):
    code, _, _ = run_cli(capsys, "reproduce", "all", "--out-dir", str(tmp_path))
    assert code == 0
    # the gate never opens, so both presets gate the free run in array passes only
    assert default_config().grid.n_steps == 2000
    got = core_calls()
    assert (got["steps"], got["gated"]) == (2000, 0)
    assert got["field"] == 4 * got["steps"]


@pytest.mark.parametrize("epsilon, same_run", [
    (0.5, True),    # both presets first open the gate at t = 132.4
    (1.0, False),   # fig4 opens at t = 42.2, fig5 at t = 104.5
])
def test_reproduce_all_equals_each_preset_alone(capsys, tmp_path, monkeypatch,
                                                epsilon, same_run):
    base = default_config()
    monkeypatch.setattr(cli, "default_config", lambda: replace(
        base, controller=replace(base.controller, epsilon=epsilon)))
    together, alone = tmp_path / "all", tmp_path / "alone"
    together.mkdir(), alone.mkdir()
    code, out_all, _ = run_cli(capsys, "reproduce", "all", "--out-dir", str(together))
    assert code == 0
    out_alone = ""
    for name in ("fig4", "fig5"):
        code, out, _ = run_cli(capsys, "reproduce", name, "--out-dir", str(alone))
        assert code == 0
        out_alone += out
        for kind in ("trajectory.csv", "report.txt"):
            path = f"{name}_{kind}"
            assert (together / path).read_bytes() == (alone / path).read_bytes(), path
    assert out_all == out_alone
    csvs = [(together / f"{name}_trajectory.csv").read_bytes() for name in ("fig4", "fig5")]
    assert (csvs[0] == csvs[1]) == same_run
    assert read_trajectory_csv(str(together / "fig4_trajectory.csv")).active.any()


def test_reproduce_divergence_exits_two(capsys, tmp_path, monkeypatch):
    base = default_config()
    monkeypatch.setattr(cli, "default_config", lambda: replace(
        base, controller=replace(base.controller, K=-0.9, epsilon=5.0)))
    code, out, err = run_cli(capsys, "reproduce", "all", "--out-dir", str(tmp_path))
    assert code == 2
    assert "aborted at step 685" in err
    assert out == "" and list(tmp_path.iterdir()) == []


def test_same_bits_tells_signed_zeros_apart():
    def traj(u0):
        return Trajectory(
            t=np.array([0.0, 0.1]), states=np.zeros((2, 3)), u=np.array([u0, 1.0]),
            active=np.array([False, True]), r=np.full(2, np.nan),
        )

    assert _same_bits(traj(0.0), traj(0.0))
    assert traj(0.0).u[0] == traj(-0.0).u[0]
    assert not _same_bits(traj(0.0), traj(-0.0))


def test_reproduce_rejects_unknown_preset(capsys, tmp_path):
    code, _, err = run_cli(capsys, "reproduce", "fig9", "--out-dir", str(tmp_path))
    assert code == 1


def test_reproduce_missing_directory_exits_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "reproduce", "fig4",
                           "--out-dir", str(tmp_path / "missing"))
    assert code == 1
    assert "error" in err


@pytest.fixture
def runs(monkeypatch):
    """The names of the run functions the CLI called."""
    called = []
    for name in ("run_controlled", "run_uncontrolled", "run_each", "sweep"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: called.append(name))
    return called


def _files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*"))


@pytest.mark.parametrize("args, option, bad", [
    (["simulate", "--out-csv", "{missing}/a.csv", "--out-report", "{tmp}/r.txt"],
     "--out-csv", "{missing}/a.csv"),
    (["simulate", "--out-csv", "{tmp}/a.csv", "--out-report", "{missing}/r.txt"],
     "--out-report", "{missing}/r.txt"),
    (["simulate", "--uncontrolled", "--config", "{tmp}/paths.cfg"],
     "out_csv", "{missing}/a.csv"),
    (["simulate", "--config", "{tmp}/paths.cfg", "--out-csv", "{tmp}/a.csv"],
     "out_report", "{missing}/r.txt"),
    (["sweep", "--K", "-0.6,-0.3", "--epsilon", "0.1", "--out", "{missing}/s.csv"],
     "--out", "{missing}/s.csv"),
    (["reproduce", "all", "--out-dir", "{missing}"], "--out-dir", "{missing}"),
    (["simulate", "--out-csv", "{tmp}", "--out-report", "{tmp}/r.txt"], "--out-csv", "{tmp}"),
    (["sweep", "--K", "-0.6", "--epsilon", "0.1", "--out", "{tmp}"], "--out", "{tmp}"),
    (["sweep", "--K", "-0.6,-0.3", "--epsilon", "0.1", "--out", ""], "--out", ""),
    (["simulate", "--config", "{tmp}/empty.cfg", "--out-report", "{tmp}/r.txt"], "out_csv", ""),
    (["simulate", "--out-csv", "", "--out-report", "{tmp}/r.txt"], "--out-csv", ""),
    (["simulate", "--out-csv", "{tmp}/a.csv", "--out-report", ""], "--out-report", ""),
])
def test_output_that_cannot_be_written_fails_before_any_run(
    capsys, tmp_path, monkeypatch, runs, args, option, bad
):
    monkeypatch.chdir(tmp_path)  # where an empty option's default path would go
    paths = {"tmp": tmp_path, "missing": tmp_path / "missing"}
    (tmp_path / "paths.cfg").write_text(
        f"out_csv = {tmp_path}/missing/a.csv\nout_report = {tmp_path}/missing/r.txt\n"
    )
    (tmp_path / "empty.cfg").write_text("out_csv =\n")
    before = _files(tmp_path)
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in args))
    assert code == 1
    assert err.startswith(f"error: {option}: ") and repr(bad.format(**paths)) in err
    assert out == ""
    assert runs == []
    assert _files(tmp_path) == before


# --- extreme inputs -------------------------------------------------------------------

EXTREME_DOUBLES = (
    0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, sys.float_info.max, -sys.float_info.max,
)


def dispatch_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.filterwarnings("error")
@settings(max_examples=60)
@given(
    values=st.dictionaries(st.sampled_from(_FLOAT_KEYS), st.sampled_from(EXTREME_DOUBLES),
                           max_size=3),
    mode=st.sampled_from(["literal", "euler"]),
    uncontrolled=st.booleans(),
    gains=st.lists(st.sampled_from((-0.6, -0.3)) | st.sampled_from(EXTREME_DOUBLES),
                   min_size=2, max_size=2),
    thresholds=st.lists(st.sampled_from((0.05, 0.5, 5.0)) | st.sampled_from(EXTREME_DOUBLES),
                        min_size=2, max_size=2),
)
# tau/dt overflows to inf: it once escaped as an OverflowError traceback
@example(values={"tau": sys.float_info.max}, mode="euler", uncontrolled=False,
         gains=[-0.6, -0.3], thresholds=[0.05, 5.0])
def test_extreme_config_values_exit_cleanly(tmp_path_factory, values, mode, uncontrolled,
                                            gains, thresholds):
    # every float key at 0, the smallest subnormal, 1e300 or the largest
    # double, either sign: simulate and a 2 x 2 sweep exit 0, 1 or 2, with no
    # traceback and no numpy warning (warnings are errors here)
    grid = default_config().grid
    t0, t_end, dt = (values.get(k, getattr(grid, k)) for k in ("t0", "t_end", "dt"))
    if dt > 0.0 and t_end > t0:
        assume(not 5000 <= (t_end - t0) / dt <= 10**7)  # too slow for tier-1
    work = tmp_path_factory.getbasetemp() / "extreme-config"
    work.mkdir(exist_ok=True)
    cfg = work / "run.cfg"
    cfg.write_text(
        "".join(f"{k} = {v!r}\n" for k, v in values.items()) + f"mode = {mode}\n",
        encoding="utf-8",
    )
    simulate = ["simulate", "--config", str(cfg), "--out-csv", str(work / "t.csv"),
                "--out-report", str(work / "r.txt")]
    runs = [
        simulate + (["--uncontrolled"] if uncontrolled else []),
        ["sweep", "--config", str(cfg), "--K=" + ",".join(map(repr, gains)),
         "--epsilon=" + ",".join(map(repr, thresholds)), "--modes", mode,
         "--out", str(work / "sweep.csv")],
    ]
    for argv in runs:
        code, _, err = dispatch_captured(argv)
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err
