import builtins
import contextlib
import io
import os
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rabinovich import cli, equilibria, jacobian, read_trajectory_csv
from rabinovich import io as rio
from rabinovich.cli import cli_dispatch
from rabinovich.config import _FLOAT_KEYS, ConfigError, default_config, parse_config
from pins import PINS, digest


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

def gain_cfg(tmp_path, text):
    """The path of a config of text, for gain-check to read."""
    cfg = tmp_path / "gain.cfg"
    cfg.write_text(text, encoding="utf-8")
    return str(cfg)


def test_gain_check_reference_pair(capsys, tmp_path):
    cfg = gain_cfg(tmp_path, "d = 1\nK = -0.6\n")
    code, out, _ = run_cli(capsys, "gain-check", "--config", cfg)
    assert code == 0
    assert "(-1, 0)" in out
    assert "K inside: yes" in out
    assert "+0.2" in out
    assert "discrete check (spectral radius < 1): PASS" in out
    assert "continuous check (max Re < 0): FAIL" in out
    assert "criteria disagree" in out  # the explanatory note


def test_gain_check_agreeing_pair_has_no_note(capsys, tmp_path):
    # K=-0.4 at d=1: coefficient -0.2, both checks pass
    cfg = gain_cfg(tmp_path, "d = 1\nK = -0.4\n")
    code, out, _ = run_cli(capsys, "gain-check", "--config", cfg)
    assert code == 0
    assert "discrete check (spectral radius < 1): PASS" in out
    assert "continuous check (max Re < 0): PASS" in out
    assert "disagree" not in out


def test_gain_check_outside_interval(capsys, tmp_path):
    cfg = gain_cfg(tmp_path, "d = 1\nK = 0.5\n")
    code, out, _ = run_cli(capsys, "gain-check", "--config", cfg)
    assert code == 0
    assert "K inside: no" in out
    assert "discrete check (spectral radius < 1): FAIL" in out


PASSES_UNSTABLE = (
    "note: the two criteria disagree for this (d, K): the gain passes the discrete-style "
    "spectral-radius test while the continuous-time linearization is unstable.\n"
)
FAILS_STABLE = (
    "note: the two criteria disagree for this (d, K): the gain fails the discrete-style "
    "spectral-radius test while the continuous-time linearization is stable.\n"
)
DEFAULT_GAIN_CHECK = (
    "gain K = -0.6 at d = 1\n"
    "admissible interval: (-1, 0) -> K inside: yes\n"
    "closed-loop coefficient -d - K(d+1) = +0.2\n"
    "discrete check (spectral radius < 1): PASS (rho = 0.2)\n"
    "continuous check (max Re < 0): FAIL (max Re = +0.2)\n" + PASSES_UNSTABLE
)


# stdout byte for byte for the config's (d, K): on both sides of each check,
# at the interval's endpoints, at a K that six digits print as the interval's
# bound, and with no config (pinned by sha256 as gain-check.stdout in tests/pins.py)
GAIN_CHECK_PINS = [
    (("1", "-0.6"), DEFAULT_GAIN_CHECK),
    (("1", "-0.4"),
     "gain K = -0.4 at d = 1\n"
     "admissible interval: (-1, 0) -> K inside: yes\n"
     "closed-loop coefficient -d - K(d+1) = -0.2\n"
     "discrete check (spectral radius < 1): PASS (rho = 0.2)\n"
     "continuous check (max Re < 0): PASS (max Re = -0.2)\n"),
    (("1", "0.5"),
     "gain K = 0.5 at d = 1\n"
     "admissible interval: (-1, 0) -> K inside: no\n"
     "closed-loop coefficient -d - K(d+1) = -2\n"
     "discrete check (spectral radius < 1): FAIL (rho = 2)\n"
     "continuous check (max Re < 0): PASS (max Re = -2)\n" + FAILS_STABLE),
    (("0.5", "-0.9"),
     "gain K = -0.9 at d = 0.5\n"
     "admissible interval: (-1, 0.3333333333333333) -> K inside: yes\n"
     "closed-loop coefficient -d - K(d+1) = +0.85\n"
     "discrete check (spectral radius < 1): PASS (rho = 0.85)\n"
     "continuous check (max Re < 0): FAIL (max Re = +0.85)\n" + PASSES_UNSTABLE),
    (("3", "-0.2"),
     "gain K = -0.2 at d = 3\n"
     "admissible interval: (-1, -0.5) -> K inside: no\n"
     "closed-loop coefficient -d - K(d+1) = -2.2\n"
     "discrete check (spectral radius < 1): FAIL (rho = 2.2)\n"
     "continuous check (max Re < 0): PASS (max Re = -2.2)\n" + FAILS_STABLE),
    (("1e7", "-0.9999999"),
     "gain K = -0.9999999 at d = 1e+07\n"
     "admissible interval: (-1, -0.99999980000002) -> K inside: yes\n"
     "closed-loop coefficient -d - K(d+1) = -9.87202e-08\n"
     "discrete check (spectral radius < 1): PASS (rho = 9.87202e-08)\n"
     "continuous check (max Re < 0): PASS (max Re = -9.87202e-08)\n"),
    (("1", "-1"),
     "gain K = -1 at d = 1\n"
     "admissible interval: (-1, 0) -> K inside: no\n"
     "closed-loop coefficient -d - K(d+1) = +1\n"
     "discrete check (spectral radius < 1): FAIL (rho = 1)\n"
     "continuous check (max Re < 0): FAIL (max Re = +1)\n"),
    (("2", "0"),
     "gain K = 0 at d = 2\n"
     "admissible interval: (-1, -0.3333333333333333) -> K inside: no\n"
     "closed-loop coefficient -d - K(d+1) = -2\n"
     "discrete check (spectral radius < 1): FAIL (rho = 2)\n"
     "continuous check (max Re < 0): PASS (max Re = -2)\n" + FAILS_STABLE),
    (("0.25", "0.3"),
     "gain K = 0.3 at d = 0.25\n"
     "admissible interval: (-1, 0.6) -> K inside: yes\n"
     "closed-loop coefficient -d - K(d+1) = -0.625\n"
     "discrete check (spectral radius < 1): PASS (rho = 0.625)\n"
     "continuous check (max Re < 0): PASS (max Re = -0.625)\n"),
    ((), DEFAULT_GAIN_CHECK),
]


@pytest.mark.parametrize("d_K, expected", GAIN_CHECK_PINS, ids=[
    "d={},K={}".format(*d_K) if d_K else "defaults" for d_K, _ in GAIN_CHECK_PINS
])
def test_gain_check_output_is_pinned(capsys, tmp_path, d_K, expected):
    argv = ["--config", gain_cfg(tmp_path, "d = {}\nK = {}\n".format(*d_K))] if d_K else []
    assert run_cli(capsys, "gain-check", *argv) == (0, expected, "")


def test_gain_check_states_its_discrete_check_once_near_zero(capsys, tmp_path):
    # m = -1 - 2K rounds to -1 for -2.8e-17 < K < 0, so |m| < 1 would fail
    # what K inside passes; both lines print the one test of K
    cfg = gain_cfg(tmp_path, "K = -1e-17\n")
    assert run_cli(capsys, "gain-check", "--config", cfg) == (0, (
        "gain K = -1e-17 at d = 1\n"
        "admissible interval: (-1, 0) -> K inside: yes\n"
        "closed-loop coefficient -d - K(d+1) = -1\n"
        "discrete check (spectral radius < 1): PASS (rho = 1)\n"
        "continuous check (max Re < 0): PASS (max Re = -1)\n"
    ), "")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, expected", [
    # the euler gain K*tau = 1e307 keeps the config's jacobian finite, and
    # the literal coefficient overflows
    ("mode = euler\ntau = 0.1\nK = 1e308\n",
     "error: K = 1e+308 is too large: the coefficient A + K(A - 1) overflows\n"),
    # h^2 <= ab leaves only the origin, so no x* overflows at this d
    ("d = 1e308\nh = 1\n",
     "error: d = 1e+308 is too large: the interval bound (1-d)/(d+1) rounds to -1\n"),
], ids=["K-1e308", "d-1e308"])
def test_gain_check_overflow_errors_are_pinned(capsys, tmp_path, text, expected):
    assert run_cli(capsys, "gain-check", "--config", gain_cfg(tmp_path, text)) == (1, "", expected)


def test_gain_check_rejects_bad_d(capsys, tmp_path):
    code, _, err = run_cli(capsys, "gain-check", "--config", gain_cfg(tmp_path, "d = -1\n"))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("option", [["--d", "1"], ["--K", "-0.6"]], ids=["d", "K"])
def test_gain_check_takes_d_and_K_from_the_config_only(capsys, option):
    code, out, err = run_cli(capsys, "gain-check", *option)
    assert (code, out) == (1, "")
    assert "unrecognized arguments" in err


def test_inputs_and_bounds_echo_distinct_numbers_distinctly(capsys, tmp_path):
    # 6 significant digits print both K and the upper bound as -1
    code, out, _ = run_cli(capsys, "gain-check",
                           "--config", gain_cfg(tmp_path, "d = 1e7\nK = -0.9999999\n"))
    assert code == 0
    assert out.startswith(
        "gain K = -0.9999999 at d = 1e+07\n"
        "admissible interval: (-1, -0.99999980000002) -> K inside: yes\n"
    )
    cfg = tmp_path / "gain.cfg"
    cfg.write_text("K = -0.9999999\n")
    code, out, _ = run_cli(capsys, "equilibria", "--config", str(cfg))
    assert code == 0
    assert out.count("open-loop jacobian: max Re = ") == 3
    assert out.count("controlled (K=-0.9999999) jacobian: max Re = ") == 3
    # numbers that 6 digits hold print as before
    code, out, _ = run_cli(capsys, "gain-check")
    assert out.startswith("gain K = -0.6 at d = 1\nadmissible interval: (-1, 0) -> K inside: yes\n")


def test_parser_is_reused_across_calls(capsys, tmp_path):
    cfg = gain_cfg(tmp_path, "K = -0.4\n")
    first = run_cli(capsys, "gain-check", "--config", cfg)
    code, _, err = run_cli(capsys, "gain-check", "--K", "abc")
    assert code == 1
    assert "--K" in err
    third = run_cli(capsys, "gain-check", "--config", cfg)
    assert first == third
    assert third[0] == 0 and third[2] == ""


def test_value_options_are_the_eight_that_take_a_value():
    # Read from the parser's actions, so a Python whose argparse keeps them
    # elsewhere fails here, not deep in a parse.
    assert cli._VALUE_OPTIONS == {"--K", "--epsilon", "--config", "--modes",
                                  "--out", "--out-csv", "--out-report", "--out-dir"}


# Each subcommand with every option it has spelled in full (--help aside),
# in arguments that run, relative to a directory holding short.cfg; the gain
# that equilibria linearizes with and gain-check checks is the config's.
SHORT_CFG = "t_end = 30\nt_on = 10\ntail = 10\nK = -0.6\n"
FULL_ARGV = {
    "equilibria": ["--config", "short.cfg"],
    "simulate": ["--config", "short.cfg", "--uncontrolled",
                 "--out-csv", "sim.csv", "--out-report", "sim.txt"],
    "gain-check": ["--config", "short.cfg"],
    "sweep": ["--config", "short.cfg", "--K", "-0.6", "--epsilon", "0.1",
              "--modes", "euler", "--out", "sweep.csv"],
    "reproduce": ["fig4", "--out-dir", "."],
}
ABBREVIATED = [
    (command, option, option[:n])
    for command, argv in FULL_ARGV.items()
    for option in [tok for tok in argv if tok.startswith("--")] + ["--help"]
    for n in range(3, len(option))
]


@pytest.mark.parametrize("command, option, prefix", ABBREVIATED,
                         ids=[f"{c}-{p}-of-{o[2:]}" for c, o, p in ABBREVIATED])
def test_an_abbreviated_option_is_unknown(capsys, tmp_path, command, option, prefix):
    (tmp_path / "short.cfg").write_text(SHORT_CFG, encoding="utf-8")
    argv = [prefix if tok == option else tok for tok in FULL_ARGV[command]]
    if option == "--help":
        argv.append(prefix)
    code, out, _ = run_cli(capsys, command, *argv)
    assert (code, out) == (1, "")
    assert os.listdir(tmp_path) == ["short.cfg"]


@pytest.mark.parametrize("command", FULL_ARGV)
def test_each_command_runs_with_its_options_spelled_in_full(capsys, tmp_path, command):
    (tmp_path / "short.cfg").write_text(SHORT_CFG, encoding="utf-8")
    code, _, err = run_cli(capsys, command, *FULL_ARGV[command])
    assert code == 0, err


# --- equilibria --------------------------------------------------------------------

def test_equilibria_lists_reference_points(capsys):
    code, out, _ = run_cli(capsys, "equilibria")
    assert code == 0
    assert "origin: (0.0000, 0.0000, 0.0000)" in out
    assert "positive-x: (4.6119, 1.3979, 6.4469)" in out
    assert "negative-x: (-4.6119, -1.3979, 6.4469)" in out
    # per-point verdicts, open loop and with the default gain
    assert out.count("open-loop jacobian: max Re = ") == 3
    assert out.count("controlled (K=-0.6) jacobian: max Re = ") == 3
    assert out.count("  controlled (K=-0.6) jacobian: max Re = +0.439018 -> unstable (continuous)\n") == 2


def _equilibria_max_re(out):
    """The open-loop and controlled max Re texts of each point, in order."""
    lines = out.splitlines()
    return [
        (lines[i + 1].split("max Re = ")[1], lines[i + 2].split("max Re = ")[1])
        for i, line in enumerate(lines)
        if "residual = " in line
    ]


def test_equilibria_zero_gain_prints_the_open_loop_numbers_twice(capsys, tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("K = 0\n")
    code, out, _ = run_cli(capsys, "equilibria", "--config", str(cfg))
    assert code == 0
    pairs = _equilibria_max_re(out)
    assert len(pairs) == 3
    for open_loop, controlled in pairs:
        assert open_loop == controlled


def test_equilibria_open_loop_number_is_the_jacobians_max_re(capsys):
    p = default_config().params
    code, out, _ = run_cli(capsys, "equilibria")
    assert code == 0
    pairs = _equilibria_max_re(out)
    points = equilibria(p).points
    assert len(pairs) == len(points) == 3
    for (open_loop, _), point in zip(pairs, points):
        max_re = np.linalg.eigvals(jacobian(p, point)).real.max()
        assert open_loop.startswith(format(max_re, "+.6g") + " -> ")


def test_equilibria_linearizes_the_euler_law(capsys, tmp_path):
    # (1+K*tau)(xy - dz) at K = 0.6: unstable until K is about 0.84, while the
    # literal law's row at the same gain reads -0.202776 -> stable
    cfg = tmp_path / "euler.cfg"
    cfg.write_text("mode = euler\nK = 0.6\n")
    code, out, _ = run_cli(capsys, "equilibria", "--config", str(cfg))
    assert code == 0
    assert out.count("controlled (K=0.6) jacobian: max Re = +0.0549647 -> unstable (continuous)") == 2
    cfg.write_text("K = 0.6\n")
    code, out, _ = run_cli(capsys, "equilibria", "--config", str(cfg))
    assert out.count("controlled (K=0.6) jacobian: max Re = -0.202776 -> stable (continuous)") == 2
    # the euler gain is K*tau: tau = 0.5 halves it
    cfg.write_text("mode = euler\nK = 0.6\ntau = 0.5\n")
    code, out, _ = run_cli(capsys, "equilibria", "--config", str(cfg))
    assert out.count("controlled (K=0.6) jacobian: max Re = +0.114363 -> unstable (continuous)") == 2


@pytest.mark.parametrize("mode, gain, expected", [
    ("euler", "", "K = -0.6 with tau = 1e+308"),
    ("euler", "K = 10", "K = 10.0 with tau = 1e+308"),
    ("literal", "K = 1e308", "K = 1e+308"),
], ids=["euler-K=-0.6", "euler-K=10", "literal-K=1e308"])
def test_equilibria_overflow_names_the_gain_of_its_mode(capsys, tmp_path, mode, gain, expected):
    # In euler mode the gain is K*tau, so a tau this large overflows the row;
    # in literal mode the gain is K alone.
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"t_end = 1.5e308\ndt = 1e307\ntau = 1e308\nmode = {mode}\nt_on = 0\n"
                   f"tail = 1e307\n{gain}\n")
    assert run_cli(capsys, "equilibria", "--config", str(cfg)) == (
        1, "", f"error: {expected} is too large: the controlled jacobian overflows\n")


def test_equilibria_takes_its_gain_from_the_config_only(capsys):
    code, out, err = run_cli(capsys, "equilibria", "--K", "0.5")
    assert (code, out) == (1, "")
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("text, expected", [
    (b"K = -0.6\xff\n", "error: line 1: K: not a number: '-0.6\\udcff'\n"),
    (b"t_end = 30\nK\xff = 1\n", "error: line 2: unknown key 'K\\udcff'\n"),
], ids=["value", "key"])
def test_config_byte_that_is_not_utf8_fails_its_line(capsys, tmp_path, text, expected):
    cfg = tmp_path / "bytes.cfg"
    cfg.write_bytes(text)
    assert run_cli(capsys, "equilibria", "--config", str(cfg)) == (1, "", expected)


def test_config_byte_that_is_not_utf8_in_a_comment_is_dropped_with_it(capsys, tmp_path):
    cfg = tmp_path / "comment.cfg"
    cfg.write_bytes(b"# gain \xff\nK = 0 # \xfe\n")
    code, out, err = run_cli(capsys, "equilibria", "--config", str(cfg))
    assert (code, err) == (0, "")
    assert out.count("controlled (K=0) jacobian: max Re = ") == 3


def test_equilibria_degenerate_parameters(capsys, tmp_path):
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text("h = 1\n")  # h^2 <= ab
    code, out, _ = run_cli(capsys, "equilibria", "--config", str(cfg))
    assert code == 0
    assert "only the origin" in out
    assert "positive-x" not in out


# --- simulate ----------------------------------------------------------------------

def test_simulate_with_defaults(capsys, tmp_path):
    # with no options, the outputs go to their default paths in the working directory
    code, out, err = run_cli(capsys, "simulate")
    assert code == 0
    assert err == "wrote trajectory.csv and report.txt\n"
    assert sorted(os.listdir(tmp_path)) == ["report.txt", "trajectory.csv"]
    assert "run summary" in out
    assert "target:" in out
    traj = read_trajectory_csv(str(tmp_path / "trajectory.csv"))
    assert traj.n_samples == 2001


def test_simulate_uncontrolled_flag(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "simulate", "--uncontrolled",
                           "--out-csv", "free.csv", "--out-report", "free.txt")
    assert code == 0
    assert "control: off" in out
    traj = read_trajectory_csv(str(tmp_path / "free.csv"))
    assert not traj.active.any()


def test_simulate_report_echoes_the_configured_grid(capsys, tmp_path):
    # the samples' own spacing is not dt everywhere: t[-1] - t[-2] is
    # 0.09999999999999432 here
    (tmp_path / "run.cfg").write_text("t_end = 200.3\n")
    code, out, _ = run_cli(capsys, "simulate", "--config", "run.cfg")
    assert code == 0
    assert "\ndt = 0.10000000000000001\n" in out
    assert "\nt_end = 200.30000000000001\n" in out
    assert (tmp_path / "report.txt").read_text() == out


@pytest.mark.parametrize("csv_path, report_path", [
    ("same.txt", "same.txt"), ("same.txt", "./same.txt"), ("sub/../same.txt", "same.txt"),
])
def test_simulate_same_output_file_exits_one_before_running(
        capsys, tmp_path, csv_path, report_path):
    (tmp_path / "sub").mkdir()
    code, out, err = run_cli(
        capsys, "simulate", "--out-csv", csv_path, "--out-report", report_path,
    )
    assert code == 1
    assert err == (
        f"error: --out-csv ({csv_path!r}) and --out-report ({report_path!r}) name the same file\n"
    )
    assert out == ""
    assert not (tmp_path / "same.txt").exists()


def test_simulate_option_that_names_the_other_default_exits_one(capsys, tmp_path):
    (tmp_path / "report.txt").write_text("kept\n")
    code, out, err = run_cli(capsys, "simulate", "--out-csv", "report.txt")
    assert code == 1
    assert err == (
        "error: --out-csv ('report.txt') and --out-report ('report.txt') name the same file\n"
    )
    assert out == ""
    assert os.listdir(tmp_path) == ["report.txt"]
    assert (tmp_path / "report.txt").read_text() == "kept\n"


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


def test_simulate_initial_state_beyond_the_limit_exits_one(capsys, tmp_path):
    cfg = tmp_path / "far.cfg"
    cfg.write_text("x0 = 1e7\n")
    code, out, err = run_cli(
        capsys, "simulate", "--config", str(cfg),
        "--out-csv", str(tmp_path / "t.csv"), "--out-report", str(tmp_path / "r.txt"),
    )
    # not exit 2 with "integration aborted at step 0"
    assert (code, out) == (1, "")
    assert err == "error: x0 must be at most 1e+06 in magnitude, got 10000000.0\n"
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


@pytest.mark.filterwarnings("error")
def test_simulate_grid_whose_last_time_overflows_exits_one(capsys, tmp_path):
    # t_end / dt is within 1e-9 of 3, but the last time 3 * dt is inf
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("t_end = 1.7976931348623157e308\ndt = 5.992310449541053e307\n"
                   "tau = 5.992310449541053e307\ntail = 1e307\nt_on = 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    assert err == "error: t_end = 1.7976931348623157e+308 is too large: 3 * dt overflows\n"
    assert out == "" and os.listdir(tmp_path) == ["huge.cfg"]


@pytest.mark.parametrize("text, error", [
    ("tau = 300\n", "tau (300.0) must be shorter than the run span (200.0)"),
    ("tau = 200\n", "tau (200.0) must be shorter than the run span (200.0)"),
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


def test_simulate_divergence_exits_two(capsys, tmp_path):
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text("K = 20\nepsilon = 1e9\nt_on = 0\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert "aborted at step" in err


def test_simulate_non_finite_row_error_is_pinned(capsys, tmp_path):
    # a gain of 1e200 overflows the control term inside the first open step;
    # the error names the row that step leaves non-finite, and its time
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text("t_end = 100\ndt = 0.1\nK = 1e200\nepsilon = 1e9\nt_on = 0\n")
    assert run_cli(capsys, "simulate", "--config", str(cfg)) == (
        2, "", "error: integration aborted at step 11 (t=1.1): non-finite state component\n")
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("argv", [
    ("simulate",),
    ("sweep", "--K=-0.6", "--epsilon", "0.1"),
    ("equilibria",),
], ids=["simulate", "sweep", "equilibria"])
def test_config_gain_that_overflows_the_jacobian_is_refused_before_any_run(
        capsys, tmp_path, argv):
    # the gate never opens on this protocol, so a run would not notice the gain
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("K = 1e308\n")
    assert run_cli(capsys, *argv, "--config", str(cfg)) == (
        1, "", "error: K = 1e+308 is too large: the controlled jacobian overflows\n")
    assert list(tmp_path.iterdir()) == [cfg]


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


def test_sweep_readme_example_with_negative_gains(capsys, tmp_path):
    # the README's command, negative list after a space, default --out
    code, out, err = run_cli(capsys, "sweep", "--K", "-0.9,-0.6,-0.3",
                             "--epsilon", "0.1,0.5", "--modes", "literal,euler")
    assert code == 0, err
    assert "12 cells" in out
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 13  # header + 2 modes * 3 gains * 2 epsilons
    assert [float(line.split(",")[0]) for line in lines[1:4:2]] == [-0.9, -0.6]


def test_sweep_takes_a_negative_list_with_no_leading_zero(capsys, tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("t_end = 30\nt_on = 10\ntail = 10\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--K", "-.5,-.3",
                             "--epsilon", "0.1", "--out", str(tmp_path / "s.csv"))
    assert code == 0, err
    assert out == "2 cells, 0 stabilized\n"


def test_sweep_negative_epsilon_list_names_the_field(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--K", "-0.6", "--epsilon", "-0.1,0.5",
                           "--out", str(tmp_path / "s.csv"))
    assert code == 1
    assert err == "error: epsilon must be a positive finite number, got -0.1\n"


def test_sweep_writes_an_output_path_that_starts_with_a_dash(capsys, tmp_path):
    (tmp_path / "short.cfg").write_text("t_end = 100\ndt = 0.1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "sweep", "--config", "short.cfg", "--K", "-0.6",
                             "--epsilon", "0.1", "--out", "-x.csv")
    assert code == 0, err
    assert err == "wrote -x.csv\n"
    assert (tmp_path / "-x.csv").read_text(encoding="utf-8").startswith("K,epsilon,mode,")


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


@pytest.mark.parametrize("option", ["--K", "--epsilon", "--modes"])
def test_sweep_rejects_a_list_of_no_items(capsys, tmp_path, option):
    argv = {"--K": "-0.6", "--epsilon": "0.1", "--modes": "literal", option: ","}
    code, _, err = run_cli(capsys, "sweep", *(f"{k}={v}" for k, v in argv.items()),
                           "--out", str(tmp_path / "s.csv"))
    assert code == 1
    assert err == f"error: {option.lstrip('-')}: empty list\n"
    assert not (tmp_path / "s.csv").exists()


def test_sweep_rejects_unknown_mode(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--K=-0.6", "--epsilon", "0.1",
                           "--modes", "rk4", "--out", str(tmp_path / "s.csv"))
    assert code == 1
    assert "modes" in err


@pytest.mark.parametrize("modes, written", [([], "euler"), (["--modes", "literal"], "literal")])
def test_sweep_takes_the_mode_from_the_config_unless_given(capsys, tmp_path, modes, written):
    cfg = tmp_path / "euler.cfg"
    cfg.write_text("t_end = 30\nt_on = 10\ntail = 10\nmode = euler\n")
    out_path = tmp_path / "s.csv"
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--K=-0.3", "--epsilon", "5",
                           *modes, "--out", str(out_path))
    assert code == 0, err
    header, row = out_path.read_text().splitlines()
    assert header.split(",")[2] == "mode" and row.split(",")[2] == written


def test_sweep_runs_a_d_whose_gain_interval_bound_rounds_to_minus_one(capsys, tmp_path):
    # (1-d)/(d+1) rounds to -1 at d = 1e16; the sweep does not need the
    # interval, and records the cell's divergence (at step 1) as empty outcomes
    cfg = tmp_path / "big_d.cfg"
    cfg.write_text("d = 1e16\nt_end = 10\nt_on = 2\ntail = 2\n", encoding="utf-8")
    out_path = tmp_path / "s.csv"
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--K=-0.6",
                             "--epsilon", "0.1", "--out", str(out_path))
    assert code == 0, err
    assert out == "1 cells, 0 stabilized\n"
    _, row = out_path.read_text(encoding="utf-8").splitlines()
    assert row.split(",")[2:] == ["literal", "", "", "", "", ""]


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


@pytest.mark.parametrize("epsilon, written", [
    # fig5's gate never opens either: fig4's run, handed on, written to both paths at once
    (0.1, [["fig4", "fig5"]]),
    # both open, at t = 132.4: the same bytes, from two runs, each written alone
    (0.5, [["fig4"], ["fig5"]]),
])
def test_reproduce_writes_a_shared_run_to_all_its_paths_at_once(
    capsys, tmp_path, monkeypatch, epsilon, written
):
    base = default_config()
    monkeypatch.setattr(cli, "default_config", lambda: replace(
        base, controller=replace(base.controller, epsilon=epsilon)))
    calls, write = [], cli.write_trajectory_csv

    def recorded(traj, *paths):
        calls.append([os.path.basename(path) for path in paths])
        write(traj, *paths)

    monkeypatch.setattr(cli, "write_trajectory_csv", recorded)
    code, _, _ = run_cli(capsys, "reproduce", "all", "--out-dir", str(tmp_path))
    assert code == 0
    assert calls == [[f"{name}_trajectory.csv" for name in names] for names in written]
    fig4 = (tmp_path / "fig4_trajectory.csv").read_bytes()
    assert (tmp_path / "fig5_trajectory.csv").read_bytes() == fig4


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_reproduce_writes_fig5_in_full_when_fig4s_csv_is_dev_null(capsys, tmp_path):
    # fig5's CSV does not depend on what fig4's path reads back as
    (tmp_path / "fig4_trajectory.csv").symlink_to("/dev/null")
    code, _, _ = run_cli(capsys, "reproduce", "all", "--out-dir", str(tmp_path))
    assert code == 0
    fig5 = (tmp_path / "fig5_trajectory.csv").read_bytes()
    assert digest(fig5) == PINS["fig5_trajectory.csv"].sha256
    assert os.path.islink(tmp_path / "fig4_trajectory.csv")


def test_reproduce_rejects_unknown_preset(capsys, tmp_path):
    code, _, err = run_cli(capsys, "reproduce", "fig9", "--out-dir", str(tmp_path))
    assert code == 1


def test_reproduce_missing_directory_exits_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "reproduce", "fig4",
                           "--out-dir", str(tmp_path / "missing"))
    assert code == 1
    missing = str(tmp_path / "missing")
    assert err == (
        f"error: --out-dir: directory {missing!r} of"
        f" {os.path.join(missing, 'fig4_trajectory.csv')!r} does not exist\n"
    )


def test_reproduce_out_dir_that_is_a_file_exits_one(capsys, tmp_path):
    path = tmp_path / "file"
    path.write_text("kept\n")
    code, out, err = run_cli(capsys, "reproduce", "all", "--out-dir", str(path))
    assert code == 1
    assert err == (
        f"error: --out-dir: {str(path)!r} of"
        f" {str(path / 'fig4_trajectory.csv')!r} is not a directory\n"
    )
    assert out == "" and path.read_text() == "kept\n"


@pytest.mark.parametrize("link, target", [
    # fig5's report would be written over fig4's, and the run exit 0
    ("fig5_report.txt", "fig4_report.txt"),
    # fig4's CSV would be written, and fig5's copy of it then fail
    ("fig5_trajectory.csv", "fig4_trajectory.csv"),
])
@pytest.mark.parametrize("target_exists", [True, False])
def test_reproduce_outputs_that_name_the_same_file_fail_before_any_run(
    capsys, tmp_path, runs, link, target, target_exists
):
    if target_exists:
        (tmp_path / target).write_text("kept\n")
    (tmp_path / link).symlink_to(target)
    before = _files(tmp_path)
    code, out, err = run_cli(capsys, "reproduce", "all", "--out-dir", str(tmp_path))
    assert code == 1
    first, second = sorted((str(tmp_path / target), str(tmp_path / link)))
    assert err == f"error: --out-dir ({first!r}) and --out-dir ({second!r}) name the same file\n"
    assert out == "" and runs == []
    assert _files(tmp_path) == before
    if target_exists:
        assert (tmp_path / target).read_text() == "kept\n"


def test_reproduce_writes_every_file_through_the_sink(capsys, tmp_path, monkeypatch):
    # and opens no output for reading: fig5's CSV is not a copy of fig4's file
    writes, real, opened = [], rio._sink, []

    @contextlib.contextmanager
    def sink(dest):
        with real(dest) as write:
            yield lambda data: writes.append((os.path.basename(dest), len(data))) or write(data)

    def recording(opener, mode_of):
        def opening(path, *args, **kwargs):
            opened.append((os.path.basename(path), mode_of(*args, **kwargs)))
            return opener(path, *args, **kwargs)
        return opening

    monkeypatch.setattr(rio, "_sink", sink)
    monkeypatch.setattr(builtins, "open", recording(builtins.open, lambda mode="r", *_, **__: mode))
    monkeypatch.setattr(os, "open", recording(os.open, lambda flags, *_: flags & os.O_ACCMODE))
    code = cli_dispatch(["reproduce", "all", "--out-dir", str(tmp_path)])
    monkeypatch.undo()
    assert code == 0
    names = sorted(path.name for path in tmp_path.iterdir())
    assert len(names) == 4
    for path in tmp_path.iterdir():
        assert sum(size for name, size in writes if name == path.name) == path.stat().st_size
    assert sorted(opened) == [(name, os.O_WRONLY) for name in names]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [
    ["simulate", "--config", "{cfg}", "--out-csv", "/dev/full", "--out-report", "{tmp}/r.txt"],
    ["simulate", "--config", "{cfg}", "--out-csv", "{tmp}/a.csv", "--out-report", "/dev/full"],
    ["sweep", "--config", "{cfg}", "--K=-0.6,-0.3", "--epsilon", "0.1", "--out", "/dev/full"],
])
def test_failed_write_names_its_file(capsys, tmp_path, args):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("t_end = 10\ntail = 5\nt_on = 2\n")
    code, _, err = run_cli(capsys, *(a.format(cfg=cfg, tmp=tmp_path) for a in args))
    assert code == 1
    assert err == "error: /dev/full: No space left on device\n"


@pytest.fixture
def runs(monkeypatch):
    """The names of the run functions the CLI called."""
    called = []
    for name in ("run_each", "sweep"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: called.append(name))
    return called


def _files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*"))


@pytest.mark.parametrize("args, option, bad", [
    (["simulate", "--out-csv", "{missing}/a.csv", "--out-report", "{tmp}/r.txt"],
     "--out-csv", "{missing}/a.csv"),
    (["simulate", "--out-csv", "{tmp}/a.csv", "--out-report", "{missing}/r.txt"],
     "--out-report", "{missing}/r.txt"),
    # one option alone: the other path, at its default, does not hide it
    (["simulate", "--uncontrolled", "--out-csv", "{missing}/a.csv"],
     "--out-csv", "{missing}/a.csv"),
    (["simulate", "--out-report", "{missing}/r.txt"], "--out-report", "{missing}/r.txt"),
    (["sweep", "--K", "-0.6,-0.3", "--epsilon", "0.1", "--out", "{missing}/s.csv"],
     "--out", "{missing}/s.csv"),
    (["reproduce", "all", "--out-dir", "{missing}"], "--out-dir", "{missing}"),
    (["simulate", "--out-csv", "{tmp}", "--out-report", "{tmp}/r.txt"], "--out-csv", "{tmp}"),
    (["sweep", "--K", "-0.6", "--epsilon", "0.1", "--out", "{tmp}"], "--out", "{tmp}"),
    (["sweep", "--K", "-0.6,-0.3", "--epsilon", "0.1", "--out", ""], "--out", ""),
    (["simulate", "--out-report", ""], "--out-report", ""),
    (["simulate", "--out-csv", "", "--out-report", "{tmp}/r.txt"], "--out-csv", ""),
    (["simulate", "--out-csv", "{tmp}/a.csv", "--out-report", ""], "--out-report", ""),
    # joined, its paths would name files in the current directory
    (["reproduce", "all", "--out-dir", ""], "--out-dir", ""),
])
def test_output_that_cannot_be_written_fails_before_any_run(
    capsys, tmp_path, runs, args, option, bad
):
    paths = {"tmp": tmp_path, "missing": tmp_path / "missing"}
    before = _files(tmp_path)
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in args))
    assert code == 1
    assert err.startswith(f"error: {option}: ") and repr(bad.format(**paths)) in err
    assert out == ""
    assert runs == []
    assert _files(tmp_path) == before


@pytest.mark.parametrize("args, option, bad", [
    (["simulate", "--out-csv", "{file}/a.csv", "--out-report", "{tmp}/r.txt"],
     "--out-csv", "{file}/a.csv"),
    (["simulate", "--out-csv", "{tmp}/a.csv", "--out-report", "{file}/r.txt"],
     "--out-report", "{file}/r.txt"),
    (["sweep", "--K", "-0.6,-0.3", "--epsilon", "0.1", "--out", "{file}/s.csv"],
     "--out", "{file}/s.csv"),
])
def test_output_whose_folder_is_a_file_exits_one(capsys, tmp_path, runs, args, option, bad):
    path = tmp_path / "file"
    path.write_text("kept\n")
    paths = {"tmp": tmp_path, "file": path}
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in args))
    assert code == 1
    assert err == f"error: {option}: {str(path)!r} of {bad.format(**paths)!r} is not a directory\n"
    assert out == "" and runs == []
    assert path.read_text() == "kept\n" and _files(tmp_path) == [path.relative_to(tmp_path)]


@pytest.mark.parametrize("args, option, own", [
    (["simulate", "--config", "{cfg}", "--out-csv", "{cfg}", "--out-report", "{tmp}/r.txt"],
     "--out-csv", "{cfg}"),
    (["simulate", "--config", "{cfg}", "--out-csv", "{tmp}/a.csv", "--out-report", "{cfg}"],
     "--out-report", "{cfg}"),
    (["simulate", "--config", "{cfg}", "--out-csv", "{cfg}"], "--out-csv", "{cfg}"),
    (["sweep", "--config", "{cfg}", "--K=-0.6", "--epsilon", "0.1", "--out", "{cfg}"],
     "--out", "{cfg}"),
    (["sweep", "--config", "{cfg}", "--K=-0.6", "--epsilon", "0.1", "--out", "{link}"],
     "--out", "{link}"),
    (["simulate", "--config", "{link}", "--out-csv", "{cfg}", "--out-report", "{tmp}/r.txt"],
     "--out-csv", "{cfg}"),
])
def test_output_that_names_the_config_fails_before_any_run(
    capsys, tmp_path, runs, args, option, own
):
    # else the run would write over the config, and the next run with it fail
    paths = {"tmp": tmp_path, "cfg": tmp_path / "run.cfg", "link": tmp_path / "link.cfg"}
    paths["cfg"].write_text("t_end = 30\nt_on = 10\ntail = 10\n")
    paths["link"].symlink_to(paths["cfg"])
    before, text = _files(tmp_path), paths["cfg"].read_bytes()
    argv = [arg.format(**paths) for arg in args]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    config = argv[argv.index("--config") + 1]
    assert err == (
        f"error: {option} ({own.format(**paths)!r}) and --config ({config!r}) name the same file\n"
    )
    assert out == "" and runs == []
    assert _files(tmp_path) == before and paths["cfg"].read_bytes() == text


@pytest.mark.parametrize("name", ["fig4_report.txt", "fig5_trajectory.csv"])
def test_reproduce_output_that_is_a_directory_fails_before_any_run(capsys, tmp_path, runs, name):
    (tmp_path / name).mkdir()
    code, out, err = run_cli(capsys, "reproduce", "all", "--out-dir", str(tmp_path))
    assert code == 1
    assert err == f"error: --out-dir: {str(tmp_path / name)!r} is a directory\n"
    assert out == "" and runs == []
    assert _files(tmp_path) == [tmp_path.joinpath(name).relative_to(tmp_path)]


# --- extreme inputs -------------------------------------------------------------------

EXTREME_DOUBLES = (
    0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, sys.float_info.max, -sys.float_info.max,
)


def dispatch_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(argv)
    return code, out.getvalue(), err.getvalue()


# Only RuntimeWarning, numpy's: an "error" mark would also turn the warnings of
# Hypothesis's own report hook into errors, and a failing draw crash pytest.
@pytest.mark.filterwarnings("error::RuntimeWarning")
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
    t_end, dt = (values.get(k, getattr(grid, k)) for k in ("t_end", "dt"))
    if dt > 0.0 and t_end > 0.0:
        assume(not 5000 <= t_end / dt <= 10**7)  # too slow for tier-1
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


coefficients = st.floats(min_value=0.0, max_value=1e150, exclude_min=True)


@given(a=coefficients, b=coefficients, d=coefficients, h=coefficients,
       K=st.floats(allow_nan=False, allow_infinity=False),
       mode=st.sampled_from(["literal", "euler"]), tau=st.sampled_from([0.1, 1.0, 100.0]))
# in euler mode -d + K*tau*(-d) is finite, and only the off-axis row overflows
@example(a=4.0, b=1.0, d=1.0, h=6.75, K=1e308, mode="euler", tau=1.0)
# at tau = 0.1 the euler row is finite, and the literal coefficient overflows
@example(a=4.0, b=1.0, d=1.0, h=6.75, K=1e308, mode="euler", tau=0.1)
def test_every_accepted_config_runs_equilibria_and_gain_check(tmp_path_factory, a, b, d, h, K,
                                                                mode, tau):
    # parse_config checks the gain at one fixed point only; each point of a
    # config it accepts linearizes, and equilibria prints 1 or 3 of them.
    # gain-check checks the literal law whatever the mode: it runs, or names
    # a d or a K too large for that law.
    text = f"a = {a!r}\nb = {b!r}\nd = {d!r}\nh = {h!r}\nK = {K!r}\nmode = {mode}\ntau = {tau!r}\n"
    try:
        parse_config(text)
    except ConfigError:
        return
    cfg = tmp_path_factory.getbasetemp() / "accepted.cfg"
    cfg.write_text(text, encoding="utf-8")
    code, out, err = dispatch_captured(["equilibria", "--config", str(cfg)])
    assert (code, err) == (0, "")
    assert out.count("residual = ") == (1 if "only the origin" in out else 3)
    code, out, err = dispatch_captured(["gain-check", "--config", str(cfg)])
    assert (code, err) in [
        (0, ""),
        (1, f"error: d = {d!r} is too large: the interval bound (1-d)/(d+1) rounds to -1\n"),
        (1, f"error: K = {K!r} is too large: the coefficient A + K(A - 1) overflows\n"),
    ]
    assert out.startswith("gain K = ") if code == 0 else out == ""
