"""Command-line front end.

Subcommands: equilibria, simulate, gain-check, sweep, reproduce.
Exit codes: 0 success, 1 configuration or usage error, 2 numerical failure.
stdout carries data, stderr carries diagnostics.
Options are spelled in full: --name value, or --name=value for a value starting "--".
Every path a command writes is checked, against the others and the config
read, before any run.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .config import ConfigError, RunConfig, default_config, parse_config
from .control import (
    admissible_gain_interval,
    closed_loop_jacobian,
    closed_loop_scalar_coeff,
    prediction_mode,
)
from .dynamics import equilibria, jacobian, residual_norm
from .harness import run_each, sweep
from .integrator import IntegrationError
from .io import render_report, write_report, write_sweep_csv, write_trajectory_csv

__all__ = ["cli_dispatch", "main", "REPRODUCE_PRESETS"]

# Canned activation times for the two standard demonstrations.
REPRODUCE_PRESETS = {"fig4": 40.0, "fig5": 100.0}

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _echo(x: float) -> str:
    """6 significant digits if they read back as x, else every digit of x."""
    short = _fmt(x)
    return short if float(short) == x else repr(float(x))


def _load_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return default_config()
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from exc
    return parse_config(text)


def _float_list(text: str, name: str) -> list:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{name}: expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{name}: empty list")
    return values


def _mode_list(text: str) -> list:
    modes = [prediction_mode(tok.strip(), "modes") for tok in text.split(",") if tok.strip()]
    if not modes:
        raise ConfigError("modes: empty list")
    return modes


def _jacobian_line(label: str, J) -> str:
    max_re = np.linalg.eigvals(J).real.max()
    return (
        f"  {label} jacobian: max Re = {format(max_re, '+.6g')}"
        f" -> {'stable' if max_re < 0.0 else 'unstable'} (continuous)"
    )


def _cmd_equilibria(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    p, ctl, eqs = cfg.params, cfg.controller, equilibria(cfg.params)
    controlled = f"controlled (K={_echo(ctl.K)})"
    lines = [f"parameters: a={_fmt(p.a)} b={_fmt(p.b)} d={_fmt(p.d)} h={_fmt(p.h)}"]
    if eqs.degenerate:
        lines.append("degenerate case (h^2 <= a*b): only the origin")
    for label, point in eqs.labeled():
        lines.append(
            f"{label}: ({point.x:.4f}, {point.y:.4f}, {point.z:.4f})"
            f"  residual = {format(residual_norm(p, point), '.3e')}"
        )
        lines.append(_jacobian_line("open-loop", jacobian(p, point)))
        lines.append(_jacobian_line(controlled, closed_loop_jacobian(p, ctl, point)))
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_gain_check(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    d, K = cfg.params.d, cfg.controller.K
    lo, hi = admissible_gain_interval(d)
    m = closed_loop_scalar_coeff(d, K)
    # |m| < 1 solved for K: exact at d = 1, where m rounds to -1 for -2.8e-17 < K < 0
    discrete_ok, continuous_ok = lo < K < hi, m < 0.0
    out = sys.stdout
    print(f"gain K = {_echo(K)} at d = {_echo(d)}", file=out)
    print(
        f"admissible interval: ({_echo(lo)}, {_echo(hi)})"
        f" -> K inside: {'yes' if discrete_ok else 'no'}",
        file=out,
    )
    print(f"closed-loop coefficient -d - K(d+1) = {format(m, '+.6g')}", file=out)
    print(
        f"discrete check (spectral radius < 1): "
        f"{'PASS' if discrete_ok else 'FAIL'} (rho = {_fmt(abs(m))})",
        file=out,
    )
    print(
        f"continuous check (max Re < 0): "
        f"{'PASS' if continuous_ok else 'FAIL'} (max Re = {format(m, '+.6g')})",
        file=out,
    )
    if discrete_ok != continuous_ok:
        print(
            "note: the two criteria disagree for this (d, K): the gain "
            f"{'passes' if discrete_ok else 'fails'} the discrete-style "
            "spectral-radius test while the continuous-time linearization is "
            f"{'stable' if continuous_ok else 'unstable'}.",
            file=out,
        )
    return EXIT_OK


def _check_outputs(outputs: Sequence[tuple], config: Optional[str]) -> None:
    """Raises, before any run, unless each (option, path) output is not
    empty, its directory exists and it is not a directory, and no two outputs,
    nor an output and the config read (if a regular file, so not /dev/stdin),
    name one file: a bad path must neither fail late nor overwrite an input."""
    for name, path in outputs:
        if not path:
            raise ConfigError(f"{name}: an output path cannot be empty, got {path!r}")
        folder = os.path.dirname(path) or os.curdir
        if not os.path.isdir(folder):
            if os.path.exists(folder):
                raise ConfigError(f"{name}: {folder!r} of {path!r} is not a directory")
            raise ConfigError(f"{name}: directory {folder!r} of {path!r} does not exist")
        if os.path.isdir(path):
            raise ConfigError(f"{name}: {path!r} is a directory")
    if config is not None and os.path.isfile(config):
        outputs = [*outputs, ("--config", config)]
    for (a, path_a), (b, path_b) in combinations(outputs, 2):
        try:
            same = os.path.samefile(path_a, path_b)
        except OSError:  # one of them does not exist yet; a symlink may lead to it
            same = os.path.realpath(path_a) == os.path.realpath(path_b)
        if same:
            raise ConfigError(f"{a} ({path_a!r}) and {b} ({path_b!r}) name the same file")


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    _check_outputs([("--out-csv", args.out_csv), ("--out-report", args.out_report)], args.config)
    controller = None if args.uncontrolled else cfg.controller
    (traj, report), = run_each(cfg.params, cfg.s0, cfg.grid, [controller], cfg.tail, cfg.capture_radius)
    if report is None:
        raise traj
    write_trajectory_csv(traj, args.out_csv)
    write_report(report, args.out_report)
    print(f"wrote {args.out_csv} and {args.out_report}", file=sys.stderr)
    sys.stdout.write(render_report(report))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    K_values = _float_list(args.K, "K")
    eps_values = _float_list(args.epsilon, "epsilon")
    modes = None if args.modes is None else _mode_list(args.modes)
    _check_outputs([("--out", args.out)], args.config)
    report = sweep(
        cfg.params,
        cfg.s0,
        cfg.grid,
        K_values,
        eps_values,
        cfg.controller,
        modes=modes,
        tail=cfg.tail,
        capture_radius=cfg.capture_radius,
    )
    write_sweep_csv(report, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    print(
        f"{len(report.cells)} cells, {len(report.stabilized_cells())} stabilized",
        file=sys.stdout,
    )
    return EXIT_OK


def _cmd_reproduce(args: argparse.Namespace) -> int:
    names = list(REPRODUCE_PRESETS) if args.preset == "all" else [args.preset]
    paths = [
        (os.path.join(args.out_dir, f"{name}_trajectory.csv"),
         os.path.join(args.out_dir, f"{name}_report.txt"))
        for name in names
    ]
    # An empty --out-dir would join to paths in the current directory.
    _check_outputs([("--out-dir", args.out_dir and path) for pair in paths for path in pair], None)
    base = default_config()
    cfgs = [replace(base.controller, t_on=REPRODUCE_PRESETS[name]) for name in names]
    # The presets differ only in t_on: at the default epsilon the gate never
    # opens, so run_each hands fig5 fig4's run, whose CSV goes to both paths.
    runs = list(run_each(base.params, base.s0, base.grid, cfgs, base.tail, base.capture_radius))
    for name, (traj, report), (csv_path, report_path) in zip(names, runs, paths):
        if report is None:
            raise traj
        shared = [path for (other, _), (path, _) in zip(runs, paths) if other is traj]
        if shared[0] == csv_path:  # the first preset of this run
            write_trajectory_csv(traj, *shared)
        write_report(report, report_path)
        print(f"{name}: wrote {csv_path} and {report_path}", file=sys.stderr)
        print(
            f"{name}: target = {report.target_label},"
            f" tail_max_distance = {_fmt(report.tail_max_distance)},"
            f" stabilized = {'yes' if report.stabilized else 'no'},"
            f" control_effort = {_fmt(report.control_effort)},"
            f" max_abs_u = {_fmt(report.max_abs_u_post_activation)}",
            file=sys.stdout,
        )
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    """The argument parser; built once, at import, as ``_PARSER``."""
    parser = argparse.ArgumentParser(
        prog="rabinovich", allow_abbrev=False,
        description=(
            "Rabinovich system toolkit: equilibria and stability analysis, "
            "gated predictive control runs, gain checks, and (K, epsilon) sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eq = sub.add_parser(
        "equilibria", allow_abbrev=False,
        help="list fixed points with open-loop and controlled stability verdicts",
    )
    p_eq.add_argument("--config", help="key=value config file (defaults if omitted)")
    p_eq.set_defaults(func=_cmd_equilibria)

    p_sim = sub.add_parser(
        "simulate", allow_abbrev=False, help="run one configuration; write trajectory CSV and report"
    )
    p_sim.add_argument("--config", help="key=value config file (defaults if omitted)")
    p_sim.add_argument("--uncontrolled", action="store_true", help="open-loop run")
    p_sim.add_argument("--out-csv", default="trajectory.csv", help="trajectory CSV path")
    p_sim.add_argument("--out-report", default="report.txt", help="report path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_gain = sub.add_parser(
        "gain-check", allow_abbrev=False,
        help="admissible interval and both stability checks for the config's (d, K)",
    )
    p_gain.add_argument("--config", help="key=value config file (defaults if omitted)")
    p_gain.set_defaults(func=_cmd_gain_check)

    p_sweep = sub.add_parser("sweep", allow_abbrev=False, help="grid of (mode, K, epsilon) runs to CSV")
    p_sweep.add_argument("--config", help="base config for the sweep")
    p_sweep.add_argument("--K", required=True, help="comma-separated gains")
    p_sweep.add_argument("--epsilon", required=True, help="comma-separated thresholds")
    p_sweep.add_argument("--modes", help="comma-separated modes (default: the config's mode)")
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rep = sub.add_parser(
        "reproduce", allow_abbrev=False, help="canned protocols: fig4 (t_on=40), fig5 (t_on=100)"
    )
    p_rep.add_argument("preset", choices=sorted(REPRODUCE_PRESETS) + ["all"])
    p_rep.add_argument("--out-dir", default=".")
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


_PARSER = _parser()
_VALUE_OPTIONS = frozenset(  # every subcommand option whose action's nargs is None
    option
    for sub in _PARSER._actions if isinstance(sub, argparse._SubParsersAction)
    for command in sub.choices.values()
    for option, action in command._option_string_actions.items() if action.nargs is None
)


def _attach_values(argv: Sequence[str]) -> list:
    """argv with each value option joined to its next token by "=", unless that
    token starts with "--": so "-0.6,-0.3", "-inf" and "-x.csv" are values."""
    args: list = []
    for tok in argv:
        if args and args[-1] in _VALUE_OPTIONS and not tok.startswith("--"):
            tok = args.pop() + "=" + tok
        args.append(tok)
    return args


def cli_dispatch(argv: Sequence[str]) -> int:
    """Parse argv (without the program name) and run one subcommand."""
    try:
        args = _PARSER.parse_args(_attach_values(argv))
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; fold the latter
        # into the documented config/usage code.
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return args.func(args)
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        target = exc.filename or "output"
        print(f"error: {target}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    raise SystemExit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
