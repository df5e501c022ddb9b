"""Command-line front end.

Subcommands: equilibria, simulate, gain-check, sweep, reproduce.
Exit codes: 0 success, 1 configuration or usage error, 2 numerical failure.
stdout carries data, stderr carries diagnostics.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import shutil
import sys
from dataclasses import fields, replace
from typing import Optional, Sequence

from .config import ConfigError, RunConfig, default_config, parse_config
from .control import (
    PredictionMode,
    admissible_gain_interval,
    closed_loop_check,
    closed_loop_jacobian,
    eigen3,
)
from .dynamics import equilibria, jacobian, residual_norm
from .harness import convergence_report, run_controlled, run_each, run_uncontrolled, sweep
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
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from exc
    return parse_config(text)


# Options whose value may be a list of negative numbers, like "-0.9,-0.6".
# argparse takes such a token for an option, so it is attached with "=".
_LIST_OPTIONS = ("--K", "--epsilon")
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _attach_negative_lists(argv: Sequence[str]) -> list:
    args: list = []
    for tok in argv:
        if args and args[-1] in _LIST_OPTIONS and _NEGATIVE_VALUE.match(tok):
            args[-1] += "=" + tok
        else:
            args.append(tok)
    return args


def _finite_float(text: str) -> float:
    """argparse type for a single number that must be finite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _float_list(text: str, name: str) -> list:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{name}: expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{name}: empty list")
    return values


def _mode_list(text: str) -> list:
    modes = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            modes.append(PredictionMode(tok))
        except ValueError:
            valid = ",".join(m.value for m in PredictionMode)
            raise ConfigError(f"modes: expected one of {valid}, got {tok!r}") from None
    if not modes:
        raise ConfigError("modes: empty list")
    return modes


def _verdict_line(label: str, verdict) -> str:
    discrete = "PASS" if verdict.discrete_ok else "FAIL"
    cont = "PASS" if verdict.continuous_ok else "FAIL"
    return (
        f"  {label}: spectral radius = {_fmt(verdict.spectral_radius)} -> {discrete}"
        f" (discrete); max Re = {format(verdict.max_real_part, '+.6g')} -> {cont}"
        f" (continuous); gain exists: {'yes' if verdict.gain_exists else 'no'}"
    )


def _cmd_equilibria(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    p = cfg.params
    K = cfg.controller.K if args.K is None else args.K
    eqs = equilibria(p)
    # Printed only once every point is worked out, so an error prints nothing.
    lines = [f"parameters: a={_fmt(p.a)} b={_fmt(p.b)} d={_fmt(p.d)} h={_fmt(p.h)}"]
    if eqs.degenerate:
        lines.append("degenerate case (h^2 <= a*b): only the origin")
    for label, point in eqs.labeled():
        res = residual_norm(p, point)
        A = jacobian(p, point)
        open_loop = closed_loop_check(A, 0.0)
        try:
            closed = closed_loop_check(A, K)
        except ValueError as exc:
            raise ConfigError(f"--K: {exc}" if args.K is not None else str(exc)) from None
        lam = eigen3(closed_loop_jacobian(p, K, point))
        max_re = max(ev.real for ev in lam)
        lines.append(
            f"{label}: ({point.x:.4f}, {point.y:.4f}, {point.z:.4f})"
            f"  residual = {format(res, '.3e')}"
        )
        lines.append(_verdict_line("open loop           ", open_loop))
        lines.append(_verdict_line(f"gain check (K={_echo(K)})", closed))
        lines.append(
            f"  controlled jacobian (K={_echo(K)}): max Re = {format(max_re, '+.6g')}"
            f" -> {'stable' if max_re < 0.0 else 'unstable'} (continuous)"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_gain_check(args: argparse.Namespace) -> int:
    d, K = args.d, args.K
    try:
        interval = admissible_gain_interval(d)
    except ValueError as exc:
        raise ConfigError(f"--d: {exc}") from None
    try:
        verdict = closed_loop_check(-d, K)
    except ValueError as exc:
        raise ConfigError(f"--K: {exc}") from None
    inside = interval.contains(K)
    out = sys.stdout
    print(f"gain K = {_echo(K)} at d = {_echo(d)}", file=out)
    print(
        f"admissible interval: ({_echo(interval.lo)}, {_echo(interval.hi)})"
        f" -> K inside: {'yes' if inside else 'no'}",
        file=out,
    )
    print(
        f"closed-loop coefficient -d - K(d+1) = {format(verdict.closed_loop_matrix, '+.6g')}",
        file=out,
    )
    print(
        f"discrete check (spectral radius < 1): "
        f"{'PASS' if verdict.discrete_ok else 'FAIL'}"
        f" (rho = {_fmt(verdict.spectral_radius)})",
        file=out,
    )
    print(
        f"continuous check (max Re < 0): "
        f"{'PASS' if verdict.continuous_ok else 'FAIL'}"
        f" (max Re = {format(verdict.max_real_part, '+.6g')})",
        file=out,
    )
    if verdict.discrete_ok != verdict.continuous_ok:
        print(
            "note: the two criteria disagree for this (d, K): the gain "
            f"{'passes' if verdict.discrete_ok else 'fails'} the discrete-style "
            "spectral-radius test while the continuous-time linearization is "
            f"{'unstable' if not verdict.continuous_ok else 'stable'}.",
            file=out,
        )
    return EXIT_OK


def _check_output(option: str, path: str) -> None:
    """Raises unless path is not empty, the directory it is written into
    exists and it is not a directory; outputs are checked before any run, so
    that a bad path does not fail only after it."""
    if not path:
        raise ConfigError(f"{option}: an output path cannot be empty, got {path!r}")
    folder = os.path.dirname(path) or os.curdir
    if not os.path.isdir(folder):
        raise ConfigError(f"{option}: directory {folder!r} of {path!r} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"{option}: {path!r} is a directory")


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return os.path.abspath(a) == os.path.abspath(b)


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    out_csv = cfg.out_csv if args.out_csv is None else args.out_csv
    out_report = cfg.out_report if args.out_report is None else args.out_report
    _check_output("out_csv" if args.out_csv is None else "--out-csv", out_csv)
    _check_output("out_report" if args.out_report is None else "--out-report", out_report)
    if _same_file(out_csv, out_report):
        raise ConfigError(
            f"out_csv ({out_csv!r}) and out_report ({out_report!r}) name the same file"
        )
    controller = None if args.uncontrolled else cfg.controller
    eqs = equilibria(cfg.params)
    if controller is None:
        traj = run_uncontrolled(cfg.params, cfg.s0, cfg.grid)
    else:
        traj = run_controlled(cfg.params, cfg.s0, cfg.grid, controller)
    report = convergence_report(
        traj, eqs, cfg.grid, tail=cfg.tail, capture_radius=cfg.capture_radius, cfg=controller
    )
    write_trajectory_csv(traj, out_csv)
    write_report(report, out_report)
    print(f"wrote {out_csv} and {out_report}", file=sys.stderr)
    sys.stdout.write(render_report(report))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    K_values = _float_list(args.K, "K")
    eps_values = _float_list(args.epsilon, "epsilon")
    modes = _mode_list(args.modes)
    _check_output("--out", args.out)
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


def _same_bits(a, b) -> bool:
    """Equal bytes in every array; not values, as 0.0 == -0.0 but the CSV writes 0 and -0."""
    arrays = [f.name for f in fields(a) if f.name != "work"]  # work counts how each was made
    return all(getattr(a, n).tobytes() == getattr(b, n).tobytes() for n in arrays)


def _cmd_reproduce(args: argparse.Namespace) -> int:
    names = list(REPRODUCE_PRESETS) if args.preset == "all" else [args.preset]
    if not os.path.isdir(args.out_dir):
        raise ConfigError(f"--out-dir: directory {args.out_dir!r} does not exist")
    base = default_config()
    cfgs = [replace(base.controller, t_on=REPRODUCE_PRESETS[name]) for name in names]
    eqs = equilibria(base.params)
    last = None  # the previous preset's trajectory and CSV path
    # The presets differ only in t_on: at the default epsilon the gate never
    # opens, so fig5 steps nothing and its CSV is a copy of fig4's.
    for name, cfg, traj in zip(names, cfgs, run_each(base.params, base.s0, base.grid, cfgs)):
        if isinstance(traj, IntegrationError):
            raise traj
        report = convergence_report(
            traj, eqs, base.grid, tail=base.tail, capture_radius=base.capture_radius, cfg=cfg
        )
        csv_path = os.path.join(args.out_dir, f"{name}_trajectory.csv")
        report_path = os.path.join(args.out_dir, f"{name}_report.txt")
        if last is not None and _same_bits(traj, last[0]):
            shutil.copyfile(last[1], csv_path)
        else:
            write_trajectory_csv(traj, csv_path)
        write_report(report, report_path)
        last = traj, csv_path
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
        prog="rabinovich",
        description=(
            "Rabinovich system toolkit: equilibria and stability analysis, "
            "gated predictive control runs, gain checks, and (K, epsilon) sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eq = sub.add_parser(
        "equilibria",
        help="list fixed points with open- and closed-loop stability verdicts",
    )
    p_eq.add_argument("--config", help="key=value config file (defaults if omitted)")
    p_eq.add_argument("--K", type=_finite_float, default=None, help="gain for the closed-loop verdicts")
    p_eq.set_defaults(func=_cmd_equilibria)

    p_sim = sub.add_parser(
        "simulate", help="run one configuration; write trajectory CSV and report"
    )
    p_sim.add_argument("--config", help="key=value config file (defaults if omitted)")
    p_sim.add_argument("--uncontrolled", action="store_true", help="open-loop run")
    p_sim.add_argument("--out-csv", help="override the config's trajectory path")
    p_sim.add_argument("--out-report", help="override the config's report path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_gain = sub.add_parser(
        "gain-check", help="admissible interval and both stability checks for (d, K)"
    )
    p_gain.add_argument("--d", type=_finite_float, default=1.0)
    p_gain.add_argument("--K", type=_finite_float, default=-0.6)
    p_gain.set_defaults(func=_cmd_gain_check)

    p_sweep = sub.add_parser("sweep", help="grid of (mode, K, epsilon) runs to CSV")
    p_sweep.add_argument("--config", help="base config for the sweep")
    p_sweep.add_argument("--K", required=True, help="comma-separated gains")
    p_sweep.add_argument("--epsilon", required=True, help="comma-separated thresholds")
    p_sweep.add_argument("--modes", default="literal", help="comma-separated modes")
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rep = sub.add_parser(
        "reproduce", help="canned protocols: fig4 (t_on=40), fig5 (t_on=100)"
    )
    p_rep.add_argument("preset", choices=sorted(REPRODUCE_PRESETS) + ["all"])
    p_rep.add_argument("--out-dir", default=".")
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


_PARSER = _parser()


def cli_dispatch(argv: Sequence[str]) -> int:
    """Parse argv (without the program name) and run one subcommand."""
    try:
        args = _PARSER.parse_args(_attach_negative_lists(argv))
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; fold the latter
        # into the documented config/usage code.
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
