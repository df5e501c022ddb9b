"""Flat key=value run configuration.

One ``key = value`` pair per line, ``#`` starts a comment, unknown keys are
rejected.  Every key has a default, so an empty file is a complete,
runnable configuration: the shipped defaults are the chaotic parameter set
(a=4, b=1, d=1, h=6.75), the standard initial point (1.5, -1.25, 3.5), the
0.1 step over [0, 200], and the default controller (K=-0.6, epsilon=0.1,
t_on=40, literal prediction, tau=1).

``serialize_config`` emits 17-significant-digit floats, so
parse(serialize(cfg)) reproduces cfg bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .control import ControllerConfig, PredictionMode, delay_steps
from .dynamics import Params, State
from .harness import DEFAULT_CAPTURE_RADIUS, DEFAULT_TAIL
from .integrator import TimeGrid

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_config",
    "serialize_config",
    "default_config",
    "CONFIG_KEYS",
]

_FLOAT_KEYS = (
    "a", "b", "d", "h",
    "x0", "y0", "z0",
    "t0", "t_end", "dt",
    "K", "epsilon", "t_on", "tau",
    "capture_radius", "tail",
)
_STR_KEYS = ("mode", "out_csv", "out_report")
CONFIG_KEYS = _FLOAT_KEYS + _STR_KEYS

_DEFAULTS = {
    "a": 4.0,
    "b": 1.0,
    "d": 1.0,
    "h": 6.75,
    "x0": 1.5,
    "y0": -1.25,
    "z0": 3.5,
    "t0": 0.0,
    "t_end": 200.0,
    "dt": 0.1,
    "K": -0.6,
    "epsilon": 0.1,
    "t_on": 40.0,
    "tau": 1.0,
    "capture_radius": DEFAULT_CAPTURE_RADIUS,
    "tail": DEFAULT_TAIL,
    "mode": "literal",
    "out_csv": "trajectory.csv",
    "out_report": "report.txt",
}

_MODE_TOKENS = {m.value: m for m in PredictionMode}


class ConfigError(ValueError):
    """Configuration rejected; message names the line and/or the field."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class RunConfig:
    """A fully validated single-run configuration."""

    params: Params
    s0: State
    grid: TimeGrid
    controller: ControllerConfig
    capture_radius: float
    tail: float
    out_csv: str
    out_report: str


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key=value configuration.

    Raises ConfigError with a line number for syntax problems (missing '=',
    unknown or duplicate keys, unparseable or non-finite numbers) and with
    the field name for domain violations (non-positive parameters, uneven
    grids, a tau that is not a whole number of steps, a tail at least as
    long as the run).
    """
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if key in _FLOAT_KEYS:
            try:
                raw[key] = float(value)
            except ValueError:
                raise ConfigError(f"{key}: not a number: {value!r}", lineno) from None
            if not math.isfinite(raw[key]):
                raise ConfigError(f"{key} must be finite, got {value!r}", lineno)
        else:
            raw[key] = value

    values = dict(_DEFAULTS)
    values.update(raw)

    mode_token = values["mode"]
    if mode_token not in _MODE_TOKENS:
        raise ConfigError(
            f"mode: expected one of {sorted(_MODE_TOKENS)}, got {mode_token!r}"
        )

    try:
        params = Params(values["a"], values["b"], values["d"], values["h"])
        s0 = State(values["x0"], values["y0"], values["z0"])
        grid = TimeGrid(values["t0"], values["t_end"], values["dt"])
        controller = ControllerConfig(
            K=values["K"],
            epsilon=values["epsilon"],
            t_on=values["t_on"],
            mode=_MODE_TOKENS[mode_token],
            tau=values["tau"],
        )
        delay_steps(controller, grid.dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    capture_radius = values["capture_radius"]
    if capture_radius <= 0.0:
        raise ConfigError(f"capture_radius must be positive, got {capture_radius!r}")
    tail = values["tail"]
    if tail <= 0.0:
        raise ConfigError(f"tail must be positive, got {tail!r}")
    span = grid.t_end - grid.t0
    if tail >= span:
        raise ConfigError(
            f"tail ({tail!r}) must be shorter than the run span ({span!r})"
        )

    return RunConfig(
        params=params,
        s0=s0,
        grid=grid,
        controller=controller,
        capture_radius=capture_radius,
        tail=tail,
        out_csv=values["out_csv"],
        out_report=values["out_report"],
    )


def default_config() -> RunConfig:
    """The all-defaults configuration (equivalent to parsing an empty file)."""
    return parse_config("")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def serialize_config(cfg: RunConfig) -> str:
    """Render a RunConfig back to the flat key=value format, losslessly."""
    lines = [
        f"a = {_fmt(cfg.params.a)}",
        f"b = {_fmt(cfg.params.b)}",
        f"d = {_fmt(cfg.params.d)}",
        f"h = {_fmt(cfg.params.h)}",
        f"x0 = {_fmt(cfg.s0.x)}",
        f"y0 = {_fmt(cfg.s0.y)}",
        f"z0 = {_fmt(cfg.s0.z)}",
        f"t0 = {_fmt(cfg.grid.t0)}",
        f"t_end = {_fmt(cfg.grid.t_end)}",
        f"dt = {_fmt(cfg.grid.dt)}",
        f"K = {_fmt(cfg.controller.K)}",
        f"epsilon = {_fmt(cfg.controller.epsilon)}",
        f"t_on = {_fmt(cfg.controller.t_on)}",
        f"mode = {cfg.controller.mode.value}",
        f"tau = {_fmt(cfg.controller.tau)}",
        f"capture_radius = {_fmt(cfg.capture_radius)}",
        f"tail = {_fmt(cfg.tail)}",
        f"out_csv = {cfg.out_csv}",
        f"out_report = {cfg.out_report}",
    ]
    return "\n".join(lines) + "\n"
