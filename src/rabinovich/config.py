"""Flat key=value run configuration.

One ``key = value`` pair per line, ``#`` starts a comment, unknown keys are
rejected.  Every key has a default, so an empty file is a complete,
runnable configuration: the shipped defaults are the chaotic parameter set
(a=4, b=1, d=1, h=6.75), the standard initial point (1.5, -1.25, 3.5), the
0.1 step over [0, 200], and the default controller (K=-0.6, epsilon=0.1,
t_on=40, literal prediction, tau=1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .control import ControllerConfig, closed_loop_jacobian, delay_steps, prediction_mode
from .dynamics import Params, State, equilibria
from .harness import DEFAULT_CAPTURE_RADIUS, DEFAULT_TAIL, check_report_settings
from .integrator import DIVERGENCE_LIMIT, TimeGrid

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_config",
    "default_config",
    "CONFIG_KEYS",
]

_DEFAULTS = {
    "a": 4.0,
    "b": 1.0,
    "d": 1.0,
    "h": 6.75,
    "x0": 1.5,
    "y0": -1.25,
    "z0": 3.5,
    "t_end": 200.0,
    "dt": 0.1,
    "K": -0.6,
    "epsilon": 0.1,
    "t_on": 40.0,
    "tau": 1.0,
    "capture_radius": DEFAULT_CAPTURE_RADIUS,
    "tail": DEFAULT_TAIL,
    "mode": "literal",
}
CONFIG_KEYS = tuple(_DEFAULTS)
_FLOAT_KEYS = tuple(key for key in CONFIG_KEYS if isinstance(_DEFAULTS[key], float))


class ConfigError(ValueError):
    """Configuration rejected; message names the line and/or the field."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class RunConfig:
    """A fully validated single-run configuration; the command line names its outputs."""

    params: Params
    s0: State
    grid: TimeGrid
    controller: ControllerConfig
    capture_radius: float
    tail: float


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key=value configuration.

    Raises ConfigError with a line number for syntax problems (missing '=',
    unknown or duplicate keys, unparseable or non-finite numbers) and with
    the field name for domain violations (non-positive parameters, an
    initial state beyond the divergence limit, uneven grids, a tau that is
    not a whole number of steps, a gain that overflows the controlled jacobian
    at a fixed point, a tail or a tau at least as long as the run, a t_on at
    or past the start of its last step).
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

    try:
        mode = prediction_mode(values["mode"])
        params = Params(values["a"], values["b"], values["d"], values["h"])
        s0 = State(values["x0"], values["y0"], values["z0"])
        for key in ("x0", "y0", "z0"):  # else every run would fail at step 0
            if not abs(values[key]) <= DIVERGENCE_LIMIT:
                raise ValueError(
                    f"{key} must be at most {DIVERGENCE_LIMIT:g} in magnitude, got {values[key]!r}"
                )
        grid = TimeGrid(values["t_end"], values["dt"])
        controller = ControllerConfig(
            K=values["K"],
            epsilon=values["epsilon"],
            t_on=values["t_on"],
            mode=mode,
            tau=values["tau"],
        )
        lag = delay_steps(controller, grid.dt)
        point = equilibria(params).points[-1]  # largest |x|, |y|: the row overflows there first
        closed_loop_jacobian(params, controller, point)
        check_report_settings(values["tail"], values["capture_radius"], grid.t_end)
        # Else the controller could never act on a step: a gate can open only
        # at a sample with a full delay window and t > t_on, and an open gate
        # controls the step from its sample, so that sample must come before
        # the last one.
        n = grid.n_steps
        if lag >= n:
            raise ValueError(
                f"tau ({controller.tau!r}) must be shorter than the run span ({grid.t_end!r})"
            )
        last_start = grid.time_at(n - 1)
        if controller.t_on >= last_start:
            raise ValueError(
                f"t_on ({controller.t_on!r}) must be before the last step starts,"
                f" at t = {last_start!r}"
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        params=params,
        s0=s0,
        grid=grid,
        controller=controller,
        capture_radius=values["capture_radius"],
        tail=values["tail"],
    )


def default_config() -> RunConfig:
    """The all-defaults configuration (equivalent to parsing an empty file)."""
    return parse_config("")

