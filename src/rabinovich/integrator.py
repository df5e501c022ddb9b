"""Fixed-step classical fourth-order Runge-Kutta: the time grid, the
divergence guard and its errors, and the generic reference step.

Only fixed-step RK4 is provided: the simulation protocols this package
reproduces use a constant step, and a fixed grid keeps runs bit-for-bit
reproducible.  Grid times are always computed as ``t0 + k*dt`` (one
multiplication per step, never accumulated addition) so the time axis
carries no compounding rounding error.

Runs are stepped by ``harness._run``.  ``rk4_step`` and ``check_state`` are
the generic numpy reference that the core is tested against: the same
arithmetic on arrays, with the field given as a callable ``f(t, y)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "TimeGrid",
    "IntegrationError",
    "DivergenceError",
    "DIVERGENCE_LIMIT",
    "rk4_step",
    "check_state",
]

# Abort threshold for any state component.  The attractors this package
# targets live at magnitudes of order 10, so 1e6 cleanly separates
# "still physical" from "numerically blown up".
DIVERGENCE_LIMIT = 1e6

# Largest step count of a grid: a run preallocates about 49 bytes a sample
# (t, state, u, active, r), so its arrays stay below about 0.5 GB.  A sweep
# also keeps one free-flow prefix of states (24 bytes a sample) alive, so its
# arrays peak near 0.73 GB.  The convergence report's temporaries add about
# 33 bytes a sample while it runs.
MAX_STEPS = 10**7


def whole_steps(length: float, dt: float) -> tuple[float, Optional[int]]:
    """``length / dt`` and, when it is within 1e-9 of a whole number of at
    least one, that number; else None.  A quotient that overflows to inf is
    not a whole number (it is bounded before it is rounded)."""
    quotient = length / dt
    if not math.isfinite(quotient):
        return quotient, None
    n = round(quotient)
    if abs(quotient - n) >= 1e-9 or n < 1:
        return quotient, None
    return quotient, n


class IntegrationError(RuntimeError):
    """A step produced a non-finite derivative or state."""


class DivergenceError(IntegrationError):
    """State left the admissible region; carries the offending step index."""

    def __init__(self, step_index: int, time: float, reason: str):
        self.step_index = step_index
        self.time = time
        super().__init__(f"integration aborted at step {step_index} (t={time!r}): {reason}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0, t0+dt, ..., t_end.  dt must divide the span evenly."""

    t0: float
    t_end: float
    dt: float

    def __post_init__(self):
        for name in ("t0", "t_end", "dt"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.t_end <= self.t0:
            raise ValueError(f"t_end ({self.t_end!r}) must exceed t0 ({self.t0!r})")
        quotient, n = whole_steps(self.t_end - self.t0, self.dt)
        if quotient >= MAX_STEPS + 0.5:  # also when the quotient overflows to inf
            raise ValueError(
                f"dt = {self.dt!r} gives {quotient:.12g} steps, more than the {MAX_STEPS} allowed"
            )
        if n is None:
            raise ValueError(
                f"grid does not divide evenly: (t_end - t0)/dt = {quotient!r} is not an integer"
            )

    @property
    def n_steps(self) -> int:
        return whole_steps(self.t_end - self.t0, self.dt)[1]

    def time_at(self, k: int) -> float:
        return self.t0 + k * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1, dtype=float)


def check_state(y: np.ndarray, step_index: int, t: float) -> None:
    """Divergence guard: reject non-finite or astronomically large states."""
    if not np.isfinite(y).all():
        raise DivergenceError(step_index, t, "non-finite state component")
    if np.abs(y).max() > DIVERGENCE_LIMIT:
        raise DivergenceError(
            step_index, t, f"state magnitude exceeded {DIVERGENCE_LIMIT:g}"
        )


def _eval(f: Callable, t: float, y: np.ndarray) -> np.ndarray:
    k = np.asarray(f(t, y), dtype=float)
    if not np.isfinite(k).all():
        raise IntegrationError(f"non-finite derivative at t={t!r}")
    return k


def rk4_step(f: Callable, t: float, state, dt: float) -> np.ndarray:
    """One classical RK4 update with the (1, 2, 2, 1)/6 weighting.

    Pure function of its inputs; identical inputs give bit-identical
    output.  Raises IntegrationError if the field returns a non-finite
    derivative at any stage.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    y = np.asarray(state, dtype=float)
    half = 0.5 * dt
    k1 = _eval(f, t, y)
    k2 = _eval(f, t + half, y + half * k1)
    k3 = _eval(f, t + half, y + half * k2)
    k4 = _eval(f, t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

