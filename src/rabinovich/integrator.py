"""Fixed-step classical fourth-order Runge-Kutta: the time grid, the
divergence limit and its errors.

Only fixed-step RK4 is provided: the simulation protocols this package
reproduces use a constant step, and a fixed grid keeps runs bit-for-bit
reproducible.  Grid times are always computed as ``t0 + k*dt`` (one
multiplication per step, never accumulated addition) so the time axis
carries no compounding rounding error; a run takes its sample times from
``TimeGrid.times()`` alone.

Runs are stepped by ``harness._run`` alone.  The tests compare it against a
generic numpy RK4 step, with the field given as a callable ``f(t, y)``, that
they keep in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "TimeGrid",
    "IntegrationError",
    "DivergenceError",
    "DIVERGENCE_LIMIT",
]

# Abort threshold for any state component.  The attractors this package
# targets live at magnitudes of order 10, so 1e6 cleanly separates
# "still physical" from "numerically blown up".
DIVERGENCE_LIMIT = 1e6

# Largest step count of a grid: a run preallocates about 49 bytes a sample
# (t, state, u, active, r), so its arrays stay below about 0.5 GB.  Measured
# tracemalloc peaks: a controlled run alone, with its gate never open, 52
# bytes a sample at t_on = 40 of 200 and 73 at t_on = 199 (the pass over its
# first stretch of free flow, which reaches past t_on, adds 32 bytes a row
# to the arrays without t); a controlled run and its convergence report 74
# (the report's temporaries add 24), so about 0.74 GB here; a sweep, which
# also keeps a free-flow prefix of states (24 bytes a sample) and gates it
# in one pass (32 bytes a sample of temporaries), 98, so about 0.98 GB.
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
