"""The fixed time grid of the RK4 runs, the divergence limit and its errors.

Runs take fixed RK4 steps only: the simulation protocols this package
reproduces use a constant step, and a fixed grid keeps runs bit-for-bit
reproducible.  A run starts at t = 0 and its times are ``k*dt`` (one
multiplication per step, never accumulated addition): their rounding error,
below ``MAX_STEPS * dt * 2**-53``, never compounds and stays far below dt,
so they strictly increase.  A run takes them from ``TimeGrid.times()``.

Runs are stepped by ``harness._step`` alone.  The tests compare it against a
generic numpy RK4 step, with the field given as a callable ``f(t, y)``, that
they keep in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import _finite

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
# tracemalloc peaks: a controlled run alone, with its gate never open, 50
# bytes a sample at t_on = 40 and at t_on = 199 of 200 (the gate pass adds a
# bool a sample it scans); a run and its convergence report, as ``simulate``
# makes them in a one-controller ``run_each``, 74 (the report's temporaries
# add 24), so about 0.74 GB here; a sweep whose cells never open 73, and 115
# once cells that open mix with ones that never did (an opening cell's own
# states, r, u and active, 41, beside the free flow's arrays and the
# never-open run kept for later cells of its lag), so about 1.15 GB.
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
    """A step's state failed the divergence check."""


class DivergenceError(IntegrationError):
    """State left the admissible region; carries the offending step index."""

    def __init__(self, step_index: int, time: float, reason: str):
        self.step_index = step_index
        self.time = time
        super().__init__(f"integration aborted at step {step_index} (t={time!r}): {reason}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0, dt, ..., t_end.  dt must divide t_end evenly."""

    t_end: float
    dt: float
    # Worked out once, when the grid is checked; not part of its value.
    n_steps: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "t_end", _finite("t_end", self.t_end, positive=True))
        object.__setattr__(self, "dt", _finite("dt", self.dt, positive=True))
        quotient, n = whole_steps(self.t_end, self.dt)
        if quotient >= MAX_STEPS + 0.5:  # also when the quotient overflows to inf
            raise ValueError(
                f"dt = {self.dt!r} gives {quotient:.12g} steps, more than the {MAX_STEPS} allowed"
            )
        if n is None:
            raise ValueError(
                f"grid does not divide evenly: t_end/dt = {quotient!r} is not an integer"
            )
        if not math.isfinite(n * self.dt):  # else times() would end at inf
            raise ValueError(f"t_end = {self.t_end!r} is too large: {n} * dt overflows")
        object.__setattr__(self, "n_steps", n)

    def time_at(self, k: int) -> float:
        return k * self.dt

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1, dtype=float)
