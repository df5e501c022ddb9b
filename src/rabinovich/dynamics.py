"""Rabinovich vector field, Jacobian, and closed-form equilibria.

The Rabinovich system is the three-dimensional quadratic flow

    dx/dt = -a*x + h*y + y*z
    dy/dt =  h*x - b*y - x*z
    dz/dt = -d*z + x*y

with strictly positive constants a, b, d, h.  The flow is symmetric under
(x, y, z) -> (-x, -y, z), which pairs every off-axis equilibrium with its
mirror image.

Evaluation order inside :func:`field_components` is fixed so that repeated
calls (and mirrored inputs) produce bit-identical floating-point results;
the stepping loop ``harness._step`` holds an inline copy, in the same
operations and order, that the differential tests keep equal bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Params",
    "State",
    "EquilibriumSet",
    "field_components",
    "jacobian",
    "equilibria",
    "residual_norm",
]


def _finite(name: str, value, positive: bool = False) -> float:
    """``float(value)``, the one rule for a float input: it must be finite,
    and above zero when ``positive`` is set; a ValueError names ``name``.
    A str or bytes, or a value ``float`` cannot convert, is refused as it is."""
    if not isinstance(value, (str, bytes, bytearray)):
        try:
            value = float(value)
        except (TypeError, ValueError, OverflowError):
            pass  # not a float: refused below
    if not isinstance(value, float) or not math.isfinite(value) or (positive and value <= 0.0):
        rule = "a positive finite number" if positive else "finite"
        try:
            shown = repr(value)
        except ValueError:  # an int of more digits than Python prints
            shown = f"an int of {value.bit_length()} bits"
        raise ValueError(f"{name} must be {rule}, got {shown}")
    return value


@dataclass(frozen=True)
class Params:
    """The four positive coefficients of the flow."""

    a: float
    b: float
    d: float
    h: float

    def __post_init__(self):
        for name in ("a", "b", "d", "h"):
            object.__setattr__(self, name, _finite(name, getattr(self, name), positive=True))


@dataclass(frozen=True)
class State:
    """A point (x, y, z) in state space.  Components must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, _finite(f"state component {name}", getattr(self, name)))

    def as_array(self) -> np.ndarray:
        return np.array((self.x, self.y, self.z), dtype=float)


@dataclass(frozen=True)
class EquilibriumSet:
    """Fixed points of the flow, origin first.

    When h^2 > a*b there are three points: the origin, the point with
    x > 0, and its (-x, -y, z) mirror, in that order.  Otherwise only the
    origin exists and ``degenerate`` is True.
    """

    points: tuple[State, ...]
    degenerate: bool

    _LABELS = ("origin", "positive-x", "negative-x")

    @property
    def count(self) -> int:
        return len(self.points)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._LABELS[: self.count]

    def labeled(self) -> tuple[tuple[str, State], ...]:
        return tuple(zip(self.labels, self.points))


def field_components(a: float, b: float, d: float, h: float,
                     x: float, y: float, z: float) -> tuple[float, float, float]:
    """Time derivative (dx/dt, dy/dt, dz/dt) as plain scalars.

    This is the one definition of the right-hand side, which
    ``residual_norm`` calls.  ``harness._step`` writes it inline at each RK4
    stage, in the same term order, and the differential tests against the
    numpy RK4 of ``tests/reference.py`` run on this function keep the two
    equal bit for bit.
    """
    return (
        -a * x + h * y + y * z,
        h * x - b * y - x * z,
        -d * z + x * y,
    )


def jacobian(p: Params, s: State) -> np.ndarray:
    """3x3 Jacobian of the vector field at ``s`` (row-major: row i is the
    gradient of the i-th derivative component)."""
    return np.array(
        [
            [-p.a, p.h + s.z, s.y],
            [p.h - s.z, -p.b, -s.x],
            [s.y, s.x, -p.d],
        ],
        dtype=float,
    )


def equilibria(p: Params) -> EquilibriumSet:
    """All fixed points of the flow, in closed form.

    Setting the field to zero and eliminating x = y*(h+z)/a gives
    y*((h^2 - z^2)/a - b) = 0, so off-origin points require
    z* = sqrt(h^2 - a*b); back-substitution through the z-equation
    (x*y = d*z) yields y* = sqrt(a*d*z*/(h+z*)) and x* = y*(h+z*)/a.
    The mirror point (-x*, -y*, z*) completes the set.

    When h^2 <= a*b the off-origin branch has no real solution and the
    returned set is flagged degenerate.
    """
    origin = State(0.0, 0.0, 0.0)
    disc = p.h * p.h - p.a * p.b
    if disc <= 0.0:
        return EquilibriumSet((origin,), degenerate=True)
    z_star = math.sqrt(disc)
    y_star = math.sqrt(p.a * p.d * z_star / (p.h + z_star))
    x_star = y_star * (p.h + z_star) / p.a
    return EquilibriumSet(
        (origin, State(x_star, y_star, z_star), State(-x_star, -y_star, z_star)),
        degenerate=False,
    )


def residual_norm(p: Params, s: State) -> float:
    """Euclidean norm of the vector field at ``s`` (zero exactly at a fixed point)."""
    dx, dy, dz = field_components(p.a, p.b, p.d, p.h, s.x, s.y, s.z)
    return math.hypot(dx, dy, dz)
