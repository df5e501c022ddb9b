"""Predictive feedback law, gain admissibility, and stability diagnostics.

The controller feeds back an amplified difference between a predicted
state and the current state, applied to the z-equation only:

    u = K * (z_pred - z)  =  g * (c*z + x*y)   (``control_coefficients``)

Two prediction conventions are supported:

``DERIVATIVE`` (config token ``literal``)
    The prediction is the current derivative itself, z_pred = dz/dt, so
    u = K*(-(d+1)*z + x*y).  This is the package default.  Note that at an
    off-origin fixed point dz/dt = 0 while z = z* > 0, so this law does
    NOT vanish there: u = -K*z* is a standing offset.

``EULER`` (config token ``euler``)
    The prediction is a forward-Euler extrapolation over the delay tau,
    z_pred = z + tau*dz/dt, so u = K*tau*(-d*z + x*y).  This variant does
    vanish at every fixed point.  It is provided as a clearly labeled
    alternative; nothing in the default protocols uses it.

``closed_loop_scalar_coeff`` is the scalar closed-loop coefficient
m = -d - K(d+1) of the linearized z-equation, which gain-check judges two
ways, never conflated: discrete-style, |m| < 1 (``admissible_gain_interval``
solves it for K), and continuous-time, m < 0.  For the default gain K = -0.6
at d = 1, m = +0.2: the discrete-style test passes while the continuous-time
test fails, and the gain-check report says so.  ``closed_loop_jacobian`` is
the full linearization of the controlled flow in either mode, whose
eigenvalues judge each fixed point.  The activation gate is written inline
where the harness steps and scans the flow.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Params, State, _finite, jacobian
from .integrator import whole_steps

__all__ = [
    "PredictionMode",
    "prediction_mode",
    "ControllerConfig",
    "control_coefficients",
    "admissible_gain_interval",
    "closed_loop_scalar_coeff",
    "closed_loop_jacobian",
    "delay_steps",
]


class PredictionMode(enum.Enum):
    """How the one-step-ahead prediction is read; values are config tokens."""

    DERIVATIVE = "literal"
    EULER = "euler"


def prediction_mode(token: str, name: str = "mode") -> PredictionMode:
    """The mode a config token names; a ValueError naming ``name`` otherwise."""
    try:
        return PredictionMode(token)
    except ValueError:
        valid = ",".join(m.value for m in PredictionMode)
        raise ValueError(f"{name}: expected one of {valid}, got {token!r}") from None


@dataclass(frozen=True)
class ControllerConfig:
    """Gain, activation gates, and prediction convention for one controller.

    ``tau`` is both the prediction horizon of the EULER mode and the lag of
    the recurrence test r(t) = ||s(t) - s(t - tau)||; it must be a positive
    integer multiple of the integration step.  The control acts on the
    z-equation only.
    """

    K: float
    epsilon: float = 0.1
    t_on: float = 40.0
    mode: PredictionMode = PredictionMode.DERIVATIVE
    tau: float = 1.0

    def __post_init__(self):
        for name, positive in (("K", False), ("epsilon", True), ("t_on", False), ("tau", True)):
            object.__setattr__(self, name, _finite(name, getattr(self, name), positive))
        if self.t_on < 0.0:
            raise ValueError(f"t_on must be nonnegative, got {self.t_on!r}")
        if not isinstance(self.mode, PredictionMode):
            raise ValueError(f"mode must be a PredictionMode, got {self.mode!r}")


def delay_steps(cfg: ControllerConfig, dt: float) -> int:
    """Number of grid steps in the delay tau; errors unless it is a whole number."""
    ratio, n = whole_steps(cfg.tau, dt)
    if n is None:
        raise ValueError(
            f"tau must be a positive integer multiple of dt: tau={cfg.tau!r}, "
            f"dt={dt!r} gives tau/dt={ratio!r}"
        )
    return n


def control_coefficients(p: Params, cfg: ControllerConfig) -> tuple[float, float]:
    """The law as ``(g, c)`` with u = g * (c*z + x*y): ``(K, -(d+1))`` in DERIVATIVE
    mode, ``(K*tau, -d)`` in EULER mode, as Python groups the module docstring's forms."""
    if cfg.mode is PredictionMode.DERIVATIVE:
        return cfg.K, -(p.d + 1.0)
    return cfg.K * cfg.tau, -p.d


def admissible_gain_interval(d: float) -> tuple[float, float]:
    """Gains K for which |-d - K(d+1)| < 1, i.e. the scalar closed-loop
    coefficient of the controlled z-equation passes the discrete-style
    magnitude test.  Solving the two-sided inequality gives the open
    interval (-1, (1-d)/(d+1)), returned as its ends ``(lo, hi)``."""
    d = _finite("d", d, positive=True)
    hi = (1.0 - d) / (d + 1.0)
    if hi <= -1.0:
        raise ValueError(
            f"d = {d!r} is too large: the interval bound (1-d)/(d+1) rounds to -1"
        )
    return -1.0, hi


def closed_loop_scalar_coeff(d: float, K: float) -> float:
    """Coefficient m = -d - K(d+1) of the linearized controlled z-equation,
    the A + K(A - 1) of its open-loop coefficient A = -d (the same bits:
    negation is exact).  K = 0 recovers the open-loop decay rate -d.  A bad d
    or K, or a gain so large that m overflows, is rejected with a ValueError."""
    d = _finite("d", d, positive=True)
    K = _finite("K", K)
    m = -d - K * (d + 1.0)
    if not math.isfinite(m):
        raise ValueError(f"K = {K!r} is too large: the coefficient A + K(A - 1) overflows")
    return m


def closed_loop_jacobian(p: Params, cfg: ControllerConfig, at: State) -> np.ndarray:
    """Full 3x3 linearization of the flow with ``cfg``'s control always on.

    The control u = g*(c*z + x*y) of ``control_coefficients`` enters only the
    z-equation, so the open-loop Jacobian keeps its first two rows and the
    z-row becomes ((1+g)*y, (1+g)*x, -d + g*c).  K = 0 returns the open-loop
    Jacobian bit for bit.  A gain so large that the row overflows is rejected
    with a ValueError, which in EULER mode names tau too (the gain is K*tau).
    """
    g, c = control_coefficients(p, cfg)
    row = ((1.0 + g) * at.y, (1.0 + g) * at.x, -p.d + g * c)
    if not all(map(math.isfinite, row)):
        tau_too = f" with tau = {cfg.tau!r}" if cfg.mode is PredictionMode.EULER else ""
        raise ValueError(f"K = {cfg.K!r}{tau_too} is too large: the controlled jacobian overflows")
    J = jacobian(p, at)
    J[2] = row
    return J

