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

Two stability readings are computed side by side and never conflated:

* discrete-style: spectral radius of the closed-loop matrix A + K(A - I)
  below one (the magnitude test |-d - K(d+1)| < 1 in the scalar case);
* continuous-time: all eigenvalue real parts negative.

For the default gain K = -0.6 at d = 1 the closed-loop coefficient is
+0.2: the discrete-style test passes while the continuous-time test
fails.  The gain-check report surfaces this disagreement explicitly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dynamics import Params, State, jacobian
from .integrator import whole_steps

__all__ = [
    "PredictionMode",
    "ControllerConfig",
    "GainInterval",
    "StabilityVerdict",
    "control_coefficients",
    "admissible_gain_interval",
    "closed_loop_scalar_coeff",
    "eigen3",
    "closed_loop_check",
    "closed_loop_jacobian",
    "gate_samples",
    "delay_steps",
]

# |det(A - I)| at or below this scaled tolerance is treated as singular,
# i.e. no admissible gain exists.
SINGULAR_DET_TOL = 1e-12


class PredictionMode(enum.Enum):
    """How the one-step-ahead prediction is read; values are config tokens."""

    DERIVATIVE = "literal"
    EULER = "euler"


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
        for name in ("K", "epsilon", "t_on", "tau"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau!r}")
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


@dataclass(frozen=True)
class GainInterval:
    """Open interval (lo, hi) of admissible gains."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty gain interval ({self.lo!r}, {self.hi!r})")

    def contains(self, K: float) -> bool:
        return self.lo < K < self.hi


def admissible_gain_interval(d: float) -> GainInterval:
    """Gains K for which |-d - K(d+1)| < 1, i.e. the scalar closed-loop
    coefficient of the controlled z-equation passes the discrete-style
    magnitude test.  Solving the two-sided inequality gives the open
    interval (-1, (1-d)/(d+1))."""
    d = float(d)
    if not (math.isfinite(d) and d > 0.0):
        raise ValueError(f"d must be a positive finite number, got {d!r}")
    hi = (1.0 - d) / (d + 1.0)
    if hi <= -1.0:
        raise ValueError(
            f"d = {d!r} is too large: the interval bound (1-d)/(d+1) rounds to -1"
        )
    return GainInterval(-1.0, hi)


def closed_loop_scalar_coeff(d: float, K: float) -> float:
    """Coefficient of the linearized controlled z-equation: -d - K(d+1).

    K = 0 recovers the open-loop decay rate -d.
    """
    return -d - K * (d + 1.0)


def eigen3(M) -> tuple[complex, ...]:
    """Eigenvalues of a 3x3 real matrix, sorted by descending real part then
    descending imaginary part (keeps complex-conjugate pairs adjacent).

    Backed by LAPACK via numpy; the regression suite checks the results
    against the characteristic polynomial directly.
    """
    arr = np.asarray(M, dtype=float)
    if arr.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    vals = np.linalg.eigvals(arr)
    order = np.lexsort((-vals.imag, -vals.real))
    return tuple(complex(v) for v in vals[order])


@dataclass(frozen=True, eq=False)
class StabilityVerdict:
    """Both stability readings of a closed-loop matrix, side by side.

    ``discrete_ok`` is the spectral-radius test (rho < 1); ``continuous_ok``
    is the eigenvalue-real-part test (max Re < 0).  ``gain_exists`` reports
    whether det(A - I) is nonzero, the solvability condition for the gain.
    """

    closed_loop_matrix: Union[float, np.ndarray]
    eigenvalues: tuple[complex, ...]
    spectral_radius: float
    discrete_ok: bool
    max_real_part: float
    continuous_ok: bool
    gain_exists: bool


def closed_loop_check(A, K: float) -> StabilityVerdict:
    """Form the closed-loop matrix M = A + K(A - I) and judge it both ways.

    ``A`` may be a scalar (the linearized controlled coordinate) or a 3x3
    matrix; the gain ``K`` is a scalar, taken as K times the identity against
    a matrix.  A gain so large that M overflows is rejected with a ValueError.
    """
    k = float(K)
    overflow = f"K = {k!r} is too large: the closed-loop matrix A + K(A - I) overflows"
    if np.isscalar(A) or np.ndim(A) == 0:
        a = float(A)
        if not math.isfinite(a):
            raise ValueError(f"A must be finite, got {a!r}")
        a_minus_one = a - 1.0
        m = a + k * a_minus_one
        if not math.isfinite(m):
            raise ValueError(overflow)
        return StabilityVerdict(
            closed_loop_matrix=m,
            eigenvalues=(complex(m),),
            spectral_radius=abs(m),
            discrete_ok=abs(m) < 1.0,
            max_real_part=m,
            continuous_ok=m < 0.0,
            gain_exists=a_minus_one != 0.0,
        )

    arr = np.asarray(A, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape != (3, 3):
        raise ValueError(f"A must be a scalar or a 3x3 matrix, got shape {np.shape(A)}")
    a_minus_i = arr - np.eye(3)
    with np.errstate(over="ignore"):
        m = arr + (k * np.eye(3)) @ a_minus_i
    if not np.isfinite(m).all():
        raise ValueError(overflow)
    try:
        eigs = eigen3(m)
        det = float(np.linalg.det(a_minus_i))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigenvalue solver failed on closed-loop matrix {m!r}") from exc
    rho = max(abs(e) for e in eigs)
    max_re = max(e.real for e in eigs)
    det_scale = max(1.0, float(np.linalg.norm(a_minus_i)) ** 3)
    return StabilityVerdict(
        closed_loop_matrix=m,
        eigenvalues=eigs,
        spectral_radius=rho,
        discrete_ok=rho < 1.0,
        max_real_part=max_re,
        continuous_ok=max_re < 0.0,
        gain_exists=abs(det) > SINGULAR_DET_TOL * det_scale,
    )


def closed_loop_jacobian(p: Params, K: float, at: State) -> np.ndarray:
    """Full 3x3 linearization of the controlled flow (DERIVATIVE mode).

    The control enters only the z-equation, so the open-loop Jacobian keeps
    its first two rows and the z-row becomes
    ((1+K)*y, (1+K)*x, -d - K(d+1)).  K = 0 returns the open-loop Jacobian
    bit-for-bit.
    """
    J = jacobian(p, at)
    J[2, 0] = (1.0 + K) * at.y
    J[2, 1] = (1.0 + K) * at.x
    J[2, 2] = closed_loop_scalar_coeff(p.d, K)
    return J


def gate_samples(states: np.ndarray, lag: int, t: np.ndarray, cfg: ControllerConfig):
    """The activation gate at every sample ``k = lag, lag+1, ...`` of the
    ``(n, 3)`` array ``states``, as arrays ``(active, r)`` of length
    ``n - lag``.  ``t`` holds the times of the samples gated, those of
    ``states[lag:]``, taken from the run's ``TimeGrid.times()``.

    r is the Euclidean norm of s(t) - s(t - tau) over the full state vector,
    and a sample is active iff t > t_on (the time gate) AND r < epsilon (the
    recurrence gate).  Each r is rounded through ``dx*dx + dy*dy + dz*dz``
    and the square root, in that order, as ``harness._run`` writes the gate
    per sample, so both equal the scalar gate of ``tests/reference.py`` bit
    for bit.
    """
    m = len(states) - lag
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf, as in Python
        sq = states[lag:] - states[:m]
        sq *= sq
        r = sq[:, 0] + sq[:, 1]
        r += sq[:, 2]
    del sq
    np.sqrt(r, out=r)
    active = t > cfg.t_on
    active &= r < cfg.epsilon
    return active, r
