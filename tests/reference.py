"""Reference forms of the rules that ``harness._step`` writes inline.

The package ships each numerical rule once: the field is
``dynamics.field_components``, the law ``control.control_coefficients``, the
stepping and the per-sample gate ``harness._step``, and the free flow's r
``harness._FreeFlow.r``.  The functions here restate them plainly, one call
per step, stage or sample, so that the tests can compare the shipped code
against them bit for bit:

* ``rk4_step`` and ``check_state``: a generic numpy RK4 step with the field
  given as a callable ``f(t, y)``, and the divergence guard on its state;
* ``activation_gate``: the gate at one sample;
* ``control_term``: the control input u at one state;
* ``nearest_equilibrium``: the report's target, one point at a time.

Tests import it as ``from reference import ...``; pytest puts ``tests/`` on
``sys.path``.
"""

import math
from typing import Callable

import numpy as np

from rabinovich.control import ControllerConfig, control_coefficients
from rabinovich.dynamics import EquilibriumSet, Params
from rabinovich.integrator import DIVERGENCE_LIMIT, DivergenceError, IntegrationError


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


def control_term(p: Params, cfg: ControllerConfig, x: float, y: float, z: float) -> float:
    """Scalar control input u at (x, y, z), on ``control_coefficients``."""
    g, c = control_coefficients(p, cfg)
    return g * (c * z + x * y)


def activation_gate(delayed, t: float, s, cfg: ControllerConfig) -> tuple[bool, float]:
    """Decide whether control applies at time ``t``.

    ``delayed`` is the state (x, y, z) at t - tau and ``s`` the state at t.
    r is the Euclidean norm of s(t) - s(t - tau) over the full state vector;
    the gate is active iff t > t_on (the time gate) AND r < epsilon (the
    recurrence gate).
    """
    x, y, z = s
    px, py, pz = delayed
    dx = x - px
    dy = y - py
    dz = z - pz
    r = math.sqrt(dx * dx + dy * dy + dz * dz)
    active = (t > cfg.t_on) and (r < cfg.epsilon)
    return active, r


def nearest_equilibrium(mean_state: np.ndarray, eqs: EquilibriumSet) -> int:
    """Index of the point of ``eqs`` nearest ``mean_state``; of equally near
    points, the first."""
    best_idx = 0
    best_dist = math.inf
    for i, point in enumerate(eqs.points):
        dist = float(np.linalg.norm(mean_state - point.as_array()))
        if dist < best_dist:
            best_idx = i
            best_dist = dist
    return best_idx
