"""Simulation harness: controlled/uncontrolled runs, convergence metrics, sweeps.

Gating semantics: from one delay tau into the run on, the activation gate
is evaluated once per step, at the step's start, from the current state and
the state tau earlier.  An active step integrates the controlled vector
field (open-loop field plus the control term on the z-equation, evaluated
at every RK4 substage); an inactive step integrates the pure open-loop
field.  Every recorded sample carries the control input u in force at that
sample (zero when inactive), the gate flag, and the recurrence distance r
(absent, with the gate inactive, while the delay window fills).

So until its gate first opens, a controlled run is the free flow bit for
bit: it steps the open-loop field, and the gate only reads the state.  The
cells of a sweep share one start and one grid, so they share that prefix,
and a sweep steps it only once.

Convergence is a measured quantity, never an assumption: a run is declared
stabilized only if the whole tail window stays within the capture radius
of the nearest equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .control import (
    ControllerConfig,
    PredictionMode,
    activation_gate,
    admissible_gain_interval,
    control_term,
    delay_steps,
)
from .dynamics import EquilibriumSet, Params, State, equilibria, field_components
from .integrator import DIVERGENCE_LIMIT, DivergenceError, IntegrationError, TimeGrid

__all__ = [
    "Trajectory",
    "ConvergenceReport",
    "SweepCell",
    "SweepReport",
    "run_uncontrolled",
    "run_controlled",
    "convergence_report",
    "sweep",
    "DEFAULT_CAPTURE_RADIUS",
    "DEFAULT_TAIL",
]

# Report defaults: the attractor scale is O(10), so a 0.5 capture radius is
# a strict criterion; 20 time units of tail leave no room for slow escape.
DEFAULT_CAPTURE_RADIUS = 0.5
DEFAULT_TAIL = 20.0

R_NORM_NOTE = "euclidean norm over the full state vector"
GATE_NOTE = "gate evaluated once per step, at the step's start"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered samples (t, state, u, active, r); r is NaN while absent."""

    t: np.ndarray
    states: np.ndarray
    u: np.ndarray
    active: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        n = len(self.t)
        if not (len(self.states) == len(self.u) == len(self.active) == len(self.r) == n):
            raise ValueError("trajectory arrays must have equal length")
        if n < 2:
            raise ValueError("a trajectory needs at least two samples")
        if self.states.shape != (n, 3):
            raise ValueError(f"states must have shape ({n}, 3), got {self.states.shape}")
        if not np.all(np.diff(self.t) > 0.0):
            raise ValueError("sample times must be strictly increasing")
        if not np.all(self.u[~self.active] == 0.0):
            raise ValueError("u must be zero at every inactive sample")

    @property
    def n_samples(self) -> int:
        return len(self.t)

    @property
    def span(self) -> float:
        return float(self.t[-1] - self.t[0])


def _divergence(k, t0, dt, stages, state) -> DivergenceError:
    """The error a failed step k raises, found after the fact: the first
    stage with a non-finite derivative, else the non-finite or too large state.

    A non-finite derivative always makes the stepped state non-finite, so the
    loop needs only its one magnitude test to know that something failed.
    """
    t_prev = t0 + (k - 1) * dt
    stage_times = (t_prev, t_prev + 0.5 * dt, t_prev + 0.5 * dt, t_prev + dt)
    for t_stage, derivative in zip(stage_times, stages):
        if not all(math.isfinite(v) for v in derivative):
            return DivergenceError(k, t_prev, f"non-finite derivative at t={t_stage!r}")
    t_k = t0 + k * dt if k else t0
    if not all(math.isfinite(v) for v in state):
        return DivergenceError(k, t_k, "non-finite state component")
    return DivergenceError(k, t_k, f"state magnitude exceeded {DIVERGENCE_LIMIT:g}")


def _run(
    p: Params, s0: State, grid: TimeGrid, cfg: Optional[ControllerConfig],
    free: Optional[np.ndarray] = None,
) -> Trajectory:
    """The one RK4 stepping loop; ``cfg=None`` integrates the free flow.

    The state is kept as three Python floats and every sample is written
    straight into the preallocated output arrays; the gate reads the delayed
    state back from them.  Each arithmetic operation is the one
    ``integrator.rk4_step`` makes on each array component, in the same order,
    so both give bit-identical results.

    ``free`` may hold the leading rows of the free flow of the same ``p``,
    ``s0`` and ``grid``.  Until the gate first opens the run is that flow bit
    for bit, so those samples are read from ``free`` instead of stepped; the
    gate still runs at each of them.  Stepping starts at the first open gate,
    or after the last row of ``free``.
    """
    lag = delay_steps(cfg, grid.dt) if cfg is not None else 0
    # Looked up here, as names of this module, so that one definition each of
    # the field, the control law and the gate is used (and can be wrapped).
    field, u_of, gate = field_components, control_term, activation_gate
    a, b, d, h = p.a, p.b, p.d, p.h
    t0, dt, n = grid.t0, grid.dt, grid.n_steps
    half, sixth, limit = 0.5 * dt, dt / 6.0, DIVERGENCE_LIMIT

    states = np.empty((n + 1, 3))
    us = np.zeros(n + 1)
    actives = np.zeros(n + 1, dtype=bool)
    rs = np.full(n + 1, np.nan)
    state_out, r_out = memoryview(states.reshape(-1)), memoryview(rs)
    shared = 0  # samples still to be read from the free flow
    if free is not None:
        shared = len(free)
        states[:shared] = free

    x, y, z = s0.x, s0.y, s0.z
    active = False
    for k in range(n + 1):
        j = 3 * k
        if k < shared:
            x, y, z = state_out[j], state_out[j + 1], state_out[j + 2]
        else:
            if k:
                k1x, k1y, k1z = field(a, b, d, h, x, y, z)
                if active:
                    k1z = k1z + u_of(p, cfg, x, y, z)
                sx, sy, sz = x + half * k1x, y + half * k1y, z + half * k1z
                k2x, k2y, k2z = field(a, b, d, h, sx, sy, sz)
                if active:
                    k2z = k2z + u_of(p, cfg, sx, sy, sz)
                sx, sy, sz = x + half * k2x, y + half * k2y, z + half * k2z
                k3x, k3y, k3z = field(a, b, d, h, sx, sy, sz)
                if active:
                    k3z = k3z + u_of(p, cfg, sx, sy, sz)
                sx, sy, sz = x + dt * k3x, y + dt * k3y, z + dt * k3z
                k4x, k4y, k4z = field(a, b, d, h, sx, sy, sz)
                if active:
                    k4z = k4z + u_of(p, cfg, sx, sy, sz)
                x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
                y = y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
                z = z + sixth * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
            # Fails on NaN as well as on magnitude.
            if not (abs(x) <= limit and abs(y) <= limit and abs(z) <= limit):
                stages = (
                    ((k1x, k1y, k1z), (k2x, k2y, k2z), (k3x, k3y, k3z), (k4x, k4y, k4z))
                    if k else ()
                )
                raise _divergence(k, t0, dt, stages, (x, y, z))
            state_out[j], state_out[j + 1], state_out[j + 2] = x, y, z
        if cfg is None or k < lag:
            continue
        i = j - 3 * lag
        delayed = (state_out[i], state_out[i + 1], state_out[i + 2])
        active, r_out[k] = gate(delayed, t0 + k * dt, (x, y, z), cfg)
        if active:
            shared = 0  # the controlled field applies from here: step every sample
            actives[k] = True
            us[k] = u_of(p, cfg, x, y, z)

    return Trajectory(t=grid.times(), states=states, u=us, active=actives, r=rs)


def run_uncontrolled(p: Params, s0: State, grid: TimeGrid) -> Trajectory:
    """Integrate the open-loop flow; u is zero and the gate never applies."""
    return _run(p, s0, grid, None)


def run_controlled(
    p: Params, s0: State, grid: TimeGrid, cfg: ControllerConfig
) -> Trajectory:
    """Integrate the gated controlled flow under the given controller.

    With K = 0 the produced times, states, and control inputs match
    run_uncontrolled sample for sample; the gate diagnostics (active, r)
    are still recorded, since gating does not depend on the gain.
    """
    return _run(p, s0, grid, cfg)


@dataclass(frozen=True)
class ConvergenceReport:
    """Measured convergence outcome of one run, with the settings that shaped
    it: the controller (None for a free run), the step, the end time and the
    report's own capture radius and tail."""

    target_label: str
    target: State
    tail_max_distance: float
    tail_mean_distance: float
    stabilized: bool
    control_effort: float
    max_abs_u_post_activation: float
    controller: Optional[ControllerConfig]
    dt: float
    t_end: float
    capture_radius: float
    tail: float


def _trapezoid(values: np.ndarray, t: np.ndarray) -> float:
    widths = t[1:] - t[:-1]
    return float(np.sum(widths * (values[1:] + values[:-1])) * 0.5)


def check_report_settings(tail: float, capture_radius: float, span: float) -> None:
    """Require a positive finite tail window shorter than the run span and a
    positive finite capture radius; raises ValueError naming the setting."""
    if not (math.isfinite(tail) and tail > 0.0):
        raise ValueError(f"tail must be positive and finite, got {tail!r}")
    if tail >= span:
        raise ValueError(f"tail ({tail!r}) must be shorter than the run span ({span!r})")
    if not (math.isfinite(capture_radius) and capture_radius > 0.0):
        raise ValueError(f"capture_radius must be positive and finite, got {capture_radius!r}")


def convergence_report(
    traj: Trajectory,
    eqs: EquilibriumSet,
    tail: float = DEFAULT_TAIL,
    capture_radius: float = DEFAULT_CAPTURE_RADIUS,
    cfg: Optional[ControllerConfig] = None,
) -> ConvergenceReport:
    """Quantify where (and whether) a trajectory settled.

    The target is the equilibrium nearest the mean position over the tail
    window (the last ``tail`` time units); the run counts as stabilized iff
    the maximum distance to the target over that window is within
    ``capture_radius``.  Control effort is the trapezoid-rule integral of
    |u| over the whole run.
    """
    check_report_settings(tail, capture_radius, traj.span)

    cut = traj.t[-1] - tail
    sel = traj.t >= cut
    tail_states = traj.states[sel]
    mean_state = tail_states.mean(axis=0)

    best_idx = 0
    best_dist = math.inf
    for i, point in enumerate(eqs.points):
        dist = float(np.linalg.norm(mean_state - point.as_array()))
        if dist < best_dist:
            best_idx = i
            best_dist = dist
    target = eqs.points[best_idx]
    target_arr = target.as_array()

    dists = np.sqrt(((tail_states - target_arr) ** 2).sum(axis=1))
    tail_max = float(dists.max())
    tail_mean = float(dists.mean())

    abs_u = np.abs(traj.u)
    effort = _trapezoid(abs_u, traj.t)
    if cfg is not None:
        post = abs_u[traj.t > cfg.t_on]
        max_abs_u = float(post.max()) if len(post) else 0.0
    else:
        max_abs_u = float(abs_u.max())

    return ConvergenceReport(
        target_label=eqs.labels[best_idx],
        target=target,
        tail_max_distance=tail_max,
        tail_mean_distance=tail_mean,
        stabilized=tail_max <= capture_radius,
        control_effort=effort,
        max_abs_u_post_activation=max_abs_u,
        controller=cfg,
        dt=float(traj.t[1] - traj.t[0]),
        t_end=float(traj.t[-1]),
        capture_radius=capture_radius,
        tail=tail,
    )


@dataclass(frozen=True)
class SweepCell:
    """Outcome of one (mode, K, epsilon) run; error text if the run aborted."""

    K: float
    epsilon: float
    mode: str
    in_admissible_interval: bool
    report: Optional[ConvergenceReport]
    error: Optional[str]


@dataclass(frozen=True)
class SweepReport:
    """All sweep cells in deterministic (mode, K, epsilon) order."""

    cells: tuple[SweepCell, ...]

    def stabilized_cells(self) -> tuple[SweepCell, ...]:
        return tuple(
            c for c in self.cells if c.report is not None and c.report.stabilized
        )


def sweep(
    p: Params,
    s0: State,
    grid: TimeGrid,
    K_values: Sequence[float],
    eps_values: Sequence[float],
    base_cfg: ControllerConfig,
    modes: Optional[Sequence[PredictionMode]] = None,
    tail: float = DEFAULT_TAIL,
    capture_radius: float = DEFAULT_CAPTURE_RADIUS,
) -> SweepReport:
    """Run every (mode, K, epsilon) cell and collect convergence reports.

    Cells run sequentially in a fixed order, so repeated sweeps are
    reproducible.  A cell whose run diverges records the error and leaves
    the report empty; it never aborts the sweep.  Each cell is flagged
    against the admissible gain interval for the system's d.

    Every cell starts from the same state on the same grid, and until its
    gate first opens it integrates the open-loop field, which no controller
    setting enters.  So the cells share one free-flow prefix: each finished
    cell's states up to its first open gate are the free flow, bit for bit,
    and later cells read the longest such prefix instead of stepping it
    again.  Each cell still evaluates its own gate at every sample.
    """
    if len(K_values) == 0 or len(eps_values) == 0:
        raise ValueError("K_values and eps_values must be nonempty")
    mode_list = tuple(modes) if modes is not None else (base_cfg.mode,)
    if not mode_list:
        raise ValueError("modes must be nonempty when given")

    eqs = equilibria(p)
    interval = admissible_gain_interval(p.d)
    cells = []
    free = None  # the longest free-flow prefix a finished cell has produced
    for mode in mode_list:
        for K in K_values:
            for eps in eps_values:
                cfg = replace(base_cfg, K=float(K), epsilon=float(eps), mode=mode)
                in_interval = interval.contains(cfg.K)
                try:
                    traj = _run(p, s0, grid, cfg, free)
                except IntegrationError as exc:
                    cells.append(
                        SweepCell(cfg.K, cfg.epsilon, mode.value, in_interval, None, str(exc))
                    )
                    continue
                report = convergence_report(
                    traj, eqs, tail=tail, capture_radius=capture_radius, cfg=cfg
                )
                cells.append(SweepCell(cfg.K, cfg.epsilon, mode.value, in_interval, report, None))
                # The run is the free flow up to and including its first
                # active sample, and all through if the gate never opened.
                first = int(traj.active.argmax())
                end = first + 1 if traj.active[first] else traj.n_samples
                if free is None or end > len(free):
                    free = traj.states[:end]
                del traj  # the next cell's run then shares memory with the prefix only
    return SweepReport(cells=tuple(cells))
