"""Simulation harness: controlled/uncontrolled runs, convergence metrics, sweeps.

Gating semantics: from one delay tau into the run on, the activation gate
(``control.gate_samples``) is evaluated once per step, at the step's start,
from the current state and the state tau earlier.  An active step
integrates the controlled vector field (open-loop field plus the control term
of ``control.control_coefficients`` on the z-equation, at every RK4 substage);
an inactive step integrates the pure open-loop field.  ``_run`` writes both
the gate and the term inline.  Every recorded sample carries the control
input u in force at that sample (zero when inactive), the gate flag, and the
recurrence distance r (absent, with the gate inactive, while the delay window
fills).  The gate and the trajectory read their sample times from
``TimeGrid.times()``.

So until its gate first opens, a controlled run is the free flow bit for
bit: it steps the open-loop field, and the gate only reads the state.  Runs
from one start on one grid share that prefix, and ``run_each`` steps it only
once for a sequence of controllers (the cells of a sweep, the presets of
``reproduce``).  Until then a run gates the free flow in stretches, one
numpy pass (``control.gate_samples``) each, and from its first open gate on
per sample; ``Trajectory.work`` counts what it did.

Convergence is a measured quantity, never an assumption: a run is declared
stabilized only if the whole tail window stays within the capture radius
of the nearest equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .control import (
    ControllerConfig,
    PredictionMode,
    admissible_gain_interval,
    control_coefficients,
    delay_steps,
    gate_samples,
)
from .dynamics import EquilibriumSet, Params, State, equilibria
from .integrator import DIVERGENCE_LIMIT, DivergenceError, IntegrationError, TimeGrid

__all__ = [
    "Trajectory",
    "ConvergenceReport",
    "SweepCell",
    "SweepReport",
    "run_uncontrolled",
    "run_controlled",
    "run_each",
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


class _SampleError(ValueError):
    """A Trajectory check that fails first at sample ``index``; the CSV
    reader names that sample's row."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class RunWork:
    """What ``_run`` did (``Trajectory.work``; None if read from a file), summed at
    stretch ends: RK4 steps integrated, samples gated one at a time, free steps
    past the first open gate integrated and dropped (among ``steps``), gate passes."""

    steps: int
    gated: int
    dropped: int
    passes: int


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered samples (t, state, u, active, r); r is NaN while absent."""

    t: np.ndarray
    states: np.ndarray
    u: np.ndarray
    active: np.ndarray
    r: np.ndarray
    work: Optional[RunWork] = None

    def __post_init__(self):
        n = len(self.t)
        if not (len(self.states) == len(self.u) == len(self.active) == len(self.r) == n):
            raise ValueError("trajectory arrays must have equal length")
        if n < 2:
            raise ValueError("a trajectory needs at least two samples")
        if self.states.shape != (n, 3):
            raise ValueError(f"states must have shape ({n}, 3), got {self.states.shape}")
        # Both tests allocate at most a bool a sample (and an index a nonzero
        # u), not full-length float temporaries; NaN fails each of them.
        later = self.t[1:] > self.t[:-1]
        if not later.all():
            raise _SampleError(
                "sample times must be strictly increasing", int(later.argmin()) + 1
            )
        del later
        nonzero = np.flatnonzero(self.u)
        gated = self.active[nonzero]
        if not gated.all():
            raise _SampleError(
                "u must be zero at every inactive sample", int(nonzero[gated.argmin()])
            )

    @property
    def n_samples(self) -> int:
        return len(self.t)


def _divergence(k, grid, t, stages, state) -> DivergenceError:
    """The error a failed step k raises, found after the fact: the first
    stage with a non-finite derivative, else the non-finite or too large state.

    A non-finite derivative always makes the stepped state non-finite, so the
    loop needs only its one magnitude test to know that something failed.
    """
    t_prev, dt = t[k - 1], grid.dt
    stage_times = (t_prev, t_prev + 0.5 * dt, t_prev + 0.5 * dt, t_prev + dt)
    for t_stage, derivative in zip(stage_times, stages):
        if not all(math.isfinite(v) for v in derivative):
            return DivergenceError(k, t_prev, f"non-finite derivative at t={t_stage!r}")
    t_k = t[k] if k else grid.t0
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
    state back from them, and its time from ``grid.times()``, which the run
    returns.  Each arithmetic operation is the one the numpy RK4 step of
    ``tests/reference.py`` makes on each array component, in the same order,
    so both give bit-identical results.  A step calls nothing: the vector
    field (on ``-a`` and ``-d`` negated once a run), the control term
    g * (c*z + x*y) (on ``control_coefficients`` read once a run) and the
    per-sample gate are inline, in the operations and order of
    ``field_components`` and ``gate_samples`` (less the gate's time test,
    which always holds there), so they give those functions' bits.  A step
    from an open sample takes the u recorded there as its first-stage control
    term.

    Until the gate first opens the run is the free flow bit for bit, so no
    gate runs per sample until then.  ``free`` may hold the leading rows of
    the free flow of the same ``p``, ``s0`` and ``grid``; they are copied,
    not stepped.  The free flow then goes on in stretches, each gated in one
    ``gate_samples`` pass, equal to the per-sample gate bit for bit.  The
    first stretch ends one sample past the later of the last sample that
    cannot open (before the delay window fills or at ``t <= t_on``) and the
    last row of ``free``, and each later one is as long as all the samples
    this run stepped from there on, so the lengths double from 1.  At the
    first open sample the stretch's later samples are dropped, and the run
    steps on from there with the gate per sample: the free steps dropped are
    fewer than the free steps this run stepped and gated before them.  A free
    step that diverges inside a stretch raises only if no gate opens before it.
    """
    lag = delay_steps(cfg, grid.dt) if cfg is not None else 0
    sqrt = math.sqrt
    na, b, nd, h = -p.a, p.b, -p.d, p.h  # -a * x is (-a) * x
    dt, n = grid.dt, grid.n_steps
    half, sixth, limit = 0.5 * dt, dt / 6.0, DIVERGENCE_LIMIT

    t = grid.times()
    states = np.empty((n + 1, 3))
    us = np.zeros(n + 1)
    actives = np.zeros(n + 1, dtype=bool)
    rs = np.full(n + 1, np.nan)
    t_at, state_out, r_out = memoryview(t), memoryview(states.reshape(-1)), memoryview(rs)

    x, y, z = s0.x, s0.y, s0.z
    active = False
    k = 0 if free is None else len(free)  # the next sample to step
    if k:
        states[:k] = free
        x, y, z = states[k - 1].tolist()
    shut = cfg is not None  # the gate has not opened yet
    if shut:
        g, c = control_coefficients(p, cfg)  # u = g * (c*z + x*y)
        t_on, epsilon = cfg.t_on, cfg.epsilon
        opening = max(lag, int(np.searchsorted(t, t_on, "right")))  # the first that can open
        base = max(opening, k)  # where the doubling counts from: this run's own steps
        gated = lag  # the first sample whose r is not yet recorded
    stop = k if shut else n + 1  # the end of the stretch being stepped
    gate_from = n + 1  # the first sample gated one by one
    steps, dropped, passes = -1 if k == 0 else 0, 0, 0  # sample 0 is s0, not a step

    while True:
        begin = k
        for k in range(k, stop):
            j = 3 * k
            if k:
                k1x, k1y, k1z = na * x + h * y + y * z, h * x - b * y - x * z, nd * z + x * y
                if active:  # the u recorded at the step's start
                    k1z = k1z + u
                sx, sy, sz = x + half * k1x, y + half * k1y, z + half * k1z
                k2x, k2y, k2z = na * sx + h * sy + sy * sz, h * sx - b * sy - sx * sz, nd * sz + sx * sy
                if active:
                    k2z = k2z + g * (c * sz + sx * sy)
                sx, sy, sz = x + half * k2x, y + half * k2y, z + half * k2z
                k3x, k3y, k3z = na * sx + h * sy + sy * sz, h * sx - b * sy - sx * sz, nd * sz + sx * sy
                if active:
                    k3z = k3z + g * (c * sz + sx * sy)
                sx, sy, sz = x + dt * k3x, y + dt * k3y, z + dt * k3z
                k4x, k4y, k4z = na * sx + h * sy + sy * sz, h * sx - b * sy - sx * sz, nd * sz + sx * sy
                if active:
                    k4z = k4z + g * (c * sz + sx * sy)
                x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
                y = y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
                z = z + sixth * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
            # Fails on NaN as well as on magnitude.
            if not (abs(x) <= limit and abs(y) <= limit and abs(z) <= limit):
                break  # step k diverged
            state_out[j], state_out[j + 1], state_out[j + 2] = x, y, z
            if k < gate_from:
                continue
            i = j - 3 * lag  # the gate, as control.gate_samples computes it
            dx, dy, dz = x - state_out[i], y - state_out[i + 1], z - state_out[i + 2]
            r_out[k] = r = sqrt(dx * dx + dy * dy + dz * dz)
            # less its t > t_on, which holds here: samples are gated one by
            # one only past the first open sample, whose time is past t_on,
            # and the grid's times never decrease
            active = r < epsilon
            if active:
                actives[k] = True
                us[k] = u = g * (c * z + x * y)
        else:
            k = stop
        stepped = min(k + 1, stop)  # past the last sample stepped, a failed one too
        steps += stepped - begin
        if shut and k > gated:  # gate the free samples stepped since the last pass
            passes += 1
            opens, r = gate_samples(states[gated - lag:k], lag, t[gated:k], cfg)
            first = int(opens.argmax())
            shut = not opens[first]
            end = k if shut else gated + first + 1
            rs[gated:end] = r[:end - gated]
            gated = end
            del opens, r
            if not shut:  # drop the later free samples; step on, controlled
                dropped = stepped - max(end, begin)  # none if ``free`` holds them
                k, stop, gate_from = end, n + 1, end
                x, y, z = states[k - 1].tolist()
                actives[k - 1] = active = True
                us[k - 1] = u = g * (c * z + x * y)
                continue
        if k < stop:
            # Built here, not kept in a local: a kept error would hold this
            # frame, and its arrays, in a cycle through its traceback.
            raise _divergence(
                k, grid, t_at,
                ((k1x, k1y, k1z), (k2x, k2y, k2z), (k3x, k3y, k3z), (k4x, k4y, k4z))
                if k else (),
                (x, y, z),
            )
        if k > n:
            work = RunWork(steps, n + 1 - gate_from, dropped, passes)
            return Trajectory(t=t, states=states, u=us, active=actives, r=rs, work=work)
        stop = min(n + 1, max(base + 1, 2 * k - base))


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


def run_each(
    p: Params, s0: State, grid: TimeGrid, cfgs: Iterable[ControllerConfig]
) -> Iterator[Union[Trajectory, IntegrationError]]:
    """Yield, in order, each controller's ``run_controlled(p, s0, grid, cfg)``,
    bit for bit, or the ``IntegrationError`` it raised, without its traceback.

    A finished run is the free flow up to its first open gate, which no
    controller setting enters; each later run reads the longest such prefix
    instead of stepping it again, and steps from its own first open gate.
    """
    free = None  # the longest free-flow prefix a finished run has produced
    for cfg in cfgs:
        try:
            result = _run(p, s0, grid, cfg, free)
        except IntegrationError as exc:
            # Yielded as a value, without its traceback: this frame holds it
            # while suspended, and the traceback's frames would close a cycle
            # that keeps the failed run's arrays until a collection.
            result = exc.with_traceback(None)
        else:
            # The run is the free flow up to and including its first active
            # sample, and all through if the gate never opened.
            first = int(result.active.argmax())
            end = first + 1 if result.active[first] else result.n_samples
            if free is None or end > len(free):
                free = result.states[:end]
        yield result
        del result  # the next run then shares memory with the prefix only


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
    sums = values[1:] + values[:-1]
    sums *= t[1:] - t[:-1]
    return float(np.sum(sums) * 0.5)


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
    grid: TimeGrid,
    tail: float = DEFAULT_TAIL,
    capture_radius: float = DEFAULT_CAPTURE_RADIUS,
    cfg: Optional[ControllerConfig] = None,
) -> ConvergenceReport:
    """Quantify where (and whether) a trajectory settled.

    The target is the equilibrium nearest the mean position over the tail
    window (the last ``tail`` time units); the run counts as stabilized iff
    the maximum distance to the target over that window is within
    ``capture_radius``.  Control effort is the trapezoid-rule integral of
    |u| over the whole run.  ``dt`` and ``t_end`` are echoed from ``grid``.
    """
    if traj.n_samples != grid.n_steps + 1:
        raise ValueError(f"grid has {grid.n_steps + 1} samples, the trajectory {traj.n_samples}")
    check_report_settings(tail, capture_radius, grid.t_end - grid.t0)

    # t strictly increases, so both windows are slices, not masked copies.
    cut = traj.t[-1] - tail
    tail_states = traj.states[np.searchsorted(traj.t, cut, "left"):]
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
        post = abs_u[np.searchsorted(traj.t, cfg.t_on, "right"):]
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
        dt=grid.dt,
        t_end=grid.t_end,
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

    The cells are the controllers of one ``run_each``, so they step the
    shared free-flow prefix only once; the outputs equal those of running
    every cell on its own.
    """
    if len(K_values) == 0 or len(eps_values) == 0:
        raise ValueError("K_values and eps_values must be nonempty")
    mode_list = tuple(modes) if modes is not None else (base_cfg.mode,)
    if not mode_list:
        raise ValueError("modes must be nonempty when given")

    eqs = equilibria(p)
    interval = admissible_gain_interval(p.d)
    cfgs = [
        replace(base_cfg, K=float(K), epsilon=float(eps), mode=mode)
        for mode in mode_list for K in K_values for eps in eps_values
    ]
    results = run_each(p, s0, grid, cfgs)
    cells = []
    for cfg in cfgs:
        result = next(results)  # not zip(), whose reused tuple keeps it alive a run longer
        if isinstance(result, IntegrationError):
            report, error = None, str(result)
        else:
            report = convergence_report(
                result, eqs, grid, tail=tail, capture_radius=capture_radius, cfg=cfg
            )
            error = None
        del result
        cells.append(
            SweepCell(cfg.K, cfg.epsilon, cfg.mode.value, interval.contains(cfg.K), report, error)
        )
    return SweepReport(cells=tuple(cells))
