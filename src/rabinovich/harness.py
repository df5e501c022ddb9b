"""Simulation harness: controlled/uncontrolled runs, convergence metrics, sweeps.

Gating semantics: from one delay tau into the run on, the activation gate
(t > t_on and r < epsilon, with r = ||s(t) - s(t - tau)||) is evaluated once
per step, at the step's start, from the current state and the state tau
earlier.  An active step integrates the controlled vector field (open-loop
field plus the control term of ``control.control_coefficients`` on the
z-equation, at every RK4 substage); an inactive step integrates the pure
open-loop field.  ``_step`` writes both the gate and the term inline.  Every
recorded sample carries the control input u in force at that sample (zero
when inactive), the gate flag, and the recurrence distance r (absent, with
the gate inactive, while the delay window fills).  The gate and the
trajectory read their sample times from ``TimeGrid.times()``.

So until its gate first opens, a controlled run is the free flow bit for
bit: it steps the open-loop field, and the gate only reads the state.  A
``_FreeFlow`` holds that flow, stepped as far as a run has needed, and its r
at each lag; a run steps on from its first open sample, gated per sample,
and a run whose gate never opens is the whole flow.  ``run_each`` yields
every run of the CLI with its report, on one flow for several controllers
(a sweep's cells, ``reproduce``'s presets), a lone run on its own.
``Trajectory.work`` counts what a run did.

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
    control_coefficients,
    delay_steps,
)
from .dynamics import EquilibriumSet, Params, State, _finite, equilibria
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

# The stepped rows are checked for divergence at every multiple of this many
# samples, and the free flow's r is computed in blocks of as many.
_CHECK_ROWS = 512

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
    """What a run did (``Trajectory.work``; None if read from a file), summed
    at checks: RK4 steps integrated, its own and those the free flow made for
    it, samples gated one at a time, free-flow rows stepped for it past its
    first open gate (among ``steps``), and passes over the flow's r."""

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


def _divergence(k, grid, state) -> DivergenceError:
    """The error of a run whose row k, ``state``, failed the divergence check;
    a non-finite stage derivative always leaves a non-finite row."""
    t_k = grid.time_at(k)
    if not np.isfinite(state).all():
        return DivergenceError(k, t_k, "non-finite state component")
    return DivergenceError(k, t_k, f"state magnitude exceeded {DIVERGENCE_LIMIT:g}")


def _step(p, grid, cfg, states, gate, k, stop):
    """The one RK4 stepping loop: step rows ``[k, stop)`` of ``states`` from
    row k - 1, and return how many it stepped and the end of the rows that
    pass the divergence check: ``stop``, or the first failing row.

    ``cfg=None`` steps the free flow.  Else row k - 1 is the first open
    sample, and the rows are gated per sample (less ``t > t_on``, which holds
    there) into the arrays ``gate`` (u, flag, r), row k - 1's u too; a step
    takes the u of an open sample as its first-stage control term.

    The state is three Python floats, each row written straight into
    ``states`` (one memoryview a column), whence the gate reads the delayed
    state.  Each operation is the one the numpy RK4 step of
    ``tests/reference.py`` makes on each component, in its order, and the
    field, the control term g * (c*z + x*y) and the gate are inline, in the
    operations and order of ``field_components`` and ``control_coefficients``,
    and r as ``_FreeFlow.r`` rounds it: all give the same bits.

    No step tests its state: the rows stepped are checked in one numpy pass,
    for NaN or a component beyond ``DIVERGENCE_LIMIT``, at each multiple of
    ``_CHECK_ROWS``, at ``stop``, and at a shut sample whose r is NaN or at
    least 4 * ``DIVERGENCE_LIMIT``, which no two rows within the limit give.
    A failing row ends the stepping; ``_divergence`` reads its error from
    that row, as written here.
    """
    na, b, nd, h = -p.a, p.b, -p.d, p.h  # -a * x is (-a) * x
    sqrt, dt, limit = math.sqrt, grid.dt, DIVERGENCE_LIMIT
    # Two states within the limit are at most sqrt(12) * limit apart, so an r
    # this large (or NaN) means row k or row k - lag fails the check.
    half, sixth, far = 0.5 * dt, dt / 6.0, 4.0 * limit
    x_out, y_out, z_out = map(memoryview, states.T)
    x, y, z = states[k - 1].tolist()
    free, active = cfg is None, cfg is not None  # a gated run starts open
    if not free:
        lag, epsilon = delay_steps(cfg, dt), cfg.epsilon
        g, c = control_coefficients(p, cfg)  # u = g * (c*z + x*y)
        u_out, active_out, r_out = map(memoryview, gate)
        active_out[k - 1] = True
        u_out[k - 1] = u = g * (c * z + x * y)
    start = k
    while k < stop:
        begin, end = k, min(stop, (k // _CHECK_ROWS + 1) * _CHECK_ROWS)
        for k in range(begin, end):
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
            x_out[k], y_out[k], z_out[k] = x, y, z
            if free:
                continue
            i = k - lag  # the gate, r rounded as _FreeFlow.r rounds it
            dx, dy, dz = x - x_out[i], y - y_out[i], z - z_out[i]
            r_out[k] = r = sqrt(dx * dx + dy * dy + dz * dz)
            active = r < epsilon
            if active:
                active_out[k] = True
                u_out[k] = u = g * (c * z + x * y)
            elif not r < far:  # a row since the last check fails: check now
                end = k + 1
                break
        block = states[begin:end]
        if not (-limit <= block.min() and block.max() <= limit):  # fails on NaN too
            return end - start, begin + int((np.abs(block) <= limit).all(axis=1).argmin())
        k = end
    return k - start, k


class _FreeFlow:
    """The free flow of ``p`` from ``s0`` on ``grid``, stepped as far as runs
    ask: rows ``[0, end)`` are stepped and checked; if ``stepped`` is past
    ``end``, row ``end`` failed.  It keeps r and the never-open run by lag."""

    def __init__(self, p: Params, s0: State, grid: TimeGrid):
        self.p, self.grid, self.t = p, grid, grid.times()
        self.states = np.empty((len(self.t), 3))
        self.states[0] = s0.x, s0.y, s0.z
        self.end = int(np.abs(self.states[0]).max() <= DIVERGENCE_LIMIT)  # fails on NaN too
        self.stepped, self.passes = 1, 0
        self._r = {}  # lag -> [r, the first row whose r is not computed]
        self.shut = {}  # lag -> the run whose gate never opens

    def r(self, lag: int) -> np.ndarray:
        """r at ``lag`` up to ``end``, NaN before ``lag``, computed
        ``_CHECK_ROWS`` rows at a time, so that no pass makes full-length
        temporaries.  Each r is rounded through ``dx*dx + dy*dy + dz*dz`` and
        the square root, in that order, as ``_step`` rounds it; the rows read
        are checked, within ``DIVERGENCE_LIMIT``, so no square overflows."""
        entry = self._r.get(lag)
        if entry is None:
            entry = self._r[lag] = [np.full(len(self.t), np.nan), lag]
        r, done = entry
        for i in range(done, self.end, _CHECK_ROWS):
            j = min(self.end, i + _CHECK_ROWS)
            sq = self.states[i:j] - self.states[i - lag:j - lag]
            sq *= sq
            out = r[i:j]
            np.add(sq[:, 0], sq[:, 1], out=out)
            out += sq[:, 2]
            np.sqrt(out, out=out)
        entry[1] = max(done, self.end)
        return r

    def first_open(self, cfg: Optional[ControllerConfig], lag: int) -> Optional[int]:
        """The first sample with t > t_on and r < epsilon, or None (always
        for ``cfg=None``) once the flow is stepped to its end or fails.

        The flow is stepped on only as far as it must be, in stretches, each
        gated in one pass over r.  The first ends one sample past the later
        of the first sample that can open and the flow's end; each later one
        is as long as all the samples stepped from there on, so fewer are
        stepped past the first open sample than were gated before it.
        """
        n = self.grid.n_steps
        opening = n + 1 if cfg is None else max(lag, int(np.searchsorted(self.t, cfg.t_on, "right")))
        base, scanned = max(opening, self.end), opening
        while True:
            if scanned < self.end:  # t > t_on holds from ``opening`` on
                self.passes += 1
                opens = self.r(lag)[scanned:self.end] < cfg.epsilon
                first = int(opens.argmax())
                if opens[first]:
                    return scanned + first
                scanned = self.end
            if self.end < self.stepped or self.end > n:
                return None
            self.extend(min(n + 1, max(base + 1, 2 * self.end - base)))

    def extend(self, stop: int):
        """Step the flow on to row ``stop``, or to a row that fails."""
        steps, self.end = _step(self.p, self.grid, None, self.states, None, self.end, stop)
        self.stepped += steps


def _run(
    p: Params, s0: State, grid: TimeGrid, cfg: Optional[ControllerConfig],
    flow: Optional[_FreeFlow] = None,
) -> Trajectory:
    """The run of ``cfg`` (``None`` for the free flow) on ``flow``, the free
    flow of the same ``p``, ``s0`` and ``grid``, or on a flow of its own.

    A run whose gate never opens is the whole flow, with u and active all
    zero: one object for each lag of a flow.  Else it is the flow up to its
    first open sample, and ``_step`` steps the rest, on its own flow in the
    flow's arrays, else in a copy.  A failed run raises its failing row's error.
    """
    own, flow = flow is None, flow or _FreeFlow(p, s0, grid)
    stepped, passes = flow.stepped, flow.passes
    lag = None if cfg is None else delay_steps(cfg, grid.dt)
    first = flow.first_open(cfg, lag)
    made, passes = flow.stepped - stepped, flow.passes - passes  # for this run
    n = grid.n_steps
    if first is None:
        if flow.end <= n:  # row ``end`` failed, row 0 for a start beyond the limit
            raise _divergence(flow.end, grid, flow.states[flow.end])
        if lag not in flow.shut:
            r = np.full(n + 1, np.nan) if cfg is None else flow.r(lag)
            u, active = np.zeros(n + 1), np.zeros(n + 1, dtype=bool)
            flow.shut[lag] = Trajectory(flow.t, flow.states, u, active, r, RunWork(made, 0, 0, passes))
        return flow.shut[lag]
    states, rs = flow.states, flow.r(lag)
    if not own:  # the run writes over the rows past ``first``, which the flow keeps
        states, rs = states.copy(), rs.copy()
    gate = us, actives, rs = np.zeros(n + 1), np.zeros(n + 1, dtype=bool), rs
    steps, end = _step(p, grid, cfg, states, gate, first + 1, n + 1)
    if end <= n:
        raise _divergence(end, grid, states[end])
    dropped = made - max(0, first + 1 - stepped)  # the flow's rows past ``first``
    work = RunWork(steps + made, n - first, dropped, passes)
    return Trajectory(t=flow.t, states=states, u=us, active=actives, r=rs, work=work)


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
    p: Params, s0: State, grid: TimeGrid, cfgs: Iterable[Optional[ControllerConfig]],
    tail: float = DEFAULT_TAIL, capture_radius: float = DEFAULT_CAPTURE_RADIUS,
) -> Iterator[tuple[Union[Trajectory, IntegrationError], Optional[ConvergenceReport]]]:
    """Check the report settings, then yield, in order, each controller's
    ``run_controlled(p, s0, grid, cfg)`` (``run_uncontrolled`` for None), bit
    for bit, with read-only arrays, and its ``convergence_report`` with
    ``tail`` and ``capture_radius``; or the ``IntegrationError`` it raised,
    without its traceback, and None.

    Several runs share one free flow, which each steps only past what an
    earlier one stepped, and its r at each lag; a lone run steps on in its
    own flow's arrays, not a copy.  The runs of one lag whose gate never
    opens are one object, whose ``work`` is the first's; so is the report,
    but for its controller, which the report reads only to echo it.
    """
    check_report_settings(tail, capture_radius, grid.t_end)
    cfgs, eqs = list(cfgs), equilibria(p)
    flow = _FreeFlow(p, s0, grid) if len(cfgs) > 1 else None
    shut = shut_report = None  # the last run whose gate never opened, and its report
    for cfg in cfgs:
        try:
            result = _run(p, s0, grid, cfg, flow)
        except IntegrationError as exc:
            # Yielded as a value, without its traceback: this frame holds it
            # while suspended, and the traceback's frames would close a cycle
            # that keeps the failed run's arrays until a collection.
            result, report = exc.with_traceback(None), None
        else:
            for array in (result.t, result.states, result.u, result.active, result.r):
                array.flags.writeable = False  # a later run may copy or be handed them
            if result is shut:
                report = replace(shut_report, controller=cfg)
            else:
                report = convergence_report(
                    result, eqs, grid, tail=tail, capture_radius=capture_radius, cfg=cfg
                )
                if not result.active.any():
                    shut, shut_report = result, report
        yield result, report
        del result


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
    return float(np.add.reduce(sums) * 0.5)


def check_report_settings(tail: float, capture_radius: float, span: float) -> None:
    """Require a positive finite tail window shorter than the run span and a
    positive finite capture radius; raises ValueError naming the setting."""
    _finite("tail", tail, positive=True)
    if tail >= span:
        raise ValueError(f"tail ({tail!r}) must be shorter than the run span ({span!r})")
    _finite("capture_radius", capture_radius, positive=True)


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
    ``capture_radius``.  Control effort (a trapezoid-rule integral of |u|)
    and the largest |u| are taken over the whole run: u is zero until the
    gate first opens, past t_on.  ``cfg``, ``dt`` and ``t_end`` are echoed.
    """
    if traj.n_samples != grid.n_steps + 1:
        raise ValueError(f"grid has {grid.n_steps + 1} samples, the trajectory {traj.n_samples}")
    check_report_settings(tail, capture_radius, grid.t_end)

    # t strictly increases, so both windows are slices, not masked copies.
    cut = traj.t[-1] - tail
    tail_states = traj.states[np.searchsorted(traj.t, cut, "left"):]
    mean_state = np.add.reduce(tail_states) / len(tail_states)  # the bits of .mean(axis=0)

    gaps = np.array([(q.x, q.y, q.z) for q in eqs.points]) - mean_state
    best_idx = int(np.sqrt(np.add.reduce(gaps * gaps, axis=1)).argmin())  # the first of equal distances
    target = eqs.points[best_idx]

    dists = np.sqrt(np.add.reduce((tail_states - target.as_array()) ** 2, axis=1))
    tail_max = float(dists.max())
    tail_mean = float(np.add.reduce(dists) / len(dists))

    abs_u = np.abs(traj.u)
    effort = _trapezoid(abs_u, traj.t)

    return ConvergenceReport(
        target_label=eqs.labels[best_idx],
        target=target,
        tail_max_distance=tail_max,
        tail_mean_distance=tail_mean,
        stabilized=tail_max <= capture_radius,
        control_effort=effort,
        max_abs_u_post_activation=float(abs_u.max()),
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
    the report empty; it never aborts the sweep.

    The cells are the controllers of one ``run_each``, on one free flow;
    the outputs equal those of every cell run alone.
    """
    if len(K_values) == 0 or len(eps_values) == 0:
        raise ValueError("K_values and eps_values must be nonempty")
    mode_list = tuple(modes) if modes is not None else (base_cfg.mode,)
    if not mode_list:
        raise ValueError("modes must be nonempty when given")

    cfgs = [
        replace(base_cfg, K=K, epsilon=eps, mode=mode)
        for mode in mode_list for K in K_values for eps in eps_values
    ]
    results = run_each(p, s0, grid, cfgs, tail, capture_radius)
    cells = []
    for cfg in cfgs:
        result, report = next(results)  # not zip(), whose reused tuple keeps it alive a run longer
        error = str(result) if report is None else None
        del result
        cells.append(SweepCell(cfg.K, cfg.epsilon, cfg.mode.value, report, error))
    return SweepReport(cells=tuple(cells))
