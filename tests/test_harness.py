import gc
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rabinovich import (
    ControllerConfig,
    DivergenceError,
    IntegrationError,
    Params,
    PredictionMode,
    State,
    TimeGrid,
    Trajectory,
    convergence_report,
    delay_steps,
    equilibria,
    field_components,
    render_report,
    run_controlled,
    run_each,
    run_uncontrolled,
    sweep,
)
from rabinovich import harness
from rabinovich.harness import _run
from reference import activation_gate, check_state, control_term, rk4_step

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
short_grid = TimeGrid(0.0, 5.0, 0.1)


def constant_trajectory(point: State, t_end=30.0, dt=0.1, u=0.0, active=False):
    """A trajectory parked at ``point``, and its grid."""
    g = TimeGrid(0.0, t_end, dt)
    n = g.n_steps + 1
    return Trajectory(
        t=g.times(),
        states=np.tile(point.as_array(), (n, 1)),
        u=np.full(n, u),
        active=np.full(n, active, dtype=bool),
        r=np.full(n, np.nan),
    ), g


# --- Trajectory invariants ------------------------------------------------------

def test_trajectory_rejects_decreasing_times():
    with pytest.raises(ValueError):
        Trajectory(
            t=np.array([0.0, 0.2, 0.1]),
            states=np.zeros((3, 3)),
            u=np.zeros(3),
            active=np.zeros(3, dtype=bool),
            r=np.full(3, np.nan),
        )


def test_trajectory_rejects_control_while_inactive():
    with pytest.raises(ValueError):
        Trajectory(
            t=np.array([0.0, 0.1]),
            states=np.zeros((2, 3)),
            u=np.array([0.0, 1.0]),
            active=np.array([False, False]),
            r=np.full(2, np.nan),
        )


def trajectory_with(t=(0.0, 0.1, 0.2), u=(0.0, 0.0, 0.0), active=(False, False, False)):
    n = len(t)
    return Trajectory(
        t=np.array(t),
        states=np.zeros((n, 3)),
        u=np.array(u),
        active=np.array(active, dtype=bool),
        r=np.full(n, np.nan),
    )


@pytest.mark.parametrize("t", [(0.0, 0.1, 0.1), (0.0, math.nan, 0.2), (math.nan, 0.1, 0.2)])
def test_trajectory_rejects_times_not_strictly_increasing(t):
    with pytest.raises(ValueError, match="strictly increasing"):
        trajectory_with(t=t)


@pytest.mark.parametrize("u", [math.nan, 1e-300, -math.inf])
def test_trajectory_rejects_nonzero_or_nan_u_while_inactive(u):
    with pytest.raises(ValueError, match="zero at every inactive sample"):
        trajectory_with(u=(0.0, u, 2.0), active=(False, False, True))


def test_trajectory_accepts_negative_zero_u_while_inactive():
    traj = trajectory_with(u=(-0.0, 0.0, math.nan), active=(False, False, True))
    assert math.copysign(1.0, traj.u[0]) == -1.0


def test_trajectory_checks_allocate_no_float_temporaries(params, s0, controller):
    # A never-open run: the checks allocate one bool a sample for the times
    # and nothing for u (no nonzero entries); 9 bytes a sample with
    # np.diff and a masked copy of u.
    run = run_controlled(params, s0, TimeGrid(0.0, 2000.0, 0.1), controller)
    assert run.n_samples == 20001 and not run.active.any()
    arrays = {name: getattr(run, name) for name in ("t", "states", "u", "active", "r")}
    tracemalloc.start()
    try:
        Trajectory(**arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / run.n_samples < 2.0


def test_trajectory_basic_accessors(free_run, grid):
    assert free_run.n_samples == 2001
    assert np.array_equal(free_run.t, grid.times())


# --- uncontrolled runs ------------------------------------------------------------

def test_origin_is_invariant(params):
    traj = run_uncontrolled(params, State(0.0, 0.0, 0.0), short_grid)
    assert np.array_equal(traj.states, np.zeros_like(traj.states))
    assert not traj.active.any()
    assert np.all(traj.u == 0.0)
    assert np.isnan(traj.r).all()


def test_free_run_stays_bounded(free_run):
    # oracle for the chaotic reference run: max |component| ~ 10.83
    assert np.abs(free_run.states).max() < 50.0
    assert np.isfinite(free_run.states).all()


def test_free_run_times_are_exact_grid(free_run, grid):
    assert np.array_equal(free_run.t, grid.times())


def test_sensitive_dependence(params, s0, grid, free_run):
    nudged = run_uncontrolled(params, State(s0.x + 1e-8, s0.y, s0.z), grid)
    sep = np.sqrt(((free_run.states - nudged.states) ** 2).sum(axis=1))
    assert sep[-1] > 1.0  # oracle: ~6.49 at t=200
    assert sep[0] == pytest.approx(1e-8)


@given(x=coords, y=coords, z=coords)
@settings(max_examples=15)
def test_mirror_symmetry_bitwise(x, y, z):
    # (x, y, z) -> (-x, -y, z) commutes with the flow bit for bit; far from
    # the attractor some seeds genuinely blow up, and then both runs must
    # abort at the same step.
    p = Params(4.0, 1.0, 1.0, 6.75)

    def attempt(s: State):
        try:
            return run_uncontrolled(p, s, short_grid)
        except DivergenceError as err:
            return (err.step_index, err.time)

    a = attempt(State(x, y, z))
    b = attempt(State(-x, -y, z))
    if isinstance(a, tuple) or isinstance(b, tuple):
        assert a == b
    else:
        flip = np.array([-1.0, -1.0, 1.0])
        assert np.array_equal(b.states, a.states * flip)


def test_divergence_propagates_step_context(params):
    # blow-up field disguised as a run: huge positive gain, gate wide open
    cfg = ControllerConfig(K=20.0, epsilon=1e9, t_on=0.0)
    with pytest.raises(DivergenceError) as exc_info:
        run_controlled(params, State(1.5, -1.25, 3.5), TimeGrid(0.0, 200.0, 0.1), cfg)
    assert exc_info.value.step_index == 12  # oracle run


# --- controlled runs ---------------------------------------------------------------

def test_zero_gain_equivalence(params, s0, grid, free_run):
    cfg = ControllerConfig(K=0.0, epsilon=0.1, t_on=40.0)
    traj = run_controlled(params, s0, grid, cfg)
    assert np.array_equal(traj.t, free_run.t)
    assert np.array_equal(traj.states, free_run.states)
    assert np.array_equal(traj.u, free_run.u)


def test_delay_window_masks_first_samples(params, s0, grid, controller):
    traj = run_controlled(params, s0, grid, controller)
    assert np.isnan(traj.r[:10]).all()   # tau=1, dt=0.1 -> 10 samples absent
    assert np.isfinite(traj.r[10:]).all()
    assert not traj.active[:10].any()


def test_recorded_r_matches_state_history(params, s0, grid, controller):
    traj = run_controlled(params, s0, grid, controller)
    S = traj.states
    expected = np.sqrt(((S[10:] - S[:-10]) ** 2).sum(axis=1))
    assert traj.r[10:] == pytest.approx(expected, rel=1e-12)


def test_gating_correctness(params, s0, grid):
    # epsilon=0.5 opens the gate on a handful of samples (oracle: 7)
    cfg = ControllerConfig(K=-0.6, epsilon=0.5, t_on=40.0)
    traj = run_controlled(params, s0, grid, cfg)
    assert traj.active.sum() > 0
    for k in np.nonzero(traj.u != 0.0)[0]:
        assert traj.t[k] > cfg.t_on
        assert traj.r[k] < cfg.epsilon
        assert traj.active[k]
    # and active samples record exactly the control law at that state
    for k in np.nonzero(traj.active)[0]:
        x, y, z = traj.states[k]
        assert traj.u[k] == control_term(params, cfg, x, y, z)


def test_tight_gate_never_opens(params, s0, grid, controller, eqs):
    # oracle: min r along the free attractor is ~0.269 > epsilon=0.1, so
    # the neighborhood gate never opens and the run is the free flow
    traj = run_controlled(params, s0, grid, controller)
    assert not traj.active.any()
    assert np.all(traj.u == 0.0)
    rep = convergence_report(traj, eqs, grid, cfg=controller)
    assert rep.control_effort == 0.0
    assert rep.max_abs_u_post_activation == 0.0


def test_modes_agree_while_gate_is_shut(params, s0, grid):
    a = run_controlled(params, s0, grid, ControllerConfig(K=-0.6, epsilon=0.1))
    b = run_controlled(
        params, s0, grid, ControllerConfig(K=-0.6, epsilon=0.1, mode=PredictionMode.EULER)
    )
    assert np.array_equal(a.states, b.states)


def test_delay_window_fills_then_slides(params, s0):
    # lag 3: r is absent until three steps have been taken, then measures the
    # distance to the state exactly three samples back
    g = TimeGrid(0.0, 5.0, 0.1)
    traj = run_controlled(params, s0, g, ControllerConfig(K=-0.6, epsilon=0.5, tau=0.3))
    assert np.isnan(traj.r[:3]).all()
    S = traj.states
    for k in range(3, g.n_steps + 1):
        dx, dy, dz = (float(S[k, i]) - float(S[k - 3, i]) for i in range(3))
        assert traj.r[k] == math.sqrt(dx * dx + dy * dy + dz * dz)


def test_tau_must_fit_grid(params, s0):
    cfg = ControllerConfig(K=-0.6, tau=1.0)
    with pytest.raises(ValueError):
        run_controlled(params, s0, TimeGrid(0.0, 3.0, 0.3), cfg)


# --- convergence reports --------------------------------------------------------------

def test_report_constant_at_equilibrium(params, eqs):
    traj, g = constant_trajectory(eqs.points[1])
    rep = convergence_report(traj, eqs, g, tail=20.0, capture_radius=0.5)
    assert rep.stabilized
    assert rep.target_label == "positive-x"
    assert rep.target == eqs.points[1]
    assert rep.tail_max_distance == 0.0
    assert rep.tail_mean_distance == 0.0
    assert rep.control_effort == 0.0


def test_report_parked_at_origin(params, eqs):
    traj, g = constant_trajectory(State(0.0, 0.0, 0.0))
    rep = convergence_report(traj, eqs, g)
    assert rep.target_label == "origin"
    assert rep.control_effort == 0.0
    assert rep.stabilized


def test_report_chaotic_run_not_stabilized(free_run, grid, eqs):
    rep = convergence_report(free_run, eqs, grid)
    assert not rep.stabilized
    assert rep.tail_max_distance > 10.0  # attractor diameter >> capture radius


def test_report_effort_is_time_integral(eqs):
    # |u| = 2 held for the whole 30-unit window -> effort 60
    traj, g = constant_trajectory(State(0.0, 0.0, 0.0), u=2.0, active=True)
    rep = convergence_report(traj, eqs, g)
    assert rep.control_effort == pytest.approx(60.0, rel=1e-12)


def test_report_temporaries_stay_below_a_run(controller, eqs):
    # The windows are slices and the trapezoid works in place, so the report
    # allocates |u| and the interval sums and widths, about 24 bytes a sample
    # (33 with masked copies), well under the 49 bytes of the trajectory.
    traj, g = constant_trajectory(eqs.points[1], t_end=2000.0, u=2.0, active=True)
    tracemalloc.start()
    try:
        convergence_report(traj, eqs, g, cfg=controller)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / traj.n_samples < 28.0


def test_report_settings_echo(params, s0, grid, controller, eqs):
    traj = run_controlled(params, s0, grid, controller)
    rep = convergence_report(traj, eqs, grid, tail=20.0, capture_radius=0.5, cfg=controller)
    assert rep.controller is controller
    assert rep.controller.mode.value == "literal"
    assert rep.dt == 0.1
    assert rep.t_end == 200.0
    assert rep.capture_radius == 0.5
    assert rep.tail == 20.0
    text = render_report(rep)
    for line in ("control: literal prediction", "K = -0.59999999999999998",
                 "epsilon = 0.10000000000000001", "t_on = 40", "tau = 1",
                 "capture_radius = 0.5", "tail = 20"):
        assert line + "\n" in text
    assert "note: distances use the euclidean norm over the full state vector\n" in text
    assert "note: gate evaluated once per step, at the step's start\n" in text


def test_report_rejects_bad_tail(free_run, grid, eqs):
    with pytest.raises(ValueError):
        convergence_report(free_run, eqs, grid, tail=0.0)
    with pytest.raises(ValueError):
        convergence_report(free_run, eqs, grid, tail=200.0)  # tail >= span
    with pytest.raises(ValueError):
        convergence_report(free_run, eqs, grid, capture_radius=0.0)


@pytest.mark.parametrize("kwargs", [
    {"tail": math.nan}, {"tail": math.inf},
    {"capture_radius": math.nan}, {"capture_radius": math.inf},
])
def test_report_rejects_nonfinite_settings(free_run, grid, eqs, kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        convergence_report(free_run, eqs, grid, **kwargs)


def test_report_rejects_another_runs_grid(free_run, eqs):
    with pytest.raises(ValueError, match="grid has 51 samples, the trajectory 2001"):
        convergence_report(free_run, eqs, short_grid, tail=1.0)


def test_uncontrolled_report_has_no_controller_echo(free_run, grid, eqs):
    rep = convergence_report(free_run, eqs, grid)
    assert rep.controller is None
    assert rep.max_abs_u_post_activation == 0.0
    text = render_report(rep)
    assert "control: off\n" in text
    assert "K = " not in text and "tau = " not in text
    assert "note: distances use the euclidean norm" in text


# --- sweeps -----------------------------------------------------------------------------

def test_sweep_single_zero_gain_cell_matches_uncontrolled(params, s0, grid, free_run, eqs):
    base = ControllerConfig(K=-0.6, epsilon=0.1, t_on=40.0)
    rep = sweep(params, s0, grid, [0.0], [0.1], base)
    assert len(rep.cells) == 1
    cell = rep.cells[0]
    assert cell.error is None
    free_rep = convergence_report(free_run, eqs, grid)
    assert cell.report.target_label == free_rep.target_label
    assert cell.report.tail_max_distance == pytest.approx(free_rep.tail_max_distance)
    assert cell.report.control_effort == 0.0
    assert cell.report.stabilized == free_rep.stabilized


def test_sweep_cell_order_is_mode_then_K_then_eps(params, s0):
    g = TimeGrid(0.0, 30.0, 0.1)
    base = ControllerConfig(K=-0.6, epsilon=0.1, t_on=10.0)
    rep = sweep(params, s0, g, [-0.6, -0.3], [0.1, 0.5], base,
                modes=[PredictionMode.DERIVATIVE, PredictionMode.EULER], tail=10.0)
    keys = [(c.mode, c.K, c.epsilon) for c in rep.cells]
    assert keys == [
        ("literal", -0.6, 0.1), ("literal", -0.6, 0.5),
        ("literal", -0.3, 0.1), ("literal", -0.3, 0.5),
        ("euler", -0.6, 0.1), ("euler", -0.6, 0.5),
        ("euler", -0.3, 0.1), ("euler", -0.3, 0.5),
    ]


def test_sweep_flags_inadmissible_gain(params, s0):
    g = TimeGrid(0.0, 30.0, 0.1)
    base = ControllerConfig(K=-0.6, epsilon=0.1, t_on=10.0)
    rep = sweep(params, s0, g, [0.5, -0.6], [0.1], base, tail=10.0)
    flags = {c.K: c.in_admissible_interval for c in rep.cells}
    assert flags == {0.5: False, -0.6: True}
    # the out-of-interval cell still completes
    assert all(c.error is None for c in rep.cells)


def test_sweep_contains_cell_failures(params, s0, grid):
    # K=20 with the gate pinned open diverges (oracle: step 12); K=0 is the
    # free flow and completes.  The sweep must record the failure and go on.
    base = ControllerConfig(K=-0.6, epsilon=1e9, t_on=0.0)
    rep = sweep(params, s0, grid, [20.0, 0.0], [1e9], base)
    by_gain = {c.K: c for c in rep.cells}
    assert by_gain[20.0].report is None
    assert "step" in by_gain[20.0].error
    assert by_gain[0.0].error is None
    assert by_gain[0.0].report is not None


def test_sweep_rejects_empty_lists(params, s0, grid, controller):
    with pytest.raises(ValueError):
        sweep(params, s0, grid, [], [0.1], controller)
    with pytest.raises(ValueError):
        sweep(params, s0, grid, [-0.6], [], controller)


def test_sweep_accepts_numpy_arrays(params, s0):
    g = TimeGrid(0.0, 30.0, 0.1)
    base = ControllerConfig(K=-0.6, epsilon=0.1, t_on=10.0)
    from_lists = sweep(params, s0, g, [-0.6, -0.3], [0.1, 0.5], base, tail=10.0)
    from_arrays = sweep(params, s0, g, np.array([-0.6, -0.3]), np.array([0.1, 0.5]), base,
                        tail=10.0)
    assert from_arrays == from_lists
    # a one-element array holding zero is not empty
    single = sweep(params, s0, g, np.array([0.0]), np.array([0.5]), base, tail=10.0)
    assert [(c.K, c.epsilon) for c in single.cells] == [(0.0, 0.5)]
    with pytest.raises(ValueError):
        sweep(params, s0, g, np.array([]), np.array([0.5]), base, tail=10.0)


def test_sweep_is_deterministic(params, s0):
    g = TimeGrid(0.0, 30.0, 0.1)
    base = ControllerConfig(K=-0.6, epsilon=0.5, t_on=10.0)
    a = sweep(params, s0, g, [-0.6], [0.5], base, tail=10.0)
    b = sweep(params, s0, g, [-0.6], [0.5], base, tail=10.0)
    assert a.cells[0].report.tail_max_distance == b.cells[0].report.tail_max_distance
    assert a.cells[0].report.control_effort == b.cells[0].report.control_effort


# --- the scalar stepping core against an rk4_step-driven reference ---------------------

def reference_run(p, s0, grid, cfg=None):
    """Generic RK4 run: ``rk4_step`` on numpy arrays, the gate worked out from
    the state history, a non-finite stage derivative turned into a
    ``DivergenceError`` for its step, and ``check_state`` on every state."""
    a, b, d, h = p.a, p.b, p.d, p.h

    def f_open(t, s):
        x, y, z = s
        return np.array(field_components(a, b, d, h, x, y, z))

    def f_ctl(t, s):
        x, y, z = s
        dx, dy, dz = field_components(a, b, d, h, x, y, z)
        return np.array((dx, dy, dz + control_term(p, cfg, x, y, z)))

    lag = delay_steps(cfg, grid.dt) if cfg is not None else None
    n = grid.n_steps
    ts, states = np.empty(n + 1), np.empty((n + 1, 3))
    us, actives, rs = np.zeros(n + 1), np.zeros(n + 1, dtype=bool), np.full(n + 1, np.nan)

    def record(k, t, state):
        ts[k] = t
        states[k] = state
        if cfg is None or k < lag:
            return False
        prev = states[k - lag]
        dx, dy, dz = (float(state[i]) - float(prev[i]) for i in range(3))
        rs[k] = math.sqrt(dx * dx + dy * dy + dz * dz)
        actives[k] = t > cfg.t_on and rs[k] < cfg.epsilon
        if actives[k]:
            us[k] = control_term(p, cfg, state[0], state[1], state[2])
        return actives[k]

    y = s0.as_array()
    check_state(y, 0, grid.t0)
    active = record(0, grid.t0, y)
    for k in range(1, n + 1):
        t_prev = grid.t0 + (k - 1) * grid.dt
        try:
            y = rk4_step(f_ctl if active else f_open, t_prev, y, grid.dt)
        except IntegrationError as exc:
            raise DivergenceError(k, t_prev, str(exc)) from exc
        t_k = grid.t0 + k * grid.dt
        check_state(y, k, t_k)
        active = record(k, t_k, y)
    return Trajectory(t=ts, states=states, u=us, active=actives, r=rs)


def core_run(p, s0, grid, cfg=None):
    return run_uncontrolled(p, s0, grid) if cfg is None else run_controlled(p, s0, grid, cfg)


def outcome(run, *args):
    try:
        return run(*args)
    except DivergenceError as exc:
        return (exc.step_index, exc.time, str(exc))


DIFFERENTIAL_CASES = {
    "free": None,
    "literal-gate-open": ControllerConfig(K=-0.3, epsilon=5.0, t_on=5.0),
    "euler-gate-open": ControllerConfig(
        K=-0.3, epsilon=5.0, t_on=5.0, mode=PredictionMode.EULER
    ),
    "lag-one-gate-open": ControllerConfig(K=-0.6, epsilon=0.5, t_on=5.0, tau=0.1),
    "zero-gain-gate-open": ControllerConfig(K=0.0, epsilon=1e9, t_on=0.0),
    # the one mode whose coefficient g = K*tau is not K
    "euler-half-tau-gate-open": ControllerConfig(
        K=-0.3, epsilon=5.0, t_on=5.0, mode=PredictionMode.EULER, tau=0.5
    ),
    "euler-negative-zero-gain-gate-open": ControllerConfig(
        K=-0.0, epsilon=5.0, t_on=5.0, mode=PredictionMode.EULER
    ),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
def test_core_matches_rk4_step_reference(params, s0, name):
    cfg = DIFFERENTIAL_CASES[name]
    g = TimeGrid(0.0, 100.0, 0.1)
    core = core_run(params, s0, g, cfg)
    ref = reference_run(params, s0, g, cfg)
    if name.endswith("gate-open"):
        assert core.active.mean() > 0.3
    assert_same_outcome(core, ref)  # bytes, so the sign of a zero u too


@pytest.mark.parametrize("cfg, reason", [
    # the gate opens at t > 5 and the literal law at K=-0.9 blows the state up
    (ControllerConfig(K=-0.9, epsilon=5.0, t_on=5.0), "state magnitude exceeded"),
    # a gain of 1e200 overflows the control term inside the first open step
    (ControllerConfig(K=1e200, epsilon=1e9, t_on=0.0), "non-finite derivative"),
])
def test_core_divergence_matches_reference(params, s0, cfg, reason):
    g = TimeGrid(0.0, 100.0, 0.1)
    core = outcome(core_run, params, s0, g, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = outcome(reference_run, params, s0, g, cfg)
    assert isinstance(core, tuple)
    assert reason in core[2]
    assert core == ref


# 200 steps with the delay a whole number of them: gates that open early,
# late or never, laws that settle or diverge, both outcomes compared
DRAWN_GRID = TimeGrid(0.0, 20.0, 0.1)
drawn_controllers = st.builds(
    lambda mode, K, lag, epsilon, t_on: ControllerConfig(
        K=K, epsilon=epsilon, t_on=t_on, mode=mode, tau=lag * DRAWN_GRID.dt
    ),
    mode=st.sampled_from(PredictionMode),
    K=st.one_of(st.sampled_from([0.0, -0.0, -0.9, 1e200]), st.floats(-1.5, 2.0)),
    lag=st.integers(1, 20),
    epsilon=st.one_of(st.sampled_from([1e-9, 1e9]), st.floats(0.05, 20.0)),
    t_on=st.floats(0.0, 25.0),
)


@given(cfg=drawn_controllers)
def test_core_matches_reference_on_drawn_controllers(params, s0, cfg):
    with np.errstate(over="ignore", invalid="ignore"):
        ref = outcome(reference_run, params, s0, DRAWN_GRID, cfg)
    assert_same_outcome(outcome(_run, params, s0, DRAWN_GRID, cfg), ref)


@st.composite
def distinct_params(draw):
    """Params whose a, b, d and h all differ, with h^2 > a*b (three
    equilibria) or h^2 <= a*b (the origin alone)."""
    a, b, d = draw(st.lists(st.floats(0.25, 8.0), min_size=3, max_size=3, unique=True))
    three = draw(st.booleans())
    h = math.sqrt(a * b) * draw(st.floats(1.05, 3.0) if three else st.floats(0.2, 0.95))
    assume(h not in (a, b, d) and (h * h > a * b) == three)
    return Params(a, b, d, h)


@given(p=distinct_params(), s0=st.builds(State, coords, coords, coords),
       cfg=st.one_of(st.none(), drawn_controllers))
def test_core_matches_reference_on_drawn_params(p, s0, cfg):
    # Every other run in the suite has b = d = 1, so a coefficient swapped
    # for another in the inline field would change no bit there.
    with np.errstate(over="ignore", invalid="ignore"):
        ref = outcome(reference_run, p, s0, DRAWN_GRID, cfg)
    assert_same_outcome(outcome(_run, p, s0, DRAWN_GRID, cfg), ref)


def test_core_initial_state_beyond_limit_matches_reference(params):
    s0 = State(2e6, 0.0, 0.0)
    core = outcome(core_run, params, s0, short_grid)
    assert core == outcome(reference_run, params, s0, short_grid)
    assert core[0] == 0


# --- an oracle that does not use the code under test -----------------------------------

ORACLE_DTS = (0.005, 0.0025, 0.00125, 0.000625)


def core_endpoints(params, s0):
    """Final states of free runs over t in [0, 5], one per step in ORACLE_DTS."""
    return [run_uncontrolled(params, s0, TimeGrid(0.0, 5.0, dt)).states[-1] for dt in ORACLE_DTS]


def halving_orders(errors):
    return [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]


def test_core_self_convergence_order_on_chaotic_flow(params, s0):
    # measured orders 4.26 and 4.12
    ends = core_endpoints(params, s0)
    differences = [np.linalg.norm(ends[i] - ends[i + 1]) for i in range(3)]
    for order in halving_orders(differences):
        assert order == pytest.approx(4.0, abs=0.3)


def test_core_converges_to_scipy_solution(params, s0):
    integrate = pytest.importorskip("scipy.integrate")
    a, b, d, h = params.a, params.b, params.d, params.h

    def rabinovich(t, s):  # written out here, not taken from the package
        x, y, z = s
        return [h * y - a * x + y * z, h * x - b * y - x * z, x * y - d * z]

    solution = integrate.solve_ivp(
        rabinovich, (0.0, 5.0), [s0.x, s0.y, s0.z], method="DOP853", rtol=1e-13, atol=1e-13
    )
    errors = [np.linalg.norm(end - solution.y[:, -1]) for end in core_endpoints(params, s0)]
    # measured orders 4.25, 4.12 and 4.08, and 3.8e-11 at the finest step
    for order in halving_orders(errors)[1:]:
        assert order == pytest.approx(4.0, abs=0.3)
    assert errors[-1] < 1e-10


def test_always_on_literal_control_settles_at_the_controlled_fixed_point(params, s0):
    # An oracle from the equations alone: with u = K(-(d+1)z + xy) on at every
    # sample, the z-equation reads (1+K)xy - (d + K(d+1))z, so the controlled
    # flow's fixed points are the open-loop ones of d_K = (d + K(d+1))/(1+K).
    # Measured: the last state lies 3.4e-15 from the positive-x point.
    K = 1.0
    cfg = ControllerConfig(K=K, epsilon=1e9, t_on=0.0, mode=PredictionMode.DERIVATIVE)
    traj = run_controlled(params, s0, TimeGrid(0.0, 200.0, 0.01), cfg)
    d_K = (params.d + K * (params.d + 1.0)) / (1.0 + K)
    fixed = equilibria(Params(params.a, params.b, d_K, params.h)).points
    points = np.array([(pt.x, pt.y, pt.z) for pt in fixed])
    tail = traj.states[traj.t >= 180.0]
    distances = np.linalg.norm(tail[:, None, :] - points[None, :, :], axis=2)
    assert distances.min(axis=1).max() <= 1e-6


# --- sweep cells sharing the free-flow prefix -------------------------------------------

BOTH_MODES = [PredictionMode.DERIVATIVE, PredictionMode.EULER]
SWEEP_GRID = TimeGrid(0.0, 100.0, 0.1)  # lag 10 at the default tau = 1


def never_opened(firsts, errors):
    return all(f is None for f in firsts) and all(e is None for e in errors)


def diverged_after_a_finished_cell(firsts, errors):
    return errors[0] is None and any(e is not None for e in errors[1:])


# (gains, thresholds, t_on, modes, whether the case covers what its name says,
# given each independent run's first active sample and error text)
SWEEP_CASES = {
    "gate-never-opens": (
        [-0.6, -0.3], [0.05, 0.1], 40.0, BOTH_MODES, never_opened,
    ),
    "gate-opens-at-first-eligible-sample": (
        [-0.3, 0.5], [1e9, 0.05], 0.0, None, lambda firsts, errors: 10 in firsts,
    ),
    "gate-opens-late": (
        [-0.6, -0.3], [1.0, 0.05], 40.0, BOTH_MODES,
        lambda firsts, errors: any(f is not None and f > 400 for f in firsts),
    ),
    "zero-gain": (
        [0.0, -0.3], [5.0, 0.05], 5.0, None, lambda firsts, errors: firsts[0] is not None,
    ),
    "diverges-after-branching": (
        [-0.3, -0.9], [0.05, 5.0], 5.0, None, diverged_after_a_finished_cell,
    ),
    "first-cell-diverges": (
        [-0.9, -0.3], [5.0, 0.05], 5.0, None,
        lambda firsts, errors: errors[0] is not None and None in errors,
    ),
    # thresholds descending: each later cell first opens past the prefix
    # the cells before it stepped
    "gate-opens-past-the-prefix": (
        [-0.3], [0.69, 0.66, 0.6442], 20.0, None,
        lambda firsts, errors: firsts == [636, 637, 648],
    ),
}


def sweep_case(params, s0, name):
    """The case's sweep report, and the config of each of its cells in order."""
    gains, thresholds, t_on, modes, _ = SWEEP_CASES[name]
    base = ControllerConfig(K=-0.6, epsilon=0.1, t_on=t_on)
    rep = sweep(params, s0, SWEEP_GRID, gains, thresholds, base, modes=modes, tail=10.0)
    cfgs = [
        ControllerConfig(K=K, epsilon=eps, t_on=t_on, mode=mode)
        for mode in (modes or [base.mode]) for K in gains for eps in thresholds
    ]
    return rep, cfgs


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_sweep_cells_match_independent_runs(params, s0, eqs, name):
    rep, cfgs = sweep_case(params, s0, name)
    assert len(rep.cells) == len(cfgs)
    firsts, errors = [], []
    for cell, cfg in zip(rep.cells, cfgs):
        assert (cell.mode, cell.K, cell.epsilon) == (cfg.mode.value, cfg.K, cfg.epsilon)
        try:
            traj = run_controlled(params, s0, SWEEP_GRID, cfg)
        except IntegrationError as exc:
            assert cell.report is None
            assert cell.error == str(exc)
            firsts.append(None)
            errors.append(str(exc))
            continue
        assert cell.error is None
        assert cell.report == convergence_report(traj, eqs, SWEEP_GRID, tail=10.0, cfg=cfg)
        opened = np.flatnonzero(traj.active)
        firsts.append(int(opened[0]) if len(opened) else None)
        errors.append(None)
    covers = SWEEP_CASES[name][-1]
    assert covers(firsts, errors)


@pytest.mark.parametrize("name", ["diverges-after-branching", "gate-opens-late"])
def test_sweep_cells_match_reference_run(params, s0, eqs, name):
    rep, cfgs = sweep_case(params, s0, name)
    for cell, cfg in zip(rep.cells, cfgs):
        ref = outcome(reference_run, params, s0, SWEEP_GRID, cfg)
        if isinstance(ref, tuple):
            assert (cell.report, cell.error) == (None, ref[2])
        else:
            assert cell.report == convergence_report(ref, eqs, SWEEP_GRID, tail=10.0, cfg=cfg)


@pytest.mark.parametrize("name, steps, gates", [
    # no gate opens: only the first cell steps, and no gate is called per sample
    pytest.param("gate-never-opens", 1000, 0, id="gate-never-opens-1000"),
    # (-0.3, 1e9) opens at sample 10, the end of its first free stretch, and
    # steps all 1000; (-0.3, 0.05) reads those first 11 samples and steps the
    # other 990; (0.5, 1e9) reads 11 of that cell's full prefix, opens at 10
    # and steps 990; (0.5, 0.05) steps nothing
    pytest.param("gate-opens-at-first-eligible-sample", 1000 + 2 * 990, 2 * 990,
                 id="gate-opens-at-first-eligible-sample-2980"),
    # the first cell can open from sample 201 on and opens at 636, inside its
    # stretch [457, 713), so it steps 1000 + 76 dropped; the second steps from
    # the end of that prefix and opens at once, at 637: 364 steps, none
    # dropped; the third steps from 638 and opens at 648, inside its stretch
    # [646, 654): 363 + 5 dropped.  Doubling from 201 instead would have
    # dropped 363 and 352.
    pytest.param("gate-opens-past-the-prefix", 1076 + 364 + 368, 364 + 363 + 352,
                 id="gate-opens-past-the-prefix-1808"),
])
def test_sweep_steps_only_what_no_earlier_cell_stepped(params, s0, core_calls, name, steps,
                                                       gates):
    sweep_case(params, s0, name)
    # The gate runs per sample only at the samples stepped after a first open
    # gate; the free flow before it is gated in one array pass a stretch.
    # A cell steps the free flow from the end of the longest prefix before
    # it, so it drops fewer free steps past its first open gate than it
    # stepped itself.
    got = core_calls()
    assert (got["steps"], got["gated"]) == (steps, gates)
    assert got["field"] == 4 * got["steps"]


def stretch_end(opening, k):
    """The end of the free stretch of ``_run`` that holds sample ``k``, given
    the first sample ``opening`` at which the gate can open, and the number
    of stretches up to it: the first stretch ends just past ``opening``, and
    each later one is as long as all the samples gated from ``opening`` on
    before it."""
    end, stretches = opening + 1, 1
    while end <= k:
        end, stretches = 2 * end - opening, stretches + 1
    return end, stretches


# first open gates at samples 401 (none dropped), 421 (11), 98 (16) and 636 (20)
@pytest.mark.parametrize("epsilon, t_on", [(1e9, 40.0), (2.0, 40.0), (1.0, 5.0), (0.7, 40.0)])
def test_free_stretch_steps_past_the_first_open_gate_less_than_it_gated(
        params, s0, core_calls, epsilon, t_on):
    cfg = ControllerConfig(K=-0.3, epsilon=epsilon, t_on=t_on)
    n, dt = SWEEP_GRID.n_steps, SWEEP_GRID.dt
    active = run_controlled(params, s0, SWEEP_GRID, cfg).active
    first = int(active.argmax())
    opening = next(k for k in range(n + 1) if k * dt > t_on)  # past the lag (10) here
    assert active[first] and first >= opening
    # the free steps past the first open gate that its stretch drops, exactly
    end, passes = stretch_end(opening, first)
    dropped = min(end, n + 1) - 1 - first
    assert core_calls() == {"field": 4 * (n + dropped), "steps": n + dropped,
                            "gated": n - first, "dropped": dropped, "passes": passes}
    # fewer than the shut samples gated from ``opening`` on, when any were
    assert dropped <= max(0, first - opening - 1)


def assert_same_outcome(got, expected):
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert not isinstance(got, tuple)
    for name in ("t", "states", "u", "active", "r"):
        a, b = getattr(got, name), getattr(expected, name)
        assert np.array_equal(a, b, equal_nan=True), name
        assert a.tobytes() == b.tobytes(), name
        if a.dtype.kind == "f":
            assert np.array_equal(np.signbit(a), np.signbit(b)), name


PREFIX_CASES = dict(
    DIFFERENTIAL_CASES,
    **{
        "never-opens": ControllerConfig(K=-0.6, epsilon=0.05),
        "opens-late": ControllerConfig(K=-0.6, epsilon=1.0, t_on=40.0),
        "diverges-after-opening": ControllerConfig(K=-0.9, epsilon=5.0, t_on=5.0),
        "overflows-in-first-open-step": ControllerConfig(K=1e200, epsilon=1e9, t_on=0.0),
        "negative-zero-gain": ControllerConfig(K=-0.0, epsilon=5.0, t_on=5.0),
    },
)


@pytest.mark.parametrize("name", sorted(PREFIX_CASES))
def test_run_with_free_prefix_matches_run_without(params, s0, rng, name):
    cfg = PREFIX_CASES[name]
    free = _run(params, s0, SWEEP_GRID, None).states
    expected = outcome(_run, params, s0, SWEEP_GRID, cfg)
    cuts = [len(free), 1] + [int(c) for c in rng.integers(1, len(free), size=3)]
    if cfg is not None:
        # the prefix ends just before the first gated sample, at it, and just
        # before and at the row where the free flow first opens the gate
        lag = delay_steps(cfg, SWEEP_GRID.dt)
        cuts += [lag, lag + 1]
        t0, dt = SWEEP_GRID.t0, SWEEP_GRID.dt
        opening = next(
            (k for k in range(lag, len(free))
             if activation_gate(free[k - lag], t0 + k * dt, free[k], cfg)[0]),
            None,
        )
        if opening is not None:
            cuts += [opening, opening + 1]
    for cut in cuts:
        assert_same_outcome(outcome(_run, params, s0, SWEEP_GRID, cfg, free[:cut]), expected)


@pytest.mark.parametrize("order", ["sorted", "reversed"])
def test_run_each_matches_independent_runs(params, s0, order):
    cfgs = [PREFIX_CASES[name] for name in sorted(PREFIX_CASES, reverse=order == "reversed")]
    for cfg, got in zip(cfgs, run_each(params, s0, SWEEP_GRID, cfgs)):
        if isinstance(got, DivergenceError):
            got = (got.step_index, got.time, str(got))
        assert_same_outcome(got, outcome(run_controlled, params, s0, SWEEP_GRID, cfg))


def test_open_sample_computes_its_control_term_once(params, s0, monkeypatch):
    # A step from an open sample takes the u recorded there as its first-stage
    # control term.  The law is written inline in the run, on coefficients
    # read once a run, so that reuse shows only as the same bits where the
    # gate opens inside a shared free-flow prefix.
    reads, coefficients = [], harness.control_coefficients

    def counted(*args):
        reads.append(None)
        return coefficients(*args)

    monkeypatch.setattr(harness, "control_coefficients", counted)
    grid = TimeGrid(0.0, 60.0, 0.01)
    cfg = ControllerConfig(K=-0.3, epsilon=5.0, mode=PredictionMode.EULER)
    never = ControllerConfig(K=-0.6, epsilon=0.05)
    alone = run_controlled(params, s0, grid, cfg)
    opened = int(alone.active.sum())
    assert 0 < opened < alone.n_samples - 1 and not alone.active[-1]
    assert len(reads) == 1
    reads.clear()
    shut, shared = run_each(params, s0, grid, [never, cfg])
    assert not shut.active.any()
    assert len(reads) == 2
    assert shared.u.tobytes() == alone.u.tobytes()
    assert shared.states.tobytes() == alone.states.tobytes()


# --- the edges of the free stretches against the rk4_step reference ----------------------

def opening_past(offset, p, s0, grid, tau=1.0):
    """A controller whose gate first opens ``offset`` samples past the first
    sample after its t_on, and that sample: t_on halfway between two grid
    times, epsilon halfway between r there and the least r of the samples
    from the first one after t_on up to it (which must all be larger)."""
    states = run_uncontrolled(p, s0, grid).states
    lag = delay_steps(ControllerConfig(K=-0.3, tau=tau), grid.dt)
    r = np.linalg.norm(states[lag:] - states[:-lag], axis=1)  # at samples lag, lag+1, ...
    for after in range(lag + 1, len(states) - offset):
        before, here = r[after - lag:after - lag + offset].min(), r[after - lag + offset]
        if here < 0.99 * before:
            t_on = grid.t0 + (after - 0.5) * grid.dt
            cfg = ControllerConfig(K=-0.3, epsilon=(here + before) / 2, t_on=t_on, tau=tau)
            return grid, cfg, after + offset
    raise AssertionError("no such sample")


DIVERGING_GRID = TimeGrid(0.0, 10.0, 0.25)  # the free flow diverges at step 6
# the free flow diverges at step 24, and with lag 1 its r drops below 1.3 first at 18
OPEN_THEN_DIVERGING_GRID = TimeGrid(0.0, 28.0, 0.28)
OPEN_THEN_LASTING = ControllerConfig(K=-0.2, epsilon=1.3, t_on=0.0, tau=0.28)

# name -> (grid, controller, the first open sample, None, or ("diverges", step))
STRETCH_CASES = {
    # the first sample after t_on ends the first stretch
    "opens-at-first-sample-after-t_on": lambda p, s0: (
        SWEEP_GRID, ControllerConfig(K=-0.3, epsilon=1e9, t_on=40.0), 401,
    ),
    # past the first sample after t_on, the stretches are 1, 2, 4, 8, ... long;
    # [+4, +8) and [+8, +16) are two of them
    "opens-at-first-sample-of-a-stretch": lambda p, s0: opening_past(4, p, s0, SWEEP_GRID),
    "opens-at-last-sample-of-a-stretch": lambda p, s0: opening_past(7, p, s0, SWEEP_GRID),
    "opens-one-past-last-sample-of-a-stretch": lambda p, s0: opening_past(8, p, s0, SWEEP_GRID),
    "opens-at-last-sample-of-a-long-stretch": lambda p, s0: opening_past(15, p, s0, SWEEP_GRID),
    "never-opens": lambda p, s0: (SWEEP_GRID, ControllerConfig(K=-0.3, epsilon=1e-9), None),
    "t_on-beyond-every-grid-time": lambda p, s0: (
        SWEEP_GRID, ControllerConfig(K=-0.3, epsilon=1e9, t_on=1e300), None,
    ),
    # (t_on - t0)/dt overflows to inf
    "t_on-largest-double": lambda p, s0: (
        SWEEP_GRID, ControllerConfig(K=-0.3, epsilon=1e9, t_on=sys.float_info.max), None,
    ),
    "t0-nonzero": lambda p, s0: opening_past(7, p, s0, TimeGrid(3.0, 53.0, 0.1)),
    "lag-one": lambda p, s0: opening_past(4, p, s0, SWEEP_GRID, tau=0.1),
    "lag-longer-than-first-stretch": lambda p, s0: (
        SWEEP_GRID, ControllerConfig(K=-0.3, epsilon=1e9, t_on=0.0, tau=4.0), 40,
    ),
    # stretches [5, 9) and [17, 33) hold the free flow's diverging step
    "diverges-in-a-stretch-gate-shut": lambda p, s0: (
        DIVERGING_GRID, ControllerConfig(K=-0.3, epsilon=1e-9, t_on=0.0, tau=0.25),
        ("diverges", 6),
    ),
    "diverges-in-a-stretch-after-gate-opens": lambda p, s0: (
        OPEN_THEN_DIVERGING_GRID,
        ControllerConfig(K=-0.3, epsilon=1.3, t_on=0.0, tau=0.28),
        ("diverges", 92),  # the controlled run, stepped from sample 18
    ),
    # the same free flow, and a gain whose controlled run lasts to the end
    "free-step-fails-after-gate-opens": lambda p, s0: (
        OPEN_THEN_DIVERGING_GRID, OPEN_THEN_LASTING, 18,
    ),
}


@pytest.mark.parametrize("name", sorted(STRETCH_CASES))
def test_free_stretch_edges_match_reference_run(params, s0, name):
    grid, cfg, expected = STRETCH_CASES[name](params, s0)
    got = outcome(_run, params, s0, grid, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = outcome(reference_run, params, s0, grid, cfg)
    assert_same_outcome(got, ref)
    if isinstance(expected, tuple):
        assert ref[0] == expected[1]
    else:
        assert (int(ref.active.argmax()) if ref.active.any() else None) == expected


def test_free_stretch_edge_cases_diverge_where_named(params, s0):
    assert outcome(_run, params, s0, DIVERGING_GRID, None)[0] == 6
    assert outcome(_run, params, s0, OPEN_THEN_DIVERGING_GRID, None)[0] == 24
    free = _run(params, s0, TimeGrid(0.0, 23 * 0.28, 0.28), None).states
    r = np.linalg.norm(free[1:] - free[:-1], axis=1)  # at samples 1, 2, ...
    assert r[17] < 1.3 <= r[:17].min()


def test_free_step_that_fails_past_the_first_open_gate_is_dropped_work(params, s0, core_calls):
    # The gate first opens at 18; the free stretch [17, 33) fails at step 24.
    # Steps 19 to 24, the failed one too, were integrated and are dropped.
    traj = run_controlled(params, s0, OPEN_THEN_DIVERGING_GRID, OPEN_THEN_LASTING)
    n = OPEN_THEN_DIVERGING_GRID.n_steps
    assert int(traj.active.argmax()) == 18
    # stretches end at 2, 3, 5, 9, 17 and 33: six passes
    assert core_calls() == {"field": 4 * (n + 6), "steps": n + 6, "gated": n - 18,
                            "dropped": 6, "passes": 6}


def test_divergence_in_a_free_stretch_leaves_no_cycle(params, s0):
    # A kept error would hold the failed run's frame, and its arrays, in a
    # cycle through its traceback until the cyclic collector ran.
    cfg = ControllerConfig(K=-0.3, epsilon=1e-9, t_on=0.0, tau=0.25)
    gc.collect()
    gc.disable()
    try:
        try:
            run_controlled(params, s0, DIVERGING_GRID, cfg)
        except DivergenceError as exc:
            error = str(exc)
        # the last cell too, whose error run_each holds while suspended
        rep = sweep(params, s0, DIVERGING_GRID, [-0.6, -0.3], [1e-9], cfg, tail=1.0)
        freed = gc.collect()
    finally:
        gc.enable()
    assert error.startswith("integration aborted at step 6 ")
    assert [c.error for c in rep.cells] == [error, error]
    assert freed == 0
