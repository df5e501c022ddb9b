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
from rabinovich.harness import DEFAULT_TAIL, _run
import reference
from reference import activation_gate, check_state, control_term, nearest_equilibrium, rk4_step

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
short_grid = TimeGrid(5.0, 0.1)


def constant_trajectory(point: State, t_end=30.0, dt=0.1, u=0.0, active=False):
    """A trajectory parked at ``point``, and its grid."""
    g = TimeGrid(t_end, dt)
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


@pytest.mark.parametrize("arrays, message", [
    ({"u": np.zeros(2)}, "equal length"),
    ({"t": np.array([0.0]), "states": np.zeros((1, 3)), "u": np.zeros(1),
      "active": np.zeros(1, dtype=bool), "r": np.full(1, np.nan)}, "at least two samples"),
    ({"states": np.zeros((3, 2))}, r"states must have shape \(3, 3\), got \(3, 2\)"),
    ({"states": np.zeros(3)}, r"states must have shape \(3, 3\), got \(3,\)"),
])
def test_trajectory_rejects_arrays_of_the_wrong_shape(arrays, message):
    three = {"t": np.array([0.0, 0.1, 0.2]), "states": np.zeros((3, 3)), "u": np.zeros(3),
             "active": np.zeros(3, dtype=bool), "r": np.full(3, np.nan)}
    with pytest.raises(ValueError, match=message):
        Trajectory(**{**three, **arrays})


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
    run = run_controlled(params, s0, TimeGrid(2000.0, 0.1), controller)
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
        run_controlled(params, State(1.5, -1.25, 3.5), TimeGrid(200.0, 0.1), cfg)
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
    g = TimeGrid(5.0, 0.1)
    traj = run_controlled(params, s0, g, ControllerConfig(K=-0.6, epsilon=0.5, tau=0.3))
    assert np.isnan(traj.r[:3]).all()
    S = traj.states
    for k in range(3, g.n_steps + 1):
        dx, dy, dz = (float(S[k, i]) - float(S[k - 3, i]) for i in range(3))
        assert traj.r[k] == math.sqrt(dx * dx + dy * dy + dz * dz)


def test_tau_must_fit_grid(params, s0):
    cfg = ControllerConfig(K=-0.6, tau=1.0)
    with pytest.raises(ValueError):
        run_controlled(params, s0, TimeGrid(3.0, 0.3), cfg)


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


def test_report_tie_goes_to_the_first_point(eqs):
    # A mean on the plane x = y = 0 is exactly as far from both off-origin
    # points, and here nearer to them than to the origin.
    traj, g = constant_trajectory(State(0.0, 0.0, eqs.points[1].z))
    rep = convergence_report(traj, eqs, g)
    assert rep.target_label == "positive-x"
    mean_state = traj.states.mean(axis=0)
    far = [np.linalg.norm(mean_state - point.as_array()) for point in eqs.points]
    assert far[1] == far[2] < far[0]


def test_report_chaotic_run_not_stabilized(free_run, grid, eqs):
    rep = convergence_report(free_run, eqs, grid)
    assert not rep.stabilized
    assert rep.tail_max_distance > 10.0  # attractor diameter >> capture radius
    # a capture radius equal to the tail's largest distance holds it
    far = rep.tail_max_distance
    assert convergence_report(free_run, eqs, grid, capture_radius=far).stabilized
    below = math.nextafter(far, 0.0)
    assert not convergence_report(free_run, eqs, grid, capture_radius=below).stabilized


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
    with pytest.raises(ValueError, match=f"{name} must be a positive finite number, got"):
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
    g = TimeGrid(30.0, 0.1)
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


@pytest.mark.parametrize("settings, message", [
    ({"tail": 1e9}, r"^tail \(1000000000.0\) must be shorter than the run span \(10.0\)$"),
    ({"tail": 5.0, "capture_radius": -5.0},
     r"^capture_radius must be a positive finite number, got -5.0$"),
], ids=["tail", "capture_radius"])
def test_sweep_whose_only_cell_diverges_refuses_bad_report_settings(params, s0, settings,
                                                                     message):
    # the settings are checked before the first run, not in its report
    args = (params, s0, TimeGrid(10.0, 0.1), [-1e30], [1e9],
            ControllerConfig(K=-0.6, epsilon=1e9, t_on=0.0))
    (cell,) = sweep(*args, tail=5.0).cells
    assert cell.report is None and "step" in cell.error
    with pytest.raises(ValueError, match=message):
        sweep(*args, **settings)


def test_sweep_rejects_empty_lists(params, s0, grid, controller):
    with pytest.raises(ValueError):
        sweep(params, s0, grid, [], [0.1], controller)
    with pytest.raises(ValueError):
        sweep(params, s0, grid, [-0.6], [], controller)
    with pytest.raises(ValueError, match="modes must be nonempty"):
        sweep(params, s0, grid, [-0.6], [0.1], controller, modes=[])


def test_sweep_accepts_numpy_arrays(params, s0):
    g = TimeGrid(30.0, 0.1)
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
    g = TimeGrid(30.0, 0.1)
    base = ControllerConfig(K=-0.6, epsilon=0.5, t_on=10.0)
    a = sweep(params, s0, g, [-0.6], [0.5], base, tail=10.0)
    b = sweep(params, s0, g, [-0.6], [0.5], base, tail=10.0)
    assert a.cells[0].report.tail_max_distance == b.cells[0].report.tail_max_distance
    assert a.cells[0].report.control_effort == b.cells[0].report.control_effort


# --- the scalar stepping core against an rk4_step-driven reference ---------------------

def reference_fields(p, cfg):
    """The open-loop and the controlled vector field, as ``rk4_step`` takes them."""
    a, b, d, h = p.a, p.b, p.d, p.h

    def f_open(t, s):
        x, y, z = s
        return np.array(field_components(a, b, d, h, x, y, z))

    def f_ctl(t, s):
        x, y, z = s
        dx, dy, dz = field_components(a, b, d, h, x, y, z)
        return np.array((dx, dy, dz + control_term(p, cfg, x, y, z)))

    return f_open, f_ctl


def reference_run(p, s0, grid, cfg=None):
    """Generic RK4 run: ``rk4_step`` on numpy arrays, the gate worked out from
    the state history, ``check_state`` on every state, and a non-finite stage
    derivative turned into the error of its row's non-finite state."""
    f_open, f_ctl = reference_fields(p, cfg)
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
    check_state(y, 0, 0.0)
    active = record(0, 0.0, y)
    for k in range(1, n + 1):
        t_prev, t_k = (k - 1) * grid.dt, k * grid.dt
        try:
            y = rk4_step(f_ctl if active else f_open, t_prev, y, grid.dt)
        except FloatingPointError:  # a non-finite stage leaves a non-finite row
            raise DivergenceError(k, t_k, "non-finite state component") from None
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
    g = TimeGrid(100.0, 0.1)
    core = core_run(params, s0, g, cfg)
    ref = reference_run(params, s0, g, cfg)
    if name.endswith("gate-open"):
        assert core.active.mean() > 0.3
    assert_same_outcome(core, ref)  # bytes, so the sign of a zero u too


@pytest.mark.parametrize("cfg, cause", [
    # the gate opens at t > 5 and the literal law at K=-0.9 blows the state up
    (ControllerConfig(K=-0.9, epsilon=5.0, t_on=5.0), "state magnitude exceeded"),
    # a gain of 1e200 overflows the control term inside the first open step
    (ControllerConfig(K=1e200, epsilon=1e9, t_on=0.0), "non-finite derivative"),
])
def test_core_divergence_matches_reference(params, s0, cfg, cause):
    g = TimeGrid(100.0, 0.1)
    core = outcome(core_run, params, s0, g, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = outcome(reference_run, params, s0, g, cfg)
    assert isinstance(core, tuple)
    # the error names the failing row, which a non-finite derivative leaves non-finite
    reason = {"state magnitude exceeded": "state magnitude exceeded 1e+06",
              "non-finite derivative": "non-finite state component"}[cause]
    assert core[2].endswith(f"): {reason}")
    assert core == ref


# 200 steps with the delay a whole number of them: gates that open early,
# late or never, laws that settle or diverge, both outcomes compared
DRAWN_GRID = TimeGrid(20.0, 0.1)
drawn_gains = st.one_of(st.sampled_from([0.0, -0.0, -0.9, 1e200]), st.floats(-1.5, 2.0))
drawn_thresholds = st.one_of(st.sampled_from([1e-9, 1e9]), st.floats(0.05, 20.0))
drawn_controllers = st.builds(
    lambda mode, K, lag, epsilon, t_on: ControllerConfig(
        K=K, epsilon=epsilon, t_on=t_on, mode=mode, tau=lag * DRAWN_GRID.dt
    ),
    mode=st.sampled_from(PredictionMode),
    K=drawn_gains,
    lag=st.integers(1, 20),
    epsilon=drawn_thresholds,
    t_on=st.floats(0.0, 25.0),
)


@pytest.mark.parametrize("K", [-0.9, 0.0])
def test_gate_that_first_opens_at_the_last_sample_records_its_u(params, s0, K):
    # Only samples 199 and 200 lie past t_on, and the gate first opens at
    # 200, the last: no row is stepped past it, yet its u (-0.0 at K = 0)
    # is recorded.
    cfg = ControllerConfig(K=K, epsilon=3.0, t_on=19.875, tau=DRAWN_GRID.dt)
    got = run_controlled(params, s0, DRAWN_GRID, cfg)
    assert np.flatnonzero(got.active).tolist() == [DRAWN_GRID.n_steps]
    assert_same_outcome(got, reference_run(params, s0, DRAWN_GRID, cfg))


@pytest.mark.parametrize("tie", ["epsilon-is-an-r", "t_on-is-a-grid-time"])
@pytest.mark.parametrize("lag", [1, 10, DRAWN_GRID.n_steps])  # the last: one gated sample
def test_gate_ties_match_reference(params, s0, lag, tie):
    # Both gate tests are strict: a sample whose r equals epsilon, or whose
    # time equals t_on, is shut.  Each tie is set at the first gated sample
    # k = lag, from the free flow's r there, so the gate opens first at a
    # later sample, or never, and not at k.
    tau = lag * DRAWN_GRID.dt
    free = reference_run(params, s0, DRAWN_GRID, ControllerConfig(0.5, epsilon=1e-300, tau=tau))
    t_k = lag * DRAWN_GRID.dt  # the bits of TimeGrid.times() at k
    if tie == "epsilon-is-an-r":
        cfg = ControllerConfig(0.5, epsilon=float(free.r[lag]), t_on=0.0, tau=tau)
    else:
        cfg = ControllerConfig(0.5, epsilon=1e9, t_on=t_k, tau=tau)
    assert free.t[lag] == t_k and free.r[lag] > 0.0
    got = run_controlled(params, s0, DRAWN_GRID, cfg)
    assert not got.active[lag] and got.r[lag] == free.r[lag]
    if tie == "t_on-is-a-grid-time" and lag < DRAWN_GRID.n_steps:
        assert got.active[lag + 1]
    # the samples gated one at a time start at the first open one, not at k
    opened = np.flatnonzero(got.active)
    assert got.work.gated == (DRAWN_GRID.n_steps - opened[0] if len(opened) else 0)
    assert_same_outcome(got, reference_run(params, s0, DRAWN_GRID, cfg))  # bytes, signs too


@pytest.mark.parametrize("lag", [1, 10])
def test_gate_tie_past_the_first_open_sample_matches_reference(params, s0, lag):
    # An always-open run's largest r past its first gated sample, at j, as
    # epsilon: the gate is open on every sample up to j, so the run is the
    # always-open one up to j, and the per-sample gate shuts at j itself.
    tau = lag * DRAWN_GRID.dt
    always_on = ControllerConfig(0.5, epsilon=1e9, t_on=0.0, tau=tau)
    always = run_controlled(params, s0, DRAWN_GRID, always_on)
    j = lag + 1 + int(np.argmax(always.r[lag + 1:]))
    cfg = ControllerConfig(0.5, epsilon=float(always.r[j]), t_on=0.0, tau=tau)
    got = run_controlled(params, s0, DRAWN_GRID, cfg)
    assert got.active[lag:j].all() and not got.active[j] and got.r[j] == cfg.epsilon
    assert_same_outcome(got, reference_run(params, s0, DRAWN_GRID, cfg))


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


@given(p=distinct_params(), first=st.builds(State, coords, coords, coords),
       second=st.builds(State, coords, coords, coords))
def test_report_target_matches_reference_loop(p, first, second):
    # a tail alternating between two states, so its mean is neither of them
    g = TimeGrid(30.0, 0.1)
    n = g.n_steps + 1
    traj = Trajectory(t=g.times(), states=np.resize([first.as_array(), second.as_array()], (n, 3)),
                      u=np.zeros(n), active=np.zeros(n, dtype=bool), r=np.full(n, np.nan))
    eqs = equilibria(p)
    rep = convergence_report(traj, eqs, g)
    tail = traj.states[traj.t >= traj.t[-1] - DEFAULT_TAIL]
    best = nearest_equilibrium(tail.mean(axis=0), eqs)
    assert (rep.target_label, rep.target) == (eqs.labels[best], eqs.points[best])
    dists = np.sqrt(((tail - eqs.points[best].as_array()) ** 2).sum(axis=1))
    assert rep.tail_mean_distance == float(dists.mean())


def test_core_initial_state_beyond_limit_matches_reference(params):
    s0 = State(2e6, 0.0, 0.0)
    core = outcome(core_run, params, s0, short_grid)
    assert core == outcome(reference_run, params, s0, short_grid)
    assert core[0] == 0


# --- an oracle that does not use the code under test -----------------------------------

ORACLE_DTS = (0.005, 0.0025, 0.00125, 0.000625)


def core_endpoints(params, s0):
    """Final states of free runs over t in [0, 5], one per step in ORACLE_DTS."""
    return [run_uncontrolled(params, s0, TimeGrid(5.0, dt)).states[-1] for dt in ORACLE_DTS]


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
    traj = run_controlled(params, s0, TimeGrid(200.0, 0.01), cfg)
    d_K = (params.d + K * (params.d + 1.0)) / (1.0 + K)
    fixed = equilibria(Params(params.a, params.b, d_K, params.h)).points
    points = np.array([(pt.x, pt.y, pt.z) for pt in fixed])
    tail = traj.states[traj.t >= 180.0]
    distances = np.linalg.norm(tail[:, None, :] - points[None, :, :], axis=2)
    assert distances.min(axis=1).max() <= 1e-6


# --- sweep cells sharing the free-flow prefix -------------------------------------------

BOTH_MODES = [PredictionMode.DERIVATIVE, PredictionMode.EULER]
SWEEP_GRID = TimeGrid(100.0, 0.1)  # lag 10 at the default tau = 1


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
        except DivergenceError as exc:
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
    # stretch [457, 713), so the flow steps 712 rows, 76 of them past 636,
    # and the cell 364 more; the second and the third open at 637 and 648,
    # on rows the flow holds, and step 363 and 352.
    pytest.param("gate-opens-past-the-prefix", 712 + 364 + 363 + 352, 364 + 363 + 352,
                 id="gate-opens-past-the-prefix-1791"),
])
def test_sweep_steps_only_what_no_earlier_cell_stepped(params, s0, core_calls, name, steps,
                                                       gates):
    sweep_case(params, s0, name)
    # The gate runs per sample only at the samples stepped after a first open
    # gate; the free flow before it is gated in one array pass a stretch.
    # The cells share one free flow, which each steps only past the rows an
    # earlier one had it step, so it drops fewer free steps past its first
    # open gate than it stepped itself.
    got = core_calls()
    assert (got["steps"], got["gated"]) == (steps, gates)
    assert got["field"] == 4 * got["steps"]


def stretch_end(opening, k):
    """The end of the free stretch of ``_FreeFlow`` that holds sample ``k``, given
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


def lone_run_peak(p, s0, grid, cfg, run=run_controlled):
    """What ``run(p, s0, grid, cfg)`` returns for a lone run, and its
    tracemalloc peak in bytes a sample."""
    tracemalloc.start()
    try:
        result = run(p, s0, grid, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / (grid.n_steps + 1)


def run_and_report(p, s0, grid, cfg):
    traj = run_controlled(p, s0, grid, cfg)
    return traj, convergence_report(traj, equilibria(p), grid, cfg=cfg)


def run_each_alone(p, s0, grid, cfg):
    (pair,) = run_each(p, s0, grid, [cfg])
    return pair


def test_lone_never_open_run_peak_does_not_grow_with_t_on(params, s0):
    # The run's arrays take 49 bytes a sample.  The flow's r is computed a
    # block of _CHECK_ROWS rows at a time, so the samples before t_on, which
    # cannot open, add no full-length temporaries (80.9 bytes a sample when
    # one pass gated them all).
    cfg = ControllerConfig(K=-0.6, epsilon=0.05, t_on=199.0)
    traj, peak = lone_run_peak(params, s0, TimeGrid(200.0, 0.01), cfg)
    assert traj.n_samples == 20001 and not traj.active.any()
    assert peak <= 55.0


def test_lone_run_steps_on_in_its_own_flow(params, s0):
    # Past its first open sample a lone run steps on in the arrays of its
    # free flow; a copy of them would add 32 bytes a sample.
    cfg = ControllerConfig(K=-0.3, epsilon=5.0, t_on=1000.0, mode=PredictionMode.EULER)
    traj, peak = lone_run_peak(params, s0, TimeGrid(2000.0, 0.1), cfg)
    assert int(traj.active.argmax()) > 10000
    assert all(getattr(traj, name).flags.writeable for name in ARRAYS)
    assert peak <= 60.0


def test_lone_run_each_steps_on_in_its_own_flow(params, s0):
    # simulate's one-controller run_each peaks no higher than the run and its
    # report made apart, 73 bytes a sample, but for a few hundred bytes of
    # its own: its run is not copied off a flow kept for later runs (that
    # copy added 32 bytes a sample)
    cfg = ControllerConfig(K=-0.3, epsilon=5.0, t_on=1000.0, mode=PredictionMode.EULER)
    grid = TimeGrid(2000.0, 0.1)
    (traj, report), apart = lone_run_peak(params, s0, grid, cfg, run_and_report)
    (got, got_report), alone = lone_run_peak(params, s0, grid, cfg, run_each_alone)
    assert int(got.active.argmax()) > 10000
    assert alone <= apart + 1.0 and apart < 80.0
    assert_same_outcome(got, traj)
    assert repr(got_report) == repr(report)


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


def run_on_flow_cut(p, s0, grid, cfg, cut):
    """The run of ``cfg`` on a free flow first stepped to row ``cut``."""
    flow = harness._FreeFlow(p, s0, grid)
    flow.extend(cut)
    got = outcome(_run, p, s0, grid, cfg, flow)
    if not isinstance(got, tuple) and got.active.any():  # a copy, not the flow's rows
        assert not np.shares_memory(got.states, flow.states)
    return got


@pytest.mark.parametrize("name", sorted(PREFIX_CASES))
def test_run_with_free_prefix_matches_run_without(params, s0, rng, name):
    cfg = PREFIX_CASES[name]
    free = run_uncontrolled(params, s0, SWEEP_GRID).states
    expected = outcome(core_run, params, s0, SWEEP_GRID, cfg)
    cuts = [len(free), 1] + [int(c) for c in rng.integers(1, len(free), size=3)]
    if cfg is not None:
        # the flow ends just before the first gated sample, at it, and just
        # before, at and past the row where the free flow first opens the gate
        lag = delay_steps(cfg, SWEEP_GRID.dt)
        cuts += [lag, lag + 1]
        dt = SWEEP_GRID.dt
        opening = next(
            (k for k in range(lag, len(free))
             if activation_gate(free[k - lag], k * dt, free[k], cfg)[0]),
            None,
        )
        if opening is not None:
            cuts += [opening, opening + 1] + [min(len(free), opening + d) for d in (2, 3, 100)]
    for cut in cuts:
        assert_same_outcome(run_on_flow_cut(params, s0, SWEEP_GRID, cfg, cut), expected)


@given(p=distinct_params(), s0=st.builds(State, coords, coords, coords),
       cfg=st.one_of(st.none(), drawn_controllers), cut=st.integers(1, DRAWN_GRID.n_steps + 1))
def test_run_on_a_drawn_flow_cut_matches_a_fresh_run(p, s0, cfg, cut):
    with np.errstate(over="ignore", invalid="ignore"):
        expected = outcome(core_run, p, s0, DRAWN_GRID, cfg)
        assert_same_outcome(run_on_flow_cut(p, s0, DRAWN_GRID, cfg, cut), expected)


@pytest.mark.parametrize("order", ["sorted", "reversed"])
def test_run_each_matches_independent_runs(params, s0, order):
    cfgs = [PREFIX_CASES[name] for name in sorted(PREFIX_CASES, reverse=order == "reversed")]
    for cfg, (got, _) in zip(cfgs, run_each(params, s0, SWEEP_GRID, cfgs)):
        if isinstance(got, DivergenceError):
            got = (got.step_index, got.time, str(got))
        assert_same_outcome(got, outcome(run_controlled, params, s0, SWEEP_GRID, cfg))


def test_run_each_gates_the_shared_prefix_on_its_r(params, s0, monkeypatch):
    # One lag (tau = 1): the first cell never opens, so it steps the whole
    # free flow and computes its r; the later cells read that r and compute
    # none of it, and the never-open one allocates its arrays (49 bytes a
    # sample) and a bool a sample to compare.  ``passes`` holds the rows of
    # r each ``_FreeFlow.r`` call computed, where it computed any.
    passes, r = [], harness._FreeFlow.r

    def counted(flow, lag):
        done = flow._r[lag][1] if lag in flow._r else lag
        result = r(flow, lag)
        if flow._r[lag][1] > done:
            passes.append(flow._r[lag][1] - done)
        return result

    monkeypatch.setattr(harness._FreeFlow, "r", counted)
    grid = TimeGrid(2000.0, 0.01)
    cfgs = [
        ControllerConfig(K=-0.6, epsilon=1e-9),
        ControllerConfig(K=-0.3, epsilon=1e-9, mode=PredictionMode.EULER),
        ControllerConfig(K=-0.3, epsilon=1e9, t_on=1999.5),
        ControllerConfig(K=-0.6, epsilon=1e9, t_on=1995.0, mode=PredictionMode.EULER),
    ]
    results = run_each(params, s0, grid, cfgs)
    first, _ = next(results)
    assert not first.active.any() and sum(passes) == first.n_samples - 100
    passes.clear()
    tracemalloc.start()
    try:
        shut, _ = next(results)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    late = [traj for traj, _ in results]
    assert not shut.active.any()
    assert peak / shut.n_samples <= 55.0
    assert passes == []
    assert [int(traj.active.argmax()) for traj in late] == [199951, 199501]
    assert np.array_equal(shut.r, first.r, equal_nan=True)


lags = st.sampled_from([0.1, 0.5, 1.0])
ARRAYS = ("t", "states", "u", "active", "r")

# controllers of one lag whose gate never opens on DRAWN_GRID: epsilon below
# every r, or t_on at or past its last time, so run_each hands them on
never_opening = st.one_of(
    st.builds(ControllerConfig, K=drawn_gains, epsilon=st.just(1e-9), t_on=st.floats(0.0, 25.0),
              mode=st.sampled_from(PredictionMode), tau=st.just(1.0)),
    st.builds(ControllerConfig, K=drawn_gains, epsilon=drawn_thresholds,
              t_on=st.floats(20.0, 25.0), mode=st.sampled_from(PredictionMode), tau=st.just(1.0)),
)
drawn_cell_lists = st.lists(st.one_of(st.none(), never_opening, st.builds(
    ControllerConfig, K=drawn_gains, epsilon=drawn_thresholds,
    t_on=st.floats(0.0, 25.0), mode=st.sampled_from(PredictionMode), tau=lags,
)), min_size=1, max_size=6)


@given(cfgs=drawn_cell_lists)
def test_run_each_matches_independent_runs_on_drawn_lists(params, s0, eqs, cfgs):
    # each report, a handed-on run's too, is the one of the run made alone
    with np.errstate(over="ignore", invalid="ignore"):
        for cfg, (got, report) in zip(cfgs, run_each(params, s0, DRAWN_GRID, cfgs, tail=5.0)):
            expected = outcome(core_run, params, s0, DRAWN_GRID, cfg)
            if isinstance(got, DivergenceError):
                got = (got.step_index, got.time, str(got))
                assert report is None
            else:
                assert not any(getattr(got, name).flags.writeable for name in ARRAYS)
                alone = convergence_report(expected, eqs, DRAWN_GRID, tail=5.0, cfg=cfg)
                assert repr(report) == repr(alone)
            assert_same_outcome(got, expected)


def test_run_each_hands_a_never_open_run_on_read_only(params, s0):
    never = ControllerConfig(K=-0.6, epsilon=0.05)  # lag 10
    cfgs = [
        never,
        ControllerConfig(K=-0.3, epsilon=0.05, t_on=60.0, mode=PredictionMode.EULER),
        ControllerConfig(K=-0.3, epsilon=1.0, t_on=40.0),  # its gate opens on the same r
        ControllerConfig(K=-0.3, epsilon=0.05, tau=0.5),   # another lag
        never,
    ]
    pairs = run_each(params, s0, SWEEP_GRID, cfgs)
    first, handed, opens, other, again = (traj for traj, _ in pairs)
    # one run for each lag whose gate never opens, on the one free flow
    assert first is handed is again and first.work.steps == SWEEP_GRID.n_steps
    assert other is not first and other.states is first.states and other.work.passes == 1
    for name in ARRAYS:
        assert not getattr(handed, name).flags.writeable, name
    with pytest.raises(ValueError, match="read-only"):
        handed.states[0, 0] = 0.0
    assert opens.active.any() and opens.work.steps > 0
    assert not np.shares_memory(opens.states, first.states)
    for cfg, got in zip(cfgs, (first, handed, opens, other, again)):
        assert_same_outcome(got, run_controlled(params, s0, SWEEP_GRID, cfg))


def test_run_each_results_are_read_only(params, s0):
    # a later run copies its prefix from an earlier result's arrays, so a
    # caller's write into one must not reach the next
    cfgs = [
        ControllerConfig(K=-0.3, epsilon=1.0, t_on=40.0),  # its gate opens
        ControllerConfig(K=-0.3, epsilon=1.0, t_on=60.0),  # copies the first's prefix
        ControllerConfig(K=-0.6, epsilon=0.05),            # never opens
        ControllerConfig(K=-0.6, epsilon=0.05, t_on=50.0),  # handed the one before
        ControllerConfig(K=-0.3, epsilon=0.05, tau=0.5),   # another lag
    ]
    results, seen = run_each(params, s0, SWEEP_GRID, cfgs), []
    for cfg in cfgs:
        seen.append(next(results)[0])
        for name in ARRAYS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(seen[-1], name)[:] = 0
        expected = run_controlled(params, s0, SWEEP_GRID, cfg)
        assert all(getattr(expected, name).flags.writeable for name in ARRAYS)
        assert_same_outcome(seen[-1], expected)
    assert seen[1].work.steps < seen[0].work.steps  # it stepped from its own gate only
    assert seen[3] is seen[2]


@pytest.mark.parametrize("name", ["gate-never-opens", "gate-opens-late", "diverges-after-branching"])
def test_sweep_runs_only_the_cells_that_step(params, s0, eqs, monkeypatch, name):
    # the cells whose run is not one an earlier cell was handed
    runs, results, run = [], [], harness._run

    def counted(*args):
        runs.append(args[3])
        traj = run(*args)
        if any(traj is earlier for earlier in results):
            runs.pop()
        results.append(traj)
        return traj

    monkeypatch.setattr(harness, "_run", counted)
    rep, cfgs = sweep_case(params, s0, name)
    monkeypatch.undo()
    # the cells that run: each whose gate opens or that diverges, and the
    # first whose gate never opens
    expected, never = [], None
    for cell, cfg in zip(rep.cells, cfgs):
        try:
            traj = run_controlled(params, s0, SWEEP_GRID, cfg)
        except DivergenceError:
            expected.append(cfg)
            continue
        report = convergence_report(traj, eqs, SWEEP_GRID, tail=10.0, cfg=cfg)
        assert repr(cell.report) == repr(report)
        if traj.active.any() or never is None:
            expected.append(cfg)
        if not traj.active.any():
            never = never or cfg
    assert runs == expected
    assert never is not None and len(runs) < len(cfgs)


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
    grid = TimeGrid(60.0, 0.01)
    cfg = ControllerConfig(K=-0.3, epsilon=5.0, mode=PredictionMode.EULER)
    never = ControllerConfig(K=-0.6, epsilon=0.05)
    alone = run_controlled(params, s0, grid, cfg)
    opened = int(alone.active.sum())
    assert 0 < opened < alone.n_samples - 1 and not alone.active[-1]
    assert len(reads) == 1
    reads.clear()
    (shut, _), (shared, _) = run_each(params, s0, grid, [never, cfg])
    assert not shut.active.any()
    assert len(reads) == 1  # a run whose gate never opens has no control term
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
            t_on = (after - 0.5) * grid.dt
            cfg = ControllerConfig(K=-0.3, epsilon=(here + before) / 2, t_on=t_on, tau=tau)
            return grid, cfg, after + offset
    raise AssertionError("no such sample")


DIVERGING_GRID = TimeGrid(10.0, 0.25)  # the free flow diverges at step 6
# the free flow diverges at step 24, and with lag 1 its r drops below 1.3 first at 18
OPEN_THEN_DIVERGING_GRID = TimeGrid(28.0, 0.28)
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
    # t_on/dt overflows to inf
    "t_on-largest-double": lambda p, s0: (
        SWEEP_GRID, ControllerConfig(K=-0.3, epsilon=1e9, t_on=sys.float_info.max), None,
    ),
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
    free = _run(params, s0, TimeGrid(23 * 0.28, 0.28), None).states
    r = np.linalg.norm(free[1:] - free[:-1], axis=1)  # at samples 1, 2, ...
    assert r[17] < 1.3 <= r[:17].min()


def test_free_step_that_fails_past_the_first_open_gate_is_dropped_work(params, s0, core_calls):
    # The gate first opens at 18; the free stretch [17, 33) fails at step 24.
    # The stretch is checked for divergence at its end, so steps 19 to 32,
    # the failed one and those past it too, were integrated and are dropped.
    traj = run_controlled(params, s0, OPEN_THEN_DIVERGING_GRID, OPEN_THEN_LASTING)
    n = OPEN_THEN_DIVERGING_GRID.n_steps
    assert int(traj.active.argmax()) == 18
    # stretches end at 2, 3, 5, 9, 17 and 33: six passes
    assert core_calls() == {"field": 4 * (n + 14), "steps": n + 14, "gated": n - 18,
                            "dropped": 14, "passes": 6}


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


# --- divergence found at a check of the stepped rows, not in the step --------------------

def free_grid(dt):
    return TimeGrid(600 * dt, dt)


FAR_START = State(2e6, 0.0, 0.0)
# The run checks the rows it stepped at each stretch end, and at every
# multiple of harness._CHECK_ROWS (512) samples once it is not gating the
# free flow in stretches: rows 511 and 512 end one checked block and begin
# the next.  name -> (start, None for the s0 fixture; grid; controller; the
# failing row)
DIVERGENCE_CASES = {
    "free-last-row-of-a-block": (None, free_grid(0.21517), None, 511),
    "free-first-row-of-a-block": (None, free_grid(0.22584), None, 512),
    # the gate opens at sample 51 (t > 5) and stays open: the per-sample phase
    "per-sample-last-row-of-a-block": (
        None, TimeGrid(60.0, 0.1), ControllerConfig(K=-0.52196, epsilon=1e9, t_on=5.0), 511,
    ),
    "per-sample-first-row-of-a-block": (
        None, TimeGrid(60.0, 0.1), ControllerConfig(K=-0.5219, epsilon=1e9, t_on=5.0), 512,
    ),
    "free-initial-state": (FAR_START, short_grid, None, 0),
    "controlled-initial-state": (FAR_START, short_grid, ControllerConfig(K=-0.3, t_on=0.0), 0),
    # the free stretch [17, 33) fails at row 24, after the gate opens at 18:
    # that row is dropped, and the controlled run from 18 fails at 92
    "shut-stretch-gate-opens-before-the-failing-row": (
        None, OPEN_THEN_DIVERGING_GRID,
        ControllerConfig(K=-0.3, epsilon=1.3, t_on=0.0, tau=0.28), 92,
    ),
}


@pytest.mark.parametrize("name", sorted(DIVERGENCE_CASES))
def test_divergence_found_at_a_check_matches_reference_run(params, s0, name):
    start, grid, cfg, row = DIVERGENCE_CASES[name]
    start = start or s0
    assert harness._CHECK_ROWS == 512  # so that the rows named are the edges of blocks
    got = outcome(_run, params, start, grid, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = outcome(reference_run, params, start, grid, cfg)
    assert isinstance(ref, tuple) and ref[0] == row
    assert got == ref


@pytest.mark.parametrize("name", [name for name in sorted(DIVERGENCE_CASES)
                                  if DIVERGENCE_CASES[name][3]] + ["non-finite-derivative"])
def test_error_reads_the_failed_row(params, s0, monkeypatch, name):
    # The error is read from the failing row alone, which is the one step from
    # the state, gate and u of the checked row before; no step is taken again.
    start, grid, cfg, row = DIVERGENCE_CASES.get(name) or (
        None, TimeGrid(100.0, 0.1), ControllerConfig(K=1e200, epsilon=1e9, t_on=0.0), 11)
    start = start or s0
    seen, divergence = [], harness._divergence
    monkeypatch.setattr(harness, "_divergence", lambda *args: seen.append(args) or divergence(*args))
    with np.errstate(over="ignore", invalid="ignore"):
        ref = outcome(reference_run, params, start, grid, cfg)
    assert outcome(_run, params, start, grid, cfg) == ref and ref[0] == row
    (k, _, state), = seen
    before = _run(params, start, TimeGrid(grid.time_at(row - 1), grid.dt), cfg)
    f_open, f_ctl = reference_fields(params, cfg)
    # the same step without its stage check, which a non-finite derivative fails
    monkeypatch.setattr(reference, "_eval", lambda f, t, y: np.asarray(f(t, y), dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        stepped = rk4_step(f_ctl if before.active[-1] else f_open, grid.time_at(row - 1),
                           before.states[-1], grid.dt)
    assert k == row and np.asarray(state).tobytes() == stepped.tobytes()


# name -> (start, None for the s0 fixture; grid; controller; the exact error)
ROW_ERRORS = {
    # each component of the start at the limit, and a step so long that the
    # third stage overflows
    "free-non-finite-row": (State(1e6, 1e6, 1e6), TimeGrid(1e21, 1e20), None,
                            "step 1 (t=1e+20): non-finite state component"),
    "gated-non-finite-row": (None, TimeGrid(100.0, 0.1),
                             ControllerConfig(K=1e200, epsilon=1e9, t_on=0.0),
                             "step 11 (t=1.1): non-finite state component"),
    "free-row-beyond-the-limit": (None, free_grid(0.21517), None,
                                  "step 511 (t=109.95187): state magnitude exceeded 1e+06"),
    "gated-row-beyond-the-limit": (None, TimeGrid(100.0, 0.1),
                                   ControllerConfig(K=-1.4, epsilon=5.0, t_on=40.0),
                                   "step 551 (t=55.1): state magnitude exceeded 1e+06"),
    "free-start-beyond-the-limit": (FAR_START, short_grid, None,
                                    "step 0 (t=0.0): state magnitude exceeded 1e+06"),
    "gated-start-beyond-the-limit": (FAR_START, short_grid, ControllerConfig(K=-0.3, t_on=0.0),
                                     "step 0 (t=0.0): state magnitude exceeded 1e+06"),
}


@pytest.mark.parametrize("name", sorted(ROW_ERRORS))
def test_divergence_error_names_the_failing_row_and_its_time(params, s0, name):
    start, grid, cfg, expected = ROW_ERRORS[name]
    with pytest.raises(DivergenceError) as info:
        core_run(params, start or s0, grid, cfg)
    assert str(info.value) == f"integration aborted at {expected}"
    k = info.value.step_index
    assert info.value.time == grid.time_at(k)


@pytest.mark.parametrize("dt, row", [(0.21517, 511), (0.22584, 512)])
def test_free_run_steps_past_a_divergence_to_its_next_check_only(params, s0, core_calls, dt,
                                                                  row):
    grid = free_grid(dt)
    with pytest.raises(DivergenceError):
        _run(params, s0, grid, None)
    # every row up to the check that finds the failed one, each stepped once
    end = min(grid.n_steps + 1, (row // 512 + 1) * 512)
    assert core_calls()["field"] == 4 * (end - 1)


@pytest.mark.parametrize("K, row", [(-1.4, 551), (-1.35, 579), (-0.95, 550), (-0.55, 639)])
def test_shut_gate_far_from_its_delayed_state_stops_the_run_at_once(params, s0, core_calls,
                                                                   K, row):
    # The gate opens past t_on and shuts again as the state runs off: at the
    # failing row r is at least 4 * DIVERGENCE_LIMIT, which two rows within
    # the limit cannot give, so the run checks there and does not step on to
    # row 1000, the end of its checked block.
    grid = TimeGrid(100.0, 0.1)
    cfg = ControllerConfig(K=K, epsilon=5.0, t_on=40.0)
    got = outcome(_run, params, s0, grid, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = outcome(reference_run, params, s0, grid, cfg)
    assert isinstance(ref, tuple) and ref[0] == row
    assert got == ref
    # every row up to the failed one, each stepped once
    assert core_calls()["field"] == 4 * row


@st.composite
def drawn_runs_over_the_checks(draw):
    """600 steps of dt in [0.15, 0.3], over the first checks, and the free
    flow or a controller: runs that last, that diverge before or after a
    gate opens, in a stretch or in a checked block."""
    dt = draw(st.floats(0.15, 0.3))
    cfg = draw(st.one_of(st.none(), st.builds(
        lambda mode, K, lag, epsilon, t_on: ControllerConfig(
            K=K, epsilon=epsilon, t_on=t_on, mode=mode, tau=lag * dt
        ),
        mode=st.sampled_from(PredictionMode),
        K=drawn_gains,
        lag=st.integers(1, 20),
        epsilon=drawn_thresholds,
        t_on=st.floats(0.0, 100.0),
    )))
    return free_grid(dt), cfg


@given(run=drawn_runs_over_the_checks())
def test_core_matches_reference_on_drawn_steps(params, s0, run):
    grid, cfg = run
    with np.errstate(over="ignore", invalid="ignore"):
        ref = outcome(reference_run, params, s0, grid, cfg)
    assert_same_outcome(outcome(_run, params, s0, grid, cfg), ref)
