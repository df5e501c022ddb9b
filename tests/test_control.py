import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rabinovich import (
    DIVERGENCE_LIMIT,
    ControllerConfig,
    PredictionMode,
    Params,
    State,
    TimeGrid,
    admissible_gain_interval,
    closed_loop_check,
    closed_loop_jacobian,
    closed_loop_scalar_coeff,
    control_coefficients,
    delay_steps,
    eigen3,
    field_components,
    gate_samples,
    jacobian,
    run_controlled,
)
from reference import activation_gate, control_term

coords = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
gains = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


# --- controller configuration ------------------------------------------------

def test_config_defaults():
    cfg = ControllerConfig(K=-0.6)
    assert cfg.epsilon == 0.1
    assert cfg.t_on == 40.0
    assert cfg.mode is PredictionMode.DERIVATIVE
    assert cfg.tau == 1.0


@pytest.mark.parametrize("kwargs", [
    {"epsilon": 0.0}, {"epsilon": -0.1}, {"tau": 0.0}, {"tau": -1.0},
    {"t_on": -5.0}, {"mode": "literal"}, {"K": math.nan},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ControllerConfig(**{"K": -0.6, **kwargs})


def test_config_has_no_controlled_component():
    # the control acts on the z-equation only; there is no field to pick another
    with pytest.raises(TypeError):
        ControllerConfig(K=-0.6, controlled_component=2)


def test_mode_tokens():
    assert PredictionMode("literal") is PredictionMode.DERIVATIVE
    assert PredictionMode("euler") is PredictionMode.EULER


def test_delay_steps():
    cfg = ControllerConfig(K=-0.6, tau=1.0)
    assert delay_steps(cfg, 0.1) == 10
    assert delay_steps(cfg, 0.5) == 2
    with pytest.raises(ValueError):
        delay_steps(cfg, 0.3)  # 1/0.3 is not an integer
    with pytest.raises(ValueError):
        delay_steps(ControllerConfig(K=-0.6, tau=0.05), 0.1)  # lag < 1 step
    # tau/dt overflows to inf: an error that names tau, not an OverflowError
    with pytest.raises(ValueError, match=r"^tau must be a positive integer multiple of dt: "
                                         r"tau=1e\+300, dt=1e-10 gives tau/dt=inf$"):
        delay_steps(ControllerConfig(K=-0.6, tau=1e300), 1e-10)


# --- control law --------------------------------------------------------------

def test_control_vanishes_at_origin(params):
    cfg = ControllerConfig(K=-0.6)
    assert control_term(params, cfg, 0.0, 0.0, 0.0) == 0.0


def test_literal_control_at_positive_equilibrium(params, eqs):
    # u = K(-(d+1)z + xy) = -0.6*(-2*6.4469 + 4.6119*1.3979) ~ +3.8681
    cfg = ControllerConfig(K=-0.6)
    pos = eqs.points[1]
    u = control_term(params, cfg, *pos.as_array())
    assert u == pytest.approx(3.8681, abs=1e-3)
    # xy = d z at a fixed point, so the offset collapses to -K z*
    assert u == pytest.approx(-cfg.K * pos.z, rel=1e-12)


def test_euler_control_vanishes_at_equilibria(params, eqs):
    cfg = ControllerConfig(K=-0.6, mode=PredictionMode.EULER)
    for point in eqs.points:
        assert control_term(params, cfg, *point.as_array()) == pytest.approx(0.0, abs=1e-3)


@given(x=coords, y=coords, z=coords, K=gains)
def test_literal_mode_is_gain_times_zdot_minus_z(x, y, z, K):
    # u = K*(dz/dt - z): the prediction is the derivative itself
    p = Params(4.0, 1.0, 1.0, 6.75)
    cfg = ControllerConfig(K=K)
    dz = field_components(p.a, p.b, p.d, p.h, x, y, z)[2]
    u = control_term(p, cfg, x, y, z)
    assert u == pytest.approx(K * (dz - z), rel=1e-12, abs=1e-12)


@given(x=coords, y=coords, z=coords, K=gains,
       tau=st.floats(min_value=0.1, max_value=2.0))
def test_euler_mode_is_gain_times_tau_zdot(x, y, z, K, tau):
    p = Params(4.0, 1.0, 1.0, 6.75)
    cfg = ControllerConfig(K=K, mode=PredictionMode.EULER, tau=tau)
    dz = field_components(p.a, p.b, p.d, p.h, x, y, z)[2]
    assert control_term(p, cfg, x, y, z) == pytest.approx(K * tau * dz, rel=1e-12, abs=1e-12)


def same_double(a, b):
    """Equal bits, the sign of a zero included; any NaN equals any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@example(x=0.0, y=0.0, z=0.0, K=1e200, tau=1e200, d=1.0)  # K*tau = inf, times 0: NaN
@example(x=1.0, y=2.0, z=0.5, K=-1e200, tau=1e200, d=1.0)  # -inf
@given(
    x=coords, y=coords, z=coords,
    K=st.one_of(st.sampled_from([0.0, -0.0]), gains, st.floats(-1e300, 1e300)),
    tau=st.one_of(st.floats(min_value=0.01, max_value=10.0), st.floats(1e100, 1e300)),
    d=st.floats(min_value=0.05, max_value=10.0),
)
def test_control_term_is_the_written_law_in_coefficient_form(x, y, z, K, tau, d):
    # u = g * (c*z + x*y) on control_coefficients, as harness._run writes it
    # inline, is bit for bit the law as written: K*(-(d+1)*z + x*y), and
    # K*tau*(-d*z + x*y)
    p = Params(4.0, 1.0, d, 6.75)
    for mode, law in ((PredictionMode.DERIVATIVE, K * (-(d + 1.0) * z + x * y)),
                      (PredictionMode.EULER, K * tau * (-d * z + x * y))):
        g, c = control_coefficients(p, ControllerConfig(K=K, mode=mode, tau=tau))
        assert same_double(g * (c * z + x * y), law)


# --- gain admissibility --------------------------------------------------------

def test_interval_at_d_one():
    interval = admissible_gain_interval(1.0)
    assert (interval.lo, interval.hi) == (-1.0, 0.0)
    assert interval.contains(-0.6)
    assert not interval.contains(0.0)  # open at both ends
    assert not interval.contains(-1.0)


def test_interval_at_d_three():
    interval = admissible_gain_interval(3.0)
    assert (interval.lo, interval.hi) == (-1.0, -0.5)
    # spot check from the defining inequality
    assert abs(-3.0 - (-0.75) * 4.0) == 0.0 < 1.0
    assert interval.contains(-0.75)


def test_interval_rejects_bad_d():
    with pytest.raises(ValueError):
        admissible_gain_interval(0.0)
    with pytest.raises(ValueError):
        admissible_gain_interval(-1.0)
    # (1-d)/(d+1) rounds to -1 once d+1 == d, leaving an empty interval
    with pytest.raises(ValueError, match="d = 1e\\+16 is too large"):
        admissible_gain_interval(1e16)


def test_scalar_coeff_reference_points():
    assert closed_loop_scalar_coeff(1.0, 0.0) == -1.0          # open loop
    assert closed_loop_scalar_coeff(1.0, -0.5) == 0.0          # exact root
    assert abs(closed_loop_scalar_coeff(1.0, -0.6) - 0.2) < 1e-15


@given(d=st.floats(min_value=0.05, max_value=10.0), K=gains)
def test_interval_agrees_with_scalar_check(d, K):
    # K admissible <=> |coefficient| < 1 <=> discrete_ok on scalar A=-d.
    # Equivalent in exact arithmetic; skip gains so close to an interval
    # endpoint that the coefficient rounds onto the |coeff| = 1 boundary.
    coeff = closed_loop_scalar_coeff(d, K)
    assume(abs(abs(coeff) - 1.0) > 1e-9)
    inside = admissible_gain_interval(d).contains(K)
    verdict = closed_loop_check(-d, K)
    assert inside == verdict.discrete_ok


def test_interval_check_agreement_thousand_samples(rng):
    # same property, dense deterministic sampling
    for _ in range(1000):
        d = float(rng.uniform(0.05, 10.0))
        K = float(rng.uniform(-3.0, 3.0))
        assert admissible_gain_interval(d).contains(K) == closed_loop_check(-d, K).discrete_ok


# --- closed-loop checks ---------------------------------------------------------

def test_scalar_check_reference_gain():
    v = closed_loop_check(-1.0, -0.6)
    assert v.closed_loop_matrix == pytest.approx(0.2, abs=1e-15)
    assert v.spectral_radius == pytest.approx(0.2, abs=1e-15)
    assert v.discrete_ok
    assert v.max_real_part == pytest.approx(0.2, abs=1e-15)
    assert not v.continuous_ok  # +0.2 is continuously unstable
    assert v.gain_exists


def test_zero_gain_reduces_to_open_loop(params, s0):
    A = jacobian(params, s0)
    v = closed_loop_check(A, 0.0)
    assert np.array_equal(v.closed_loop_matrix, A)
    lam = eigen3(A)
    assert v.eigenvalues == lam


def test_gain_exists_is_det_condition():
    assert not closed_loop_check(1.0, 0.3).gain_exists      # scalar A=1
    assert not closed_loop_check(np.eye(3), -0.6).gain_exists
    assert closed_loop_check(np.diag([2.0, 3.0, 4.0]), -0.6).gain_exists


@pytest.mark.filterwarnings("error")
def test_check_rejects_overflowing_gain(params, s0):
    with pytest.raises(ValueError, match="K = 1e\\+308 is too large"):
        closed_loop_check(-1.0, 1e308)
    with pytest.raises(ValueError, match="K = -1e\\+308 is too large"):
        closed_loop_check(jacobian(params, s0), -1e308)


def test_check_rejects_bad_shapes():
    with pytest.raises(ValueError):
        closed_loop_check(np.eye(2), -0.6)
    with pytest.raises(ValueError):
        closed_loop_check(math.nan, -0.6)


# --- full closed-loop jacobian ---------------------------------------------------

def test_closed_loop_jacobian_zero_gain_is_open_loop(params, s0):
    assert np.array_equal(closed_loop_jacobian(params, 0.0, s0), jacobian(params, s0))


def test_closed_loop_jacobian_z_row_at_equilibrium(params, eqs):
    J = closed_loop_jacobian(params, -0.6, eqs.points[1])
    assert J[2, 0] == pytest.approx(0.55916, abs=1e-4)   # (1+K) y*
    assert J[2, 1] == pytest.approx(1.84476, abs=1e-4)   # (1+K) x*
    assert J[2, 2] == pytest.approx(0.2, abs=1e-15)      # -d - K(d+1)


@given(x=coords, y=coords, z=coords, K=gains)
def test_zz_entry_is_scalar_coeff_everywhere(x, y, z, K):
    p = Params(4.0, 1.0, 1.0, 6.75)
    J = closed_loop_jacobian(p, K, State(x, y, z))
    assert J[2, 2] == closed_loop_scalar_coeff(p.d, K)


def test_closed_loop_jacobian_matches_finite_differences(params, rng):
    # controlled field (literal mode): z-equation gets u added
    cfg = ControllerConfig(K=-0.6)

    def controlled(s: np.ndarray) -> np.ndarray:
        dx, dy, dz = field_components(params.a, params.b, params.d, params.h, *s)
        return np.array([dx, dy, dz + control_term(params, cfg, *s)])

    for _ in range(20):
        s = rng.uniform(-8.0, 8.0, size=3)
        J = closed_loop_jacobian(params, cfg.K, State(*s))
        eps = 1e-6
        for j in range(3):
            step = np.zeros(3)
            step[j] = eps
            col = (controlled(s + step) - controlled(s - step)) / (2 * eps)
            assert np.allclose(J[:, j], col, atol=1e-6)


# --- eigenvalues -----------------------------------------------------------------

def test_eigen3_identity():
    assert eigen3(np.eye(3)) == (1 + 0j, 1 + 0j, 1 + 0j)


def test_eigen3_diagonal():
    lam = eigen3(np.diag([-4.0, -1.0, -1.0]))
    assert lam == (-1 + 0j, -1 + 0j, -4 + 0j)  # sorted by descending real part


def test_eigen3_open_loop_origin(params):
    # block [[-4, 6.75], [6.75, -1]] has polynomial t^2 + 5t - 41.5625,
    # roots (-5 +- sqrt(25 + 4*41.5625))/2; the z-row contributes -1
    J = jacobian(params, State(0.0, 0.0, 0.0))
    lam = eigen3(J)
    disc = math.sqrt(25.0 + 4.0 * 41.5625)
    assert lam[0].real == pytest.approx((-5.0 + disc) / 2.0, rel=1e-9)
    assert lam[1].real == pytest.approx(-1.0, rel=1e-9)
    assert lam[2].real == pytest.approx((-5.0 - disc) / 2.0, rel=1e-9)
    assert all(ev.imag == 0.0 for ev in lam)
    assert lam[0].real > 0.0  # the origin is unstable


def test_eigen3_conjugate_pairs_adjacent(params, eqs):
    lam = eigen3(jacobian(params, eqs.points[1]))
    complex_ones = [ev for ev in lam if ev.imag != 0.0]
    assert len(complex_ones) == 2
    assert complex_ones[0] == complex_ones[1].conjugate()


def test_eigen3_characteristic_residuals(rng):
    # det(M - lam I) expanded via trace invariants; residual must be tiny
    for _ in range(1000):
        M = rng.uniform(-10.0, 10.0, size=(3, 3))
        c2 = -np.trace(M)
        c1 = 0.5 * (np.trace(M) ** 2 - np.trace(M @ M))
        c0 = -np.linalg.det(M)
        for lam in eigen3(M):
            residual = abs(lam**3 + c2 * lam**2 + c1 * lam + c0)
            assert residual < 1e-8


def test_eigen3_rejects_nonfinite_and_wrong_shape():
    with pytest.raises(ValueError):
        eigen3(np.full((3, 3), math.nan))
    with pytest.raises(ValueError):
        eigen3(np.eye(4))


# --- activation gate ---------------------------------------------------------------

def test_gate_inactive_before_window_fills(params, s0):
    # t_on = 0 and a huge epsilon open the gate on every sample that has a
    # state tau earlier; the first tau/dt = 3 samples have none.
    cfg = ControllerConfig(K=-0.6, epsilon=1e9, t_on=0.0, tau=0.375)
    traj = run_controlled(params, s0, TimeGrid(0.0, 2.0, 0.125), cfg)
    assert not traj.active[:3].any()
    assert np.all(traj.u[:3] == 0.0)
    assert np.all(np.isnan(traj.r[:3]))
    assert traj.active[3:].all()


def test_gate_at_constant_history():
    cfg = ControllerConfig(K=-0.6, epsilon=0.1, t_on=40.0)
    s = np.array([4.6119, 1.3979, 6.4469])
    active, r = activation_gate(s, 50.0, s, cfg)
    assert active and r == 0.0
    # time gate wins regardless of recurrence
    active, r = activation_gate(s, 40.0, s, cfg)
    assert not active and r == 0.0
    active, _ = activation_gate(s, 39.9, s, cfg)
    assert not active


def test_gate_threshold_comparison():
    cfg = ControllerConfig(K=-0.6, epsilon=0.1, t_on=0.0)
    active, r = activation_gate((0.0, 0.0, 0.0), 1.0, (0.5, 0.0, 0.0), cfg)
    assert not active
    assert r == 0.5


def test_gate_r_is_euclidean_norm():
    cfg = ControllerConfig(K=-0.6, epsilon=10.0, t_on=0.0)
    _, r = activation_gate((1.0, 2.0, 3.0), 1.0, (4.0, 6.0, 3.0), cfg)
    assert r == 5.0  # 3-4-5 triangle in the x-y plane


@given(
    eps_small=st.floats(min_value=1e-6, max_value=10.0),
    eps_large=st.floats(min_value=1e-6, max_value=10.0),
    x=coords, y=coords, z=coords,
)
def test_gate_monotone_in_epsilon(eps_small, eps_large, x, y, z):
    # shrinking epsilon can only deactivate, never activate
    if eps_small > eps_large:
        eps_small, eps_large = eps_large, eps_small
    origin, s = (0.0, 0.0, 0.0), (x, y, z)
    small_on, _ = activation_gate(origin, 50.0, s, ControllerConfig(K=-0.6, epsilon=eps_small))
    large_on, _ = activation_gate(origin, 50.0, s, ControllerConfig(K=-0.6, epsilon=eps_large))
    assert not (small_on and not large_on)


def scalar_gate_samples(states, lag, t0, dt, cfg):
    """activation_gate at each sample from the lag on, as the harness calls it."""
    pairs = [
        activation_gate(states[k - lag].tolist(), t0 + k * dt, states[k].tolist(), cfg)
        for k in range(lag, len(states))
    ]
    return np.array([a for a, _ in pairs], dtype=bool), np.array([r for _, r in pairs])


def gate_states(rng, lag):
    """64 random states with signed zeros, components at the divergence limit,
    differences whose squares (or the differences themselves) overflow to
    inf, and rows equal to the row ``lag`` before them."""
    n = 64
    states = rng.normal(scale=10.0, size=(n, 3))
    states[rng.random((n, 3)) < 0.1] = 0.0
    states[rng.random((n, 3)) < 0.1] = -0.0
    limit, big = DIVERGENCE_LIMIT, sys.float_info.max
    states[20:22] = [(limit, -limit, np.nextafter(limit, 0.0)), (-limit, limit, -0.0)]
    states[40:43] = [(1e200, -1e200, 0.0), (-1e200, big, 1.0), (big, -big, -big)]
    for k in (lag, 30 + lag):
        if k < n - 1:
            states[k] = states[k - lag]
    states[0, 0], states[lag, 0] = -0.0, 0.0  # still r = +0.0
    return states


@pytest.mark.parametrize("lag", [1, 2, 10, 63])  # 63: one sample, len(states) - 1
def test_gate_samples_equals_scalar_gate_bit_for_bit(rng, lag):
    states = gate_states(rng, lag)
    t0, dt = 0.25, 0.1
    t = TimeGrid(t0, t0 + (len(states) - 1) * dt, dt).times()  # the times gate_samples reads
    assert len(t) == len(states)
    _, r = scalar_gate_samples(states, lag, t0, dt, ControllerConfig(K=-0.6))
    if lag < len(states) - 1:
        assert np.isinf(r).any() and (r == 0.0).any()
    ks = np.arange(lag, len(states))
    positive = np.flatnonzero(np.isfinite(r) & (r > 0.0))
    cfgs = [
        ControllerConfig(K=-0.6, epsilon=1e9, t_on=0.0),
        ControllerConfig(K=-0.6, epsilon=20.0, t_on=3.0),
        # epsilon equal to an r and t_on equal to a grid time, exactly
        ControllerConfig(K=-0.6, epsilon=float(r[positive[len(positive) // 2]]),
                         t_on=t0 + int(ks[len(ks) // 2]) * dt),
        ControllerConfig(K=-0.6, epsilon=float(r[positive[0]]), t_on=t0 + lag * dt),
    ]
    for cfg in cfgs:
        expected_active, expected_r = scalar_gate_samples(states, lag, t0, dt, cfg)
        # also over windows whose first row is a later grid sample
        for start in [s for s in (0, 1, 17) if s + lag < len(states)]:
            active, got_r = gate_samples(states[start:], lag, t[start + lag:], cfg)
            assert active.dtype == bool and got_r.dtype == np.float64
            assert np.array_equal(active, expected_active[start:])
            # the bits of r, sign bit included
            assert np.array_equal(got_r.view(np.uint64), expected_r[start:].view(np.uint64))


def test_control_input_consistent_with_vector_field(params, s0):
    # literal mode: u + z = K*(dz/dt) + (1+K)... sanity via direct identity
    cfg = ControllerConfig(K=-0.6)
    dz = field_components(params.a, params.b, params.d, params.h, *s0.as_array())[2]
    u = control_term(params, cfg, *s0.as_array())
    assert u == pytest.approx(cfg.K * (dz - s0.z), rel=1e-12)
