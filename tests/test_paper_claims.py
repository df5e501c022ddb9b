"""The paper's claims, checked against oracles that do not use the
package's control code or its integrator.

Chaos: the free flow from the reference start has a positive largest
Lyapunov exponent, found here by Benettin's tangent-map method.

The threshold: with the euler-mode law always on, the z-equation of the
Rabinovich flow becomes (1 + K*tau) * (x*y - d*z), so the fixed points are the
open-loop ones.  The gain K* at which the positive-x point turns stable is
found here by bisection on the largest real part of the Jacobian written out
below; the package's ``closed_loop_jacobian`` must agree with it in sign on
either side.

The analytical results: each largest real part that ``equilibria`` prints is
the largest real part of the roots of the characteristic polynomial of a
Jacobian written out below, open-loop and with the control always on.

Convergence: this one runs the package's own loop, through ``run_each``, from
100 starts on the attractor, and judges each run by its report.  Capture
switches on past the threshold K* found above.

The paper's gains, under the law it analysed: prediction-based control of the
flow's time-tau map (T. Ushio and S. Yamamoto, "Prediction-based control of
chaos", Phys. Lett. A 264 (1999) 30-35), where z is corrected once a lag,
z <- z + K*(z - z(t - tau)).  Its linear part at positive-x is stable exactly
for K in (-1, K_hi(tau)), inside the paper's interval (-1, 0), and a numpy
RK4 batch written out below captures the same 100 starts at K = -0.9 and
-0.6.  The shipped modes force dz/dt continuously instead, and do not.

The gate's switch: a controlled run is fourth order in dt against a DOP853
solution of the controlled field written out below when its switch lies on
the grid, and first order when the switch is the first sample past a fixed
t_on, which moves with dt.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from rabinovich import (
    ControllerConfig,
    Params,
    PredictionMode,
    State,
    TimeGrid,
    closed_loop_jacobian,
    run_controlled,
    run_each,
    run_uncontrolled,
)
from rabinovich.cli import cli_dispatch

PARAMS = Params(4.0, 1.0, 1.0, 6.75)  # the reference chaotic parameter set
TAU = 1.0


def positive_x_point(p):
    """The fixed point with x > 0 and z = +sqrt(h^2 - a*b): y^2 = a*d*z/(h+z)
    and x = y*(h+z)/a."""
    z = math.sqrt(p.h * p.h - p.a * p.b)
    y = math.sqrt(p.a * p.d * z / (p.h + z))
    return y * (p.h + z) / p.a, y, z


def euler_jacobian(p, K, tau, point):
    """The Jacobian of x' = -a*x + h*y + y*z, y' = h*x - b*y - x*z,
    z' = (1 + K*tau) * (x*y - d*z)."""
    x, y, z = point
    gain = 1.0 + K * tau
    return np.array([
        [-p.a, p.h + z, y],
        [p.h - z, -p.b, -x],
        [gain * y, gain * x, -gain * p.d],
    ])


def literal_jacobian(p, K, point):
    """The Jacobian of the open-loop x- and y-equations and of
    z' = x*y - d*z + K*(x*y - (d+1)*z)."""
    x, y, _ = point
    J = euler_jacobian(p, 0.0, TAU, point)  # the open-loop flow's
    J[2] = ((1.0 + K) * y, (1.0 + K) * x, -p.d - K * (p.d + 1.0))
    return J


def max_real(J):
    return float(np.linalg.eigvals(J).real.max())


def max_real_of_roots(J):
    """The largest real part of the roots of det(lambda*I - J), which is
    lambda^3 - trace*lambda^2 + minors*lambda - det, where minors is the sum
    of J's principal 2x2 minors."""
    minors = (J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0] + J[0, 0] * J[2, 2] - J[0, 2] * J[2, 0]
              + J[1, 1] * J[2, 2] - J[1, 2] * J[2, 1])
    return float(np.roots([1.0, -np.trace(J), minors, -np.linalg.det(J)]).real.max())


def test_positive_x_point_is_a_fixed_point():
    x, y, z = positive_x_point(PARAMS)
    p = PARAMS
    field = (-p.a * x + p.h * y + y * z, p.h * x - p.b * y - x * z, x * y - p.d * z)
    assert max(map(abs, field)) < 1e-12
    assert x > 0


def test_euler_threshold_lies_where_the_linearization_turns_stable():
    point = positive_x_point(PARAMS)
    lo, hi = 0.8, 0.85
    assert max_real(euler_jacobian(PARAMS, lo, TAU, point)) > 0.0
    assert max_real(euler_jacobian(PARAMS, hi, TAU, point)) < 0.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if max_real(euler_jacobian(PARAMS, mid, TAU, point)) > 0.0:
            lo = mid
        else:
            hi = mid
    assert 0.83 < lo < 0.84


@pytest.mark.parametrize("K, expected", [(0.8, 0.0090), (0.85, -0.0031)])
def test_package_jacobian_agrees_in_sign_on_either_side(K, expected):
    point = positive_x_point(PARAMS)
    ours = max_real(euler_jacobian(PARAMS, K, TAU, point))
    cfg = ControllerConfig(K, mode=PredictionMode.EULER, tau=TAU)
    J = closed_loop_jacobian(PARAMS, cfg, State(*point))
    theirs = max_real(J)
    assert math.copysign(1.0, theirs) == math.copysign(1.0, ours) == math.copysign(1.0, expected)
    assert theirs == pytest.approx(expected, abs=5e-5)
    assert ours == pytest.approx(theirs, abs=1e-12)


def field_and_tangent(p, w):
    """The free field at the state w[:3] and the Jacobian there applied to
    the tangent w[3:]."""
    x, y, z, vx, vy, vz = w
    return (
        -p.a * x + p.h * y + y * z,
        p.h * x - p.b * y - x * z,
        x * y - p.d * z,
        -p.a * vx + (p.h + z) * vy + y * vz,
        (p.h - z) * vx - p.b * vy - x * vz,
        y * vx + x * vy - p.d * vz,
    )


def largest_lyapunov_exponent(p, start, transient, span, dt):
    """Benettin's method: RK4 on the state and its tangent, in Python floats;
    the tangent is renormalized every step, and the exponent is the mean log
    growth a unit of time over ``span``, after ``transient`` time units."""
    w, total = (*start, 1.0, 0.0, 0.0), 0.0
    skip, steps = round(transient / dt), round((transient + span) / dt)
    for k in range(steps):
        k1 = field_and_tangent(p, w)
        k2 = field_and_tangent(p, [a + 0.5 * dt * b for a, b in zip(w, k1)])
        k3 = field_and_tangent(p, [a + 0.5 * dt * b for a, b in zip(w, k2)])
        k4 = field_and_tangent(p, [a + dt * b for a, b in zip(w, k3)])
        w = [a + dt / 6.0 * (b + 2.0 * c + 2.0 * d + e)
             for a, b, c, d, e in zip(w, k1, k2, k3, k4)]
        norm = math.sqrt(w[3] * w[3] + w[4] * w[4] + w[5] * w[5])
        w[3:] = (w[3] / norm, w[4] / norm, w[5] / norm)
        if k >= skip:
            total += math.log(norm)
    return total / span


def test_free_flow_is_chaotic_by_its_largest_lyapunov_exponent():
    lam = largest_lyapunov_exponent(PARAMS, (1.5, -1.25, 3.5), 50.0, 500.0, 0.01)
    assert 0.40 < lam < 0.55


def printed_max_real(out):
    """{label: (open-loop text, controlled text)} of equilibria's stdout,
    each text a max Re and its verdict."""
    lines = out.splitlines()
    return {
        line.split(":")[0]: (lines[i + 1].split("max Re = ")[1], lines[i + 2].split("max Re = ")[1])
        for i, line in enumerate(lines)
        if "residual = " in line
    }


@pytest.mark.parametrize("config, controlled, readme", [
    ("", lambda point: literal_jacobian(PARAMS, -0.6, point), "+0.439018"),
    ("mode = euler\nK = 0.6\n", lambda point: euler_jacobian(PARAMS, 0.6, TAU, point),
     "+0.0549647"),
    ("K = 0\n", lambda point: literal_jacobian(PARAMS, 0.0, point), None),
], ids=["literal-K=-0.6", "euler-K=0.6", "K=0"])
def test_equilibria_prints_the_max_real_root_of_each_characteristic_polynomial(
        capsys, tmp_path, config, controlled, readme):
    path = tmp_path / "eq.cfg"
    path.write_text(config, encoding="utf-8")
    assert cli_dispatch(["equilibria", "--config", str(path)]) == 0
    printed = printed_max_real(capsys.readouterr().out)
    x, y, z = positive_x_point(PARAMS)
    points = {"origin": (0.0, 0.0, 0.0), "positive-x": (x, y, z), "negative-x": (-x, -y, z)}
    assert set(printed) == set(points)
    for label, point in points.items():
        jacobians = (euler_jacobian(PARAMS, 0.0, TAU, point), controlled(point))
        for text, J in zip(printed[label], jacobians):
            value, verdict = text.split(" -> ")
            expected = max_real_of_roots(J)
            assert float(value) == pytest.approx(expected, rel=1e-5)
            assert verdict == f"{'stable' if expected < 0.0 else 'unstable'} (continuous)"
    if readme is not None:  # README's controlled max Re of the off-axis pair
        assert printed["positive-x"][1].split(" -> ")[0] == readme
        assert printed["negative-x"][1].split(" -> ")[0] == readme
    else:  # K = 0 prints the open-loop numbers twice
        assert all(open_loop == ctl for open_loop, ctl in printed.values())


@pytest.fixture(scope="module")
def attractor_starts():
    free = run_uncontrolled(PARAMS, State(1.5, -1.25, 3.5), TimeGrid(496.0, 0.01))
    starts = free.states[10000::400]  # every 4 time units from t = 100
    assert len(starts) == 100
    return starts


def test_capture_switches_on_past_the_euler_threshold(attractor_starts):
    # K* is about 0.837 (the bisection above): capture is none at the paper's
    # gains in (-1, 0) nor at 0.7, below K*, and nearly every start at 1.5.
    starts = attractor_starts
    gains = (-0.6, -0.3, 0.7, 1.5)
    cfgs = [ControllerConfig(K, epsilon=5.0, t_on=40.0, mode=PredictionMode.EULER, tau=TAU)
            for K in gains]
    captured = dict.fromkeys(gains, 0)
    for start in starts:
        runs = run_each(PARAMS, State(*start), TimeGrid(100.0, 0.05), cfgs)
        for K, (_, report) in zip(gains, runs):
            assert report is not None, f"K = {K} diverged from {start}"
            captured[K] += report.stabilized
    assert captured[-0.6] == captured[-0.3] == captured[0.7] == 0
    assert captured[1.5] >= 90


def map_closed_loop(M, K):
    """The linear part of the time-tau map under the sampled law: M with its
    z-row replaced by M_z + K*(M_z - e_z)."""
    C = M.copy()
    C[2] = M[2] + K * (M[2] - (0.0, 0.0, 1.0))
    return C


def spectral_radius(A):
    return float(np.abs(np.linalg.eigvals(A)).max())


@pytest.mark.parametrize("tau, rho_open, k_hi", [(1.0, 1.172, -0.400), (0.5, 1.082, -0.097)])
def test_sampled_law_is_stable_on_the_map_exactly_inside_the_paper_interval(tau, rho_open, k_hi):
    # M = expm(J*tau), J the open-loop Jacobian at positive-x, is unstable;
    # the gains that make it stable are one interval, from -1 to K_hi(tau).
    M = scipy.linalg.expm(euler_jacobian(PARAMS, 0.0, tau, positive_x_point(PARAMS)) * tau)
    assert spectral_radius(M) == pytest.approx(rho_open, abs=1e-3)
    gains = np.linspace(-2.0, 1.0, 3001)  # a step of 0.001
    stable = np.flatnonzero([spectral_radius(map_closed_loop(M, K)) < 1.0 for K in gains])
    assert np.array_equal(stable, np.arange(stable[0], stable[-1] + 1))
    assert gains[stable[0] - 1] == pytest.approx(-1.0, abs=1e-12)  # -1 is the lower edge
    assert gains[stable[-1]] == pytest.approx(k_hi, abs=0.01)
    if tau == 1.0:  # the paper's gain
        assert spectral_radius(map_closed_loop(M, -0.6)) == pytest.approx(0.881, abs=1e-3)


def sampled_capture(starts, gains, epsilon=5.0, t_on=40.0, dt=0.1, t_end=200.0, tail=20.0):
    """{K: starts captured} under the sampled law, by RK4 in numpy with one
    lane a (gain, start): at each multiple of the lag TAU past t_on where
    r = |s - s(t - TAU)| < epsilon, z <- z + K*(z - z(t - TAU)), with
    s(t - TAU) the state held, after its own correction, one lag before.  A
    lane is captured when it is within 0.5 of one fixed point at every
    multiple of the lag in the last ``tail`` time units."""
    p, lag = PARAMS, round(TAU / dt)
    K = np.repeat(gains, len(starts))
    s = np.tile(np.asarray(starts).T, len(gains))  # (3, lanes)
    x, y, z = positive_x_point(p)
    points = np.array([(0.0, 0.0, 0.0), (x, y, z), (-x, -y, z)])[:, :, None]

    def field(w):
        x, y, z = w
        return np.array((-p.a * x + p.h * y + y * z, p.h * x - p.b * y - x * z, x * y - p.d * z))

    held, worst = s.copy(), np.zeros((3, s.shape[1]))
    for k in range(1, round(t_end / dt) + 1):
        k1 = field(s)
        k2 = field(s + 0.5 * dt * k1)
        k3 = field(s + 0.5 * dt * k2)
        k4 = field(s + dt * k3)
        s = s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k % lag:
            continue
        t = k // lag * TAU
        if t > t_on:
            gate = np.sqrt(((s - held) ** 2).sum(axis=0)) < epsilon
            s[2] = np.where(gate, s[2] + K * (s[2] - held[2]), s[2])
        held = s.copy()
        if t >= t_end - tail:
            worst = np.maximum(worst, np.sqrt(((s - points) ** 2).sum(axis=1)))
    assert np.isfinite(s).all()
    captured = (worst <= 0.5).any(axis=0).reshape(len(gains), -1).sum(axis=1)
    return dict(zip(gains, captured.tolist()))


def test_sampled_law_captures_at_the_paper_gains(attractor_starts):
    # the same starts that no gain in (-1, 0) captures in euler mode; the
    # switch lies at the map's K_hi(1) = -0.400 above
    captured = sampled_capture(attractor_starts, (-0.9, -0.6, -0.3, 0.3))
    assert captured[-0.9] >= 90 and captured[-0.6] >= 90
    assert captured[-0.3] == captured[0.3] == 0


SWITCH = 1.5  # where the orders below switch the control on
ORDER_DTS = (0.02, 0.01, 0.005, 0.0025)  # at 0.04 neither run is asymptotic yet


def controlled_reference(mode, K):
    """The end state at t = 4 of a DOP853 solution of the free field up to
    SWITCH and of the always-on controlled field from there, both written
    out here: u = K*tau*(x*y - d*z) in euler mode, K*(x*y - (d+1)*z) in
    literal mode, added to z'."""
    integrate = pytest.importorskip("scipy.integrate")
    p = PARAMS
    g, c = (K * TAU, -p.d) if mode is PredictionMode.EULER else (K, -(p.d + 1.0))

    def field(t, s, gain):
        x, y, z = s
        return [-p.a * x + p.h * y + y * z, p.h * x - p.b * y - x * z,
                x * y - p.d * z + gain * (c * z + x * y)]

    tight = dict(method="DOP853", rtol=1e-13, atol=1e-13)
    free = integrate.solve_ivp(field, (0.0, SWITCH), [1.5, -1.25, 3.5], args=(0.0,), **tight)
    on = integrate.solve_ivp(field, (SWITCH, 4.0), free.y[:, -1], args=(g,), **tight)
    return on.y[:, -1]


def controlled_orders(mode, K, t_on_of, opens_at):
    """log2 of the ratios of neighbouring end-state errors over ORDER_DTS of
    always-on runs with t_on = t_on_of(dt), each checked to open first at
    the sample opens_at(dt)."""
    reference, errors = controlled_reference(mode, K), []
    for dt in ORDER_DTS:
        cfg = ControllerConfig(K, epsilon=1e9, t_on=t_on_of(dt), mode=mode, tau=TAU)
        traj = run_controlled(PARAMS, State(1.5, -1.25, 3.5), TimeGrid(4.0, dt), cfg)
        assert traj.t[traj.active.argmax()] == pytest.approx(opens_at(dt), abs=1e-9)
        errors.append(float(np.linalg.norm(traj.states[-1] - reference)))
    return [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]


MODES_AND_GAINS = pytest.mark.parametrize(
    "mode, K", [(PredictionMode.EULER, 1.5), (PredictionMode.DERIVATIVE, 1.0)],
    ids=["euler-K=1.5", "literal-K=1"])


@MODES_AND_GAINS
def test_controlled_run_is_fourth_order_with_its_switch_on_the_grid(mode, K):
    # t_on half a step before SWITCH opens the gate at t = SWITCH at every dt,
    # so RK4 steps each regime whole.  Measured orders 4.29, 4.16 and 4.08
    # (euler) and 4.12, 4.07 and 4.04 (literal).
    for order in controlled_orders(mode, K, lambda dt: SWITCH - 0.5 * dt, lambda dt: SWITCH):
        assert order == pytest.approx(4.0, abs=0.3)


@MODES_AND_GAINS
def test_controlled_run_is_first_order_through_its_sampled_switch(mode, K):
    # With t_on = SWITCH the gate opens at the first sample past it, SWITCH +
    # dt: the switch moves with dt, and the run is first order (Gear and
    # Osterby, ACM TOMS 10(1), 1984).  Measured orders 0.88, 0.95 and 0.97
    # (euler) and 1.01, 1.00 and 1.00 (literal).
    for order in controlled_orders(mode, K, lambda dt: SWITCH, lambda dt: SWITCH + dt):
        assert order == pytest.approx(1.0, abs=0.3)
