import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rabinovich import DIVERGENCE_LIMIT, IntegrationError, TimeGrid
from rabinovich.integrator import MAX_STEPS, whole_steps
from reference import rk4_step


class TestTimeGrid:
    def test_basic(self):
        g = TimeGrid(0.0, 1.0, 0.25)
        assert g.n_steps == 4
        assert g.time_at(0) == 0.0
        assert g.time_at(4) == 1.0
        assert np.array_equal(g.times(), np.array([0.0, 0.25, 0.5, 0.75, 1.0]))

    def test_standard_grid_hits_landmarks_exactly(self):
        # 0.1 is inexact in binary but 400*0.1 and 2000*0.1 are exact
        g = TimeGrid(0.0, 200.0, 0.1)
        assert g.n_steps == 2000
        assert g.time_at(400) == 40.0
        assert g.time_at(1000) == 100.0
        assert g.time_at(2000) == 200.0

    @pytest.mark.parametrize("t0,t_end,dt", [
        (0.0, 1.0, 0.3),      # does not divide evenly
        (0.0, 1.0, -0.1),     # negative step
        (0.0, 1.0, 0.0),      # zero step
        (1.0, 1.0, 0.1),      # empty span
        (2.0, 1.0, 0.1),      # reversed span
        (0.0, math.inf, 0.1),
    ])
    def test_rejects_bad_grids(self, t0, t_end, dt):
        with pytest.raises(ValueError):
            TimeGrid(t0, t_end, dt)

    def test_step_count_is_bounded(self):
        assert TimeGrid(0.0, float(MAX_STEPS), 1.0).n_steps == MAX_STEPS
        with pytest.raises(ValueError, match="dt = 1.0 gives 10000001 steps, more than the 10000000"):
            TimeGrid(0.0, float(MAX_STEPS + 1), 1.0)
        with pytest.raises(ValueError, match=r"dt = 1e-09 gives 200000000000 steps"):
            TimeGrid(0.0, 200.0, 1e-9)
        # a span/dt quotient that overflows to inf is a step count too
        with pytest.raises(ValueError, match=r"dt = 1e-300 gives inf steps"):
            TimeGrid(0.0, 1e300, 1e-300)

    @pytest.mark.parametrize("length, dt, expected", [
        (0.3, 0.1, (2.9999999999999996, 3)),       # within 1e-9 of a whole number
        (1.0, 0.3, (3.3333333333333335, None)),
        (0.05, 0.1, (0.5, None)),                  # fewer than one step
        (1e300, 1e-10, (math.inf, None)),          # overflows: bounded before round
    ])
    def test_whole_steps(self, length, dt, expected):
        assert whole_steps(length, dt) == expected

    def test_times_matches_time_at(self):
        g = TimeGrid(0.0, 5.0, 0.1)
        ts = g.times()
        assert len(ts) == g.n_steps + 1
        for k in (0, 7, 23, g.n_steps):
            assert ts[k] == g.time_at(k)


class TestRk4Step:
    def test_linear_decay_one_step(self):
        # RK4 on y' = -y reproduces the degree-4 Taylor polynomial of e^-dt
        y1 = rk4_step(lambda t, y: -y, 0.0, np.array([1.0]), 0.1)
        expected = 1.0 - 0.1 + 0.1**2 / 2 - 0.1**3 / 6 + 0.1**4 / 24
        assert y1[0] == pytest.approx(expected, rel=1e-15)
        assert y1[0] == pytest.approx(0.9048375, rel=1e-12)

    @given(lam=st.floats(min_value=-3.0, max_value=3.0),
           y0=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_matches_taylor_polynomial_on_linear_field(self, lam, y0):
        dt = 0.05
        y1 = rk4_step(lambda t, y: lam * y, 0.0, np.array([y0]), dt)
        z = lam * dt
        poly = 1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        assert y1[0] == pytest.approx(y0 * poly, rel=1e-13, abs=1e-13)

    def test_constant_field_is_exact(self):
        y1 = rk4_step(lambda t, y: np.array([2.0]), 0.0, np.array([1.0]), 0.5)
        assert y1[0] == pytest.approx(2.0, rel=1e-15)

    def test_input_state_not_mutated(self):
        y = np.array([1.0, 2.0, 3.0])
        rk4_step(lambda t, v: -v, 0.0, y, 0.1)
        assert np.array_equal(y, np.array([1.0, 2.0, 3.0]))

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            rk4_step(lambda t, y: -y, 0.0, np.array([1.0]), 0.0)

    def test_nonfinite_derivative_raises(self):
        def bad(t, y):
            return np.array([math.nan])
        with pytest.raises(IntegrationError):
            rk4_step(bad, 0.0, np.array([1.0]), 0.1)

    def test_convergence_order_is_four(self):
        # y' = -y on [0,1]; halving dt should cut the error ~16x
        errs = []
        for dt in (0.1, 0.05, 0.025):
            y = np.array([1.0])
            g = TimeGrid(0.0, 1.0, dt)
            for k in range(g.n_steps):
                y = rk4_step(lambda t, v: -v, g.time_at(k), y, dt)
            errs.append(abs(y[0] - math.exp(-1.0)))
        orders = [math.log(errs[i] / errs[i + 1], 2) for i in range(2)]
        for p in orders:
            assert p == pytest.approx(4.0, abs=0.2)


def test_divergence_limit_value():
    assert DIVERGENCE_LIMIT == 1e6
