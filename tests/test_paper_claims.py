"""The paper's claims, checked against an oracle that does not use the
package's control code.

The threshold: with the euler-mode law always on, the z-equation of the
Rabinovich flow becomes (1 + K*tau) * (x*y - d*z), so the fixed points are the
open-loop ones.  The gain K* at which the positive-x point turns stable is
found here by bisection on the largest real part of the Jacobian written out
below; the package's ``closed_loop_jacobian`` must agree with it in sign on
either side.
"""

import math

import numpy as np
import pytest

from rabinovich import Params, PredictionMode, State, closed_loop_jacobian

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


def max_real(J):
    return float(np.linalg.eigvals(J).real.max())


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
    J = closed_loop_jacobian(PARAMS, K, State(*point), mode=PredictionMode.EULER, tau=TAU)
    theirs = max_real(J)
    assert math.copysign(1.0, theirs) == math.copysign(1.0, ours) == math.copysign(1.0, expected)
    assert theirs == pytest.approx(expected, abs=5e-5)
    assert ours == pytest.approx(theirs, abs=1e-12)
