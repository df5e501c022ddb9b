import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rabinovich import (
    EquilibriumSet,
    Params,
    State,
    equilibria,
    field_components,
    jacobian,
    residual_norm,
)

coords = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def field(p, s):
    return field_components(p.a, p.b, p.d, p.h, s.x, s.y, s.z)


def test_params_coerce_to_float():
    p = Params(4, 1, 1, 6.75)
    assert isinstance(p.a, float) and p.a == 4.0


@pytest.mark.parametrize("bad", [
    {"a": 0.0}, {"a": -4.0}, {"b": -1.0}, {"d": 0.0}, {"h": -6.75},
    {"a": math.nan}, {"h": math.inf},
])
def test_params_reject_nonpositive(bad):
    kwargs = {"a": 4.0, "b": 1.0, "d": 1.0, "h": 6.75, **bad}
    with pytest.raises(ValueError):
        Params(**kwargs)


def test_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        State(1.0, math.nan, 0.0)
    with pytest.raises(ValueError):
        State(math.inf, 0.0, 0.0)


def test_field_vanishes_at_origin(params):
    assert field(params, State(0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)


def test_field_exact_at_reference_state(params, s0):
    # hand arithmetic: all inputs and products exactly representable
    # dx = -4*1.5 + 6.75*(-1.25) + (-1.25)*3.5 = -6 - 8.4375 - 4.375
    assert field(params, s0) == (-18.8125, 6.125, -5.375)


@given(x=coords, y=coords, z=coords)
def test_mirror_symmetry_is_bitwise(x, y, z):
    # (x,y,z) -> (-x,-y,z) negates the first two components exactly
    dx, dy, dz = field_components(4.0, 1.0, 1.0, 6.75, x, y, z)
    mx, my, mz = field_components(4.0, 1.0, 1.0, 6.75, -x, -y, z)
    assert (mx, my, mz) == (-dx, -dy, dz)


def test_equilibria_reference_values(params, eqs):
    assert not eqs.degenerate
    assert len(eqs.points) == 3
    assert eqs.points[0] == State(0.0, 0.0, 0.0)

    pos = eqs.points[1]
    assert pos.x == pytest.approx(4.6119, abs=1e-3)
    assert pos.y == pytest.approx(1.3979, abs=1e-3)
    assert pos.z == pytest.approx(6.4469, abs=1e-3)

    neg = eqs.points[2]
    assert (neg.x, neg.y, neg.z) == (-pos.x, -pos.y, pos.z)

    for point in eqs.points:
        assert residual_norm(params, point) < 1e-9


def test_equilibria_closed_form_identities(params, eqs):
    # z* = sqrt(h^2 - ab); x*y* = d z*; x* = y*(h+z*)/a
    pos = eqs.points[1]
    assert pos.z == pytest.approx(math.sqrt(6.75**2 - 4.0), rel=1e-15)
    assert pos.x * pos.y == pytest.approx(params.d * pos.z, rel=1e-12)
    assert pos.x == pytest.approx(pos.y * (params.h + pos.z) / params.a, rel=1e-12)


def test_equilibria_labels(eqs):
    assert eqs.labels == ("origin", "positive-x", "negative-x")


@pytest.mark.parametrize("a,b,h", [(4.0, 1.0, 2.0), (4.0, 1.0, 1.0), (9.0, 1.0, 3.0)])
def test_equilibria_degenerate_when_h2_at_most_ab(a, b, h):
    got = equilibria(Params(a, b, 1.0, h))
    assert got.degenerate
    assert got.points == (State(0.0, 0.0, 0.0),)
    assert got.labels == ("origin",)


def test_equilibrium_set_is_degenerate_by_its_points_alone(eqs):
    # the set takes its points only, so it cannot disagree with them
    origin = State(0.0, 0.0, 0.0)
    assert EquilibriumSet((origin,)).degenerate
    assert not EquilibriumSet(eqs.points).degenerate
    assert EquilibriumSet((origin,)) == equilibria(Params(4.0, 1.0, 1.0, 2.0))
    assert EquilibriumSet(eqs.points) == eqs


@given(
    d=st.floats(min_value=0.1, max_value=5.0),
    h=st.floats(min_value=2.1, max_value=10.0),
)
def test_equilibria_residual_small_across_parameters(d, h):
    p = Params(4.0, 1.0, d, h)  # h^2 > ab = 4 guaranteed by h > 2.1
    got = equilibria(p)
    assert len(got.points) == 3
    for point in got.points:
        assert residual_norm(p, point) < 1e-9


def test_jacobian_entries(params):
    s = State(1.5, -1.25, 3.5)
    J = jacobian(params, s)
    expected = np.array([
        [-4.0, 6.75 + 3.5, -1.25],
        [6.75 - 3.5, -1.0, -1.5],
        [-1.25, 1.5, -1.0],
    ])
    assert np.array_equal(J, expected)


@given(x=coords, y=coords, z=coords)
def test_jacobian_matches_finite_differences(x, y, z):
    p = Params(4.0, 1.0, 1.0, 6.75)
    s = State(x, y, z)
    J = jacobian(p, s)
    eps = 1e-6
    base = np.array(field_components(p.a, p.b, p.d, p.h, x, y, z))
    for j, delta in enumerate(np.eye(3) * eps):
        plus = np.array(field_components(p.a, p.b, p.d, p.h,
                                         x + delta[0], y + delta[1], z + delta[2]))
        minus = np.array(field_components(p.a, p.b, p.d, p.h,
                                          x - delta[0], y - delta[1], z - delta[2]))
        col = (plus - minus) / (2 * eps)
        # quadratic field: central differences are exact up to rounding
        assert np.allclose(J[:, j], col, atol=1e-5)
    assert base.shape == (3,)


def test_residual_norm_is_field_magnitude(params, s0):
    dx, dy, dz = field(params, s0)
    assert residual_norm(params, s0) == pytest.approx(
        math.sqrt(dx**2 + dy**2 + dz**2), rel=1e-15
    )


def test_equilibrium_set_is_immutable(eqs):
    with pytest.raises(AttributeError):
        eqs.degenerate = True
    assert isinstance(eqs, EquilibriumSet)
