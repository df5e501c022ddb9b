"""Every float input follows one rule, finite or positive and finite, and
every bad input is refused with an error that names it."""

import contextlib
import io
import math
import os
import struct
import sys
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rabinovich import (
    ControllerConfig,
    Params,
    PredictionMode,
    State,
    TimeGrid,
    admissible_gain_interval,
    closed_loop_jacobian,
    closed_loop_scalar_coeff,
    parse_config,
    prediction_mode,
    sweep,
)
from rabinovich.cli import cli_dispatch
from rabinovich.harness import check_report_settings

MAX = sys.float_info.max


def _refusal(call, *args, **kwargs) -> str:
    with pytest.raises(ValueError) as info:
        call(*args, **kwargs)
    return str(info.value)


def _cli_refusal(*argv) -> str:
    # argparse wraps its usage line at the terminal's width, read from COLUMNS.
    err = io.StringIO()
    with contextlib.redirect_stderr(err), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert cli_dispatch(list(argv)) == 1
    return err.getvalue()


def _sweep_refusal(K_values) -> str:
    return _refusal(sweep, Params(4, 1, 1, 6.75), State(1.5, -1.25, 3.5), TimeGrid(30.0, 0.1),
                    K_values, [0.1], ControllerConfig(K=-0.6))


BAD_INPUTS = [
    ("Params-a", lambda: _refusal(Params, 0, 1, 1, 6.75),
     "a must be a positive finite number, got 0.0"),
    ("Params-d", lambda: _refusal(Params, 4, 1, math.nan, 6.75),
     "d must be a positive finite number, got nan"),
    ("Params-h", lambda: _refusal(Params, 4, 1, 1, -math.inf),
     "h must be a positive finite number, got -inf"),
    ("State-y", lambda: _refusal(State, 1, math.inf, 0),
     "state component y must be finite, got inf"),
    ("Controller-K", lambda: _refusal(ControllerConfig, K=math.nan),
     "K must be finite, got nan"),
    ("Controller-epsilon", lambda: _refusal(ControllerConfig, K=-0.6, epsilon=0),
     "epsilon must be a positive finite number, got 0.0"),
    ("Controller-t_on", lambda: _refusal(ControllerConfig, K=-0.6, t_on=math.inf),
     "t_on must be finite, got inf"),
    ("Controller-t_on-negative", lambda: _refusal(ControllerConfig, K=-0.6, t_on=-1),
     "t_on must be nonnegative, got -1.0"),
    ("Controller-tau", lambda: _refusal(ControllerConfig, K=-0.6, tau=-1),
     "tau must be a positive finite number, got -1.0"),
    ("Controller-first-in-field-order",
     lambda: _refusal(ControllerConfig, K=-0.6, epsilon=-1.0, t_on=-1.0, tau=math.nan),
     "epsilon must be a positive finite number, got -1.0"),
    ("Controller-mode", lambda: _refusal(ControllerConfig, K=-0.6, mode="literal"),
     "mode must be a PredictionMode, got 'literal'"),
    ("TimeGrid-t_end", lambda: _refusal(TimeGrid, -math.inf, 0.1),
     "t_end must be a positive finite number, got -inf"),
    ("TimeGrid-t_end-zero", lambda: _refusal(TimeGrid, 0, 0.1),
     "t_end must be a positive finite number, got 0.0"),
    ("TimeGrid-dt", lambda: _refusal(TimeGrid, 1, -0.0),
     "dt must be a positive finite number, got -0.0"),
    ("interval-d", lambda: _refusal(admissible_gain_interval, 0),
     "d must be a positive finite number, got 0.0"),
    ("interval-d-too-large", lambda: _refusal(admissible_gain_interval, 1e16),
     "d = 1e+16 is too large: the interval bound (1-d)/(d+1) rounds to -1"),
    ("scalar-coeff-d-nan", lambda: _refusal(closed_loop_scalar_coeff, math.nan, -0.6),
     "d must be a positive finite number, got nan"),
    ("scalar-coeff-d-inf", lambda: _refusal(closed_loop_scalar_coeff, math.inf, -0.6),
     "d must be a positive finite number, got inf"),
    ("scalar-coeff-d-zero", lambda: _refusal(closed_loop_scalar_coeff, 0.0, -0.6),
     "d must be a positive finite number, got 0.0"),
    ("scalar-coeff-K", lambda: _refusal(closed_loop_scalar_coeff, 1.0, 1e308),
     "K = 1e+308 is too large: the coefficient A + K(A - 1) overflows"),
    ("jacobian-literal", lambda: _refusal(closed_loop_jacobian, Params(4, 1, 1, 6.75),
                                          ControllerConfig(K=1e308), State(1, 1, 1)),
     "K = 1e+308 is too large: the controlled jacobian overflows"),
    ("jacobian-euler",
     lambda: _refusal(closed_loop_jacobian, Params(4, 1, 1, 6.75),
                      ControllerConfig(K=-0.6, mode=PredictionMode.EULER, tau=1e308),
                      State(10, 10, 10)),
     "K = -0.6 with tau = 1e+308 is too large: the controlled jacobian overflows"),
    ("report-tail", lambda: _refusal(check_report_settings, 0.0, 1.0, 10.0),
     "tail must be a positive finite number, got 0.0"),
    ("report-tail-span", lambda: _refusal(check_report_settings, 10.0, 1.0, 10.0),
     "tail (10.0) must be shorter than the run span (10.0)"),
    ("report-capture_radius", lambda: _refusal(check_report_settings, 1.0, math.nan, 10.0),
     "capture_radius must be a positive finite number, got nan"),
    ("mode-token", lambda: _refusal(prediction_mode, "forward"),
     "mode: expected one of literal,euler, got 'forward'"),
    ("config-mode", lambda: _refusal(parse_config, "mode = Euler\n"),
     "mode: expected one of literal,euler, got 'Euler'"),
    ("config-float", lambda: _refusal(parse_config, "\ndt = -inf\n"),
     "line 2: dt must be finite, got '-inf'"),
    ("config-gain-jacobian", lambda: _refusal(parse_config, "K = 1e308\n"),
     "K = 1e+308 is too large: the controlled jacobian overflows"),
    # -d + g*c is finite at g = 1e308 in euler mode, and only x* overflows (1+g)*x
    ("config-gain-jacobian-off-axis", lambda: _refusal(parse_config, "mode = euler\nK = 1e308\n"),
     "K = 1e+308 with tau = 1.0 is too large: the controlled jacobian overflows"),
    ("config-gain-jacobian-euler",
     lambda: _refusal(parse_config, "mode = euler\nt_end = 1e308\ndt = 1e307\ntau = 1e307\n"
                                    "t_on = 0\ntail = 1e307\nK = 1e2\n"),
     "K = 100.0 with tau = 1e+307 is too large: the controlled jacobian overflows"),
    ("Params-int-too-large", lambda: _refusal(Params, 10**400, 1, 1, 6.75),
     f"a must be a positive finite number, got {10**400!r}"),
    ("Params-int-too-long-to-print", lambda: _refusal(Params, 10**5000, 1, 1, 6.75),
     "a must be a positive finite number, got an int of 16610 bits"),
    ("State-int-too-long-to-print", lambda: _refusal(State, 0, 0, -10**5000),
     "state component z must be finite, got an int of 16610 bits"),
    ("Params-str", lambda: _refusal(Params, "4", 1, 1, 6.75),
     "a must be a positive finite number, got '4'"),
    ("State-bytes", lambda: _refusal(State, 0, b"1", 0),
     "state component y must be finite, got b'1'"),
    ("Controller-K-None", lambda: _refusal(ControllerConfig, K=None),
     "K must be finite, got None"),
    # A sweep cell takes the controller's own input rule.
    ("sweep-K-str", lambda: _sweep_refusal(["-0.5"]), "K must be finite, got '-0.5'"),
    ("sweep-K-bare-str", lambda: _sweep_refusal("0.5"), "K must be finite, got '0'"),
    ("sweep-modes", lambda: _cli_refusal("sweep", "--K=-0.6", "--epsilon", "0.1",
                                         "--modes", "euler, forward"),
     "error: modes: expected one of literal,euler, got 'forward'\n"),
    ("gain-check-K-nan", lambda: _cli_refusal("gain-check", "--K", "nan"),
     "error: --K: K must be finite, got nan\n"),
    ("gain-check-d-inf", lambda: _cli_refusal("gain-check", "--d", "inf"),
     "error: --d: d must be a positive finite number, got inf\n"),
    ("gain-check-K-text", lambda: _cli_refusal("gain-check", "--K", "abc"),
     "usage: rabinovich gain-check [-h] [--d D] [--K K]\n"
     "rabinovich gain-check: error: argument --K: invalid float value: 'abc'\n"),
    ("equilibria-K-nan", lambda: _cli_refusal("equilibria", "--K", "nan"),
     "error: --K: K must be finite, got nan\n"),
    # A value that starts with "-" is the option's value, not another option.
    ("gain-check-K-minus-inf", lambda: _cli_refusal("gain-check", "--K", "-inf"),
     "error: --K: K must be finite, got -inf\n"),
    ("gain-check-d-negative", lambda: _cli_refusal("gain-check", "--d", "-1e5"),
     "error: --d: d must be a positive finite number, got -100000.0\n"),
    ("equilibria-K-minus-inf", lambda: _cli_refusal("equilibria", "--K", "-inf"),
     "error: --K: K must be finite, got -inf\n"),
    ("sweep-epsilon-minus-inf", lambda: _cli_refusal("sweep", "--K=-0.6", "--epsilon", "-inf"),
     "error: epsilon must be a positive finite number, got -inf\n"),
    # An option is known only by its full name.
    ("sweep-epsilon-abbreviated", lambda: _cli_refusal("sweep", "--K", "-0.6",
                                                       "--eps", "-0.1,0.5"),
     "usage: rabinovich sweep [-h] [--config CONFIG] --K K --epsilon EPSILON\n"
     "                        [--modes MODES] [--out OUT]\n"
     "rabinovich sweep: error: the following arguments are required: --epsilon\n"),
    ("simulate-out-csv-abbreviated", lambda: _cli_refusal("simulate", "--out-c", "x.csv"),
     "usage: rabinovich [-h] {equilibria,simulate,gain-check,sweep,reproduce} ...\n"
     "rabinovich: error: unrecognized arguments: --out-c x.csv\n"),
]


@pytest.mark.parametrize("refusal, expected", [case[1:] for case in BAD_INPUTS],
                         ids=[case[0] for case in BAD_INPUTS])
def test_each_bad_input_is_refused_with_its_message(refusal, expected):
    assert refusal() == expected


def _as_float(value) -> float:
    """``float(value)``, or NaN for a value the rule refuses as it is."""
    try:
        return math.nan if isinstance(value, (str, bytes, bytearray)) else float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


# (name in the error, positive, build: value -> the value as stored).  The other
# inputs of each build are valid whatever the drawn value, so only its own
# rule can refuse it, but for t_on's nonnegative rule.
FLOAT_FIELDS = {
    "a": (True, lambda v: Params(v, 1, 1, 6.75).a),
    "b": (True, lambda v: Params(4, v, 1, 6.75).b),
    "d": (True, lambda v: Params(4, 1, v, 6.75).d),
    "h": (True, lambda v: Params(4, 1, 1, v).h),
    "state component x": (False, lambda v: State(v, 0, 0).x),
    "state component y": (False, lambda v: State(0, v, 0).y),
    "state component z": (False, lambda v: State(0, 0, v).z),
    "K": (False, lambda v: ControllerConfig(K=v).K),
    "epsilon": (True, lambda v: ControllerConfig(K=-0.6, epsilon=v).epsilon),
    "t_on": (False, lambda v: ControllerConfig(K=-0.6, t_on=v).t_on),
    "tau": (True, lambda v: ControllerConfig(K=-0.6, tau=v).tau),
    # a one-step grid: t_end is its own step
    "t_end": (True, lambda v: TimeGrid(v, v).t_end),
    "dt": (True, lambda v: TimeGrid(v if 0 < _as_float(v) < math.inf else 1, v).dt),
    "tail": (True, lambda v: check_report_settings(v, 1.0, math.inf) or float(v)),
    "capture_radius": (True, lambda v: check_report_settings(1.0, v, 2.0) or float(v)),
    # m = -d at K = 0, so the coefficient's negation is d as stored
    "d of the scalar coefficient": (True, lambda v: -closed_loop_scalar_coeff(v, 0.0)),
    # d + 1 rounds to 1 at this d, so m = -d - K is finite at every finite K
    "K of the scalar coefficient": (False,
                                    lambda v: (closed_loop_scalar_coeff(5e-324, v), float(v))[1]),
}

float_values = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, MAX, -MAX]),
    st.integers(-2**64, 2**64),
    st.booleans(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-1000, 1000).map(np.int64),
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@given(field=st.sampled_from(sorted(FLOAT_FIELDS)), value=float_values)
@example(field="t_on", value=-0.0)
@example(field="dt", value=5e-324)
@example(field="epsilon", value=True)
@example(field="t_end", value=-MAX)
@example(field="t_end", value=-0.0)
@example(field="K of the scalar coefficient", value=math.nan)
@example(field="K of the scalar coefficient", value=-math.inf)
@example(field="K of the scalar coefficient", value=-5e-324)
def test_each_float_field_is_refused_exactly_when_its_rule_fails(field, value):
    positive, build = FLOAT_FIELDS[field]
    name = field.split(" of ")[0]
    f = float(value)
    if not math.isfinite(f) or (positive and f <= 0.0):
        rule = "a positive finite number" if positive else "finite"
        assert _refusal(build, value) == f"{name} must be {rule}, got {f!r}"
    elif field == "t_on" and f < 0.0:
        assert _refusal(build, value) == f"t_on must be nonnegative, got {f!r}"
    else:
        stored = build(value)
        assert type(stored) is float and _bits(stored) == _bits(f)


# Values that float() refuses, or that it would read but the rule refuses as
# they are: text and bytes of every kind, numbers included.
not_numbers = st.one_of(
    st.text(),
    st.binary(),
    st.none(),
    st.complex_numbers(),
    st.integers(2**1024, 10**1000),
    st.integers(-10**1000, -2**1024),
    st.sampled_from(["4", " -0.6 ", "nan", "1e400", b"4", bytearray(b"4"), np.str_("4"),
                     np.bytes_(b"4"), Decimal("sNaN"), Fraction(10**400), [1.0], {}]),
)


@given(field=st.sampled_from(sorted(FLOAT_FIELDS)), value=not_numbers)
@example(field="a", value=10**400)
@example(field="K", value=None)
@example(field="K of the scalar coefficient", value=None)
@example(field="K of the scalar coefficient", value="nan")
@example(field="K of the scalar coefficient", value=b"4")
def test_each_float_field_refuses_what_is_not_a_number(field, value):
    positive, build = FLOAT_FIELDS[field]
    name = field.split(" of ")[0]
    rule = "a positive finite number" if positive else "finite"
    assert _refusal(build, value) == f"{name} must be {rule}, got {value!r}"
