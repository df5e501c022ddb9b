"""Acceptance gate: one test per contract criterion, at the stated tolerances.

Each test is deliberately self-contained (oracle values inline, the output
pins in ``tests/pins.py``) so a single ``pytest -v tests/test_acceptance.py``
emits one pass/fail line per criterion.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from rabinovich import (
    ControllerConfig,
    Params,
    PredictionMode,
    State,
    TimeGrid,
    admissible_gain_interval,
    closed_loop_jacobian,
    closed_loop_scalar_coeff,
    equilibria,
    field_components,
    jacobian,
    read_trajectory_csv,
    residual_norm,
    run_controlled,
    run_uncontrolled,
    sweep,
    write_trajectory_csv,
)
from rabinovich.cli import cli_dispatch
from pins import PINS, command, digest
from reference import control_term

REFERENCE = Params(a=4.0, b=1.0, d=1.0, h=6.75)
SEED_STATE = State(1.5, -1.25, 3.5)
FULL_GRID = TimeGrid(200.0, 0.1)


def field(s: State) -> tuple:
    """The open-loop field of REFERENCE at s."""
    return field_components(REFERENCE.a, REFERENCE.b, REFERENCE.d, REFERENCE.h, s.x, s.y, s.z)


def test_equilibria_reproduction():
    eqs = equilibria(REFERENCE)
    assert not eqs.degenerate
    expected = {
        "origin": (0.0, 0.0, 0.0),
        "positive-x": (4.6119, 1.3979, 6.4469),
        "negative-x": (-4.6119, -1.3979, 6.4469),
    }
    assert set(eqs.labels) == set(expected)
    for label, point in zip(eqs.labels, eqs.points):
        want = expected[label]
        assert point.as_array() == pytest.approx(want, abs=1e-3)
        assert residual_norm(REFERENCE, point) < 1e-9


def test_gain_interval_reproduction():
    lo, hi = admissible_gain_interval(1.0)
    assert (lo, hi) == (-1.0, 0.0)
    # membership and the spectral-radius check |m| < 1 must agree on the
    # scalar closed-loop coefficient m for a dense sample of gains
    rng = np.random.default_rng(8281)
    for K in rng.uniform(-2.0, 1.0, size=1000):
        discrete_ok = abs(closed_loop_scalar_coeff(1.0, float(K))) < 1.0
        assert discrete_ok == (lo < K < hi)


def test_linearization_coefficient_and_discrepancy_note(capsys, tmp_path):
    coeff = closed_loop_scalar_coeff(1.0, -0.6)
    assert abs(coeff - 0.2) < 1e-15
    assert abs(coeff) < 1.0             # discrete: spectral radius 0.2 < 1
    assert not coeff < 0.0              # continuous: max Re = +0.2 > 0
    cfg = tmp_path / "gain.cfg"
    cfg.write_text("d = 1\nK = -0.6\n", encoding="utf-8")
    assert cli_dispatch(["gain-check", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" in out
    assert "criteria disagree" in out


def test_integrator_convergence_order():
    # the shipped integrator on the flow itself: endpoint errors over [0, 1]
    # against a run at dt = 0.025/32.  From dt = 0.1 the first ratio reads
    # 3.46: that step is still outside the asymptotic range.
    def endpoint(dt: float) -> np.ndarray:
        return run_uncontrolled(REFERENCE, SEED_STATE, TimeGrid(1.0, dt)).states[-1]

    fine = endpoint(0.025 / 32)
    errs = [float(np.linalg.norm(endpoint(dt) - fine)) for dt in (0.05, 0.025, 0.0125)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert order == pytest.approx(4.0, abs=0.2)


def test_chaos_indicators():
    free = run_uncontrolled(REFERENCE, SEED_STATE, FULL_GRID)
    assert float(np.max(np.abs(free.states))) < 50.0
    nudged = State(SEED_STATE.x + 1e-8, SEED_STATE.y, SEED_STATE.z)
    other = run_uncontrolled(REFERENCE, nudged, FULL_GRID)
    separation = float(np.linalg.norm(free.states[-1] - other.states[-1]))
    assert separation > 1.0


def test_protocol_reproduction(tmp_path, capsys):
    # both activation presets must run to completion end to end
    assert cli_dispatch(["reproduce", "all", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    for name, t_on in (("fig4", 40.0), ("fig5", 100.0)):
        traj = read_trajectory_csv(str(tmp_path / f"{name}_trajectory.csv"))
        assert traj.n_samples == FULL_GRID.n_steps + 1
        # gate contract: control force only after t_on and inside the
        # recurrence neighborhood
        applied = traj.u != 0.0
        assert np.all(traj.t[applied] > t_on)
        assert np.all(traj.r[applied] < 0.1)
        report = (tmp_path / f"{name}_report.txt").read_text()
        for field in ("tail_max_distance", "control_effort",
                      "max_abs_u_post_activation", "stabilized"):
            assert field in report

    # the gain/neighborhood sweep over both prediction modes must complete
    # within budget and record which cells (if any) captured the target
    base = ControllerConfig(K=-0.6, epsilon=0.1, t_on=40.0)
    started = time.perf_counter()
    result = sweep(
        REFERENCE,
        SEED_STATE,
        FULL_GRID,
        K_values=[-0.9, -0.6, -0.3, -0.1],
        eps_values=[0.1, 0.5],
        base_cfg=base,
        modes=[PredictionMode.DERIVATIVE, PredictionMode.EULER],
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    assert len(result.cells) == 16
    assert all(cell.error is None for cell in result.cells)
    stabilized = result.stabilized_cells()
    # measured outcome, not asserted: no cell in this protocol stabilizes
    assert isinstance(stabilized, tuple)


def test_determinism_regression(tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    first.mkdir()
    second.mkdir()
    assert cli_dispatch(["reproduce", "fig4", "--out-dir", str(first)]) == 0
    assert cli_dispatch(["reproduce", "fig4", "--out-dir", str(second)]) == 0
    a = (first / "fig4_trajectory.csv").read_bytes()
    b = (second / "fig4_trajectory.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize("name", PINS)
def test_output_bit_identity_pins(name, tmp_path, capsys):
    # any change to the numerics or to an output format moves a pin
    assert cli_dispatch(command(name)) == 0
    printed = capsys.readouterr().out
    output = printed.encode() if name.endswith(".stdout") else (tmp_path / name).read_bytes()
    assert digest(output) == PINS[name].sha256


def test_readme_shows_the_captured_run_as_pinned(tmp_path, capsys):
    # README's command and report of the run the controller captures
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    argv = command("captured.txt")
    assert f"```sh\nrabinovich {' '.join(argv)}\n```" in readme
    assert cli_dispatch(argv) == 0
    report = (tmp_path / "captured.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == report
    assert f"```\n{report}```" in readme


def test_invariant_suite(tmp_path):
    short = TimeGrid(30.0, 0.1)
    rng = np.random.default_rng(515)

    # mirror symmetry of the flow: negating (x, y) commutes with integration
    base = run_uncontrolled(REFERENCE, SEED_STATE, short)
    mirrored = run_uncontrolled(
        REFERENCE, State(-SEED_STATE.x, -SEED_STATE.y, SEED_STATE.z), short
    )
    flip = np.array([-1.0, -1.0, 1.0])
    assert np.array_equal(base.states * flip, mirrored.states)

    # zero gain leaves the flow untouched even with the gate forced open
    idle = ControllerConfig(K=0.0, epsilon=1e9, t_on=0.0)
    ctl = run_controlled(REFERENCE, SEED_STATE, short, idle)
    assert np.array_equal(ctl.states, base.states)
    assert not np.any(ctl.u)

    # gate correctness on a run where the gate actually opens
    open_cfg = ControllerConfig(K=-0.6, epsilon=0.5, t_on=10.0)
    gated = run_controlled(REFERENCE, SEED_STATE, short, open_cfg)
    applied = gated.u != 0.0
    assert np.any(applied)
    assert np.all(gated.t[applied] > open_cfg.t_on)
    assert np.all(gated.r[applied] < open_cfg.epsilon)

    # controlled-jacobian agreement with central differences of the field
    always_on = ControllerConfig(K=-0.6, epsilon=1e9, t_on=0.0)

    def forced_field(v: np.ndarray) -> np.ndarray:
        st = State(*v)
        out = np.array(field(st))
        out[2] += control_term(REFERENCE, always_on, st.x, st.y, st.z)
        return out

    for _ in range(10):
        s = State(*rng.uniform(-5.0, 5.0, size=3))
        J = closed_loop_jacobian(REFERENCE, always_on, s)
        step = 1e-6
        fd = np.empty((3, 3))
        for j in range(3):
            delta = np.zeros(3)
            delta[j] = step
            fd[:, j] = (
                forced_field(s.as_array() + delta)
                - forced_field(s.as_array() - delta)
            ) / (2 * step)
        assert np.allclose(J, fd, atol=1e-5)

    # trajectory CSV round-trips bit for bit
    path = tmp_path / "roundtrip.csv"
    write_trajectory_csv(gated, str(path))
    back = read_trajectory_csv(str(path))
    assert np.array_equal(gated.t, back.t)
    assert np.array_equal(gated.states, back.states)
    assert np.array_equal(gated.u, back.u)
    assert np.array_equal(gated.active, back.active)
    assert np.array_equal(gated.r, back.r, equal_nan=True)

    # open-loop jacobian finite-difference agreement
    for _ in range(10):
        s = State(*rng.uniform(-5.0, 5.0, size=3))
        J = jacobian(REFERENCE, s)
        step = 1e-6
        fd = np.empty((3, 3))
        for j in range(3):
            delta = np.zeros(3)
            delta[j] = step
            up = State(*(s.as_array() + delta))
            dn = State(*(s.as_array() - delta))
            fd[:, j] = (np.array(field(up)) - np.array(field(dn))) / (2 * step)
        assert np.allclose(J, fd, atol=1e-5)
