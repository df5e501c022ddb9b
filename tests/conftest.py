from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rabinovich import (
    ControllerConfig,
    Params,
    State,
    TimeGrid,
    equilibria,
    harness,
    run_uncontrolled,
)

# One profile for the whole suite: deterministic, no wall-clock deadline
# (RK4-backed properties are slow per example under load).
settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")
# The suite's settings with many more examples, for a longer search:
# pytest --hypothesis-profile=thorough (the option overrides the line above).
settings.register_profile(
    "thorough", parent=settings.get_profile("suite"), max_examples=2000
)


@pytest.fixture(scope="session")
def params() -> Params:
    # chaotic reference parameter set
    return Params(4.0, 1.0, 1.0, 6.75)


@pytest.fixture(scope="session")
def s0() -> State:
    return State(1.5, -1.25, 3.5)


@pytest.fixture(scope="session")
def grid() -> TimeGrid:
    return TimeGrid(0.0, 200.0, 0.1)


@pytest.fixture(scope="session")
def eqs(params):
    return equilibria(params)


@pytest.fixture(scope="session")
def controller() -> ControllerConfig:
    return ControllerConfig(K=-0.6, epsilon=0.1, t_on=40.0)


@pytest.fixture(scope="session")
def free_run(params, s0, grid):
    """The standard uncontrolled run, shared by boundedness/report tests."""
    return run_uncontrolled(params, s0, grid)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture()
def core_calls(monkeypatch):
    """A function giving the field evaluations of the stepping core
    (``harness._run``), counted from outside by wrapping, and each count of
    the ``RunWork`` its runs reported, summed over the runs returned."""
    calls, works = [0], []
    field, run = harness.field_components, harness._run

    def counted_field(*args):
        calls[0] += 1
        return field(*args)

    def recorded_run(*args):
        traj = run(*args)
        works.append(traj.work)
        return traj

    def totals():
        summed = {f.name: sum(getattr(w, f.name) for w in works) for f in fields(harness.RunWork)}
        return dict(field=calls[0], **summed)

    monkeypatch.setattr(harness, "field_components", counted_field)
    monkeypatch.setattr(harness, "_run", recorded_run)
    return totals
