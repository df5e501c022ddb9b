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
    """Counts of the field evaluations and per-sample gate calls of the
    stepping core (``harness._run``)."""
    calls = {"field": 0, "gate": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(harness, "field_components", counted("field", harness.field_components))
    monkeypatch.setattr(harness, "activation_gate", counted("gate", harness.activation_gate))
    return calls
