import inspect
import re
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings

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
# (RK4-backed properties are slow per example under load).  A failing
# example is shrunk but not explained: explaining one re-runs a drawn run
# many times, which made a failing RK4 property take a minute, not seconds.
settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
settings.load_profile("suite")
# The suite's settings with many more examples, for a longer search:
# pytest --hypothesis-profile=thorough (the option overrides the line above).
settings.register_profile(
    "thorough", parent=settings.get_profile("suite"), max_examples=2000
)


@pytest.fixture(autouse=True)
def _in_own_directory(tmp_path, monkeypatch):
    """Run every test in its own empty directory, so that no test, passing or
    failing, writes into the checkout; tests open repository files by their
    absolute path."""
    monkeypatch.chdir(tmp_path)


@pytest.fixture(scope="session")
def params() -> Params:
    # chaotic reference parameter set
    return Params(4.0, 1.0, 1.0, 6.75)


@pytest.fixture(scope="session")
def s0() -> State:
    return State(1.5, -1.25, 3.5)


@pytest.fixture(scope="session")
def grid() -> TimeGrid:
    return TimeGrid(200.0, 0.1)


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


# A line of ``harness._step`` where an RK4 stage evaluates the vector field.
FIELD_LINE = re.compile(r"\s*k([1-4])x, k\1y, k\1z = ")


@pytest.fixture()
def core_calls(monkeypatch):
    """A function giving the field evaluations of the stepping loop
    (``harness._step``), counted from outside by a line tracer on its four
    stage lines, and each count of the ``RunWork`` of the runs ``harness._run``
    returned, summed over the runs, a run returned again counted once."""
    calls, runs = [0], {}
    step, run = harness._step, harness._run
    source, first = inspect.getsourcelines(step)
    stages = {first + i for i, line in enumerate(source) if FIELD_LINE.match(line)}
    assert len(stages) == 4

    def count_lines(frame, event, arg):
        if event == "line" and frame.f_lineno in stages:
            calls[0] += 1
        return count_lines

    def trace(frame, event, arg):
        return count_lines if frame.f_code is step.__code__ else None

    def recorded_run(*args):
        traj = run(*args)
        runs[id(traj)] = traj  # kept, so that no later run reuses its id
        return traj

    def totals():
        works = [traj.work for traj in runs.values()]
        summed = {f.name: sum(getattr(w, f.name) for w in works) for f in fields(harness.RunWork)}
        return dict(field=calls[0], **summed)

    monkeypatch.setattr(harness, "_run", recorded_run)
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        yield totals
    finally:
        sys.settrace(previous)
