"""Committed mutation check: each row is one edit of one line of the package,
and the tests that must catch it.

    python tests/mutation_check.py

A row is (module, old text, new text, expected), where module is a file of
``src/rabinovich`` and expected is either the ids of the tests that must fail
under the edit or ``"equivalent: <reason>"`` for an edit no test can catch.
For every row the old text must occur exactly once in its module, so a change
that moves or rewrites the code must update its row.  Equivalent rows are not
run.

The named tests first run once on an unedited copy of ``src/``, where they
must pass.  Then each other row gets a fresh copy with its edit applied, and
its tests run with ``PYTHONPATH`` set to the copy; every one of them must
fail, and ``rabinovich`` must have been imported from the copy.  The exit
status is 0 when every row holds, 1 otherwise.

A change that is checked by a mutation adds it here as a row.  A row is
dropped only when its code is gone.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INPUTS = "tests/test_inputs.py::test_each_bad_input_is_refused_with_its_message"
DASH_OUT = "tests/test_cli.py::test_sweep_writes_an_output_path_that_starts_with_a_dash"

ROWS = [
    # A value that starts with a single "-" must stay the option's value.
    ("cli.py", 'not tok.startswith("--")', 'not tok.startswith("-")', [
        f"{INPUTS}[gain-check-d-negative]",
        f"{INPUTS}[sweep-epsilon-minus-inf]",
        DASH_OUT,
        "tests/test_cli.py::test_sweep_readme_example_with_negative_gains",
    ]),
    # Every value option of the parser is joined, not only the gain lists.
    ("cli.py", "if action.nargs is None",
     'if action.nargs is None and option in ("--K", "--epsilon")', [
         f"{INPUTS}[gain-check-d-negative]",
         DASH_OUT,
     ]),
    ("integrator.py", "abs(quotient - n) >= 1e-9", "abs(quotient - n) >= 1e-6", [
        "tests/test_integrator.py::TestTimeGrid::test_rejects_bad_grids[0.0-1.00000005-0.1]",
        "tests/test_integrator.py::TestTimeGrid::test_whole_steps[1.00000005-0.1-expected5]",
    ]),
    ("harness.py", "stabilized=tail_max <= capture_radius",
     "stabilized=tail_max < capture_radius", [
         "tests/test_harness.py::test_report_chaotic_run_not_stabilized",
     ]),
    ("harness.py", 'abs_u[np.searchsorted(traj.t, cfg.t_on, "right"):]',
     'abs_u[np.searchsorted(traj.t, cfg.t_on, "left"):]',
     "equivalent: u is zero at t_on's own sample in every run the package makes,"
     " since the gate opens only at t > t_on"),
    ("harness.py", "np.sqrt(np.add.reduce(gaps * gaps, axis=1)).argmin()",
     "np.add.reduce(gaps * gaps, axis=1).argmin()",
     "equivalent: the squared distances have the same argmin, except where two"
     " of them round to one square root"),
]

# Runs pytest on the given ids, then says where rabinovich came from and
# which tests failed, by their ids relative to the repository.
_RUNNER = """
import sys, pytest
failed = []
class Record:
    def pytest_runtest_logreport(self, report):
        if report.when == "call" and report.failed:
            failed.append(report.nodeid)
code = pytest.main(["-q", "--tb=no", "-p", "no:cacheprovider", "--rootdir", sys.argv[1],
                    *sys.argv[2:]], plugins=[Record()])
module = sys.modules.get("rabinovich")
print("rabinovich imported from", module and module.__file__)
print(*(f"failed: {nodeid}" for nodeid in failed), sep="\\n")
sys.exit(code)
"""


def _copy_src(dest: str) -> str:
    src = os.path.join(dest, "src")
    shutil.copytree(os.path.join(REPO, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _edit(src: str, module: str, old: str, new: str) -> None:
    path = os.path.join(src, "rabinovich", module)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(old) != 1:
        raise AssertionError(f"{module}: {old!r} occurs {text.count(old)} times, not once")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))


def _run_tests(tmp: str, src: str, ids: list) -> tuple:
    """(pytest's exit code, its stdout) for ids, with rabinovich from src.  It
    runs in tmp, so that Hypothesis keeps its example database there."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, REPO, *(os.path.join(REPO, i) for i in ids)],
        cwd=tmp, env=env, capture_output=True, text=True,
    )
    expected = f"rabinovich imported from {os.path.join(src, 'rabinovich', '__init__.py')}"
    if expected not in proc.stdout.splitlines():
        raise AssertionError(f"rabinovich was not imported from the copy:\n{proc.stdout}{proc.stderr}")
    return proc.returncode, proc.stdout


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(tmp)
        for module, old, new, _ in ROWS:
            _edit(src, module, old, old)  # each old text occurs once before any edit
        named = sorted({i for *_, expected in ROWS if not isinstance(expected, str) for i in expected})
        code, out = _run_tests(tmp, src, named)
        if code != 0:
            print(out)
            print(f"the named tests do not all pass on the unedited copy (exit {code})")
            return 1
        print(f"unedited: {len(named)} named tests pass")
    for module, old, new, expected in ROWS:
        label = f"{module}: {old!r} -> {new!r}"
        if isinstance(expected, str):
            print(f"{label}: {expected}")
            continue
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(tmp)
            _edit(src, module, old, new)
            code, out = _run_tests(tmp, src, expected)
        survived = [i for i in expected if f"failed: {i}" not in out.splitlines()]
        took = time.perf_counter() - start
        if code != 1 or survived:
            failures.append(label)
            print(f"{label}: SURVIVED (exit {code}, passing: {survived})\n{out}")
        else:
            print(f"{label}: killed by {len(expected)} tests in {took:.1f} s")
    if failures:
        print(f"{len(failures)} of {len(ROWS)} rows failed")
        return 1
    print(f"all {len(ROWS)} rows hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
