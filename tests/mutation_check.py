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
CLAIMS = "tests/test_paper_claims.py"
CLI = "tests/test_cli.py"
CONFIG = "tests/test_config.py"
HARNESS = "tests/test_harness.py"
IO = "tests/test_io.py"
PINS = "tests/test_acceptance.py::test_output_bit_identity_pins"
STOPS_EARLY = f"{CLI}::test_a_reader_that_stops_early_exits_141_with_no_error"
# Every proper prefix of three characters or more of each sweep option.
SWEEP_ABBREVIATED = [
    f"{CLI}::test_an_abbreviated_option_is_unknown[sweep-{option[:n]}-of-{option[2:]}]"
    for option in ("--config", "--K", "--epsilon", "--modes", "--out", "--help")
    for n in range(3, len(option))
]

ROWS = [
    # A value that starts with a single "-" must stay the option's value.
    ("cli.py", 'not tok.startswith("--")', 'not tok.startswith("-")', [
        f"{INPUTS}[sweep-epsilon-minus-inf]",
        DASH_OUT,
        "tests/test_cli.py::test_sweep_readme_example_with_negative_gains",
    ]),
    # Every value option of the parser is joined, not only the gain lists.
    ("cli.py", "if action.nargs is None",
     'if action.nargs is None and option in ("--K", "--epsilon")', [
         DASH_OUT,
     ]),
    ("integrator.py", "abs(quotient - n) >= 1e-9", "abs(quotient - n) >= 1e-6", [
        "tests/test_integrator.py::TestTimeGrid::test_rejects_bad_grids[1.00000005-0.1]",
        "tests/test_integrator.py::TestTimeGrid::test_whole_steps[1.00000005-0.1-expected5]",
    ]),
    ("harness.py", "stabilized=tail_max <= capture_radius",
     "stabilized=tail_max < capture_radius", [
         "tests/test_harness.py::test_report_chaotic_run_not_stabilized",
     ]),
    # The report's largest |u| is over the whole run.
    ("harness.py", "float(abs_u.max())", "float(abs_u.min())", [
        f"{PINS}[captured.txt]",
        f"{PINS}[sweep.csv]",
    ]),
    ("harness.py", "np.sqrt(np.add.reduce(gaps * gaps, axis=1)).argmin()",
     "np.add.reduce(gaps * gaps, axis=1).argmin()",
     "equivalent: the squared distances have the same argmin, except where two"
     " of them round to one square root"),
    # An option is known only by its full name.
    ("cli.py", 'sub.add_parser("sweep", allow_abbrev=False, help=',
     'sub.add_parser("sweep", help=', SWEEP_ABBREVIATED + [f"{INPUTS}[sweep-epsilon-abbreviated]"]),
    ("cli.py", "return short if float(short) == x else repr(float(x))", "return short", [
        f"{CLI}::test_inputs_and_bounds_echo_distinct_numbers_distinctly",
        f"{CLI}::test_gain_check_output_is_pinned[d=1e7,K=-0.9999999]",
    ]),
    ("cli.py", "return EXIT_NUMERIC", "return EXIT_CONFIG", [
        f"{CLI}::test_simulate_divergence_exits_two",
        f"{CLI}::test_reproduce_divergence_exits_two",
    ]),
    ("cli.py", 'outputs = [*outputs, ("--config", config)]', "pass", [
        f"{CLI}::test_output_that_names_the_config_fails_before_any_run[args0---out-csv-{{cfg}}]",
        f"{CLI}::test_output_that_names_the_config_fails_before_any_run[args3---out-{{cfg}}]",
    ]),
    # The gate is strict: a sample whose r equals epsilon is shut.
    ("harness.py", "active = r < epsilon", "active = r <= epsilon", [
        f"{HARNESS}::test_gate_tie_past_the_first_open_sample_matches_reference[1]",
        f"{HARNESS}::test_gate_tie_past_the_first_open_sample_matches_reference[10]",
    ]),
    ("harness.py", "opens = self.r(lag)[scanned:self.end] < cfg.epsilon",
     "opens = self.r(lag)[scanned:self.end] <= cfg.epsilon", [
         f"{HARNESS}::test_gate_ties_match_reference[1-epsilon-is-an-r]",
         f"{HARNESS}::test_gate_ties_match_reference[10-epsilon-is-an-r]",
     ]),
    # A gated run's first sample is open.
    ("harness.py", "active_out[k - 1] = True", "pass", [
        f"{PINS}[captured.csv]",
        f"{PINS}[captured.txt]",
        f"{PINS}[gated_long.csv]",
    ]),
    ("harness.py", 'int(np.searchsorted(self.t, cfg.t_on, "right"))',
     'int(np.searchsorted(self.t, cfg.t_on, "left"))', [
         f"{HARNESS}::test_gate_ties_match_reference[1-t_on-is-a-grid-time]",
         f"{HARNESS}::test_gate_ties_match_reference[10-t_on-is-a-grid-time]",
         f"{CLAIMS}::test_controlled_run_is_first_order_through_its_sampled_switch[euler-K=1.5]",
         f"{CLAIMS}::test_controlled_run_is_first_order_through_its_sampled_switch[literal-K=1]",
     ]),
    ("harness.py", 'traj.states[np.searchsorted(traj.t, cut, "left"):]',
     'traj.states[np.searchsorted(traj.t, cut, "right"):]', [
         f"{PINS}[fig4_report.txt]",
         f"{PINS}[fig5_report.txt]",
     ]),
    ("harness.py", "report = replace(shut_report, controller=cfg)", "report = shut_report", [
        f"{HARNESS}::test_sweep_cells_match_independent_runs[gate-never-opens]",
        f"{PINS}[fig5_report.txt]",
    ]),
    ("harness.py", "half, sixth, far = 0.5 * dt, dt / 6.0, 4.0 * limit",
     "half, sixth, far = 0.5 * dt, dt / 6.0, math.inf", [
         f"{HARNESS}::test_shut_gate_far_from_its_delayed_state_stops_the_run_at_once[-1.4-551]",
         f"{HARNESS}::test_shut_gate_far_from_its_delayed_state_stops_the_run_at_once[-0.55-639]",
     ]),
    ("harness.py", "dropped = made - max(0, first + 1 - stepped)",
     "dropped = made - max(0, first - stepped)", [
         f"{HARNESS}::test_free_step_that_fails_past_the_first_open_gate_is_dropped_work",
         f"{HARNESS}::test_free_stretch_steps_past_the_first_open_gate_less_than_it_gated[0.7-40.0]",
     ]),
    ("harness.py", "if tail >= span:", "if tail > span:", [
        f"{CONFIG}::test_tail_must_fit_span",
        f"{HARNESS}::test_report_rejects_bad_tail",
        f"{INPUTS}[report-tail-span]",
    ]),
    ("harness.py", "array.flags.writeable = False", "pass", [
        f"{HARNESS}::test_run_each_hands_a_never_open_run_on_read_only",
        f"{HARNESS}::test_run_each_results_are_read_only",
    ]),
    ("harness.py", "_CHECK_ROWS = 512", "_CHECK_ROWS = 500", [
        f"{HARNESS}::test_divergence_found_at_a_check_matches_reference_run[free-last-row-of-a-block]",
        f"{HARNESS}::test_divergence_found_at_a_check_matches_reference_run"
        "[per-sample-first-row-of-a-block]",
        f"{HARNESS}::test_free_run_steps_past_a_divergence_to_its_next_check_only[0.21517-511]",
    ]),
    ("harness.py", "if n < 2:", "if n < 1:", [
        f"{HARNESS}::test_trajectory_rejects_arrays_of_the_wrong_shape[arrays1-at least two samples]",
        f"{IO}::test_read_rejects_header_and_one_row",
    ]),
    ("io.py", "os.ftruncate(fd, size)", "pass", [
        f"{IO}::test_rewrite_of_a_longer_file_leaves_exactly_the_new_bytes_in_the_same_inode",
        f"{IO}::test_failed_write_is_cut_where_it_stopped_and_names_its_file",
    ]),
    ("integrator.py", "MAX_STEPS = 10**7", "MAX_STEPS = 10**8", [
        "tests/test_integrator.py::TestTimeGrid::test_step_count_is_bounded",
    ]),
    # A run starts at t = 0 and ends past it.
    ("integrator.py", '_finite("t_end", self.t_end, positive=True)',
     '_finite("t_end", self.t_end, positive=False)', [
         f"{INPUTS}[TimeGrid-t_end]",
         f"{INPUTS}[TimeGrid-t_end-zero]",
     ]),
    # The last time of a grid is finite.
    ("integrator.py", "math.isfinite(n * self.dt)", "True", [
        f"{INPUTS}[TimeGrid-t_end-overflows]",
        f"{CLI}::test_simulate_grid_whose_last_time_overflows_exits_one",
    ]),
    # gain-check tests its one criterion on K, for both lines that state it.
    ("cli.py", "discrete_ok, continuous_ok = lo < K < hi, m < 0.0",
     "discrete_ok, continuous_ok = abs(m) < 1.0, m < 0.0", [
         f"{CLI}::test_gain_check_states_its_discrete_check_once_near_zero",
     ]),
    # A sweep cell takes the controller's own input rule.
    ("harness.py", "replace(base_cfg, K=K, epsilon=eps, mode=mode)",
     "replace(base_cfg, K=float(K), epsilon=eps, mode=mode)", [
         f"{INPUTS}[sweep-K-str]",
         f"{INPUTS}[sweep-K-bare-str]",
     ]),
    # A path object is a path, not a stream.
    ("io.py", "isinstance(dest, (str, os.PathLike))", "isinstance(dest, str)", [
        f"{IO}::test_each_writer_takes_a_path_object_as_its_str[{writer}]"
        for writer in ("trajectory", "trajectory-more", "sweep", "report")
    ]),
    ("io.py", "isinstance(source, (str, os.PathLike))", "isinstance(source, str)", [
        f"{IO}::test_reader_takes_a_path_object_as_its_str",
    ]),
    # A byte that is not UTF-8 fails its row, in a path as in a stream.
    ("io.py", 'errors="surrogateescape"', 'errors="strict"', [
        f"{IO}::test_a_byte_that_is_not_utf8_names_its_row_in_a_path_as_in_a_stream",
        f"{IO}::test_unseekable_stream_reads_as_the_path_does",
    ]),
    ("control.py", "if hi <= -1.0:", "if hi < -1.0:", [
        "tests/test_control.py::test_interval_rejects_bad_d",
        f"{INPUTS}[interval-d-too-large]",
    ]),
    ("dynamics.py", "if disc <= 0.0:", "if disc < 0.0:", [
        "tests/test_dynamics.py::test_equilibria_degenerate_when_h2_at_most_ab[4.0-1.0-2.0]",
        "tests/test_dynamics.py::test_equilibria_degenerate_when_h2_at_most_ab[9.0-1.0-3.0]",
    ]),
    # A set is degenerate by its points alone.
    ("dynamics.py", "return len(self.points) == 1", "return len(self.points) < 1", [
        f"tests/test_dynamics.py::test_equilibria_degenerate_when_h2_at_most_ab[{case}]"
        for case in ("4.0-1.0-2.0", "4.0-1.0-1.0", "9.0-1.0-3.0")
    ]),
    ("config.py", "if lag >= n:", "if lag > n:", [
        f"{CONFIG}::test_tau_must_be_shorter_than_span",
    ]),
    ("config.py", "if controller.t_on >= last_start:", "if controller.t_on > last_start:", [
        f"{CONFIG}::test_t_on_must_be_before_the_last_step",
    ]),
    # The config's gain is checked at the point where the controlled row
    # overflows first, not at the origin.
    ("config.py", "point = equilibria(params).points[-1]", "point = equilibria(params).points[0]", [
        f"{INPUTS}[config-gain-jacobian-off-axis]",
        f"{CLI}::test_every_accepted_config_runs_equilibria_and_gain_check",
    ]),
    # Parameters whose fixed points overflow are refused by name.
    ("dynamics.py", "math.isfinite(x_star)", "True", [
        f"{INPUTS}[equilibria-overflow]",
        f"{INPUTS}[config-equilibria-overflow]",
    ]),
    # A config byte that is not UTF-8 fails its line.
    ("cli.py", 'errors="surrogateescape"', 'errors="strict"', [
        f"{CLI}::test_config_byte_that_is_not_utf8_fails_its_line[value]",
        f"{CLI}::test_config_byte_that_is_not_utf8_fails_its_line[key]",
        f"{CLI}::test_config_byte_that_is_not_utf8_in_a_comment_is_dropped_with_it",
    ]),
    ("config.py", "if not abs(values[key]) <= DIVERGENCE_LIMIT:", "if False:", [
        f"{CLI}::test_simulate_initial_state_beyond_the_limit_exits_one",
        f"{CONFIG}::test_initial_state_beyond_the_divergence_limit_names_the_field[x0-1e7]",
    ]),
    # A reader that stops early is not a usage error: exit 141, no error line.
    ("cli.py", "except BrokenPipeError:", "except ():", [
        f"{STOPS_EARLY}[{command}-{buffering}]"
        for command in ("reproduce-fig4", "gain-check") for buffering in ("buffered", "unbuffered")
    ]),
    # Buffered output reaches the pipe in cli_dispatch, not at exit.
    ("cli.py", "sys.stdout.flush()", "pass", [
        f"{STOPS_EARLY}[{command}-buffered]" for command in ("reproduce-fig4", "gain-check")
    ]),
    # What a failed flush left in the buffer goes to devnull at exit.
    ("cli.py", "os.dup2(null.fileno(), sys.stdout.fileno())", "pass", [
        f"{STOPS_EARLY}[{command}-buffered]" for command in ("reproduce-fig4", "gain-check")
    ]),
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
