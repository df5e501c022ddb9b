"""End-to-end benchmark of the rabinovich package.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {reproduce,sweep,gated-long} \
        --seed N --seconds S --trace {0,1}

Each workload runs closed-loop in this one single-threaded process: one
caller, and the next operation starts when the previous one returns.  The
package is imported from ``src/`` of the checkout; the inputs (a config file
and argv for ``cli.cli_dispatch``, or plain lists for the library) are made
from ``--seed``.  Every operation's outputs are checked, and a failed check,
an exception or an unexpected exit code counts as a failed operation.

Set-up and op times are scaled to a reference host speed with a calibration
loop run around each of them (see REF_CALIB_MS); the raw times are on the
info line printed before the result.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` traced and untraced operations alternate
and the metrics are the per-layer ones from ``tracing.py``.  The exit code is
0 when a result was printed, 2 when the checkout has no package to run.
"""

from __future__ import annotations

import os

# One thread per process: set before numpy (and its BLAS) is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# sha256 prefixes of the outputs of `reproduce all` and of the 16-cell
# acceptance sweep, pinned in ROADMAP.md.
REPRODUCE_PINS = {
    "fig4_trajectory.csv": "9b151002c085c517",
    "fig5_trajectory.csv": "9b151002c085c517",
    "fig4_report.txt": "973cd22ee1406c49",
    "fig5_report.txt": "118b7cad984915a6",
}
ACCEPTANCE_SWEEP_ARGV = [
    "sweep", "--K=-0.9,-0.6,-0.3,-0.1", "--epsilon", "0.1,0.5",
    "--modes", "literal,euler",
]
ACCEPTANCE_SWEEP_PIN = "1fb2ebabedd06794"

SETUP_REPEATS = 9

# The host is shared: each of its cores switches between a fast and a slow
# speed (about 9 and 16 ms for calib_ms) every second or so, and CPU time
# follows wall time, so it is not scheduling.  Set-up and op times are
# therefore scaled to a reference host speed: each measured time is
# multiplied by REF_CALIB_MS over the mean calibration time of the blocks
# run just before and just after it.  A block lasts CALIB_SHARE of the op
# before it (at least three loops).  The raw times and host.calib_ms are
# printed on the info line.
CALIB_LOOPS = 2500
CALIB_SHARE = 0.1
REF_CALIB_MS = 12.0


class BenchError(Exception):
    """The checkout cannot be benchmarked (no package, or the wrong one)."""


def clock() -> float:
    """System-wide monotonic time, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "rabinovich" / "__init__.py").is_file():
        raise BenchError(f"no package at {SRC / 'rabinovich'}")
    sys.path.insert(0, str(SRC))
    import rabinovich
    from rabinovich import cli, config, control, dynamics, harness, integrator
    from rabinovich import io as rio

    if Path(rabinovich.__file__).resolve().parent != (SRC / "rabinovich").resolve():
        raise BenchError(f"imported rabinovich from {rabinovich.__file__}, not {SRC}")
    return {
        "cli": cli, "config": config, "control": control, "dynamics": dynamics,
        "harness": harness, "integrator": integrator, "io": rio,
    }


def dispatch(mods, argv):
    """Run one CLI call with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods["cli"].cli_dispatch(argv)
    return code, out.getvalue()


def calib_ms() -> float:
    """Time of a fixed loop over 3-element numpy arrays and Python floats.

    It is shaped like the package's hot path but does not call the package,
    so its time follows the host's speed and nothing else.
    """
    import numpy as np

    t0 = time.perf_counter()
    y, acc = np.zeros(3), 0.0
    for _ in range(CALIB_LOOPS):
        y = y + 0.5 * np.array((acc, 1.0, 2.0))
        acc = acc * 0.5 + float(y[1]) * 1e-3
        if not np.isfinite(y).all():
            raise RuntimeError("calibration loop overflowed")
    return (time.perf_counter() - t0) * 1e3


def calib_block(seconds: float) -> float:
    """Mean time of calibration loops run for `seconds` (at least three)."""
    samples = []
    end = time.perf_counter() + seconds
    while len(samples) < 3 or time.perf_counter() < end:
        samples.append(calib_ms())
    return statistics.fmean(samples)


def fmt(x: float) -> str:
    return repr(float(x))


class Workload:
    """One kind of operation; subclasses make inputs, run and check an op."""

    name = ""

    def __init__(self, mods, seed: int, work: Path):
        self.mods = mods
        self.work = work
        self.reference = None

    def op(self):
        raise NotImplementedError

    def check(self, result) -> bool:
        raise NotImplementedError

    def same_as_first(self, *outputs) -> bool:
        """Every operation must give the outputs of the run's first one."""
        digest = sha(repr(outputs).encode())
        if self.reference is None:
            self.reference = digest
        return digest == self.reference

    def steps_per_op(self) -> int:
        raise NotImplementedError

    def info(self) -> dict:
        """Facts about the inputs, for the info line."""
        return {}

    def final_checks(self) -> list:
        """Checks made once, outside the timed phase; returns failure messages.

        Every workload checks the pinned outputs, which move with any change
        to the shared numerics or output formats.
        """
        failures = []
        pins = self.work / "pins"
        pins.mkdir()
        code, _ = dispatch(self.mods, ["reproduce", "all", "--out-dir", str(pins)])
        if code != 0 or not all(
            sha((pins / name).read_bytes()).startswith(pin)
            for name, pin in REPRODUCE_PINS.items()
        ):
            failures.append("reproduce all does not match its pins")
        acceptance = pins / "acceptance_sweep.csv"
        code, _ = dispatch(self.mods, ACCEPTANCE_SWEEP_ARGV + ["--out", str(acceptance)])
        if code != 0 or not sha(acceptance.read_bytes()).startswith(ACCEPTANCE_SWEEP_PIN):
            failures.append("16-cell acceptance sweep does not match its pin")
        return failures


class Reproduce(Workload):
    """`reproduce all`: the paper's fig4/fig5 protocol, fixed inputs."""

    name = "reproduce"

    def __init__(self, mods, seed, work):
        super().__init__(mods, seed, work)
        self.out = work / "reproduce"
        self.out.mkdir()
        self.argv = ["reproduce", "all", "--out-dir", str(self.out)]

    def op(self):
        return dispatch(self.mods, self.argv)

    def check(self, result):
        code, stdout = result
        if code != 0:
            return False
        files = {name: sha((self.out / name).read_bytes()) for name in REPRODUCE_PINS}
        pinned = all(files[name].startswith(pin) for name, pin in REPRODUCE_PINS.items())
        return pinned and self.same_as_first(stdout, files)

    def steps_per_op(self):
        cli = self.mods["cli"]
        return len(cli.REPRODUCE_PRESETS) * self.mods["config"].default_config().grid.n_steps


class Sweep(Workload):
    """A seeded (mode, K, epsilon) grid through `sweep`; integration-bound."""

    name = "sweep"
    N_K = 4
    EPSILONS = (0.05, 0.2154434690031884, 0.9283177667225558, 5.0)  # log-spaced 0.05..5
    MODES = ("literal", "euler")

    def __init__(self, mods, seed, work):
        super().__init__(mods, seed, work)
        rng = random.Random(seed)
        # One gain per equal stratum of [-1.5, 1.0]: every grid has gains
        # inside and outside the admissible interval (-1, 0), and cells that
        # diverge (literal mode, large epsilon, K below about -0.7).
        width = 2.5 / self.N_K
        self.K = [-1.5 + width * (i + rng.random()) for i in range(self.N_K)]
        self.eps = list(self.EPSILONS)
        self.config = work / "sweep.cfg"
        # 1000 steps per cell keeps an op near a second, short enough for the
        # calibration around it to follow the host's speed.
        self.config.write_text("# reference parameters\nt_end = 100\ndt = 0.1\n")
        self.out = work / "sweep.csv"
        self.argv = [
            "sweep", "--config", str(self.config),
            "--K=" + ",".join(fmt(k) for k in self.K),
            "--epsilon=" + ",".join(fmt(e) for e in self.eps),
            "--modes", ",".join(self.MODES), "--out", str(self.out),
        ]
        self._steps = None
        self.diverged = None

    def op(self):
        return dispatch(self.mods, self.argv)

    def check(self, result):
        code, stdout = result
        return code == 0 and self.same_as_first(stdout, sha(self.out.read_bytes()))

    def _library_sweep(self):
        cfg = self.mods["config"].parse_config(self.config.read_text())
        mode_cls = self.mods["control"].PredictionMode
        # Plain lists: sweep() cannot take numpy arrays.
        return cfg, self.mods["harness"].sweep(
            cfg.params, cfg.s0, cfg.grid, list(self.K), list(self.eps), cfg.controller,
            modes=[mode_cls(m) for m in self.MODES],
            tail=cfg.tail, capture_radius=cfg.capture_radius,
        )

    def steps_per_op(self):
        if self._steps is None:
            cfg, report = self._library_sweep()
            steps, diverged = 0, 0
            for cell in report.cells:
                if cell.report is None:
                    diverged += 1
                    steps += int(re.search(r"aborted at step (\d+)", cell.error).group(1))
                else:
                    steps += cfg.grid.n_steps
            self._steps, self.diverged, self._report = steps, diverged, report
        return self._steps

    def info(self):
        return {"cells_diverged": self.diverged}

    def final_checks(self):
        failures = super().final_checks()
        self.steps_per_op()
        text = io.StringIO()
        self.mods["io"].write_sweep_csv(self._report, text)
        if sha(text.getvalue().encode()) != sha(self.out.read_bytes()):
            failures.append("sweep CSV differs from the library sweep of the same grid")
        return failures


class GatedLong(Workload):
    """`simulate` at dt=0.01 over [0, 200], gate open on a third or more of
    the samples, then `read_trajectory_csv` on the written file."""

    name = "gated-long"

    def __init__(self, mods, seed, work):
        super().__init__(mods, seed, work)
        rng = random.Random(seed)
        x0 = 1.5 + rng.uniform(-0.1, 0.1)
        y0 = -1.25 + rng.uniform(-0.1, 0.1)
        z0 = 3.5 + rng.uniform(-0.1, 0.1)
        epsilon = rng.uniform(4.75, 5.25)
        self.config = work / "gated.cfg"
        self.config.write_text(
            f"x0 = {fmt(x0)}\ny0 = {fmt(y0)}\nz0 = {fmt(z0)}\n"
            "t_end = 200\ndt = 0.01\nmode = euler\n"
            f"K = -0.3\nepsilon = {fmt(epsilon)}\n"
        )
        self.csv = work / "gated.csv"
        self.report = work / "gated_report.txt"
        self.argv = [
            "simulate", "--config", str(self.config),
            "--out-csv", str(self.csv), "--out-report", str(self.report),
        ]
        self.first_read = None
        self.gate_open_share = None

    def op(self):
        code, stdout = dispatch(self.mods, self.argv)
        traj = self.mods["io"].read_trajectory_csv(str(self.csv)) if code == 0 else None
        return code, stdout, traj

    def check(self, result):
        code, stdout, traj = result
        if code != 0 or not self.same_as_first(
            stdout, sha(self.csv.read_bytes()), sha(self.report.read_bytes())
        ):
            return False
        if self.first_read is None:
            self.first_read = traj
        return same_trajectory(traj, self.first_read)

    def steps_per_op(self):
        return self.mods["config"].parse_config(self.config.read_text()).grid.n_steps

    def info(self):
        return {"gate_open_share": self.gate_open_share}

    def final_checks(self):
        failures = super().final_checks()
        cfg = self.mods["config"].parse_config(self.config.read_text())
        traj = self.mods["harness"].run_controlled(cfg.params, cfg.s0, cfg.grid, cfg.controller)
        self.gate_open_share = float(traj.active.mean())
        if self.first_read is None or not same_trajectory(traj, self.first_read):
            failures.append("trajectory read back from the CSV differs from the library run")
        return failures


def same_trajectory(a, b) -> bool:
    """Bit-for-bit equality of two trajectories (NaN matches NaN in r)."""
    import numpy as np

    return (
        np.array_equal(a.t, b.t)
        and np.array_equal(a.states, b.states)
        and np.array_equal(a.u, b.u)
        and np.array_equal(a.active, b.active)
        and np.array_equal(a.r, b.r, equal_nan=True)
    )


WORKLOADS = {w.name: w for w in (Reproduce, Sweep, GatedLong)}


def setup(workload: str, seed: int, work: Path):
    """Import the package and write the workload's inputs: the set-up a user pays."""
    mods = load_package()
    work.mkdir(parents=True)
    return mods, WORKLOADS[workload](mods, seed, work)


def setup_probe(args) -> int:
    """Child process of measure_setup: set up, then print the ready time."""
    setup(args.workload, args.seed, Path(args.probe_dir))
    print(repr(clock()))
    return 0


def measure_setup(args, work: Path) -> tuple:
    """Seconds from process start to the first op being ready, in fresh
    processes; returns the raw times and the calibration time around each."""
    samples, calibs = [], []
    before = calib_block(0.0)
    for i in range(SETUP_REPEATS):
        probe_dir = work / f"setup{i}"
        t0 = clock()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--probe-dir", str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
        shutil.rmtree(probe_dir)
        after = calib_block(0.0)
        calibs.append((before + after) / 2)
        before = after
    return samples, calibs


def pin_to_current_cpu() -> None:
    """Keep this process, and the set-up probes it starts, on the CPU it runs
    on now, so that each calibration runs on the core of the op next to it.
    The two cores of the reference host change speed independently."""
    try:
        sched_getcpu = ctypes.CDLL(None).sched_getcpu
        sched_getcpu.restype = ctypes.c_int
        cpu = sched_getcpu()
        if cpu >= 0:
            os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        pass  # no sched_getcpu or no affinity control: run unpinned


def scaled(times: list, calibs: list) -> list:
    """Times at the reference host speed."""
    return [t * REF_CALIB_MS / c for t, c in zip(times, calibs)]


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run_op(self, wl: Workload) -> float:
        """Run and check one op; returns its latency in seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        elapsed = None
        try:
            result = wl.op()
            elapsed = time.perf_counter() - t0
            ok = wl.check(result)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            print(f"op {self.attempted} raised {exc!r}", file=sys.stderr)
            ok = False
        if not ok:
            print(f"op {self.attempted}: output check failed", file=sys.stderr)
            self.failed += 1
        return time.perf_counter() - t0 if elapsed is None else elapsed


def timed_phase(wl: Workload, counter: Counter, seconds: float, warm: float) -> tuple:
    """Closed loop for `seconds`; returns op latencies in seconds and the
    calibration time around each op.  `warm` is the warm-up op's latency."""
    latencies, calibs = [], []
    before = calib_block(CALIB_SHARE * warm)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        latencies.append(counter.run_op(wl))
        after = calib_block(CALIB_SHARE * latencies[-1])
        calibs.append((before + after) / 2)
        before = after
    return latencies, calibs


def traced_phase(wl: Workload, counter: Counter, seconds: float):
    """Alternate untraced and traced ops; per-layer medians and the overhead."""
    from tracing import Tracer, per_op_metrics

    tracer = Tracer(wl.mods)
    plain, traced, per_op = [], [], []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or not traced:
        plain.append(counter.run_op(wl))
        tracer.install()
        try:
            before = tracer.snapshot()
            traced.append(counter.run_op(wl))
            after = tracer.snapshot()
        finally:
            tracer.uninstall()
        deltas = {k: v - before.get(k, 0.0) for k, v in after.items()}
        per_op.append(per_op_metrics(deltas))
    metrics = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics


def run(args) -> dict:
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    pin_to_current_cpu()
    try:
        mods, wl = setup(args.workload, args.seed, work / "run")
        if not args.trace:
            setup_times, setup_calibs = measure_setup(args, work)
        counter = Counter()
        warm = counter.run_op(wl)  # warm-up, and the reference output of the run
        if args.trace:
            calibs = [calib_block(CALIB_SHARE * warm)]
            layer = traced_phase(wl, counter, args.seconds)
            calibs.append(calib_block(CALIB_SHARE * warm))
        else:
            latencies, calibs = timed_phase(wl, counter, args.seconds, warm)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = wl.final_checks()
        steps = wl.steps_per_op()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    if failures:
        # Every op repeated the first op's output, so every op was wrong.
        counter.failed = counter.attempted
    host_ms = statistics.median(calibs)
    info = {
        "workload": args.workload, "seed": args.seed, "host.calib_ms": host_ms,
        "steps_per_op": steps, "error_rate": counter.failed / counter.attempted,
        **wl.info(),
    }

    if args.trace:
        layer["host.calib_ms"] = host_ms
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in layer.items()}
    else:
        ops = scaled(latencies, calibs)
        info.update({
            "ops_timed": len(latencies),
            "raw_setup_s": statistics.median(setup_times),
            "raw_op_p50_ms": statistics.median(latencies) * 1e3,
            "raw_steps_per_s": steps / statistics.median(latencies),
        })
        metrics = {
            "setup_s": {"value": statistics.median(scaled(setup_times, setup_calibs)), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(ops) * 1e3, "unit": "ms"},
            "steps_per_s": {"value": steps / statistics.median(ops), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print("info " + json.dumps(info))
    return {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": metrics,
    }


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms/op" if name != "host.calib_ms" else "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "io.csv_bytes_written":
        return "B/op"
    return "count/op"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.setup_probe:
            return setup_probe(args)
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
