"""Layer-boundary tracing for the benchmark, installed from outside the package.

Each boundary is a module attribute that a caller looks up at call time
(``harness.rk4_step``, ``cli.write_trajectory_csv``, ...).  ``Tracer.install``
replaces those attributes with timing wrappers and ``Tracer.uninstall`` puts
the originals back, so nothing under ``src/`` is edited.  A boundary that a
later version of the package no longer has is skipped, and its counters stay
at zero.

Hot inner calls (field evaluations, RK4 steps, gates, control terms) are not
recorded one span per call: every boundary keeps aggregated call counts, total
time and self time (total minus the time of traced calls made inside it).
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter


def _count_gate(tracer, args, result):
    if result[0]:
        tracer.extra["control.gate_open"] += 1


def _count_sweep(tracer, args, result):
    tracer.extra["harness.cells"] += len(result.cells)
    tracer.extra["harness.cells_diverged"] += sum(c.report is None for c in result.cells)


def _count_csv_write(tracer, args, result):
    traj, dest = args[0], args[1]
    tracer.extra["io.csv_rows_written"] += traj.n_samples
    if isinstance(dest, str):
        tracer.extra["io.csv_bytes_written"] += os.path.getsize(dest)


def _count_csv_read(tracer, args, result):
    tracer.extra["io.csv_rows_read"] += result.n_samples


# (module, attribute, boundary key, leaf?, result hook).  Leaves make no
# traced calls themselves, so their wrapper skips the child-time stack.
BOUNDARIES = (
    ("cli", "cli_dispatch", "cli.dispatch", False, None),
    ("cli", "parse_config", "config.parse", False, None),
    ("config", "parse_config", "config.parse", False, None),
    ("cli", "equilibria", "dynamics.equilibria", False, None),
    ("harness", "equilibria", "dynamics.equilibria", False, None),
    ("cli", "run_controlled", "harness.run", False, None),
    ("cli", "run_uncontrolled", "harness.run", False, None),
    ("harness", "run_controlled", "harness.run", False, None),
    ("cli", "sweep", "harness.sweep", False, _count_sweep),
    ("cli", "convergence_report", "harness.report", False, None),
    ("harness", "convergence_report", "harness.report", False, None),
    ("harness", "rk4_step", "integrator.rk4", False, None),
    ("integrator", "rk4_step", "integrator.rk4", False, None),
    ("harness", "field_components", "dynamics.field", True, None),
    ("harness", "activation_gate", "control.gate", True, _count_gate),
    ("harness", "control_term", "control.u", True, None),
    ("cli", "write_trajectory_csv", "io.csv_write", False, _count_csv_write),
    ("cli", "write_report", "io.report_write", False, None),
    ("cli", "write_sweep_csv", "io.sweep_csv_write", False, None),
    ("io", "read_trajectory_csv", "io.csv_read", False, _count_csv_read),
)


class Tracer:
    """Aggregated counts and times per boundary, for one process."""

    def __init__(self, modules):
        self.modules = modules  # short name -> imported module
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.extra = defaultdict(float)
        self._child = [0.0]  # time of traced calls made inside each open boundary
        self._open = set()
        self._saved = []

    def install(self):
        for mod_name, attr, key, leaf, hook in BOUNDARIES:
            module = self.modules.get(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            wrapper = self._leaf(key, fn, hook) if leaf else self._span(key, fn, hook)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def snapshot(self) -> dict:
        """Flat copy of every counter, for per-operation differences."""
        snap = dict(self.extra)
        for key, n in self.calls.items():
            snap[key + ".calls"] = n
            snap[key + ".total"] = self.total[key]
            snap[key + ".self"] = self.self_time[key]
        return snap

    def _leaf(self, key, fn, hook):
        calls, total, child = self.calls, self.total, self._child

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child[-1] += dt
                calls[key] += 1
                total[key] += dt
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _span(self, key, fn, hook):
        calls, total, self_time, child, open_ = (
            self.calls, self.total, self.self_time, self._child, self._open
        )

        def wrapper(*args, **kwargs):
            if key in open_:
                # A boundary that calls itself (a path argument reopened as a
                # file handle) is one call.
                return fn(*args, **kwargs)
            open_.add(key)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                child[-1] += dt
                open_.discard(key)
                calls[key] += 1
                total[key] += dt
                self_time[key] += dt - inner
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper


def per_op_metrics(deltas: dict) -> dict:
    """Per-layer metric values for one operation from its counter differences."""
    ms = 1e3

    def g(name):
        return deltas.get(name, 0.0)

    gate_calls = g("control.gate.calls")
    return {
        "integrator.rk4_calls": g("integrator.rk4.calls"),
        "integrator.rk4_self_ms": g("integrator.rk4.self") * ms,
        "dynamics.field_calls": g("dynamics.field.calls"),
        "dynamics.field_ms": g("dynamics.field.total") * ms,
        "harness.run_calls": g("harness.run.calls"),
        "harness.run_self_ms": g("harness.run.self") * ms,
        "harness.cells": g("harness.cells"),
        "harness.cells_diverged": g("harness.cells_diverged"),
        "harness.report_ms": g("harness.report.total") * ms,
        "control.gate_calls": gate_calls,
        "control.gate_ms": g("control.gate.total") * ms,
        "control.gate_open_ratio": g("control.gate_open") / gate_calls if gate_calls else 0.0,
        "control.u_calls": g("control.u.calls"),
        "control.u_ms": g("control.u.total") * ms,
        "io.csv_rows_written": g("io.csv_rows_written"),
        "io.csv_bytes_written": g("io.csv_bytes_written"),
        "io.csv_write_ms": g("io.csv_write.total") * ms,
        "io.csv_rows_read": g("io.csv_rows_read"),
        "io.csv_read_ms": g("io.csv_read.total") * ms,
        "io.report_write_ms": g("io.report_write.total") * ms,
        "io.sweep_csv_write_ms": g("io.sweep_csv_write.total") * ms,
        "config.parse_ms": g("config.parse.total") * ms,
        "cli.self_ms": g("cli.dispatch.self") * ms,
    }
