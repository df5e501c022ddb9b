"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For each workload it runs two ops, then one op whose output file is
corrupted after the program wrote it, and checks that exactly the corrupted
op counts as failed.  It also checks that an unexpected exit code counts as
a failed op.  Exits 0 when every check holds.
"""

from __future__ import annotations

import shutil
import sys

import run

OUTPUT_FILE = {
    "reproduce": lambda wl: wl.out / "fig4_trajectory.csv",
    "sweep": lambda wl: wl.out,
    "gated-long": lambda wl: wl.csv,
}


def corrupt(path) -> None:
    """Change one digit in the middle of the file."""
    data = bytearray(path.read_bytes())
    i = len(data) // 2
    while not chr(data[i]).isdigit():
        i += 1
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    path.write_bytes(bytes(data))


def with_corrupted_output(wl):
    op = wl.op

    def corrupted_op():
        result = op()
        corrupt(OUTPUT_FILE[wl.name](wl))
        return result

    return corrupted_op


def main() -> int:
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    problems = []
    try:
        for name in run.WORKLOADS:
            mods, wl = run.setup(name, 1, work / name)
            counter = run.Counter()
            counter.run_op(wl)
            counter.run_op(wl)
            if counter.failed != 0:
                problems.append(f"{name}: a good op counted as failed")
            wl.op = with_corrupted_output(wl)
            counter.run_op(wl)
            if (counter.attempted, counter.failed) != (3, 1):
                problems.append(f"{name}: corrupted output not counted as one failed op")
            if name == "sweep" and not wl.final_checks():
                problems.append("sweep: corrupted CSV passed the library cross-check")

        mods, wl = run.setup("reproduce", 1, work / "exit-code")
        wl.argv = ["reproduce", "all", "--out-dir", str(work / "missing")]
        counter = run.Counter()
        counter.run_op(wl)
        if counter.failed != 1:
            problems.append("reproduce: exit code 1 not counted as a failed op")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
