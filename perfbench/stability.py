"""Run the benchmark once per seed and report the run-to-run spread.

    python3 perfbench/stability.py --workloads reproduce,sweep,gated-long \
        --seeds 1-10 [--trace 0] [--out perfbench/results/FILE.json]

Runs are sequential, one process at a time.  For each end-to-end metric it
prints the median, the quartiles and the spread (q3 - q1) / median, next to
the metric's bound in BENCHMARK.json; with --out it also writes every run's
metrics and the machine they ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"machine": machine(), "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, *bench["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            info = json.loads(lines[-2].split(" ", 1)[1])
            runs.append({"seed": seed, "info": info, **result})
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(workload, seed, result["correct"], result["attempted"], result["failed"],
                  json.dumps(values), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            summary[name] = summarize([r["metrics"][name]["value"] for r in runs])
            if name in bounds:
                s = summary[name]
                print(f"  {workload:10s} {name:12s} median {s['median']:.6g} "
                      f"spread {s['spread']:.4f} bound {bounds[name]}", flush=True)
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
