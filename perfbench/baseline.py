"""Measure the benchmark's baseline and its run-to-run spread.

    python3 perfbench/baseline.py > perfbench/BASELINE.json

For each workload it runs ``run.py --trace 0`` once per seed 1..10, each run
lasting ``run_seconds`` from BENCHMARK.json, and then ``run.py --trace 1``
once, with seed 1.  For every end-to-end metric it reports the median of the
runs, the quartiles (``statistics.quantiles``, n = 4) and their distance as a
share of the median, the spread that a metric's bound in BENCHMARK.json must
exceed threefold.  It also records the machine: nproc, the Python version
and the CPU model.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
RUNS = 10
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: not correct\n{proc.stderr}")
    return result


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    out = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "cpu_model": _cpu_model()},
        "runs": RUNS,
        "seconds": SECONDS,
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        values = {}
        for seed in range(1, RUNS + 1):
            result = _run(workload, seed, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k} {m['value']:.5g}" for k, m in result["metrics"].items()),
                  file=sys.stderr)
        summary = {}
        for name, (unit, vals) in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med}
        traced = _run(workload, 1, 1)
        out["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer_seed1": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
