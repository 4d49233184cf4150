"""Record baselines and check that the end-to-end figures are steady.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1] [--out perfbench/baseline.json]

For each workload: --runs untraced runs, each with another seed, then one
traced run.  For every end-to-end metric it records the median of the runs,
the quartiles and the spread (q3 - q1) / median, and flags spreads above a
third of the metric's bound in BENCHMARK.json (setup_s excepted, as the
bound on its spread is not checked).  Machine information and the commit
go alongside.  Takes about 25 minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed its gates:\n{proc.stderr}")
    return result


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    import scipy

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    record = {
        "commit": commit(),
        "date": datetime.date.today().isoformat(),
        "machine": machine(),
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    steady = True
    for workload in why:
        values = {}
        for i in range(args.runs):
            result = run(workload, args.first_seed + i, spec["run_seconds"], 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        end_to_end = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            end_to_end[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "bound": bounds[name], "values": vs}
            print(f"{workload} {name}: median {med:.6g} spread {spread:.4f} "
                  f"(bound {bounds[name]}){'' if ok else '  NOT STEADY'}", flush=True)
        traced = run(workload, args.first_seed, spec["run_seconds"], 1)
        record["workloads"][workload] = {
            "why": why[workload],
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"written to {os.path.relpath(args.out, ROOT)}; {'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
