"""Self-test of the benchmark at tiny X (about a minute).

    python3 perfbench/selftest.py

Passes when, for every workload, both the untraced and the traced run
print every metric named in BENCHMARK.json with its unit and pass their
gates; when a deliberately wrong expected piece count is counted as a
failed operation; and when a directory holding only BENCHMARK.json and
perfbench/ makes the benchmark exit nonzero without a result line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seconds", "1",
         "--size", "tiny", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, lines, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    checks = []

    def expect(ok, what):
        checks.append(what)
        if not ok:
            print(f"FAIL  {what}")
            problems.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, lines, result = bench(["--workload", workload, "--seed", "7",
                                         "--trace", str(trace)])
            what = f"{workload} --trace {trace}"
            expect(proc.returncode == 0 and result is not None, f"{what}: exit 0 with a result")
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what}: all operations pass their gates")
            metrics = result["metrics"]
            expect(set(metrics) == {m["name"] for m in spec[key]},
                   f"{what}: result holds exactly the {key} metrics")
            for m in spec[key]:
                printed = any(ln.split()[:1] == [f"{m['name']}:"] and ln.split()[2:3] == [m["unit"]]
                              for ln in lines[:-1])
                unit_ok = metrics.get(m["name"], {}).get("unit") == m["unit"]
                expect(printed and unit_ok, f"{what}: {m['name']} printed in {m['unit']}")
            if trace == 0:
                for extra in ("max_rel_err", "failed_frac"):
                    expect(any(ln.startswith(f"{extra}: ") for ln in lines),
                           f"{what}: {extra} printed")

    for workload in ("desk-scaled", "width-scan"):
        proc, _, result = bench(["--workload", workload, "--seed", "7", "--trace", "0",
                                 "--piece-offset", "1"])
        expect(result is not None and not result["correct"] and result["failed"] >= 1,
               f"{workload}: a wrong expected piece count is a failed operation")

    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, lines, result = bench(["--workload", "desk-scaled", "--seed", "7", "--trace", "0"],
                                cwd=bare)
    expect(proc.returncode != 0 and result is None,
           "without src/ the benchmark exits nonzero and prints no result")
    shutil.rmtree(bare)

    print(f"{len(checks)} checks, {len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
