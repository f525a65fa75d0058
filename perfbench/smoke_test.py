#!/usr/bin/env python3
"""Self-check of the benchmark.

    python3 perfbench/smoke_test.py

Runs every workload briefly -- a fixed number of checks instead of a time
window -- twice with --trace 0 and twice with --trace 1, and asserts that:

  * each run exits 0 and ends with the one-line JSON result;
  * every metric BENCHMARK.json names for the mode is in the result with
    its unit, and is printed on its own text line with that unit;
  * failed_pct is printed and is 0, and the result has no failed check;
  * the counts that must repeat exactly do repeat across the two runs:
    found_pct, oracle.logical_calls and oracle.inference_runs.

Exits 0 when every assertion holds, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
# Checks per run (per session on daemon_edit): one of the four corpora,
# one program of each size, one swap per session.
CHECKS = {"corpus_sweep": 82, "daemon_edit": 6, "large_program": 3}
EXACT = {0: ["found_pct"], 1: ["oracle.logical_calls", "oracle.inference_runs"]}


def run(workload, trace):
    args = [sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(SEED), "--seconds", "60",
            "--trace", str(trace), "--checks", str(CHECKS[workload])]
    done = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise AssertionError("%s trace=%d exited %d" %
                             (workload, trace, done.returncode))
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_run(workload, trace, lines, result, specs):
    where = "%s trace=%d" % (workload, trace)
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(where + ": result keys " + str(sorted(result)))
    if result.get("failed") != 0 or result.get("correct") is not True:
        problems.append(where + ": failed checks in the result")
    if not result.get("attempted", 0) >= 1:
        problems.append(where + ": nothing attempted")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(s["name"] for s in specs):
        problems.append(where + ": metric names differ from BENCHMARK.json")
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"),
                                                     (int, float)):
            problems.append("%s: %s missing or not in %s" % (where, name, unit))
        line = re.compile(r"^\s*%s\s+\S+\s+%s(\s|$)" %
                          (re.escape(name), re.escape(unit)))
        if not any(line.match(text) for text in lines):
            problems.append("%s: no printed line for %s" % (where, name))
    failed = [t for t in lines if re.match(r"^\s*failed_pct\s", t)]
    if len(failed) != 1 or float(failed[0].split()[1]) != 0.0:
        problems.append(where + ": failed_pct missing or not 0")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    # daemon_edit stays runnable although BENCHMARK.json does not list it
    # (see README.md), so it is checked too.
    workloads = [w["name"] for w in bench["workloads"]]
    workloads += [w for w in CHECKS if w not in workloads]
    for workload in workloads:
        for trace in (0, 1):
            specs = bench["per_layer" if trace else "end_to_end"]
            runs = [run(workload, trace) for _ in range(2)]
            for lines, result in runs:
                problems += check_run(workload, trace, lines, result, specs)
            for name in EXACT[trace]:
                values = [r[1]["metrics"].get(name, {}).get("value")
                          for r in runs]
                if values[0] != values[1]:
                    problems.append("%s trace=%d: %s differs across runs: %s"
                                    % (workload, trace, name, values))
            print("%s trace=%d: checked" % (workload, trace))
    for p in problems:
        print("FAIL: " + p)
    print("smoke test: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
