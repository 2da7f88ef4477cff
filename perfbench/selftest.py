#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload in BENCHMARK.json, at
tiny scale (--smoke):
  * --trace 0 prints every end_to_end metric with its unit, all non-zero;
  * --trace 1 prints every per_layer metric with its unit, including every
    metric run.py lists as exercised by that workload;
  * a reference answer perturbed by one ulp is caught: exit code 1 and a
    result line with correct=false and failed >= 1.
It also checks that the benchmark refuses to run, without a result line,
from a directory holding only BENCHMARK.json and perfbench/.
Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, extra=(), cwd="."):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
               "--smoke", *extra]
    done = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def check_metrics(label, result, wanted, nonzero):
    names = {m["name"] for m in wanted}
    check(result is not None and set(result) == RESULT_KEYS,
          label + ": result line has exactly %s" % sorted(RESULT_KEYS))
    if result is None:
        return
    got = result["metrics"]
    check(set(got) == names, label + ": every listed metric, nothing else")
    for metric in wanted:
        value = got.get(metric["name"], {})
        check(value.get("unit") == metric["unit"] and
              isinstance(value.get("value"), (int, float)) and
              math.isfinite(value["value"]) and
              (value["value"] != 0 or not nonzero),
              "%s: %s in %s" % (label, metric["name"], metric["unit"]))


def main():
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import run as harness  # the per-workload layer map

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        code, result = run(workload, 0)
        check(code == 0 and result and result["correct"],
              workload + ": trace 0 run is correct")
        check_metrics(workload + " trace 0", result, spec["end_to_end"], True)

        code, result = run(workload, 1)
        check(code == 0 and result and result["correct"],
              workload + ": trace 1 run is correct")
        check_metrics(workload + " trace 1", result, spec["per_layer"], False)
        if result:
            for name in harness.LAYERS_BY_WORKLOAD[workload]:
                check(name in result["metrics"],
                      "%s: exercised layer metric %s" % (workload, name))

        code, result = run(workload, 0, ["--perturb-reference"])
        check(code == 1 and result is not None and not result["correct"] and
              result["failed"] >= 1,
              workload + ": a perturbed reference answer is caught")

    bare = os.path.join(".bench_work", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run(spec["workloads"][0]["name"], 0, cwd=bare)
    check(code != 0 and result is None,
          "without the sources the benchmark fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
