#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds libgus and the measuring program
(perfbench/CMakeLists.txt) into .bench_build on first use, runs one
workload, and prints two JSON lines on stdout: the full record (every
metric, the per-layer numbers and the host/build provenance), then the
result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are exactly BENCHMARK.json's end_to_end list (--trace 0) or
per_layer list (--trace 1). Exits non-zero, without a result line, when the
program cannot be built or set up; exits 1 after printing the result when an
answer differs from its reference or a query fails.

--smoke (tiny inputs) and --perturb-reference (corrupt one reference answer)
exist for perfbench/selftest.py.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170

# The per-layer metrics each workload exercises (perfbench/README.md has the
# reasoning). A per-layer metric a workload does not exercise is reported as
# 0; one it does exercise must come from the measuring program.
_PLAN = ["plan.prepare_ms", "plan.morsel_loop_ms", "plan.sink_fold_ms",
         "plan.rows_emitted", "plan.sink_recycle_ratio",
         "plan.worker_imbalance", "plan.pool_threads_spawned"]
_COMMON = ["data.gen_s", "trace.overhead_ratio"]
LAYERS_BY_WORKLOAD = {
    "q1_join": _COMMON + _PLAN + [
        "plan.non_pivot_exec_ms", "kernels.join_build_ms", "est.sbox_ms",
        "est.sample_rows"],
    "sql_mix": _COMMON + _PLAN + [
        "sqlish.parse_plan_ms", "sqlish.catalog_convert_ms",
        "algebra.soa_transform_ms", "est.sample_rows"],
    "served_repeat": _COMMON + _PLAN + [
        "dist.shard_exec_ms", "dist.bundle_bytes", "dist.gather_ms",
        "serve.miss_ms", "serve.hit_ms", "serve.cache_hit_ratio",
        "serve.shard_execs_per_query", "serve.shard_retries", "serve.start_s"],
    "segment_scan": _COMMON + _PLAN + [
        "est.sample_rows", "store.fault_ms", "store.segments_faulted",
        "store.skip_ratio", "store.bytes_read", "store.cache_hit_ratio",
        "store.evictions", "store.write_s"],
}


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the measuring program."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as err:
            fail("cannot run %s: %s" % (step[0], err))
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            fail("build step failed: " + " ".join(step))


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library sources and build files (a checkout that is
    not a git repository still identifies what was measured)."""
    digest = hashlib.sha256()
    paths = ["CMakeLists.txt"]
    for top in ("src", os.path.relpath(BENCH_DIR)):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            paths.extend(os.path.join(root, f) for f in sorted(files))
    for path in paths:
        if os.path.isfile(path):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def load_benchmark():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)


def result_metrics(spec, record, trace, workload):
    """The result line's metrics: exactly the BENCHMARK.json list."""
    if trace:
        wanted, measured = spec["per_layer"], record["layers"]
        exercised = set(LAYERS_BY_WORKLOAD[workload])
    else:
        wanted, measured = spec["end_to_end"], record["metrics"]
        exercised = {m["name"] for m in wanted}
    out = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = measured.get(name)
        if got is None:
            if name in exercised:
                fail("%s did not report %s" % (workload, name), 3)
            out[name] = {"value": 0.0, "unit": unit}
            continue
        if got["unit"] != unit or got["value"] is None:
            fail("%s reported %s as %r" % (workload, name, got), 3)
        out[name] = {"value": got["value"], "unit": unit}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--perturb-reference", action="store_true")
    args = parser.parse_args()

    spec = load_benchmark()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)
    build()

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR, "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    if args.smoke:
        command.append("--smoke")
    if args.perturb_reference:
        command.append("--perturb-reference")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail("measuring program exited with %d" % done.returncode, 5)
    record = json.loads(lines[-1])

    result = {
        "correct": bool(record["correct"]) and done.returncode == 0,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": result_metrics(spec, record, args.trace, args.workload),
    }
    print(json.dumps(record))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
