#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload zoo_leveled --seed 1 --seconds 40 --trace 0

Builds `xspbench` from this checkout's sources into .bench_build/ (CMake,
Release), runs the workload in a fresh process, and prints as its last
stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json. --trace 1 runs
the workload twice, untraced then traced, and reports every per-layer
metric plus "overhead.<metric>" = traced minus untraced for each
end-to-end metric. Per-layer metrics of layers a workload does not
exercise read 0. Exit code 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
BINARY = os.path.join(CMAKE_DIR, "xspbench")
TMP_DIR = os.path.join(BUILD_DIR, "tmp")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
GOLDEN = os.path.join(HERE, "golden_zoo.txt")
WORKLOADS = ("zoo_leveled", "fleet_steady")
# All binary runs of one benchmark run together stay inside its 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("run.py: " + msg)
    sys.exit(1)


def build():
    """Configure once, then (re)build incrementally; output goes to stderr."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(CMAKE_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", CMAKE_DIR, "--target", "xspbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def commit_id():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_binary(args, trace, commit):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, trace)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--golden", GOLDEN,
           "--tmp", TMP_DIR, "--commit", commit,
           "--ledger", os.path.join(RESULTS_DIR, stem + "-ledger.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S // (1 + args.trace))
    except subprocess.TimeoutExpired:
        fail("%s timed out" % args.workload)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        fail("%s printed no result (exit %d)" % (args.workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result (exit %d)" % (args.workload, proc.returncode))
    with open(os.path.join(RESULTS_DIR, stem + ".json"), "w") as f:
        json.dump(result, f, indent=1)
    if proc.returncode != 0 or not result["correct"]:
        log("run.py: %s output checks failed: %s" % (args.workload, result["check_failures"]))
    return result


def pick(metrics, spec, section):
    out = {}
    for m in spec:
        got = metrics.get(m["name"])
        if got is None:
            if section == "end_to_end":
                fail("end-to-end metric %s missing" % m["name"])
            got = {"value": 0, "unit": m["unit"]}  # layer not on this workload's path
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json in %s: %s" % (os.getcwd(), e))

    build()
    commit = commit_id()
    base = run_binary(args, 0, commit)
    runs = [base]
    if args.trace:
        traced = run_binary(args, 1, commit)
        runs.append(traced)
        metrics = pick(traced["layers"], spec["per_layer"], "per_layer")
        untraced_e2e = pick(base["end_to_end"], spec["end_to_end"], "end_to_end")
        traced_e2e = pick(traced["end_to_end"], spec["end_to_end"], "end_to_end")
        for name, m in untraced_e2e.items():
            key = "overhead." + name
            if key in metrics:
                metrics[key] = {"value": traced_e2e[name]["value"] - m["value"],
                                "unit": m["unit"]}
    else:
        metrics = pick(base["end_to_end"], spec["end_to_end"], "end_to_end")

    correct = all(r["correct"] for r in runs)
    log("context: " + json.dumps(runs[-1]["context"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": runs[-1]["attempted"],
                      "failed": runs[-1]["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
