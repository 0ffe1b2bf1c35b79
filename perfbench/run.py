#!/usr/bin/env python3
"""Build and run the s2s benchmark.

    python3 perfbench/run.py --workload batch|serve|live --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The script builds s2sd and s2sbench
(perfbench/src) from the checkout's sources into .bench_build (or
$CARGO_TARGET_DIR), runs one workload, and prints s2sbench's output.
The last line of stdout is the JSON result; it is printed only when it
carries exactly the metrics BENCHMARK.json names, each a finite number.
The exit code is non-zero when the build, a check or the result failed.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, work):
    build_dir = os.path.join(work, "perfbench")
    log_path = os.path.join(work, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "s2sbench", "s2sd"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))
    return build_dir


def check_result(line, benchmark, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return "the last output line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "unexpected result keys"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive whole number"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number"
    wanted = {m["name"]: m["unit"]
              for m in benchmark["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        missing = sorted(set(wanted) - set(metrics))
        extra = sorted(set(metrics) - set(wanted))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, m in metrics.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            return f"{name} is not a finite number"
        if m.get("unit") != wanted[name]:
            return f"{name} has unit {m.get('unit')}, want {wanted[name]}"
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["batch", "serve", "live"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("src/CMakeLists.txt", "tools/s2sd.cc", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"run from the root of an s2s checkout ({need} is missing)")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        benchmark = json.load(f)

    work = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(work, exist_ok=True)
    build_dir = build(root, work)

    cmd = [os.path.join(build_dir, "s2sbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work, "--s2sd", os.path.join(build_dir, "s2sd")]
    # Its own process group, so a timeout also stops the s2sd it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    problem = check_result(lines[-1], benchmark, args.trace == "1")
    if problem:
        fail(problem)
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
