#!/usr/bin/env python3
"""Aerie repository benchmark: one run of one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run builds perfbench/ (which compiles the Aerie libraries from
src/) into .bench_build/perfbench; later runs only rebuild what changed.
Then aerie_perfbench runs once. --trace 0 measures end to end with the obs
registry off (AERIE_OBS=off); --trace 1 is the traced run (AERIE_OBS=counters
plus the benchmark's RPC recorder) that yields the per-layer metrics.

Standard output ends with two JSON lines: the full record of the run (every
metric that applies to the workload, how the run was configured, and the
measured host facts), then the result line
{"correct", "attempted", "failed", "metrics"} whose metrics are the
BENCHMARK.json end_to_end (trace 0) or per_layer (trace 1) set.

Exit status 0 means a result line was printed, whatever "correct" says.
Exit status 2 means no result could be produced: the sources are missing,
the build failed, or aerie_perfbench could not set up or verify.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "aerie_perfbench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Aerie sources under %s/src; nothing to build" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "aerie_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      stdin=subprocess.DEVNULL,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(cmd))
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    # Only this checkout's own repository counts, not one it is nested in.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, env=env, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, env=env,
                                  timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unavailable: not a git checkout"


def host_facts(record):
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": record.get("build", {}).get("compiler", "unknown"),
        "git_sha": git_sha(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Self-test knobs (perfbench/selftest.py).
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject-bad-read-length", action="store_true")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.inject_bad_read_length:
        cmd.append("--inject-bad-read-length")
    env = dict(os.environ,
               AERIE_OBS="counters" if args.trace else "off",
               # Telemetry would publish to /dev/shm; keep the run in-tree.
               AERIE_OBS_SHM="off")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                              env=env, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("aerie_perfbench timed out after %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("aerie_perfbench exited with status %d" % done.returncode)
    try:
        record = json.loads(lines[-1])
    except ValueError:
        fail("aerie_perfbench printed no JSON record")

    record["host"] = host_facts(record)
    section = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in section:
            fail("aerie_perfbench did not report %s" % m["name"])
        metrics[m["name"]] = {"value": section[m["name"]]["value"],
                              "unit": m["unit"]}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
