#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload at tiny size for one second, untraced and traced, through
perfbench/run.py, and checks that:
  * the result line carries exactly the BENCHMARK.json metrics of its mode;
  * the record carries every end-to-end metric that applies to the workload,
    and none that does not, each with a unit;
  * the traced record carries every per-layer metric, with the pxfs and
    flatfs ratios only on the workloads that use those interfaces;
  * the record stamps the measured host facts;
  * the run was correct with no failures.
Then it runs once with a deliberately wrong read length and checks that the
integrity checker flags it. Exit status 0 means every check passed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COMMON_E2E = {"ops_per_s", "op_p50_us", "op_p99_us", "data_mb_s",
              "failed_ratio", "setup_s", "peak_rss_mb"}
PXFS_OPS = {"open_p50_us", "read_p50_us", "write_p50_us"}
CHURN_OPS = {"create_p50_us", "unlink_p50_us"}
FLAT_OPS = {"put_p50_us", "get_p50_us", "erase_p50_us"}
ALL_E2E = COMMON_E2E | PXFS_OPS | CHURN_OPS | FLAT_OPS

EXPECTED_E2E = {
    "webserver": COMMON_E2E | PXFS_OPS,
    "webproxy_pcm": COMMON_E2E | PXFS_OPS | CHURN_OPS,
    "fileserver_1c": COMMON_E2E | PXFS_OPS | CHURN_OPS,
    "flatfs_webproxy": COMMON_E2E | FLAT_OPS,
}
INTERFACE_RATIOS = {"pxfs.name_cache.hit_ratio", "flatfs.direct_get_ratio"}
HOST_FACTS = {"nproc", "cpu_model", "compiler", "git_sha"}


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise AssertionError("%s exited with %d" % (" ".join(cmd), done.returncode))
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            try:
                record, result = run(workload, trace)
                wanted = spec["per_layer"] if trace else spec["end_to_end"]
                check(set(result["metrics"]) == {m["name"] for m in wanted},
                      "result metrics differ from BENCHMARK.json")
                check(result["correct"] and result["failed"] == 0,
                      "run not correct: %s" % record["errors"])
                check(result["attempted"] >= 1, "nothing attempted")
                check(HOST_FACTS <= set(record["host"]), "host facts missing")
                for section in ("end_to_end", "per_layer"):
                    for name, m in record[section].items():
                        check(m.get("unit"), "%s has no unit" % name)
                e2e = set(record["end_to_end"]) & ALL_E2E
                if trace == 0:
                    check(e2e == EXPECTED_E2E[workload],
                          "end-to-end metrics %s" % sorted(
                              e2e ^ EXPECTED_E2E[workload]))
                else:
                    flat = workload == "flatfs_webproxy"
                    ratio = ("flatfs.direct_get_ratio" if flat
                             else "pxfs.name_cache.hit_ratio")
                    layers = set(record["per_layer"])
                    check({m["name"] for m in wanted} <= layers,
                          "per-layer metrics missing")
                    check(layers & INTERFACE_RATIOS == {ratio},
                          "interface ratios %s" % sorted(layers & INTERFACE_RATIOS))
                print("ok   " + label)
            except (AssertionError, ValueError, KeyError, IndexError) as e:
                failures.append("%s: %s" % (label, e))
                print("FAIL " + label + ": " + str(e))

    label = "integrity checker flags a wrong read length"
    try:
        record, result = run("webserver", 0, "--inject-bad-read-length")
        check(not result["correct"] and result["failed"] >= 1,
              "a wrong read length went unnoticed")
        check(any("integrity" in e for e in record["errors"]),
              "no integrity error recorded: %s" % record["errors"])
        print("ok   " + label)
    except (AssertionError, ValueError, KeyError, IndexError) as e:
        failures.append("%s: %s" % (label, e))
        print("FAIL " + label + ": " + str(e))

    if failures:
        print("selftest FAILED (%d)" % len(failures))
        return 1
    print("selftest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
