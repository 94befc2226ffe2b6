#!/usr/bin/env python3
"""CI smoke test for the live telemetry plane.

Launches a real multi-client bench (table3_multiclient) with the
shared-memory publisher enabled in a private segment directory, attaches
aerie_top --json MID-RUN (while the bench is still working), and validates
the documents against tools/telemetry_schema.json — requiring at least one
live process, at least one per-layer span row, a nonzero logical write
byte count so the write-amplification pipeline is proven end to end,
nonzero lock-wait attribution so the off-CPU wait plane is proven on a
genuinely contended multi-client run, and a layer with nonzero sampled
CPU. It samples repeatedly while the bench runs: every sample must conform
to the schema, and the test passes on the first that also meets every
requirement, or fails if the bench finishes (or the deadline passes)
first. The bench runs in counters mode (AERIE_OBS=counters) with the
sampling profiler on (AERIE_PROF=1): the live per-layer CPU/wait view
needs no span timing, and SIGPROF coexisting with the shm publisher is
exercised too.

Stdlib only; wired as the `telemetry_smoke` ctest target.

Usage:
  tools/telemetry_smoke.py --bench build/bench/table3_multiclient \
      --aerie-top build/tools/aerie_top
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True,
                        help="path to the table3_multiclient binary")
    parser.add_argument("--aerie-top", required=True,
                        help="path to the aerie_top binary")
    parser.add_argument("--seconds", type=float, default=3.0,
                        help="bench seconds per data point (default 3)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="overall deadline in seconds (default 120)")
    args = parser.parse_args()

    tools_dir = os.path.dirname(os.path.abspath(__file__))
    deadline = time.monotonic() + args.timeout

    with tempfile.TemporaryDirectory(prefix="aerie_telemetry_smoke_") as shm:
        env = dict(os.environ)
        env.update({
            "AERIE_OBS": "counters",
            "AERIE_OBS_SHM_DIR": shm,
            "AERIE_OBS_SHM_INTERVAL_MS": "50",
            "AERIE_PROF": "1",
            # Scale 0.05 (not 0.02): the lock-wait gate below needs enough
            # clients per directory tree that acquires actually contend.
            "AERIE_BENCH_SCALE": "0.05",
            "AERIE_BENCH_SECONDS": "%g" % args.seconds,
        })
        bench = subprocess.Popen(
            [args.bench], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        doc_path = os.path.join(shm, "top.json")
        failures = []  # the last rejected sample's reasons
        doc = None
        try:
            # Wait for the bench's segment to appear, then sample it with
            # aerie_top while the bench runs, until a sample passes. The
            # lock-wait gate passes only once a multi-client point has
            # contended: a lone client seldom waits on a lock, since its
            # flusher ships the batches and its workload thread never
            # queues behind a ship in flight. Polling, not a fixed sleep,
            # keeps the test independent of how long set-up takes.
            pattern = os.path.join(shm, "aerie.obs.*")
            while not glob.glob(pattern):
                if bench.poll() is not None:
                    print("FAIL: bench exited (rc=%s) before publishing a "
                          "telemetry segment" % bench.returncode)
                    return 1
                if time.monotonic() > deadline:
                    print("FAIL: no telemetry segment within the deadline")
                    return 1
                time.sleep(0.05)

            while doc is None:
                if bench.poll() is not None:
                    print("FAIL: bench exited (rc=%s) before aerie_top took "
                          "a passing sample; the last sample failed:\n%s"
                          % (bench.returncode, "\n".join(failures)))
                    return 1
                if time.monotonic() > deadline:
                    print("FAIL: no passing sample within the deadline; "
                          "the last sample failed:\n%s" % "\n".join(failures))
                    return 1
                top = subprocess.run(
                    [args.aerie_top, "--json", "--dir", shm, "--interval",
                     "500"],
                    capture_output=True, text=True,
                    timeout=max(5.0, deadline - time.monotonic()))
                if top.returncode != 0:
                    print("FAIL: aerie_top exited %d\n%s" %
                          (top.returncode, top.stderr))
                    return 1
                # Only a sample taken while the bench still ran counts.
                live = bench.poll() is None
                with open(doc_path, "w") as f:
                    f.write(top.stdout)
                try:
                    sample = json.loads(top.stdout)
                except json.JSONDecodeError as e:
                    print("FAIL: aerie_top --json emitted invalid JSON: %s\n%s"
                          % (e, top.stdout[:2000]))
                    return 1
                validate = [sys.executable,
                            os.path.join(tools_dir, "validate_telemetry.py")]
                # Every sample must conform to the schema; only the gates
                # on what the bench has done so far may pass later.
                conform = subprocess.run(validate + [doc_path],
                                         capture_output=True, text=True)
                if conform.returncode != 0:
                    print(conform.stdout, end="")
                    return 1
                check = subprocess.run(validate + [
                    "--min-processes", "1", "--min-layers", "1",
                    "--require-logical-writes", "--require-lock-wait",
                    "--require-cpu", doc_path], capture_output=True, text=True)
                if check.returncode == 0 and live:
                    print(check.stdout, end="")
                    doc = sample
                else:
                    failures = check.stdout.splitlines() or [
                        "sample taken after the bench exited"]
        finally:
            bench.terminate()
            try:
                bench.wait(timeout=30)
            except subprocess.TimeoutExpired:
                bench.kill()
                bench.wait()

        print("OK: attached mid-run; %d process(es), %d layer row(s), "
              "write amp %.2fx over %d logical bytes" % (
                  len(doc["processes"]), len(doc["layers"]),
                  doc["write_amp"]["amplification"],
                  doc["write_amp"]["logical_bytes"]))
        return 0


if __name__ == "__main__":
    sys.exit(main())
