#!/usr/bin/env python3
"""Aggregate per-binary bench records into one BENCH_<date>.json.

tools/run_benches.sh points each bench binary at its own record file via
AERIE_BENCH_JSON, then calls this to merge them into the trajectory file
that gets checked in per PR and diffed by tools/bench_diff.py.

Also prints the ranked hot-path table: each span's sampled CPU merged
across every bench's measured run, so one glance shows where the
implementation spends its time (paper Fig 1 flavor, but continuously
tracked).

Stdlib only — CI runs this with no installed packages.

Usage:
  tools/aggregate_bench.py --out BENCH_20260808.json \
      [--git-sha SHA] [--quick] [--seed N] build/bench_reports/*.json
"""

import argparse
import datetime
import json
import os
import platform
import sys


def load_records(paths):
    records = {}
    for path in paths:
        with open(path) as f:
            record = json.load(f)
        name = record.get("bench")
        if not name:
            raise ValueError("%s: record has no 'bench' field" % path)
        if name in records:
            raise ValueError("duplicate bench record %r (from %s)" %
                             (name, path))
        records[name] = record
    return records


def hot_path_table(records, top=15):
    """Merge hot_spans across records; rank by total sampled CPU."""
    merged = {}  # span name -> [cpu_us, set(benches)]
    for bench, record in records.items():
        for span in record.get("hot_spans", []):
            entry = merged.setdefault(span["name"], [0.0, set()])
            entry[0] += span["cpu_us"]
            entry[1].add(bench)
    rows = sorted(merged.items(), key=lambda kv: kv[1][0], reverse=True)
    total_cpu = sum(e[0] for e in merged.values()) or 1
    lines = ["%-28s %10s %8s  %s" % ("span", "cpu(ms)", "share", "benches")]
    for name, (cpu_us, benches) in rows[:top]:
        lines.append("%-28s %10.2f %7.1f%%  %s" %
                     (name, cpu_us / 1e3, 100.0 * cpu_us / total_cpu,
                      ",".join(sorted(benches)[:3]) +
                      ("..." if len(benches) > 3 else "")))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Merge bench records into a BENCH_<date>.json aggregate")
    parser.add_argument("records", nargs="+",
                        help="per-binary record files (AERIE_BENCH_JSON)")
    parser.add_argument("--out", required=True, help="aggregate output path")
    parser.add_argument("--git-sha", default=os.environ.get(
        "AERIE_GIT_SHA", "unknown"))
    parser.add_argument("--quick", action="store_true",
                        help="mark this as a reduced-scale (CI) sweep")
    parser.add_argument("--seed", type=int,
                        default=int(os.environ.get("AERIE_BENCH_SEED", "42")))
    args = parser.parse_args(argv)

    try:
        records = load_records(args.records)
    except (OSError, ValueError) as e:
        print("aggregate_bench: %s" % e, file=sys.stderr)
        return 1

    aggregate = {
        "schema_version": 2,
        "generated_utc": datetime.datetime.now(datetime.timezone.utc)
                         .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_sha": args.git_sha,
        "quick": args.quick,
        "seed": args.seed,
        "host": {
            "os": "%s %s" % (platform.system(), platform.release()),
            "machine": platform.machine(),
            "cpus": os.cpu_count() or 0,
        },
        "benches": records,
    }
    with open(args.out, "w") as f:
        json.dump(aggregate, f, indent=1, sort_keys=True)
        f.write("\n")

    metric_count = sum(len(r.get("metrics", [])) for r in records.values())
    print("aggregate_bench: wrote %s (%d benches, %d metrics, git=%s%s)" %
          (args.out, len(records), metric_count, args.git_sha,
           ", quick" if args.quick else ""))
    print("\n# Hot paths (sampled span CPU across all measured runs)")
    print(hot_path_table(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
