#!/usr/bin/env python3
"""Compare two BENCH_*.json aggregates; exit non-zero on regressions.

A metric regresses when it moves against its nature by more than the noise
band:
  - throughput (ops_per_sec):   new < old * (1 - tput_band)
  - latency (latency_ns p50):   new > old * (1 + lat_band)
  - time-like values (ns/op, us, ns, ms): new > old * (1 + lat_band)
Other unit values (percent, counts) are reported informationally only —
they describe workload shape, not speed.

Latency gates on the *median*: tail percentiles (p95/p99) of a single short
run swing multiples under scheduler noise, so they stay in the record for
trend plotting but only surface here as info lines. Bands default to
0.15/0.35 for full-scale sweeps on a quiet machine; when either file is a
--quick sweep the defaults widen to 0.60/1.0 automatically (quick mode is a
smoke test for order-of-magnitude cliffs — see DESIGN.md §9.2). Explicit
--tput-band/--lat-band always win. Metrics present in only one file are
listed but never gate — benches come and go across PRs.

Stdlib only. Usage:
  tools/bench_diff.py OLD.json NEW.json [--tput-band 0.15] [--lat-band 0.35]
  tools/bench_diff.py RECORD.json --pair OLD_TAG NEW_TAG [bands as above]

--pair compares rows within one aggregate: every metric whose name contains
OLD_TAG is the baseline for its twin with NEW_TAG in its place, under the
same bands. The CI direct-path lane gates ablation_direct_path's
*.direct_on rows against its own *.direct_off rows this way, so "the
direct path is never slower than the locked path" is checked from a single
sweep. A record with no such pairs is an error (exit 2), not a pass.
"""

import argparse
import json
import sys

# Values below these floors are pure noise at any band (empty quick-mode
# histograms, sub-microsecond timers): never gate on them.
MIN_GATED_OPS = 1.0
MIN_GATED_NS = 100.0

TIME_UNITS = {"ns/op", "ns", "us", "ms"}


def load(path):
    with open(path) as f:
        return json.load(f)


def metric_map(aggregate):
    """Flatten to {"bench/metric": row}."""
    out = {}
    for bench, record in aggregate.get("benches", {}).items():
        for row in record.get("metrics", []):
            out["%s/%s" % (bench, row["name"])] = row
    return out


def pair_maps(metrics, old_tag, new_tag):
    """Splits one record's rows into {key: OLD_TAG row} and {key: twin}."""
    old_map, new_map = {}, {}
    for key, row in metrics.items():
        twin = key.replace(old_tag, new_tag)
        if old_tag in key and twin in metrics:
            old_map[key] = row
            new_map[key] = metrics[twin]
    return old_map, new_map


def pct(old, new):
    if old == 0:
        return 0.0
    return 100.0 * (new - old) / old


def compare(old_map, new_map, tput_band, lat_band):
    """Returns (regressions, improvements, infos) as printable strings."""
    regressions, improvements, infos = [], [], []
    for key in sorted(set(old_map) & set(new_map)):
        old_row, new_row = old_map[key], new_map[key]

        if "ops_per_sec" in old_row and "ops_per_sec" in new_row:
            old_v, new_v = old_row["ops_per_sec"], new_row["ops_per_sec"]
            if old_v >= MIN_GATED_OPS:
                line = "%s ops/s: %.1f -> %.1f (%+.1f%%)" % (
                    key, old_v, new_v, pct(old_v, new_v))
                if new_v < old_v * (1.0 - tput_band):
                    regressions.append(line + " [band %.0f%%]" %
                                       (100 * tput_band))
                elif new_v > old_v * (1.0 + tput_band):
                    improvements.append(line)

        old_h = old_row.get("latency_ns")
        new_h = new_row.get("latency_ns")
        if old_h and new_h and old_h.get("count", 0) > 0 \
                and new_h.get("count", 0) > 0:
            old_v, new_v = old_h["p50"], new_h["p50"]
            if old_v >= MIN_GATED_NS:
                line = "%s p50: %.0fns -> %.0fns (%+.1f%%)" % (
                    key, old_v, new_v, pct(old_v, new_v))
                if new_v > old_v * (1.0 + lat_band):
                    regressions.append(line + " [band %.0f%%]" %
                                       (100 * lat_band))
                elif new_v < old_v * (1.0 - lat_band):
                    improvements.append(line)
            # Tails are too noisy to gate a single run, but a big p99 move
            # is worth a glance.
            old_t, new_t = old_h["p99"], new_h["p99"]
            if old_t >= MIN_GATED_NS and abs(pct(old_t, new_t)) > 100.0:
                infos.append("%s p99: %.0fns -> %.0fns (%+.1f%%, not gated)"
                             % (key, old_t, new_t, pct(old_t, new_t)))

        if "value" in old_row and "value" in new_row \
                and old_row.get("unit") == new_row.get("unit"):
            old_v, new_v = old_row["value"], new_row["value"]
            unit = old_row.get("unit", "")
            line = "%s: %.3f -> %.3f %s (%+.1f%%)" % (
                key, old_v, new_v, unit, pct(old_v, new_v))
            if unit in TIME_UNITS:
                floor = 1.0 if unit in ("ns", "ns/op") else 0.1
                if old_v >= floor:
                    if new_v > old_v * (1.0 + lat_band):
                        regressions.append(line + " [band %.0f%%]" %
                                           (100 * lat_band))
                    elif new_v < old_v * (1.0 - lat_band):
                        improvements.append(line)
            elif abs(pct(old_v, new_v)) > 10.0:
                infos.append(line)

    for key in sorted(set(old_map) - set(new_map)):
        infos.append("%s: removed" % key)
    for key in sorted(set(new_map) - set(old_map)):
        infos.append("%s: added" % key)
    return regressions, improvements, infos


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json files with noise bands")
    parser.add_argument("old", help="baseline aggregate")
    parser.add_argument("new", nargs="?", help="candidate aggregate "
                        "(omitted with --pair)")
    parser.add_argument("--tput-band", type=float, default=None,
                        help="allowed fractional throughput drop "
                             "(default 0.15; 0.60 when either file is a "
                             "--quick sweep)")
    parser.add_argument("--lat-band", type=float, default=None,
                        help="allowed fractional p50/time increase "
                             "(default 0.35; 1.0 when either file is a "
                             "--quick sweep)")
    parser.add_argument("--pair", nargs=2, metavar=("OLD_TAG", "NEW_TAG"),
                        help="compare rows of one aggregate: OLD_TAG rows "
                             "against their NEW_TAG twins")
    args = parser.parse_args(argv)
    if (args.pair is None) == (args.new is None):
        parser.error("give either NEW.json or --pair, not both or neither")

    try:
        old_agg = load(args.old)
        new_agg = old_agg if args.pair else load(args.new)
    except (OSError, ValueError) as e:
        print("bench_diff: %s" % e, file=sys.stderr)
        return 2

    quick = bool(old_agg.get("quick") or new_agg.get("quick"))
    tput_band = args.tput_band if args.tput_band is not None \
        else (0.60 if quick else 0.15)
    lat_band = args.lat_band if args.lat_band is not None \
        else (1.0 if quick else 0.35)

    old_map, new_map = metric_map(old_agg), metric_map(new_agg)
    if args.pair:
        old_map, new_map = pair_maps(old_map, *args.pair)
        if not old_map:
            print("bench_diff: no %s/%s metric pairs in %s" %
                  (args.pair[0], args.pair[1], args.old), file=sys.stderr)
            return 2
    regressions, improvements, infos = compare(
        old_map, new_map, tput_band, lat_band)

    print("bench_diff: %s (%s) vs %s (%s), %d shared metrics, "
          "bands tput=%.0f%% lat=%.0f%%%s" %
          (args.old, old_agg.get("git_sha", "?"),
           args.new or "%s -> %s" % tuple(args.pair),
           new_agg.get("git_sha", "?"),
           len(set(old_map) & set(new_map)),
           100 * tput_band, 100 * lat_band,
           " (quick)" if quick else ""))
    for title, lines in (("REGRESSIONS", regressions),
                         ("improvements", improvements),
                         ("info", infos)):
        if lines:
            print("\n%s (%d):" % (title, len(lines)))
            for line in lines:
                print("  " + line)

    if regressions:
        print("\nbench_diff: FAIL — %d metric%s regressed beyond the noise "
              "band" % (len(regressions),
                        "" if len(regressions) == 1 else "s"),
              file=sys.stderr)
        return 1
    print("\nbench_diff: OK — no regressions beyond the noise band")
    return 0


if __name__ == "__main__":
    sys.exit(main())
