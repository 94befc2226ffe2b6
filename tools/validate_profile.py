#!/usr/bin/env python3
"""Validate sampling-profiler artifacts (src/obs/profiler.{h,cc}).

Two artifact kinds, either or both:

  --folded F   collapsed-stack file (AERIE_PROF_FOLDED): every line must be
               `layer;span[;frame...] <count>` — the flamegraph.pl /
               speedscope collapsed format — with a positive integer count,
               no empty stack components, and lines in sorted order (the
               exporter sorts for determinism, so out-of-order lines mean a
               writer bug or artifact corruption).
  --json J     profile JSON (AERIE_PROF_JSON), checked against
               tools/profile_schema.json with the dependency-free Validator
               from tools/validate_bench.py (stdlib only, like the other
               CI validators).

Semantic gates:

  --min-samples N   require at least N recorded samples: folded counts must
                    sum to >= N and/or json "samples" >= N. Use in CI to
                    prove a profiled bench actually sampled (a silent
                    always-empty profile would otherwise pass).
  --max-no-span-share F --within FRAME
                    attribution gate (needs --folded): of the samples whose
                    stack has a frame containing FRAME, at most share F may
                    fold under `(none);(no_span)`, i.e. carry no layer tag.
                    Fails when no stack contains FRAME.
  --record R        consistency gate (needs --json): the bench record R
                    (AERIE_BENCH_JSON) of the same process must attribute
                    the profile's span-tagged CPU: its layers' summed cpu_us,
                    in samples of period_ns, may not exceed the JSON's
                    span-tagged count, nor fall short of it by more than
                    RECORD_CPU_TOLERANCE. The record is snapshotted before
                    the profile's final drain at exit, so it can only miss
                    the last samples.

Exit code 0 when every named artifact conforms, 1 with per-path errors.

Usage:
  tools/validate_profile.py --folded prof.folded --min-samples 1
  tools/validate_profile.py --folded prof.folded --json prof.json
  tools/validate_profile.py --folded prof.folded \
      --within RunForSeconds --max-no-span-share 0.10
  tools/validate_profile.py --json prof.json --record record.json
"""

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from validate_bench import Validator  # noqa: E402

# layer;span[;frame...] <count> — components may not be empty; the exporter
# rewrites ';' and ' ' inside symbols, so the split is unambiguous.
FOLDED_LINE = re.compile(r"^([^ ;]+(?:;[^ ;]+)+) (\d+)$")
# Samples taken outside any span (no layer tag) fold under this prefix.
NO_SPAN_PREFIX = ["(none)", "(no_span)"]
# Largest share of the profile's span-tagged CPU a bench record may miss.
# Measured: ablation_lock_modes at the ctest scale (0.02, 0.2 s) missed 0
# of 109-116 samples in 10 of 10 runs, and every record of a --quick sweep
# but fig1's missed 0 (fig1 resets the registry after building its tree).
# 2% leaves room for a sample or two landing in the exit path.
RECORD_CPU_TOLERANCE = 0.02


def read_folded(path, errors):
    """Returns [(components, count)] for the well-formed folded lines."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        errors.append("%s: cannot read: %s" % (path, e))
        return []
    entries = []
    for i, line in enumerate(lines, 1):
        m = FOLDED_LINE.match(line)
        if not m:
            errors.append("%s:%d: not `layer;span[;frame...] <count>`: %r"
                          % (path, i, line[:120]))
            continue
        count = int(m.group(2))
        if count < 1:
            errors.append("%s:%d: count must be >= 1" % (path, i))
        entries.append((m.group(1).split(";"), count))
    return entries


def check_folded(path, entries, errors):
    """Returns the total sample count across all folded lines."""
    total = sum(count for _, count in entries)
    stacks = [";".join(parts) for parts, _ in entries]
    # The exporter sorts element-wise by (layer, span, frames...), which is
    # not the same as sorting the joined line (';' is not the lowest byte),
    # so compare split components.
    if stacks != sorted(stacks, key=lambda s: s.split(";")):
        errors.append("%s: stacks are not sorted (exporter sorts for "
                      "determinism; unsorted output means corruption)"
                      % path)
    if len(stacks) != len(set(stacks)):
        errors.append("%s: duplicate folded stacks (aggregation failed to "
                      "merge identical keys)" % path)
    return total


def no_span_share(entries, frame):
    """Share of the samples with a frame containing `frame` that carry no
    span tag; None when no stack contains `frame`."""
    within = untagged = 0
    for parts, count in entries:
        if not any(frame in f for f in parts[2:]):
            continue
        within += count
        if parts[:2] == NO_SPAN_PREFIX:
            untagged += count
    return None if within == 0 else (untagged / within, untagged, within)


def record_cpu_gap(doc, record):
    """(record, profile) span-tagged CPU of one process, in samples."""
    period_us = doc["period_ns"] / 1e3
    record_us = sum(layer["cpu_us"] for layer in record.get("layers", []))
    tagged = sum(s["count"] for s in doc.get("stacks", [])
                 if s["span"] != NO_SPAN_PREFIX[1])
    return round(record_us / period_us), tagged


def check_json(path, schema_path, errors):
    """Returns the parsed profile JSON (None if unreadable)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        errors.append("%s: cannot read: %s" % (path, e))
        return None
    except json.JSONDecodeError as e:
        errors.append("%s: invalid JSON: %s" % (path, e))
        return None
    with open(schema_path) as f:
        schema = json.load(f)
    validator = Validator(schema)
    validator.check(doc, schema, "")
    errors.extend("%s: %s" % (path, e) for e in validator.errors)
    # Cross-field sanity the schema subset cannot express: stack counts
    # cannot exceed total samples (stacks only cover spanned samples).
    stack_total = sum(s.get("count", 0) for s in doc.get("stacks", []))
    if stack_total > doc.get("samples", 0):
        errors.append("%s: stack counts sum to %d > samples %d"
                      % (path, stack_total, doc.get("samples", 0)))
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--folded", help="collapsed-stack artifact")
    parser.add_argument("--json", dest="json_path",
                        help="profile JSON artifact")
    parser.add_argument(
        "--schema",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "profile_schema.json"),
        help="schema file (default: tools/profile_schema.json)")
    parser.add_argument("--min-samples", type=int, default=0)
    parser.add_argument("--max-no-span-share", type=float, default=None)
    parser.add_argument("--within", metavar="FRAME",
                        help="frame substring scoping --max-no-span-share")
    parser.add_argument("--record",
                        help="bench record whose layer cpu_us must match "
                             "the --json profile")
    args = parser.parse_args()
    if not args.folded and not args.json_path:
        parser.error("nothing to validate: pass --folded and/or --json")
    if (args.max_no_span_share is None) != (args.within is None):
        parser.error("--max-no-span-share and --within go together")
    if args.max_no_span_share is not None and not args.folded:
        parser.error("--max-no-span-share needs --folded")
    if args.record and not args.json_path:
        parser.error("--record needs --json")

    errors = []
    folded_total = json_total = 0
    share = gap = None
    if args.folded:
        entries = read_folded(args.folded, errors)
        folded_total = check_folded(args.folded, entries, errors)
        if args.within is not None:
            share = no_span_share(entries, args.within)
            if share is None:
                errors.append("%s: no stack has a frame containing %r"
                              % (args.folded, args.within))
            elif share[0] > args.max_no_span_share:
                errors.append("%s: %d of %d samples within %r (%.3f) fold "
                              "under (none);(no_span), expected <= %.3f"
                              % (args.folded, share[1], share[2],
                                 args.within, share[0],
                                 args.max_no_span_share))
    if args.json_path:
        doc = check_json(args.json_path, args.schema, errors)
        json_total = doc.get("samples", 0) if doc else 0
        if doc and args.record:
            try:
                with open(args.record) as f:
                    gap = record_cpu_gap(doc, json.load(f))
            except (OSError, ValueError) as e:
                errors.append("%s: cannot read: %s" % (args.record, e))
            else:
                recorded, tagged = gap
                if not tagged * (1 - RECORD_CPU_TOLERANCE) <= recorded \
                        <= tagged:
                    errors.append(
                        "%s: layers' cpu_us sum to %d samples, profile %s "
                        "has %d span-tagged samples (allowed: %.0f%% fewer, "
                        "none more)" % (args.record, recorded, args.json_path,
                                        tagged, 100 * RECORD_CPU_TOLERANCE))

    if args.min_samples > 0:
        if args.folded and folded_total < args.min_samples:
            errors.append("%s: folded counts sum to %d, expected >= %d"
                          % (args.folded, folded_total, args.min_samples))
        if args.json_path and json_total < args.min_samples:
            errors.append("%s: samples %d, expected >= %d"
                          % (args.json_path, json_total, args.min_samples))

    if errors:
        print("FAIL:")
        for err in errors:
            print("  " + err)
        return 1
    parts = []
    if args.folded:
        parts.append("%s (%d folded samples)" % (args.folded, folded_total))
    if share is not None:
        parts.append("no-span share within %r %.3f (%d/%d)"
                     % (args.within, share[0], share[1], share[2]))
    if args.json_path:
        parts.append("%s (%d samples)" % (args.json_path, json_total))
    if gap is not None:
        parts.append("record holds %d of %d span-tagged samples" % gap)
    print("OK: " + ", ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
