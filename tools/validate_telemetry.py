#!/usr/bin/env python3
"""Validate an aerie_top --json document against tools/telemetry_schema.json.

Reuses the dependency-free JSON Schema subset validator from
tools/validate_bench.py (stdlib only — CI and ctest run this without any
installed packages).

Beyond schema conformance, optional semantic gates for the CI smoke test:

  --min-processes N   require at least N live processes in the sample
  --min-layers N      require at least N per-layer span rows
  --require-logical-writes
                      require write_amp.logical_bytes > 0 (proves the
                      API-boundary logical byte counters and the per-layer
                      SCM accounting were both live)
  --require-lock-wait require nonzero lock-wait attribution: some layer's
                      lock_wait_ns > 0 or locks.wait_latency_us.count > 0
                      (proves the off-CPU wait plane end to end on a
                      contended multi-client run)
  --require-cpu       require some layer's cpu_ns > 0 (proves the sampled
                      per-layer CPU reaches the live view)
  --forbid-drops      fail when dropped.warning is true (segment capacity
                      was exhausted, so the sample is incomplete)

Exit code 0 when the document conforms, 1 with per-path errors otherwise.

Usage:
  tools/validate_telemetry.py top.json
  tools/validate_telemetry.py --min-processes 1 --min-layers 1 \
      --require-logical-writes top.json
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from validate_bench import Validator  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("document", help="aerie_top --json output file")
    parser.add_argument(
        "--schema",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "telemetry_schema.json"),
        help="schema file (default: tools/telemetry_schema.json)")
    parser.add_argument("--min-processes", type=int, default=0)
    parser.add_argument("--min-layers", type=int, default=0)
    parser.add_argument("--require-logical-writes", action="store_true")
    parser.add_argument("--require-lock-wait", action="store_true")
    parser.add_argument("--require-cpu", action="store_true")
    parser.add_argument("--forbid-drops", action="store_true")
    args = parser.parse_args()

    with open(args.schema) as f:
        schema = json.load(f)
    try:
        with open(args.document) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        print("FAIL: %s is not valid JSON: %s" % (args.document, e))
        return 1

    validator = Validator(schema)
    validator.check(doc, schema, "")
    errors = list(validator.errors)

    if len(doc.get("processes", [])) < args.min_processes:
        errors.append("$.processes: expected at least %d live process(es), "
                      "got %d" % (args.min_processes,
                                  len(doc.get("processes", []))))
    if len(doc.get("layers", {})) < args.min_layers:
        errors.append("$.layers: expected at least %d layer row(s), got %d"
                      % (args.min_layers, len(doc.get("layers", {}))))
    if args.require_logical_writes:
        logical = doc.get("write_amp", {}).get("logical_bytes", 0)
        if logical <= 0:
            errors.append("$.write_amp.logical_bytes: expected > 0, got %r"
                          % logical)
    if args.require_lock_wait:
        layer_wait = sum(row.get("lock_wait_ns", 0)
                         for row in doc.get("layers", {}).values())
        hist_count = (doc.get("locks", {})
                      .get("wait_latency_us", {}).get("count", 0))
        if layer_wait <= 0 and hist_count <= 0:
            errors.append(
                "$.layers[*].lock_wait_ns / $.locks.wait_latency_us.count: "
                "expected nonzero lock-wait attribution, got 0 / 0")
    if args.require_cpu:
        if not any(row.get("cpu_ns", 0) > 0
                   for row in doc.get("layers", {}).values()):
            errors.append("$.layers[*].cpu_ns: expected some layer with "
                          "sampled CPU, got none")
    if args.forbid_drops:
        if doc.get("dropped", {}).get("warning", False):
            errors.append("$.dropped: warning is true (%r entries, %r hists "
                          "dropped — telemetry incomplete)"
                          % (doc.get("dropped", {}).get("entries"),
                             doc.get("dropped", {}).get("hists")))

    if errors:
        print("FAIL: %s" % args.document)
        for err in errors:
            print("  " + err)
        return 1

    print("OK: %s (%d process(es), %d layer(s), %d rpc method(s), "
          "write amp %.2fx)" % (
              args.document, len(doc.get("processes", [])),
              len(doc.get("layers", {})), len(doc.get("rpc", {})),
              doc.get("write_amp", {}).get("amplification", 0.0)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
