#!/usr/bin/env python3
"""Unit tests for tools/bench_diff.py (and the schema validator's core,
plus validate_profile.py's no-span-share and record gates).

Builds synthetic aggregates, perturbs them, and asserts the gate fires on a
real regression (20% throughput drop, 2x p99) but not on within-noise
wobble (2%). Run directly or via ctest (bench_diff_test).
"""

import copy
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_diff
import validate_bench
import validate_profile


def make_aggregate():
    hist = {"count": 1000, "min": 800, "mean": 1500.0, "p50": 1400,
            "p95": 2600, "p99": 4000, "max": 9000}
    return {
        "schema_version": 2,
        "generated_utc": "2026-08-08T00:00:00Z",
        "git_sha": "abc123",
        "quick": False,
        "seed": 42,
        "host": {"os": "Linux", "machine": "x86_64", "cpus": 4},
        "benches": {
            "table2_filebench": {
                "schema_version": 2,
                "bench": "table2_filebench",
                "git_sha": "abc123",
                "config": {"scale": 0.05, "seconds": 0.5},
                "metrics": [
                    {"name": "fileserver.pxfs", "ops_per_sec": 50000.0,
                     "latency_ns": copy.deepcopy(hist)},
                    {"name": "webproxy.pxfs", "ops_per_sec": 80000.0,
                     "latency_ns": copy.deepcopy(hist)},
                    {"name": "vfs.share", "value": 40.0, "unit": "percent"},
                    {"name": "BM_PersistU64", "value": 55.0, "unit": "ns/op"},
                ],
                "layers": [{"layer": "tfs", "cpu_us": 5000.0,
                            "lock_wait_us": 120.0, "rpc_wait_us": 0,
                            "other_wait_us": 0}],
                "hot_spans": [{"name": "tfs.write", "cpu_us": 5000.0}],
            }
        },
    }


def make_v1_aggregate():
    """The same sweep in the schema v1 shape of the checked-in baselines
    (BENCH_20260808.json, bench/overhead/, bench/direct/): span-mode layer
    rows and hot spans ranked by self time."""
    old = make_aggregate()
    old["schema_version"] = 1
    record = old["benches"]["table2_filebench"]
    record["schema_version"] = 1
    record["layers"] = [{"layer": "tfs", "spans": 100, "self_ns": 5000000,
                         "total_ns": 9000000}]
    record["hot_spans"] = [{"name": "tfs.write", "count": 100,
                            "self_ns": 5000000, "mean_self_us": 50.0}]
    return old


def write_tmp(data, directory):
    fd, path = tempfile.mkstemp(suffix=".json", dir=directory)
    with os.fdopen(fd, "w") as f:
        json.dump(data, f)
    return path


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base = make_aggregate()
        self.base_path = write_tmp(self.base, self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def run_diff(self, new_aggregate, extra_args=()):
        new_path = write_tmp(new_aggregate, self.tmp.name)
        return bench_diff.main([self.base_path, new_path] + list(extra_args))

    def metrics(self, aggregate):
        return aggregate["benches"]["table2_filebench"]["metrics"]

    def test_unchanged_rerun_passes(self):
        self.assertEqual(self.run_diff(copy.deepcopy(self.base)), 0)

    def test_20pct_throughput_regression_fires(self):
        new = copy.deepcopy(self.base)
        self.metrics(new)[0]["ops_per_sec"] *= 0.80
        self.assertEqual(self.run_diff(new), 1)

    def test_2pct_wobble_passes(self):
        new = copy.deepcopy(self.base)
        for row in self.metrics(new):
            if "ops_per_sec" in row:
                row["ops_per_sec"] *= 0.98
            if "latency_ns" in row:
                row["latency_ns"]["p50"] *= 1.02
        self.assertEqual(self.run_diff(new), 0)

    def test_p50_doubling_fires(self):
        new = copy.deepcopy(self.base)
        self.metrics(new)[1]["latency_ns"]["p50"] *= 2.0
        self.assertEqual(self.run_diff(new), 1)

    def test_p99_tail_never_gates(self):
        # Tails of a single run are scheduler noise; they inform, not gate.
        new = copy.deepcopy(self.base)
        self.metrics(new)[1]["latency_ns"]["p99"] *= 8.0
        self.assertEqual(self.run_diff(new), 0)

    def test_quick_sweeps_widen_bands(self):
        # A 20% drop is within quick-mode noise; a 70% drop is a cliff.
        for factor, expected in ((0.80, 0), (0.30, 1)):
            new = copy.deepcopy(self.base)
            new["quick"] = True
            self.metrics(new)[0]["ops_per_sec"] *= factor
            self.assertEqual(self.run_diff(new), expected,
                             "factor %.2f" % factor)

    def test_ns_per_op_regression_fires(self):
        new = copy.deepcopy(self.base)
        self.metrics(new)[3]["value"] = 110.0  # 2x a 55ns/op primitive
        self.assertEqual(self.run_diff(new), 1)

    def test_percent_unit_never_gates(self):
        new = copy.deepcopy(self.base)
        self.metrics(new)[2]["value"] = 95.0  # workload shape, not speed
        self.assertEqual(self.run_diff(new), 0)

    def test_band_is_tunable(self):
        new = copy.deepcopy(self.base)
        self.metrics(new)[0]["ops_per_sec"] *= 0.80
        self.assertEqual(self.run_diff(new, ["--tput-band", "0.30"]), 0)

    def test_added_and_removed_metrics_do_not_gate(self):
        new = copy.deepcopy(self.base)
        self.metrics(new)[0]["name"] = "fileserver.renamed"
        self.assertEqual(self.run_diff(new), 0)

    def test_pair_mode_gates_new_tag_rows_against_old_tag_rows(self):
        agg = copy.deepcopy(self.base)
        self.metrics(agg).extend([
            {"name": "seq_read.direct_off", "ops_per_sec": 1000.0},
            {"name": "seq_read.direct_on", "ops_per_sec": 2000.0},
        ])
        pair = ["--pair", "direct_off", "direct_on"]
        self.assertEqual(
            bench_diff.main([write_tmp(agg, self.tmp.name)] + pair), 0)
        self.metrics(agg)[-1]["ops_per_sec"] = 500.0  # on slower than off
        self.assertEqual(
            bench_diff.main([write_tmp(agg, self.tmp.name)] + pair), 1)
        # A record without any pair must not pass silently.
        self.assertEqual(bench_diff.main([self.base_path] + pair), 2)

    def test_v1_baseline_diffs_against_v2_sweep(self):
        # bench_diff compares only metrics, so CI's gate against a v1
        # baseline keeps working after the record's attribution changed.
        v1_path = write_tmp(make_v1_aggregate(), self.tmp.name)
        same = write_tmp(copy.deepcopy(self.base), self.tmp.name)
        self.assertEqual(bench_diff.main([v1_path, same]), 0)
        new = copy.deepcopy(self.base)
        self.metrics(new)[0]["ops_per_sec"] *= 0.80
        self.assertEqual(
            bench_diff.main([v1_path, write_tmp(new, self.tmp.name)]), 1)

    def test_improvement_passes(self):
        new = copy.deepcopy(self.base)
        self.metrics(new)[0]["ops_per_sec"] *= 1.5
        self.metrics(new)[1]["latency_ns"]["p99"] *= 0.5
        self.assertEqual(self.run_diff(new), 0)


class ValidateBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def test_synthetic_aggregate_conforms(self):
        path = write_tmp(make_aggregate(), self.tmp.name)
        self.assertEqual(validate_bench.main([path]), 0)

    def test_missing_layers_rejected(self):
        bad = make_aggregate()
        bad["benches"]["table2_filebench"]["layers"] = []
        path = write_tmp(bad, self.tmp.name)
        self.assertEqual(validate_bench.main([path]), 1)

    def test_v1_aggregate_rejected(self):
        # v1 layer rows carry span-mode self time the record no longer has.
        path = write_tmp(make_v1_aggregate(), self.tmp.name)
        self.assertEqual(validate_bench.main([path]), 1)

    def test_unknown_key_rejected(self):
        bad = make_aggregate()
        bad["benches"]["table2_filebench"]["metrics"][0]["bogus"] = 1
        path = write_tmp(bad, self.tmp.name)
        self.assertEqual(validate_bench.main([path]), 1)

    def test_record_mode(self):
        record = make_aggregate()["benches"]["table2_filebench"]
        path = write_tmp(record, self.tmp.name)
        self.assertEqual(validate_bench.main(["--record", path]), 0)
        self.assertEqual(validate_bench.main([path]), 1)  # not an aggregate


class ValidateProfileGateTest(unittest.TestCase):
    """The --max-no-span-share and --record gates of
    tools/validate_profile.py."""

    # Folded weights are credited CPU in nanoseconds.
    ENTRIES = [
        (["(none)", "(no_span)", "main", "RunForSeconds", "Loop"], 3000),
        (["pxfs", "pxfs.open", "main", "RunForSeconds", "Open"], 7000),
        (["(none)", "(no_span)", "main", "Setup"], 50000),  # outside FRAME
    ]

    def test_share_counts_only_stacks_within_frame(self):
        share = validate_profile.no_span_share(self.ENTRIES, "RunForSeconds")
        self.assertEqual(share, (0.3, 3000, 10000))

    def test_frame_absent_yields_none(self):
        self.assertIsNone(
            validate_profile.no_span_share(self.ENTRIES, "NoSuchFrame"))

    def test_record_gap_counts_only_span_tagged_cpu(self):
        doc = {"stacks": [
            {"layer": "pxfs", "span": "pxfs.open", "cpu_ns": 7000000},
            {"layer": "(none)", "span": "(no_span)", "cpu_ns": 50000000},
        ]}
        record = {"layers": [{"layer": "pxfs", "cpu_us": 6000.001},
                             {"layer": "tfs", "cpu_us": 0.0}]}
        self.assertEqual(validate_profile.record_cpu_gap(doc, record),
                         (6000001, 7000000))

    def test_top_cpu_may_not_exceed_stack_cpu(self):
        doc = {"schema_version": 2, "hz": 997, "samples": 2, "dropped": 0,
               "no_ring": 0,
               "stacks": [{"layer": "pxfs", "span": "pxfs.open",
                           "cpu_ns": 7000000, "frames": ["main", "Open"]}],
               "top": [{"frame": "Open", "self_cpu_us": 7000.0}]}
        schema = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "profile_schema.json")
        with tempfile.TemporaryDirectory() as tmp:
            errors = []
            validate_profile.check_json(write_tmp(doc, tmp), schema, errors)
            self.assertEqual(errors, [])
            doc["top"][0]["self_cpu_us"] = 7000.2
            validate_profile.check_json(write_tmp(doc, tmp), schema, errors)
            self.assertEqual(len(errors), 1)
            self.assertIn("top self_cpu_us", errors[0])

    def test_span_names_are_not_frames(self):
        # "pxfs.open" is the span column, not a stack frame.
        self.assertIsNone(
            validate_profile.no_span_share(self.ENTRIES, "pxfs.open"))


if __name__ == "__main__":
    unittest.main()
