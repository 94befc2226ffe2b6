// Machine-readable benchmark records: the per-binary half of the benchmark
// trajectory harness (the other half is tools/run_benches.sh +
// tools/aggregate_bench.py, which merge one record per bench binary into the
// repo-root BENCH_<date>.json that is checked in per PR and diffed in CI).
//
// Every binary in bench/ builds one BenchReport and fills it with
//   * config   — scale/seconds/threads/seed plus bench-specific knobs,
//   * metrics  — named rows carrying ops/s and/or a latency distribution
//     (p50/p95/p99 straight from aerie::Histogram) or a plain scalar,
//   * attribution — per-layer sampled CPU and off-CPU waits, and the
//     spans ranked by sampled CPU, snapshotted from the obs registry at the
//     end of the measured run itself. The CPU comes from the SIGPROF
//     sampler (AERIE_PROF, src/obs/profiler.h), the waits from the
//     instrumented wait sites (obs::ScopedWait); both charge the thread's
//     layer tag, which counters mode keeps, so no separate pass is needed.
//
// The record is written to $AERIE_BENCH_JSON when that variable is set (the
// driver points each binary at build/bench_reports/<name>.json); the
// schema is pinned by kBenchReportSchemaVersion and checked by
// tools/validate_bench.py against tools/bench_schema.json.
#ifndef AERIE_SRC_OBS_BENCH_REPORT_H_
#define AERIE_SRC_OBS_BENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/obs/obs.h"

namespace aerie {
namespace obs {

// Bump when the JSON layout changes shape (adding optional fields is not a
// bump; renaming/removing/retyping is). tools/bench_schema.json and
// tools/bench_diff.py track this constant.
inline constexpr int kBenchReportSchemaVersion = 2;

class BenchReport {
 public:
  explicit BenchReport(std::string bench);

  // Config key/values (numbers keep full precision; strings are escaped).
  void SetConfig(const std::string& key, double value);
  void SetConfig(const std::string& key, const std::string& value);

  // A throughput-only metric (iterations/s, ops/s).
  void AddThroughput(const std::string& name, double ops_per_sec);

  // A latency metric. ops_per_sec is derived from the histogram mean
  // (1e9 / mean_ns) so every latency metric also gates as a throughput;
  // pass ops_per_sec explicitly via AddMetric when the bench measured it.
  void AddLatency(const std::string& name, const Histogram& hist);

  // A metric with both an externally measured rate and a distribution.
  void AddMetric(const std::string& name, double ops_per_sec,
                 const Histogram& hist);

  // A plain scalar in an explicit unit (e.g. "us", "ns/op", "percent").
  void AddValue(const std::string& name, double value,
                const std::string& unit);

  // Snapshots per-layer sampled CPU and off-CPU waits, and the `top_spans`
  // spans with the most sampled CPU, from the obs registry. Call once the
  // measured run is done; the snapshot replaces any previous capture.
  void CaptureAttribution(size_t top_spans = 12);

  // Serializes the whole record as one JSON object.
  std::string ToJson() const;

  // Writes ToJson() to $AERIE_BENCH_JSON if set; returns the path written,
  // or the empty string when the variable is unset or the write failed.
  std::string WriteIfConfigured() const;

 private:
  struct ConfigEntry {
    std::string key;
    bool is_number = true;
    double number = 0;
    std::string text;
  };
  struct MetricRow {
    std::string name;
    bool has_rate = false;
    double ops_per_sec = 0;
    bool has_hist = false;
    Histogram hist;
    bool has_value = false;
    double value = 0;
    std::string unit;
  };
  struct SpanRow {
    std::string name;
    uint64_t cpu_ns = 0;
  };

  std::string bench_;
  std::string git_sha_;  // from $AERIE_GIT_SHA (driver-set), else "unknown"
  std::vector<ConfigEntry> config_;
  std::vector<MetricRow> metrics_;
  std::vector<LayerRow> layers_;
  std::vector<SpanRow> hot_spans_;
};

}  // namespace obs
}  // namespace aerie

#endif  // AERIE_SRC_OBS_BENCH_REPORT_H_
