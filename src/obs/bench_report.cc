#include "src/obs/bench_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/obs/obs.h"
#include "src/obs/profiler.h"

namespace aerie {
namespace obs {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

// %g loses precision and %f grows tails; emit the shortest round-trippable
// form and keep JSON strictly numeric (no inf/nan).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

BenchReport::BenchReport(std::string bench) : bench_(std::move(bench)) {
  const char* sha = std::getenv("AERIE_GIT_SHA");
  git_sha_ = (sha != nullptr && sha[0] != '\0') ? sha : "unknown";
}

void BenchReport::SetConfig(const std::string& key, double value) {
  ConfigEntry entry;
  entry.key = key;
  entry.is_number = true;
  entry.number = value;
  config_.push_back(std::move(entry));
}

void BenchReport::SetConfig(const std::string& key, const std::string& value) {
  ConfigEntry entry;
  entry.key = key;
  entry.is_number = false;
  entry.text = value;
  config_.push_back(std::move(entry));
}

void BenchReport::AddThroughput(const std::string& name, double ops_per_sec) {
  MetricRow row;
  row.name = name;
  row.has_rate = true;
  row.ops_per_sec = ops_per_sec;
  metrics_.push_back(std::move(row));
}

void BenchReport::AddLatency(const std::string& name, const Histogram& hist) {
  MetricRow row;
  row.name = name;
  row.has_hist = true;
  row.hist = hist;
  if (hist.count() > 0 && hist.Mean() > 0) {
    row.has_rate = true;
    row.ops_per_sec = 1e9 / hist.Mean();
  }
  metrics_.push_back(std::move(row));
}

void BenchReport::AddMetric(const std::string& name, double ops_per_sec,
                            const Histogram& hist) {
  MetricRow row;
  row.name = name;
  row.has_rate = true;
  row.ops_per_sec = ops_per_sec;
  row.has_hist = true;
  row.hist = hist;
  metrics_.push_back(std::move(row));
}

void BenchReport::AddValue(const std::string& name, double value,
                           const std::string& unit) {
  MetricRow row;
  row.name = name;
  row.has_value = true;
  row.value = value;
  row.unit = unit;
  metrics_.push_back(std::move(row));
}

void BenchReport::CaptureAttribution(size_t top_spans) {
  // Flush profiler rings first so span cpu_ns includes samples from the
  // final partial collector interval of the measured run.
  if (prof::IsRunning()) {
    prof::DrainNow();
  }
  const auto snaps = Registry::Instance().Collect();
  layers_ = LayerRows(snaps);
  std::stable_sort(layers_.begin(), layers_.end(),
            [](const LayerRow& a, const LayerRow& b) {
              return a.cpu_ns > b.cpu_ns;
            });
  hot_spans_.clear();
  for (const MetricSnapshot& snap : snaps) {
    if (snap.kind == Metric::Kind::kSpan && snap.span_cpu_ns != 0) {
      hot_spans_.push_back(SpanRow{snap.name, snap.span_cpu_ns});
    }
  }
  std::stable_sort(hot_spans_.begin(), hot_spans_.end(),
            [](const SpanRow& a, const SpanRow& b) {
              return a.cpu_ns > b.cpu_ns;
            });
  if (hot_spans_.size() > top_spans) {
    hot_spans_.resize(top_spans);
  }
}

std::string BenchReport::ToJson() const {
  std::string out = "{";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "\"schema_version\":%d,",
                kBenchReportSchemaVersion);
  out += buf;
  out += "\"bench\":\"" + JsonEscape(bench_) + "\",";
  out += "\"git_sha\":\"" + JsonEscape(git_sha_) + "\",";

  out += "\"config\":{";
  for (size_t i = 0; i < config_.size(); ++i) {
    const ConfigEntry& entry = config_[i];
    if (i != 0) {
      out += ",";
    }
    out += "\"" + JsonEscape(entry.key) + "\":";
    if (entry.is_number) {
      out += JsonNumber(entry.number);
    } else {
      out += "\"" + JsonEscape(entry.text) + "\"";
    }
  }
  out += "},";

  out += "\"metrics\":[";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const MetricRow& row = metrics_[i];
    if (i != 0) {
      out += ",";
    }
    out += "{\"name\":\"" + JsonEscape(row.name) + "\"";
    if (row.has_rate) {
      out += ",\"ops_per_sec\":" + JsonNumber(row.ops_per_sec);
    }
    if (row.has_hist) {
      out += ",\"latency_ns\":" + row.hist.ToJson();
    }
    if (row.has_value) {
      out += ",\"value\":" + JsonNumber(row.value);
      out += ",\"unit\":\"" + JsonEscape(row.unit) + "\"";
    }
    out += "}";
  }
  out += "],";

  const auto us = [](uint64_t ns) {
    return JsonNumber(static_cast<double>(ns) / 1e3);
  };
  out += "\"layers\":[";
  for (size_t i = 0; i < layers_.size(); ++i) {
    const LayerRow& row = layers_[i];
    if (i != 0) {
      out += ",";
    }
    out += "{\"layer\":\"" + JsonEscape(row.layer) + "\",\"cpu_us\":" +
           us(row.cpu_ns) + ",\"lock_wait_us\":" + us(row.lock_wait_ns) +
           ",\"rpc_wait_us\":" + us(row.rpc_wait_ns) +
           ",\"other_wait_us\":" + us(row.other_wait_ns) + "}";
  }
  out += "],";

  out += "\"hot_spans\":[";
  for (size_t i = 0; i < hot_spans_.size(); ++i) {
    const SpanRow& row = hot_spans_[i];
    if (i != 0) {
      out += ",";
    }
    out += "{\"name\":\"" + JsonEscape(row.name) + "\",\"cpu_us\":" +
           us(row.cpu_ns) + "}";
  }
  out += "]}";
  return out;
}

std::string BenchReport::WriteIfConfigured() const {
  const char* path = std::getenv("AERIE_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') {
    return std::string();
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_report: cannot write %s\n", path);
    return std::string();
  }
  const std::string json = ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return path;
}

}  // namespace obs
}  // namespace aerie
