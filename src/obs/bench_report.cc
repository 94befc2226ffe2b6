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
  layers_.clear();
  hot_spans_.clear();
  // Flush profiler rings first so span cpu_ns includes samples from the
  // final partial collector interval of the attribution pass.
  if (prof::IsRunning()) {
    prof::DrainNow();
  }
  const auto snaps = Registry::Instance().Collect();
  std::vector<LayerRow> layers;
  std::vector<SpanRow> spans;
  for (const MetricSnapshot& snap : snaps) {
    if (snap.kind != Metric::Kind::kSpan || snap.hist.count() == 0) {
      continue;
    }
    const std::string layer(LayerOf(snap.name));
    auto it = std::find_if(layers.begin(), layers.end(),
                           [&](const LayerRow& r) { return r.layer == layer; });
    if (it == layers.end()) {
      layers.push_back(LayerRow{});
      it = layers.end() - 1;
      it->layer = layer;
    }
    it->spans += snap.hist.count();
    it->self_ns += snap.span_self_ns;
    it->total_ns += snap.span_total_ns;
    it->cpu_ns += snap.span_cpu_ns;
    it->lock_wait_ns += snap.span_lock_wait_ns;
    it->rpc_wait_ns += snap.span_rpc_wait_ns;
    it->other_wait_ns += snap.span_other_wait_ns;
    spans.push_back(SpanRow{snap.name, snap.hist.count(), snap.span_self_ns});
  }
  std::sort(layers.begin(), layers.end(),
            [](const LayerRow& a, const LayerRow& b) {
              return a.self_ns > b.self_ns;
            });
  std::sort(spans.begin(), spans.end(),
            [](const SpanRow& a, const SpanRow& b) {
              return a.self_ns > b.self_ns;
            });
  if (spans.size() > top_spans) {
    spans.resize(top_spans);
  }
  layers_ = std::move(layers);
  hot_spans_ = std::move(spans);
}

std::string BenchReport::ToJson() const {
  std::string out = "{";
  char buf[512];
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

  out += "\"layers\":[";
  for (size_t i = 0; i < layers_.size(); ++i) {
    const LayerRow& row = layers_[i];
    if (i != 0) {
      out += ",";
    }
    // cpu/wait come from the profiling plane: cpu_us is sampled on-CPU time
    // (zero when AERIE_PROF is off), *_wait_us is instrumented off-CPU time.
    std::snprintf(buf, sizeof(buf),
                  "{\"layer\":\"%s\",\"spans\":%llu,\"self_ns\":%llu,"
                  "\"total_ns\":%llu,\"cpu_us\":%s,\"lock_wait_us\":%s,"
                  "\"rpc_wait_us\":%s,\"other_wait_us\":%s}",
                  JsonEscape(row.layer).c_str(),
                  static_cast<unsigned long long>(row.spans),
                  static_cast<unsigned long long>(row.self_ns),
                  static_cast<unsigned long long>(row.total_ns),
                  JsonNumber(static_cast<double>(row.cpu_ns) / 1e3).c_str(),
                  JsonNumber(static_cast<double>(row.lock_wait_ns) / 1e3)
                      .c_str(),
                  JsonNumber(static_cast<double>(row.rpc_wait_ns) / 1e3)
                      .c_str(),
                  JsonNumber(static_cast<double>(row.other_wait_ns) / 1e3)
                      .c_str());
    out += buf;
  }
  out += "],";

  out += "\"hot_spans\":[";
  for (size_t i = 0; i < hot_spans_.size(); ++i) {
    const SpanRow& row = hot_spans_[i];
    if (i != 0) {
      out += ",";
    }
    const double mean_self_us =
        row.count > 0
            ? static_cast<double>(row.self_ns) / 1e3 /
                  static_cast<double>(row.count)
            : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"count\":%llu,\"self_ns\":%llu,"
                  "\"mean_self_us\":%s}",
                  JsonEscape(row.name).c_str(),
                  static_cast<unsigned long long>(row.count),
                  static_cast<unsigned long long>(row.self_ns),
                  JsonNumber(mean_self_us).c_str());
    out += buf;
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
