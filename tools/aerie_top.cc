// aerie_top: live cross-process telemetry viewer.
//
// Discovers the per-process shared-memory telemetry segments
// (`aerie.obs.<pid>`, see src/obs/telemetry.h) under /dev/shm (or
// --dir/$AERIE_OBS_SHM_DIR), merges same-named metrics across processes,
// and renders a refreshing table: per-layer rolling-window tail latencies
// (p50/p95/p99 over roughly the last AERIE_OBS_WINDOW_SECS seconds),
// per-RPC-method interval rates, and the per-layer SCM write-amplification
// breakdown. `--json` takes two samples and emits one machine-readable
// document instead (validated by tools/validate_telemetry.py in CI).
//
// Interval rates are counter deltas between consecutive samples divided by
// the wall-clock elapsed; a registry reset mid-run (bench epochs call
// obs::ResetAll) makes a delta negative, which is clamped to zero rather
// than rendered as a huge unsigned rate.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/histogram.h"
#include "src/libfs/client.h"
#include "src/obs/obs.h"
#include "src/obs/telemetry.h"

namespace aerie {
namespace {

using obs::TelemetryMetric;
using obs::TelemetrySnapshot;

struct Options {
  std::string dir = obs::TelemetryDir();
  uint64_t interval_ms = 1000;
  uint64_t iterations = 0;  // 0: run until killed
  bool json = false;
  bool gc = true;
  bool clear = true;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--dir D] [--interval MS] [--iterations N] [--json]\n"
      "          [--no-gc] [--no-clear]\n"
      "  --dir D         segment directory (default $AERIE_OBS_SHM_DIR or "
      "/dev/shm)\n"
      "  --interval MS   refresh / sampling interval (default 1000)\n"
      "  --iterations N  refresh N times then exit (default: forever)\n"
      "  --json          one-shot: two samples, one JSON document on stdout\n"
      "  --no-gc         do not unlink segments of dead processes\n"
      "  --no-clear      do not clear the screen between refreshes\n",
      argv0);
}

std::string PrettyCount(double v) {
  char buf[32];
  if (v >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  }
  return buf;
}

std::string PrettyNanos(uint64_t ns) {
  char buf[32];
  if (ns >= 1000000000ull) {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(ns) / 1e9);
  } else if (ns >= 1000000ull) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  } else if (ns >= 1000ull) {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "ns", ns);
  }
  return buf;
}

std::string PrettyBytes(uint64_t b) {
  char buf[32];
  const double v = static_cast<double>(b);
  if (b >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2fGiB", v / (1ull << 30));
  } else if (b >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2fMiB", v / (1ull << 20));
  } else if (b >= (1ull << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB", v / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "B", b);
  }
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// One sample: the merged cross-process view plus what it was computed from.
struct Sample {
  uint64_t mono_ns = 0;
  std::vector<TelemetrySnapshot> processes;
  std::vector<TelemetryMetric> merged;
  std::map<std::string, uint64_t> counters;  // every counter, by name
};

Sample TakeSample(const Options& opt) {
  Sample s;
  s.mono_ns = NowNanos();
  s.processes = obs::ReadTelemetryDir(opt.dir, opt.gc);
  s.merged = obs::MergeTelemetry(s.processes);
  for (const TelemetryMetric& m : s.merged) {
    if (m.kind == obs::Metric::Kind::kCounter) {
      s.counters[m.name] = m.counter;
    }
  }
  return s;
}

// Counter delta per second between two samples, clamped at zero (registry
// resets move counters backwards).
double RatePerSec(const Sample& prev, const Sample& cur,
                  const std::string& name) {
  const double secs =
      static_cast<double>(cur.mono_ns - prev.mono_ns) / 1e9;
  if (secs <= 0) {
    return 0;
  }
  const auto pit = prev.counters.find(name);
  const auto cit = cur.counters.find(name);
  const uint64_t p = pit != prev.counters.end() ? pit->second : 0;
  const uint64_t c = cit != cur.counters.end() ? cit->second : 0;
  return c >= p ? static_cast<double>(c - p) / secs : 0.0;
}

// Per-layer aggregation of span metrics: exact call/inclusive-time sums,
// the merged rolling-window latency histogram and the profiler plane's
// sampled-CPU / attributed-wait sums.
struct LayerRow {
  uint64_t spans = 0;
  uint64_t total_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t lock_wait_ns = 0;
  uint64_t rpc_wait_ns = 0;
  uint64_t other_wait_ns = 0;
  Histogram window;
};

std::map<std::string, LayerRow> LayerRows(const Sample& s) {
  std::map<std::string, LayerRow> rows;
  for (const TelemetryMetric& m : s.merged) {
    if (m.kind != obs::Metric::Kind::kSpan) {
      continue;
    }
    LayerRow& row = rows[std::string(obs::LayerOf(m.name))];
    row.spans += m.cumulative.count();
    row.total_ns += m.cumulative.sum();
    row.cpu_ns += m.span_cpu_ns;
    row.lock_wait_ns += m.span_lock_wait_ns;
    row.rpc_wait_ns += m.span_rpc_wait_ns;
    row.other_wait_ns += m.span_other_wait_ns;
    row.window.Merge(m.window);
  }
  return rows;
}

// Share of a layer's own time (sampled CPU + lock, rpc and other waits)
// spent blocked.
double WaitPct(const LayerRow& row) {
  const uint64_t wait =
      row.lock_wait_ns + row.rpc_wait_ns + row.other_wait_ns;
  const uint64_t own = row.cpu_ns + wait;
  return own != 0 ? 100.0 * static_cast<double>(wait) /
                        static_cast<double>(own)
                  : 0.0;
}

// Lock-plane view: the live waiter gauge plus the contention latency
// histograms the lock layer publishes (values are recorded in
// MICROSECONDS; multiply by 1e3 before feeding the ns pretty-printer).
struct LockView {
  int64_t waiters = 0;
  bool any = false;
  Histogram wait_latency;    // lock.wait.latency_us (cumulative)
  Histogram revoke_latency;  // lock.revoke.latency_us (cumulative)
  Histogram revoke_queue;    // clerk.revoke.queue_us (cumulative)
};

LockView LockRows(const Sample& s) {
  LockView view;
  for (const TelemetryMetric& m : s.merged) {
    if (m.kind == obs::Metric::Kind::kGauge && m.name == "lock.waiters") {
      view.waiters = m.gauge;
      view.any = true;
    } else if (m.name == "lock.wait.latency_us") {
      view.wait_latency.Merge(m.cumulative);
      view.any = true;
    } else if (m.name == "lock.revoke.latency_us") {
      view.revoke_latency.Merge(m.cumulative);
      view.any = true;
    } else if (m.name == "clerk.revoke.queue_us") {
      view.revoke_queue.Merge(m.cumulative);
      view.any = true;
    }
  }
  return view;
}

// Total shm-export drops across live segments. Nonzero means the telemetry
// in view is INCOMPLETE (entry or bucket capacity exhausted) and capacities
// in src/obs/telemetry.h need raising — surfaced as a warning header and a
// machine-readable JSON field so dashboards can alarm on it.
struct DroppedTotals {
  uint64_t entries = 0;
  uint64_t hists = 0;
  bool warning() const { return entries != 0 || hists != 0; }
};

DroppedTotals SumDropped(const Sample& s) {
  DroppedTotals t;
  for (const TelemetrySnapshot& p : s.processes) {
    t.entries += p.dropped_entries;
    t.hists += p.dropped_hists;
  }
  return t;
}

// Per-RPC-method rows keyed by method name ("tfs.apply_batch"): the
// rpc.<method>.calls/bytes counters plus the rpc.<method> span window.
struct RpcRow {
  uint64_t calls = 0;
  uint64_t bytes_out = 0;
  uint64_t bytes_in = 0;
  Histogram window;
};

std::map<std::string, RpcRow> RpcRows(const Sample& s) {
  std::map<std::string, RpcRow> rows;
  for (const TelemetryMetric& m : s.merged) {
    if (m.name.rfind("rpc.", 0) != 0) {
      continue;
    }
    const std::string rest = m.name.substr(4);
    if (m.kind == obs::Metric::Kind::kSpan) {
      rows[rest].window.Merge(m.window);
      continue;
    }
    const size_t dot = rest.rfind('.');
    if (dot == std::string::npos) {
      continue;
    }
    const std::string method = rest.substr(0, dot);
    const std::string field = rest.substr(dot + 1);
    if (field == "calls") {
      rows[method].calls = m.counter;
    } else if (field == "bytes_out") {
      rows[method].bytes_out = m.counter;
    } else if (field == "bytes_in") {
      rows[method].bytes_in = m.counter;
    }
  }
  return rows;
}

std::vector<std::pair<std::string, uint64_t>> CounterPairs(const Sample& s) {
  return {s.counters.begin(), s.counters.end()};
}

void RenderText(const Options& opt, const Sample& prev, const Sample& cur) {
  if (opt.clear && ::isatty(STDOUT_FILENO)) {
    std::fputs("\x1b[H\x1b[2J", stdout);
  }
  const double interval_s =
      static_cast<double>(cur.mono_ns - prev.mono_ns) / 1e9;
  std::printf("aerie_top — %zu process(es) in %s, interval %.1fs\n",
              cur.processes.size(), opt.dir.c_str(), interval_s);
  const DroppedTotals dropped = SumDropped(cur);
  if (dropped.warning()) {
    std::printf("WARNING: telemetry INCOMPLETE — %" PRIu64
                " dropped entr%s, %" PRIu64
                " dropped histogram%s (segment capacity exhausted; raise "
                "kTelemetryEntryCapacity/kTelemetryHistCapacity)\n",
                dropped.entries, dropped.entries == 1 ? "y" : "ies",
                dropped.hists, dropped.hists == 1 ? "" : "s");
  }
  std::printf("\n");

  std::printf("%7s  %-16s  %-8s  %9s  %8s  %7s  %7s\n", "PID", "PROCESS",
              "MODE", "PUBLISHES", "METRICS", "DROPPED", "DROPH");
  for (const TelemetrySnapshot& p : cur.processes) {
    const char* mode = p.mode == obs::Mode::kOff
                           ? "off"
                           : (p.mode == obs::Mode::kCounters ? "counters"
                                                             : "spans");
    std::printf("%7" PRIu64 "  %-16.16s  %-8s  %9" PRIu64 "  %8zu  %7" PRIu64
                "  %7" PRIu64 "\n",
                p.pid, p.process_name.c_str(), mode, p.publish_count,
                p.metrics.size(), p.dropped_entries, p.dropped_hists);
  }

  const auto layers = LayerRows(cur);
  if (!layers.empty()) {
    std::printf("\n%-12s  %10s  %10s  %8s  %6s  %8s  %8s  %8s\n",
                "LAYER", "SPANS", "SPANS/S", "CPU", "WAIT%", "win p50",
                "win p95", "win p99");
    const auto prev_layers = LayerRows(prev);
    const double secs = interval_s > 0 ? interval_s : 1;
    for (const auto& [name, row] : layers) {
      double rate = 0;
      const auto pit = prev_layers.find(name);
      if (pit != prev_layers.end() && row.spans >= pit->second.spans) {
        rate = static_cast<double>(row.spans - pit->second.spans) / secs;
      }
      std::printf("%-12.12s  %10s  %10s  %8s  %5.1f%%  %8s  %8s  %8s\n",
                  name.c_str(),
                  PrettyCount(static_cast<double>(row.spans)).c_str(),
                  PrettyCount(rate).c_str(), PrettyNanos(row.cpu_ns).c_str(),
                  WaitPct(row),
                  PrettyNanos(row.window.Percentile(50)).c_str(),
                  PrettyNanos(row.window.Percentile(95)).c_str(),
                  PrettyNanos(row.window.Percentile(99)).c_str());
    }
  }

  const LockView locks = LockRows(cur);
  if (locks.any) {
    std::printf("\nlocks: %" PRId64 " waiter(s) now\n", locks.waiters);
    std::printf("%-24s  %10s  %8s  %8s  %8s\n", "LOCK HISTOGRAM", "COUNT",
                "p50", "p95", "p99");
    const struct {
      const char* name;
      const Histogram* hist;
    } lock_hists[] = {
        {"lock.wait.latency_us", &locks.wait_latency},
        {"lock.revoke.latency_us", &locks.revoke_latency},
        {"clerk.revoke.queue_us", &locks.revoke_queue},
    };
    for (const auto& h : lock_hists) {
      // Recorded values are microseconds; scale to ns for the pretty units.
      std::printf("%-24s  %10s  %8s  %8s  %8s\n", h.name,
                  PrettyCount(static_cast<double>(h.hist->count())).c_str(),
                  PrettyNanos(h.hist->Percentile(50) * 1000).c_str(),
                  PrettyNanos(h.hist->Percentile(95) * 1000).c_str(),
                  PrettyNanos(h.hist->Percentile(99) * 1000).c_str());
    }
  }

  const auto rpcs = RpcRows(cur);
  if (!rpcs.empty()) {
    std::printf("\n%-24s  %10s  %10s  %10s  %8s  %8s  %8s\n", "RPC METHOD",
                "CALLS", "CALLS/S", "OUT", "win p50", "win p95", "win p99");
    for (const auto& [method, row] : rpcs) {
      const double rate = RatePerSec(prev, cur, "rpc." + method + ".calls");
      std::printf("%-24.24s  %10s  %10s  %10s  %8s  %8s  %8s\n",
                  method.c_str(),
                  PrettyCount(static_cast<double>(row.calls)).c_str(),
                  PrettyCount(rate).c_str(),
                  PrettyBytes(row.bytes_out).c_str(),
                  PrettyNanos(row.window.Percentile(50)).c_str(),
                  PrettyNanos(row.window.Percentile(95)).c_str(),
                  PrettyNanos(row.window.Percentile(99)).c_str());
    }
  }

  auto counter = [&cur](const char* name) -> uint64_t {
    auto it = cur.counters.find(name);
    return it == cur.counters.end() ? 0 : it->second;
  };
  auto gauge = [&cur](const char* name) -> int64_t {
    for (const TelemetryMetric& m : cur.merged) {
      if (m.kind == obs::Metric::Kind::kGauge && m.name == name) {
        return m.gauge;
      }
    }
    return 0;
  };
  // Zero-RPC direct data path (DESIGN.md §10): bytes served straight from
  // mapped SCM under the clerk's direct-access epoch, plus how often a
  // stale epoch or in-flight revoke pushed an op back onto the locked path,
  // and the extent-map cache: maps held, slots charged (summed over
  // clients, each bounded by its own budget), and cold maps evicted.
  {
    const uint64_t read_bytes = counter("libfs.direct.read_bytes");
    const uint64_t write_bytes = counter("libfs.direct.write_bytes");
    const uint64_t grants = counter("clerk.direct.grant");
    const int64_t cache_maps = gauge("libfs.direct.cache_maps");
    if (read_bytes != 0 || write_bytes != 0 || grants != 0 ||
        cache_maps != 0) {
      std::printf(
          "\ndirect path: read %s (%s/s), write %s (%s/s), grants %s, "
          "fallbacks %s (clerk %s), map cache %s maps, %s slots (budget %s "
          "per client), evictions %s/s\n",
          PrettyBytes(read_bytes).c_str(),
          PrettyBytes(static_cast<uint64_t>(
                          RatePerSec(prev, cur, "libfs.direct.read_bytes")))
              .c_str(),
          PrettyBytes(write_bytes).c_str(),
          PrettyBytes(static_cast<uint64_t>(
                          RatePerSec(prev, cur, "libfs.direct.write_bytes")))
              .c_str(),
          PrettyCount(static_cast<double>(grants)).c_str(),
          PrettyCount(static_cast<double>(counter("libfs.direct.fallback")))
              .c_str(),
          PrettyCount(static_cast<double>(counter("clerk.direct.fallback")))
              .c_str(),
          PrettyCount(static_cast<double>(cache_maps)).c_str(),
          PrettyCount(static_cast<double>(gauge("libfs.direct.cache_slots")))
              .c_str(),
          PrettyCount(static_cast<double>(LibFs::kDirectCacheSlots)).c_str(),
          PrettyCount(RatePerSec(prev, cur, "libfs.direct.cache_evictions"))
              .c_str());
    }
  }

  // libFS foreground stalls (DESIGN.md §6 items 5-6): batches the caller
  // shipped itself under backpressure, and takes that found their pool
  // empty. Both stay near zero while the flusher keeps up. Beside them, the
  // objects the TFS holds in client pools (tfs.pool.objects): a client that
  // died holding pools keeps this up until its objects are reclaimed.
  const int64_t pooled = gauge("tfs.pool.objects");
  if (counter("libfs.batch.shipped") != 0 || counter("libfs.pool.take") != 0 ||
      pooled != 0) {
    std::printf(
        "\nlibfs stalls: inline ships %s (%s/s) of %s batches, "
        "pool refill stalls %s (%s/s) of %s refills, pooled objects %s\n",
        PrettyCount(static_cast<double>(counter("libfs.batch.inline_ship")))
            .c_str(),
        PrettyCount(RatePerSec(prev, cur, "libfs.batch.inline_ship")).c_str(),
        PrettyCount(static_cast<double>(counter("libfs.batch.shipped")))
            .c_str(),
        PrettyCount(static_cast<double>(counter("libfs.pool.refill_stall")))
            .c_str(),
        PrettyCount(RatePerSec(prev, cur, "libfs.pool.refill_stall")).c_str(),
        PrettyCount(static_cast<double>(counter("libfs.pool.refill")))
            .c_str(),
        PrettyCount(static_cast<double>(pooled)).c_str());
  }

  // TFS applies per op type (tfs.ops.applied.<type>) and the pages each
  // extent-run attach covers (DESIGN.md §6 item 7).
  {
    const std::string prefix = "tfs.ops.applied.";
    std::string types;
    for (const auto& [name, value] : cur.counters) {
      if (value != 0 && name.compare(0, prefix.size(), prefix) == 0) {
        types += " " + name.substr(prefix.size()) + " " +
                 PrettyCount(static_cast<double>(value));
      }
    }
    if (!types.empty()) {
      const uint64_t attaches = counter("tfs.ops.applied.attach_extent");
      std::printf("\ntfs ops:%s; pages per attach %.1f\n", types.c_str(),
                  attaches == 0 ? 0.0
                                : static_cast<double>(
                                      counter("tfs.attach.pages")) /
                                      static_cast<double>(attaches));
    }
  }

  const obs::WriteAmpReport amp = obs::ComputeWriteAmp(CounterPairs(cur));
  if (amp.physical_bytes != 0 || amp.logical_bytes != 0) {
    std::printf("\nwrite amplification: logical %s, physical %s",
                PrettyBytes(amp.logical_bytes).c_str(),
                PrettyBytes(amp.physical_bytes).c_str());
    if (amp.logical_bytes != 0) {
      std::printf(", amp %.2fx", amp.amplification);
    }
    std::printf("\n%-14s  %12s  %12s  %10s  %8s\n", "SCM LAYER", "PHYSICAL",
                "STREAMED", "FENCES", "AMP");
    for (const obs::WriteAmpRow& row : amp.layers) {
      std::printf("%-14.14s  %12s  %12s  %10s  ", row.layer.c_str(),
                  PrettyBytes(row.physical_bytes).c_str(),
                  PrettyBytes(row.streamed_bytes).c_str(),
                  PrettyCount(static_cast<double>(row.fences)).c_str());
      if (amp.logical_bytes != 0) {
        std::printf("%7.2fx\n", row.amplification);
      } else {
        std::printf("%8s\n", "-");
      }
    }
  }
  std::fflush(stdout);
}

void AppendHistJson(std::string* out, const Histogram& h) {
  *out += h.ToJson();
}

std::string RenderJson(const Options& opt, const Sample& prev,
                       const Sample& cur) {
  char buf[320];
  // schema_version 2 added per-process dropped_hists, the top-level
  // dropped/locks objects, and per-layer cpu/wait attribution; 3 drops the
  // per-layer self time (tools/telemetry_schema.json pins the shape).
  std::string out = "{\n  \"schema_version\": 3,\n";
  std::snprintf(buf, sizeof(buf), "  \"interval_ms\": %" PRIu64 ",\n",
                static_cast<uint64_t>(cur.mono_ns - prev.mono_ns) /
                    uint64_t{1000000});
  out += buf;
  out += "  \"dir\": \"" + JsonEscape(opt.dir) + "\",\n";
  const DroppedTotals dropped = SumDropped(cur);
  std::snprintf(buf, sizeof(buf),
                "  \"dropped\": {\"entries\": %" PRIu64 ", \"hists\": %" PRIu64
                ", \"warning\": %s},\n",
                dropped.entries, dropped.hists,
                dropped.warning() ? "true" : "false");
  out += buf;

  out += "  \"processes\": [";
  bool first = true;
  for (const TelemetrySnapshot& p : cur.processes) {
    out += first ? "\n" : ",\n";
    first = false;
    const char* mode = p.mode == obs::Mode::kOff
                           ? "off"
                           : (p.mode == obs::Mode::kCounters ? "counters"
                                                             : "spans");
    std::snprintf(buf, sizeof(buf),
                  "    {\"pid\": %" PRIu64 ", \"name\": \"%s\", \"mode\": "
                  "\"%s\", \"publish_count\": %" PRIu64
                  ", \"metrics\": %zu, \"dropped_entries\": %" PRIu64
                  ", \"dropped_hists\": %" PRIu64 "}",
                  p.pid, JsonEscape(p.process_name).c_str(), mode,
                  p.publish_count, p.metrics.size(), p.dropped_entries,
                  p.dropped_hists);
    out += buf;
  }
  out += "\n  ],\n";

  out += "  \"layers\": {";
  first = true;
  const auto prev_layers = LayerRows(prev);
  const double secs =
      std::max(1e-9, static_cast<double>(cur.mono_ns - prev.mono_ns) / 1e9);
  for (const auto& [name, row] : LayerRows(cur)) {
    out += first ? "\n" : ",\n";
    first = false;
    double rate = 0;
    const auto pit = prev_layers.find(name);
    if (pit != prev_layers.end() && row.spans >= pit->second.spans) {
      rate = static_cast<double>(row.spans - pit->second.spans) / secs;
    }
    std::snprintf(buf, sizeof(buf),
                  "    \"%s\": {\"spans\": %" PRIu64 ", \"spans_per_sec\": "
                  "%.1f, \"total_ns\": %" PRIu64
                  ", \"cpu_ns\": %" PRIu64 ", \"lock_wait_ns\": %" PRIu64
                  ", \"rpc_wait_ns\": %" PRIu64 ", \"other_wait_ns\": %" PRIu64
                  ", \"wait_pct\": %.1f, \"window\": ",
                  JsonEscape(name).c_str(), row.spans, rate, row.total_ns,
                  row.cpu_ns, row.lock_wait_ns, row.rpc_wait_ns,
                  row.other_wait_ns, WaitPct(row));
    out += buf;
    AppendHistJson(&out, row.window);
    out += "}";
  }
  out += "\n  },\n";

  out += "  \"rpc\": {";
  first = true;
  for (const auto& [method, row] : RpcRows(cur)) {
    out += first ? "\n" : ",\n";
    first = false;
    const double rate = RatePerSec(prev, cur, "rpc." + method + ".calls");
    std::snprintf(buf, sizeof(buf),
                  "    \"%s\": {\"calls\": %" PRIu64 ", \"calls_per_sec\": "
                  "%.1f, \"bytes_out\": %" PRIu64 ", \"bytes_in\": %" PRIu64
                  ", \"window\": ",
                  JsonEscape(method).c_str(), row.calls, rate, row.bytes_out,
                  row.bytes_in);
    out += buf;
    AppendHistJson(&out, row.window);
    out += "}";
  }
  out += "\n  },\n";

  const LockView locks = LockRows(cur);
  std::snprintf(buf, sizeof(buf),
                "  \"locks\": {\"waiters\": %" PRId64
                ", \"wait_latency_us\": ",
                locks.waiters);
  out += buf;
  AppendHistJson(&out, locks.wait_latency);
  out += ", \"revoke_latency_us\": ";
  AppendHistJson(&out, locks.revoke_latency);
  out += ", \"revoke_queue_us\": ";
  AppendHistJson(&out, locks.revoke_queue);
  out += "},\n";

  const obs::WriteAmpReport amp = obs::ComputeWriteAmp(CounterPairs(cur));
  std::snprintf(buf, sizeof(buf),
                "  \"write_amp\": {\"logical_bytes\": %" PRIu64
                ", \"physical_bytes\": %" PRIu64
                ", \"amplification\": %.3f, \"layers\": {",
                amp.logical_bytes, amp.physical_bytes, amp.amplification);
  out += buf;
  first = true;
  for (const obs::WriteAmpRow& row : amp.layers) {
    out += first ? "\n" : ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "    \"%s\": {\"physical_bytes\": %" PRIu64
                  ", \"streamed_bytes\": %" PRIu64 ", \"fences\": %" PRIu64
                  ", \"amplification\": %.3f}",
                  JsonEscape(row.layer).c_str(), row.physical_bytes,
                  row.streamed_bytes, row.fences, row.amplification);
    out += buf;
  }
  out += first ? "}}\n" : "\n  }}\n";
  out += "}\n";
  return out;
}

int Run(const Options& opt) {
  Sample prev = TakeSample(opt);
  if (opt.json) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.interval_ms));
    const Sample cur = TakeSample(opt);
    std::fputs(RenderJson(opt, prev, cur).c_str(), stdout);
    return 0;
  }
  uint64_t done = 0;
  while (opt.iterations == 0 || done < opt.iterations) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.interval_ms));
    const Sample cur = TakeSample(opt);
    RenderText(opt, prev, cur);
    prev = cur;
    ++done;
  }
  return 0;
}

}  // namespace
}  // namespace aerie

int main(int argc, char** argv) {
  aerie::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        aerie::Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--dir") {
      opt.dir = next();
    } else if (arg == "--interval") {
      opt.interval_ms = std::strtoull(next(), nullptr, 10);
      opt.interval_ms = std::max<uint64_t>(opt.interval_ms, 10);
    } else if (arg == "--iterations") {
      opt.iterations = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--json") {
      opt.json = true;
      if (opt.interval_ms == 1000) {
        opt.interval_ms = 500;  // one-shot default: quicker rate sample
      }
    } else if (arg == "--no-gc") {
      opt.gc = false;
    } else if (arg == "--no-clear") {
      opt.clear = false;
    } else if (arg == "--help" || arg == "-h") {
      aerie::Usage(argv[0]);
      return 0;
    } else {
      aerie::Usage(argv[0]);
      return 2;
    }
  }
  return aerie::Run(opt);
}
