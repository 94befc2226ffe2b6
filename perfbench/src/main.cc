// aerie_perfbench: one run of one workload of the repository benchmark.
//
//   aerie_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--size full|tiny] [--inject-bad-read-length]
//
// A run sets the stack up three times (format, connect, build the fileset)
// and reports the median as setup_s, keeping the last stack. Its clients
// then run closed loops: a short untimed warm-up, then S measured seconds,
// then every client syncs and the generator re-checks its whole model
// through the API.
//
// --trace 0 measures with the obs registry off and records every call's
// latency. --trace 1 alternates untraced and traced slices (obs counters plus
// the RPC recorder); the traced slices give the per-layer metrics and the
// throughput ratio between the two kinds of slice gives trace_overhead.
//
// The last stdout line is one JSON record: correctness counts, the
// end-to-end metrics that apply to the workload, the per-layer metrics of a
// traced run, and how the run was configured. Exit status 2 means the run
// could not set up or verify at all.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/rpc_recorder.h"
#include "perfbench/src/stack.h"
#include "perfbench/src/workloads.h"
#include "src/common/clock.h"
#include "src/obs/obs.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// The seed's modelled loopback RPC round trip (SystemUnderTest default).
constexpr uint64_t kRpcRoundTripNs = 10000;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// Untraced and traced slices of a --trace 1 run alternate this many times.
constexpr int kTraceSlices = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  bool inject_bad_read_length = false;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-bad-read-length") {
      args->inject_bad_read_length = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        *error = "--size must be full or tiny";
        return false;
      }
      args->tiny = value == "tiny";
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (args->workload.empty() || args->seconds <= 0 ||
      (args->trace != 0 && args->trace != 1)) {
    *error = "need --workload, --seconds > 0 and --trace 0|1";
    return false;
  }
  return true;
}

// --- JSON output ---------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) {
      out += ",";
    }
    out += Quote(m.name) + ":{\"value\":" + Number(m.value) +
           ",\"unit\":" + Quote(m.unit) + "}";
  }
  return out + "}";
}

// --- Measurement helpers ---------------------------------------------------

using Clients = std::vector<std::unique_ptr<WorkloadClient>>;

struct Progress {
  uint64_t calls = 0;
  uint64_t read = 0;
  uint64_t written = 0;
  uint64_t ns = 0;

  Progress operator-(const Progress& o) const {
    return {calls - o.calls, read - o.read, written - o.written, ns - o.ns};
  }
  Progress& operator+=(const Progress& o) {
    calls += o.calls;
    read += o.read;
    written += o.written;
    ns += o.ns;
    return *this;
  }
};

Progress Snapshot(const Clients& clients) {
  Progress p;
  for (const auto& c : clients) {
    p.calls += c->log()->completed();
    p.read += c->log()->read_bytes();
    p.written += c->log()->write_bytes();
  }
  p.ns = aerie::NowNanos();
  return p;
}

void SetModes(const Clients& clients, OpLog::Mode mode) {
  for (const auto& c : clients) {
    c->log()->set_mode(mode);
  }
}

void Sleep(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Every counter the per-layer metrics use, by name: obs registry counters
// under their own names, accessor values under "acc.", RPC recorder totals
// under "rec.".
using Counters = std::map<std::string, uint64_t>;

Counters Capture(BenchStack* stack, const RpcRecorder& recorder) {
  Counters c;
  for (const auto& m : aerie::obs::Registry::Instance().Collect()) {
    if (m.kind == aerie::obs::Metric::Kind::kCounter) {
      c[m.name] = m.counter;
    }
  }
  for (size_t i = 0; i < stack->client_count(); ++i) {
    BenchClient* client = stack->client(i);
    aerie::LibFs* fs = client->fs();
    aerie::LockClerk* clerk = fs->clerk();
    c["acc.clerk.global"] += clerk->global_acquires();
    c["acc.clerk.local"] += clerk->local_grants();
    c["acc.clerk.revokes"] += clerk->revokes_handled();
    c["acc.clerk.deescalations"] += clerk->deescalations();
    c["acc.clerk.direct_fallbacks"] += clerk->direct_fallbacks();
    c["acc.libfs.batches"] += fs->batches_shipped();
    c["acc.libfs.ship_failed"] += fs->batches_ship_failed();
    c["acc.libfs.ops"] += fs->ops_logged();
    c["acc.libfs.direct_read_bytes"] += fs->direct_read_bytes();
    c["acc.libfs.direct_fallbacks"] += fs->direct_fallbacks();
    if (client->pxfs() != nullptr) {
      c["acc.pxfs.name_hits"] += client->pxfs()->name_cache_hits();
      c["acc.pxfs.name_misses"] += client->pxfs()->name_cache_misses();
    }
  }
  aerie::AerieSystem* system = stack->system();
  c["acc.tfs.ops_applied"] = system->tfs()->ops_applied();
  c["acc.tfs.ops_rejected"] = system->tfs()->ops_rejected();
  aerie::ScmStats& scm = system->scm_region()->stats();
  c["acc.scm.lines"] = scm.lines_flushed.value();
  c["acc.scm.fences"] = scm.fences.value();
  c["acc.scm.stream_bytes"] = scm.bytes_streamed.value();
  for (size_t i = 0; i < kRpcMethods.size(); ++i) {
    const RpcRecorder::Totals t = recorder.totals(i);
    const std::string prefix = std::string("rec.") + kRpcMethods[i].name;
    c[prefix + ".calls"] = t.calls;
    c[prefix + ".ns"] = t.ns;
    c[prefix + ".bytes"] = t.bytes;
  }
  c["rec.foreground_ns"] = recorder.foreground_ns();
  return c;
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters d;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    d[name] = value - (it == before.end() ? 0 : it->second);
  }
  return d;
}

std::vector<Metric> PerLayer(const WorkloadSpec& spec, const Counters& d,
                             const Progress& traced, const Progress& untraced,
                             int clients) {
  auto v = [&d](const std::string& name) -> double {
    auto it = d.find(name);
    return it == d.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double kops = static_cast<double>(traced.calls) / 1000.0;
  const double meta_ops = v("acc.tfs.ops_applied");
  const double rtt_us = kRpcRoundTripNs / 1000.0;
  std::vector<Metric> m;
  auto add = [&m](std::string name, double value, std::string unit) {
    m.push_back({std::move(name), value, std::move(unit)});
  };

  if (spec.mix == Mix::kFlatWebproxy) {
    add("flatfs.direct_get_ratio",
        Ratio(v("acc.libfs.direct_read_bytes"), traced.read), "ratio");
  } else {
    add("pxfs.name_cache.hit_ratio",
        Ratio(v("acc.pxfs.name_hits"),
              v("acc.pxfs.name_hits") + v("acc.pxfs.name_misses")),
        "ratio");
  }

  add("libfs.direct_read_ratio",
      Ratio(v("acc.libfs.direct_read_bytes"), traced.read), "ratio");
  add("libfs.direct_fallbacks_per_kop",
      Ratio(v("acc.libfs.direct_fallbacks"), kops), "1/kop");
  add("libfs.meta_ops_per_kop", Ratio(v("acc.libfs.ops"), kops), "1/kop");
  add("libfs.ops_per_batch",
      Ratio(v("acc.libfs.ops"), v("acc.libfs.batches")), "1/batch");
  add("libfs.pool_fills_per_kop", Ratio(v("libfs.pool.refill"), kops),
      "1/kop");
  add("libfs.ship_failed", v("acc.libfs.ship_failed"), "count");

  for (const RpcMethod& method : kRpcMethods) {
    const std::string rec = std::string("rec.") + method.name;
    const std::string name = std::string("rpc.") + method.name;
    const double calls = v(rec + ".calls");
    add(name + ".calls_per_kop", Ratio(calls, kops), "1/kop");
    add(name + ".us_per_call", Ratio(v(rec + ".ns") / 1000.0, calls), "us");
    add(name + ".bytes_per_call", Ratio(v(rec + ".bytes"), calls), "B");
  }
  add("rpc.wait_share",
      Ratio(v("rec.foreground_ns"),
            static_cast<double>(clients) * static_cast<double>(traced.ns)),
      "ratio");

  // Server-side time: the recorder times whole calls, so the modelled wire
  // round trip is taken out.
  const double apply_calls = v("rec.apply_batch.calls");
  add("tfs.apply_us_per_meta_op",
      Ratio(std::max(0.0, v("rec.apply_batch.ns") / 1000.0 -
                              apply_calls * rtt_us),
            meta_ops),
      "us/meta_op");
  add("tfs.ops_rejected", v("acc.tfs.ops_rejected"), "count");

  add("txlog.commits_per_meta_op", Ratio(v("txlog.commit.count"), meta_ops),
      "1/meta_op");
  add("txlog.fences_per_meta_op",
      Ratio(v("scm.layer.txlog.fences"), meta_ops), "1/meta_op");
  add("txlog.lines_per_meta_op",
      Ratio(v("scm.layer.txlog.lines_flushed"), meta_ops), "1/meta_op");
  add("txlog.bytes_per_meta_op", Ratio(v("txlog.append.bytes"), meta_ops),
      "B/meta_op");
  add("osd.lines_per_meta_op",
      Ratio(v("scm.layer.osd.lines_flushed"), meta_ops), "1/meta_op");
  add("osd.fences_per_meta_op", Ratio(v("scm.layer.osd.fences"), meta_ops),
      "1/meta_op");

  add("scm.lines_per_kop", Ratio(v("acc.scm.lines"), kops), "1/kop");
  add("scm.fences_per_kop", Ratio(v("acc.scm.fences"), kops), "1/kop");
  add("scm.stream_bytes_per_kop", Ratio(v("acc.scm.stream_bytes"), kops),
      "B/kop");
  add("scm.write_amp",
      Ratio(v("acc.scm.lines") * aerie::obs::kWriteAmpLineBytes,
            v("pxfs.api.logical_write_bytes") +
                v("flatfs.api.logical_write_bytes")),
      "ratio");

  add("lock.local_grant_ratio",
      Ratio(v("acc.clerk.local"),
            v("acc.clerk.local") + v("acc.clerk.global")),
      "ratio");
  add("lock.revokes_per_kop", Ratio(v("acc.clerk.revokes"), kops), "1/kop");
  const double acquires = v("rec.lock.acquire.calls");
  add("lock.acquire_us_per_call",
      Ratio(std::max(0.0, v("rec.lock.acquire.ns") / 1000.0 -
                              acquires * rtt_us),
            acquires),
      "us");
  add("lock.deescalations_per_kop", Ratio(v("acc.clerk.deescalations"), kops),
      "1/kop");
  add("lock.direct_epoch_fallbacks_per_kop",
      Ratio(v("acc.clerk.direct_fallbacks"), kops), "1/kop");

  const double traced_rate = Ratio(traced.calls, traced.ns);
  const double untraced_rate = Ratio(untraced.calls, untraced.ns);
  add("trace_overhead",
      untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0.0, "ratio");
  return m;
}

int Fatal(const std::string& what) {
  std::fprintf(stderr, "aerie_perfbench: %s\n", what.c_str());
  return 2;
}

int Run(const Args& args) {
  WorkloadSpec spec;
  if (!SpecFor(args.workload, args.tiny, &spec)) {
    return Fatal("unknown workload '" + args.workload + "'");
  }
  // End-to-end runs are untraced; the environment must agree.
  const char* obs_env = std::getenv("AERIE_OBS");
  const aerie::obs::Mode env_mode = aerie::obs::ParseMode(
      obs_env != nullptr ? obs_env : "counters");
  if (args.trace == 0 && env_mode != aerie::obs::Mode::kOff) {
    return Fatal("--trace 0 needs AERIE_OBS=off");
  }
  if (args.trace == 1 && env_mode != aerie::obs::Mode::kCounters) {
    return Fatal("--trace 1 needs AERIE_OBS=counters");
  }
  // Set-up and untraced slices record nothing.
  aerie::obs::SetMode(aerie::obs::Mode::kOff);

  StackConfig config;
  config.region_bytes = spec.region_bytes;
  config.scm_write_ns = spec.scm_write_ns;
  config.rpc_round_trip_ns = kRpcRoundTripNs;
  config.clients = spec.clients;
  config.flat = spec.mix == Mix::kFlatWebproxy;
  config.flat_capacity = spec.flat_capacity;

  RpcRecorder recorder;
  std::unique_ptr<BenchStack> stack;
  Clients clients;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    clients.clear();
    stack.reset();
    aerie::Stopwatch sw;
    auto created = BenchStack::Create(config, &recorder);
    if (!created.ok()) {
      return Fatal("stack set-up: " + created.status().ToString());
    }
    stack = std::move(*created);
    for (int i = 0; i < spec.clients; ++i) {
      const uint64_t seed = aerie::Mix64(args.seed * 64 + static_cast<uint64_t>(i));
      BenchClient* client = stack->client(static_cast<size_t>(i));
      if (config.flat) {
        clients.push_back(MakeFlatClient(spec, client->flat(), seed));
      } else {
        const std::string root =
            spec.clients > 1 ? "/c" + std::to_string(i) : "/" + spec.name;
        clients.push_back(MakePxfsClient(spec, client->pxfs(), root, seed));
      }
      const aerie::Status st = clients.back()->Prepare();
      if (!st.ok()) {
        return Fatal("fileset set-up: " + st.ToString());
      }
    }
    setup_s.push_back(sw.ElapsedSeconds());
  }
  if (args.inject_bad_read_length) {
    clients[0]->InjectBadReadLength();
  }

  // Closed loops: one thread per client, each waiting for its own calls.
  SetModes(clients, OpLog::Mode::kRun);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (auto& c : clients) {
    threads.emplace_back([&stop, client = c.get()] {
      tls_foreground = true;
      while (!stop.load(std::memory_order_relaxed) && !client->gave_up()) {
        client->RunIteration();
      }
    });
  }
  const double warmup_s = std::min(1.0, args.seconds / 10);
  Sleep(warmup_s);

  // Trace 0: one measured phase; its per-second throughput is kept for the
  // record. Trace 1: alternating untraced and traced slices. `untraced` and
  // `traced` sum the slices of each kind.
  std::vector<double> slice_rates;
  Progress untraced;
  Progress traced;
  Counters layer_delta;
  if (args.trace == 0) {
    SetModes(clients, OpLog::Mode::kSample);
    const int slices = std::max(1, static_cast<int>(args.seconds));
    for (int s = 0; s < slices; ++s) {
      const Progress start = Snapshot(clients);
      Sleep(args.seconds / slices);
      const Progress slice = Snapshot(clients) - start;
      slice_rates.push_back(Ratio(slice.calls, slice.ns / 1e9));
      untraced += slice;
    }
    SetModes(clients, OpLog::Mode::kRun);
  } else {
    const Counters before = Capture(stack.get(), recorder);
    for (int s = 0; s < kTraceSlices; ++s) {
      const bool on = s % 2 == 1;
      aerie::obs::SetMode(on ? aerie::obs::Mode::kCounters
                             : aerie::obs::Mode::kOff);
      recorder.set_enabled(on);
      const Progress start = Snapshot(clients);
      Sleep(args.seconds / kTraceSlices);
      (on ? traced : untraced) += Snapshot(clients) - start;
    }
    aerie::obs::SetMode(aerie::obs::Mode::kOff);
    recorder.set_enabled(false);
    layer_delta = Delta(Capture(stack.get(), recorder), before);
  }
  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }

  bool gave_up = false;
  for (auto& c : clients) {
    gave_up = gave_up || c->gave_up();
    c->Verify();
  }

  // --- Results ---
  uint64_t attempted = 0;
  uint64_t failed_calls = 0;
  uint64_t mismatches = 0;
  std::string errors = "[";
  std::vector<std::vector<const LatencyCounts*>> by_kind(kOpKinds);
  std::vector<const LatencyCounts*> all;
  for (size_t i = 0; i < clients.size(); ++i) {
    const OpLog* log = clients[i]->log();
    attempted += log->attempted();
    failed_calls += log->failed();
    mismatches += log->mismatches();
    for (const std::string& e : log->errors()) {
      errors += (errors.size() > 1 ? "," : "") +
                Quote("client " + std::to_string(i) + ": " + e);
    }
    for (int k = 0; k < kOpKinds; ++k) {
      const LatencyCounts* lat = &log->latencies(static_cast<OpKind>(k));
      if (lat->count() != 0) {
        by_kind[static_cast<size_t>(k)].push_back(lat);
        all.push_back(lat);
      }
    }
  }
  const uint64_t failed = failed_calls + mismatches;
  const bool correct = failed == 0 && !gave_up;
  const double untraced_s = static_cast<double>(untraced.ns) / 1e9;

  std::vector<Metric> e2e;
  e2e.push_back({"ops_per_s", Ratio(untraced.calls, untraced_s), "1/s"});
  if (!all.empty()) {
    e2e.push_back({"op_p50_us", LatencyCounts::PercentileUs(all, 0.50), "us"});
    e2e.push_back({"op_p99_us", LatencyCounts::PercentileUs(all, 0.99), "us"});
  }
  e2e.push_back({"data_mb_s",
                 Ratio((untraced.read + untraced.written) / 1e6, untraced_s),
                 "MB/s"});
  const std::pair<OpKind, const char*> per_op[] = {
      {OpKind::kOpen, "open_p50_us"},     {OpKind::kCreate, "create_p50_us"},
      {OpKind::kRead, "read_p50_us"},     {OpKind::kWrite, "write_p50_us"},
      {OpKind::kUnlink, "unlink_p50_us"}, {OpKind::kPut, "put_p50_us"},
      {OpKind::kGet, "get_p50_us"},       {OpKind::kErase, "erase_p50_us"},
  };
  for (const auto& [kind, name] : per_op) {
    const auto& parts = by_kind[static_cast<size_t>(kind)];
    if (!parts.empty()) {
      e2e.push_back({name, LatencyCounts::PercentileUs(parts, 0.50), "us"});
    }
  }
  e2e.push_back({"failed_ratio", Ratio(failed, attempted), "ratio"});
  e2e.push_back({"setup_s", Median(setup_s), "s"});
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  e2e.push_back({"peak_rss_mb", usage.ru_maxrss / 1024.0, "MiB"});

  uint64_t samples = 0;
  for (const LatencyCounts* lat : all) {
    samples += lat->count();
  }
  std::vector<Metric> layers;
  if (args.trace == 1) {
    layers = PerLayer(spec, layer_delta, traced, untraced, spec.clients);
  }

  auto json_list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (double v : values) {
      out += (out.size() > 1 ? "," : "") + Number(v);
    }
    return out + "]";
  };
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif

  std::string out = "{\"workload\":" + Quote(spec.name) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"trace\":" + std::to_string(args.trace) +
                    ",\"correct\":" + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"errors\":" + errors + "]" +
                    ",\"end_to_end\":" + MetricsJson(e2e) +
                    ",\"per_layer\":" + MetricsJson(layers) +
                    ",\"run\":{\"clients\":" + std::to_string(spec.clients) +
                    ",\"files_per_client\":" + std::to_string(spec.nfiles) +
                    ",\"scm_write_ns\":" + std::to_string(spec.scm_write_ns) +
                    ",\"rpc_round_trip_ns\":" + std::to_string(kRpcRoundTripNs) +
                    ",\"region_mib\":" + std::to_string(spec.region_bytes >> 20) +
                    ",\"setup_s_each\":" + json_list(setup_s) +
                    ",\"slice_ops_per_s\":" + json_list(slice_rates) +
                    ",\"warmup_s\":" + Number(warmup_s) +
                    ",\"untraced_s\":" + Number(untraced_s) +
                    ",\"traced_s\":" + Number(traced.ns / 1e9) +
                    ",\"latency_samples\":" + std::to_string(samples) +
                    ",\"failed_calls\":" + std::to_string(failed_calls) +
                    ",\"integrity_mismatches\":" + std::to_string(mismatches) +
                    ",\"client_gave_up\":" + (gave_up ? "true" : "false") +
                    "},\"build\":{\"compiler\":" + Quote(compiler) +
                    ",\"build_type\":" + Quote(PERFBENCH_BUILD_TYPE) + "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);

  clients.clear();
  stack.reset();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    return perfbench::Fatal(error);
  }
  return perfbench::Run(args);
}
