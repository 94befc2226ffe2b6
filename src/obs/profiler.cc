#include "src/obs/profiler.h"

#include <csignal>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <execinfo.h>
#endif
#if defined(__linux__) || defined(__APPLE__)
#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>
#include <sys/time.h>
#endif

namespace aerie {
namespace obs {
namespace prof {

namespace {

// One captured sample. All fields are relaxed atomics so the collector can
// read a slot the owning thread's signal handler wrote without a data race
// (publication order is carried by the ring's head index, not the slot).
struct Slot {
  std::atomic<uint64_t> span{0};  // SpanStat* at capture time (may be 0)
  std::atomic<uint32_t> nframes{0};
  std::atomic<uintptr_t> frames[kMaxFrames];
};

// Single-producer (the owning thread, possibly inside a signal handler) /
// single-consumer (the collector) ring. The handler publishes a slot by a
// release store of head; the collector acquires head, reads, then releases
// tail; the handler acquires tail for its full check. No locks anywhere on
// the producer side.
struct Ring {
  explicit Ring(uint64_t slot_count)
      : size(slot_count), mask(slot_count - 1), slots(new Slot[slot_count]) {}
  const uint64_t size;
  const uint64_t mask;
  std::unique_ptr<Slot[]> slots;
  std::atomic<uint64_t> head{0};
  std::atomic<uint64_t> tail{0};
  std::atomic<uint64_t> dropped{0};  // overflow: handler found the ring full
};

// Handler-visible state lives in plain file-scope atomics / initial-exec
// TLS: the handler must not touch mutexes, the heap, or guarded statics.
std::atomic<bool> g_running{false};
std::atomic<uint64_t> g_no_ring{0};
thread_local constinit std::atomic<Ring*> t_ring{nullptr};

struct AggKey {
  SpanStat* span;
  std::vector<uintptr_t> frames;  // leaf-first, as captured
  bool operator<(const AggKey& o) const {
    if (span != o.span) {
      return span < o.span;
    }
    return frames < o.frames;
  }
};

struct GlobalState {
  std::mutex mu;  // serializes Start/Stop
  std::mutex rings_mu;
  std::vector<std::shared_ptr<Ring>> rings;  // never shrunk; threads are
                                             // long-lived in this codebase
  std::atomic<uint64_t> hz{0};
  std::atomic<uint64_t> period_ns{0};
  std::atomic<uint64_t> ring_slots{1024};
  std::atomic<bool> handler_installed{false};
  bool manual = false;

  std::thread collector;
  std::atomic<bool> collector_stop{false};

  std::mutex drain_mu;  // serializes collector passes vs DrainNow
  std::mutex agg_mu;
  std::map<AggKey, uint64_t> agg;
  std::atomic<uint64_t> samples{0};
};

GlobalState& G() {
  static GlobalState* g = new GlobalState();  // leaked: outlives all threads
  return *g;
}

uint64_t RoundUpPow2(uint64_t v) {
  uint64_t p = 64;
  while (p < v && p < (uint64_t{1} << 20)) {
    p <<= 1;
  }
  return p;
}

// SIGPROF handler. Constraints (DESIGN.md §9.4): relaxed atomics, errno
// save/restore, and backtrace() only — whose one unsafe act (dlopening
// libgcc on first use) Start() triggers ahead of time from normal context.
void SampleHandler(int /*sig*/) {
  const int saved_errno = errno;
  if (g_running.load(std::memory_order_relaxed)) {
    Ring* ring = t_ring.load(std::memory_order_relaxed);
    if (ring == nullptr) {
      g_no_ring.fetch_add(1, std::memory_order_relaxed);
    } else {
      const uint64_t head = ring->head.load(std::memory_order_relaxed);
      const uint64_t tail = ring->tail.load(std::memory_order_acquire);
      if (head - tail >= ring->size) {
        ring->dropped.fetch_add(1, std::memory_order_relaxed);
      } else {
        void* raw[kMaxFrames + 2];
        int n = 0;
#if defined(__GLIBC__)
        n = backtrace(raw, kMaxFrames + 2);
#endif
        const int skip = n >= 3 ? 2 : 0;  // this handler + signal trampoline
        Slot& slot = ring->slots[head & ring->mask];
        slot.span.store(reinterpret_cast<uint64_t>(CurrentSpanTag()),
                        std::memory_order_relaxed);
        uint32_t out = 0;
        for (int i = skip; i < n && out < kMaxFrames; ++i, ++out) {
          slot.frames[out].store(reinterpret_cast<uintptr_t>(raw[i]),
                                 std::memory_order_relaxed);
        }
        slot.nframes.store(out, std::memory_order_relaxed);
        ring->head.store(head + 1, std::memory_order_release);
      }
    }
  }
  errno = saved_errno;
}

// Drains every ring into the aggregate map and credits each sample's period
// to its span's cpu_ns. Called from the collector and from DrainNow.
void DrainPass() {
  GlobalState& g = G();
  std::lock_guard drain(g.drain_mu);
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard lk(g.rings_mu);
    rings = g.rings;
  }
  const uint64_t period = g.period_ns.load(std::memory_order_relaxed);
  std::map<AggKey, uint64_t> local;
  uint64_t drained = 0;
  for (const auto& ring : rings) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    uint64_t tail = ring->tail.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) {
      const Slot& slot = ring->slots[tail & ring->mask];
      AggKey key;
      key.span = reinterpret_cast<SpanStat*>(
          slot.span.load(std::memory_order_relaxed));
      const uint32_t n =
          std::min<uint32_t>(slot.nframes.load(std::memory_order_relaxed),
                             kMaxFrames);
      key.frames.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        key.frames.push_back(slot.frames[i].load(std::memory_order_relaxed));
      }
      if (key.span != nullptr) {
        key.span->AddCpuNs(period);
      }
      ++local[std::move(key)];
      ++drained;
    }
    ring->tail.store(head, std::memory_order_release);
  }
  if (drained != 0) {
    std::lock_guard lk(g.agg_mu);
    for (auto& [key, count] : local) {
      g.agg[key] += count;
    }
    g.samples.fetch_add(drained, std::memory_order_relaxed);
  }
  // Live visibility: the sample/drop totals ride the telemetry plane as
  // gauges so aerie_top can show profiler health next to obs drops.
  static Gauge& g_samples = Registry::Instance().GetGauge("prof.samples");
  static Gauge& g_dropped =
      Registry::Instance().GetGauge("prof.samples.dropped");
  uint64_t dropped = 0;
  for (const auto& ring : rings) {
    dropped += ring->dropped.load(std::memory_order_relaxed);
  }
  g_samples.Set(static_cast<int64_t>(
      g.samples.load(std::memory_order_relaxed)));
  g_dropped.Set(static_cast<int64_t>(
      dropped + g_no_ring.load(std::memory_order_relaxed)));
}

void CollectorMain() {
#if defined(__linux__)
  pthread_setname_np(pthread_self(), "aerie-prof");
#endif
  // The collector never runs spans; keep SIGPROF away from it so samples
  // land on threads doing attributable work.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGPROF);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  GlobalState& g = G();
  while (!g.collector_stop.load(std::memory_order_acquire)) {
    DrainPass();
    for (int i = 0;
         i < 10 && !g.collector_stop.load(std::memory_order_acquire); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

std::string SymbolizeFrame(uintptr_t pc) {
#if defined(__linux__) || defined(__APPLE__)
  // pc is a return address; resolve the call site, not the next symbol.
  Dl_info info;
  if (pc != 0 &&
      dladdr(reinterpret_cast<void*>(pc - 1), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    std::string out =
        (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
    std::free(demangled);
    // Folded format reserves ';' (frame separator) and ' ' (count
    // separator); flamegraph.pl also trips on template commas less, but
    // keep them — only the reserved two are rewritten.
    for (char& c : out) {
      if (c == ';' || c == ' ') {
        c = '_';
      }
    }
    return out;
  }
#endif
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(pc));
  return buf;
}

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

struct FoldedEntry {
  std::string layer;
  std::string span;
  std::vector<std::string> frames;  // root-first, symbolized
  uint64_t count = 0;
};

// Snapshot of the aggregate map, symbolized, with one deterministic order:
// sort by (layer, span, frames). Symbol names cache per pc across entries.
std::vector<FoldedEntry> SnapshotFolded() {
  GlobalState& g = G();
  std::map<AggKey, uint64_t> agg;
  {
    std::lock_guard lk(g.agg_mu);
    agg = g.agg;
  }
  std::map<uintptr_t, std::string> symcache;
  std::vector<FoldedEntry> out;
  out.reserve(agg.size());
  for (const auto& [key, count] : agg) {
    FoldedEntry e;
    e.span = key.span != nullptr ? key.span->name() : "(no_span)";
    e.layer = key.span != nullptr ? std::string(LayerOf(e.span)) : "(none)";
    e.count = count;
    e.frames.reserve(key.frames.size());
    // Captured leaf-first; folded stacks want root-first.
    for (auto it = key.frames.rbegin(); it != key.frames.rend(); ++it) {
      auto [cit, inserted] = symcache.try_emplace(*it);
      if (inserted) {
        cit->second = SymbolizeFrame(*it);
      }
      e.frames.push_back(cit->second);
    }
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(),
            [](const FoldedEntry& a, const FoldedEntry& b) {
              if (a.layer != b.layer) return a.layer < b.layer;
              if (a.span != b.span) return a.span < b.span;
              return a.frames < b.frames;
            });
  // Distinct PC stacks can symbolize to the same frame strings (different
  // return addresses inside one function); merge those now so the folded
  // export never repeats a stack line.
  std::vector<FoldedEntry> merged;
  merged.reserve(out.size());
  for (FoldedEntry& e : out) {
    if (!merged.empty() && merged.back().layer == e.layer &&
        merged.back().span == e.span && merged.back().frames == e.frames) {
      merged.back().count += e.count;
    } else {
      merged.push_back(std::move(e));
    }
  }
  return merged;
}

}  // namespace

bool Start(const Options& options) {
  GlobalState& g = G();
  std::lock_guard lk(g.mu);
  if (g_running.load(std::memory_order_relaxed)) {
    return true;
  }
  const uint64_t hz = options.hz == 0 ? 997 : options.hz;
  g.hz.store(hz, std::memory_order_relaxed);
  g.period_ns.store(1000000000ull / hz, std::memory_order_relaxed);
  g.ring_slots.store(RoundUpPow2(options.ring_slots),
                     std::memory_order_relaxed);
  g.manual = options.manual;
#if defined(__GLIBC__)
  {
    // First backtrace() dlopens libgcc (malloc + loader locks) — do it now,
    // from normal context, so the handler never does.
    void* warm[4];
    backtrace(warm, 4);
  }
#endif
  if (!g.handler_installed.load(std::memory_order_relaxed)) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &SampleHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    if (sigaction(SIGPROF, &sa, nullptr) != 0) {
      return false;
    }
    g.handler_installed.store(true, std::memory_order_relaxed);
  }
  g_running.store(true, std::memory_order_relaxed);
  RegisterCurrentThread();
  if (!g.manual) {
    g.collector_stop.store(false, std::memory_order_relaxed);
    g.collector = std::thread(CollectorMain);
    const uint64_t usec = std::max<uint64_t>(1, 1000000ull / hz);
    itimerval tv;
    std::memset(&tv, 0, sizeof(tv));
    tv.it_interval.tv_sec = static_cast<time_t>(usec / 1000000);
    tv.it_interval.tv_usec = static_cast<suseconds_t>(usec % 1000000);
    tv.it_value = tv.it_interval;
    if (setitimer(ITIMER_PROF, &tv, nullptr) != 0) {
      g_running.store(false, std::memory_order_relaxed);
      g.collector_stop.store(true, std::memory_order_release);
      g.collector.join();
      return false;
    }
  }
  return true;
}

void Stop() {
  GlobalState& g = G();
  std::unique_lock lk(g.mu);
  if (!g_running.load(std::memory_order_relaxed)) {
    return;
  }
  if (!g.manual) {
    itimerval zero;
    std::memset(&zero, 0, sizeof(zero));
    setitimer(ITIMER_PROF, &zero, nullptr);
    g.collector_stop.store(true, std::memory_order_release);
    if (g.collector.joinable()) {
      g.collector.join();
    }
  }
  g_running.store(false, std::memory_order_relaxed);
  lk.unlock();
  DrainNow();
}

bool IsRunning() { return g_running.load(std::memory_order_relaxed); }

void MaybeStartFromEnv() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* env = std::getenv("AERIE_PROF");
    if (env == nullptr || *env == '\0') {
      return;
    }
    const std::string v(env);
    if (v == "0" || v == "off" || v == "false" || v == "no") {
      return;
    }
    Options opt;
    if (v != "1" && v != "on" && v != "true" && v != "yes") {
      char* end = nullptr;
      const unsigned long long hz = std::strtoull(v.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || hz == 0) {
        return;  // unparseable value: stay off rather than guess
      }
      opt.hz = hz;
    }
    if (const char* hz_env = std::getenv("AERIE_PROF_HZ")) {
      const unsigned long long hz = std::strtoull(hz_env, nullptr, 10);
      if (hz != 0) {
        opt.hz = hz;
      }
    }
    if (const char* ring_env = std::getenv("AERIE_PROF_RING")) {
      const unsigned long long slots = std::strtoull(ring_env, nullptr, 10);
      if (slots != 0) {
        opt.ring_slots = slots;
      }
    }
    if (Start(opt)) {
      std::atexit([] {
        Stop();
        WriteProfileFilesIfConfigured();
      });
    }
  });
}

void RegisterCurrentThread() {
  if (t_ring.load(std::memory_order_relaxed) != nullptr ||
      !g_running.load(std::memory_order_relaxed)) {
    return;
  }
  GlobalState& g = G();
  auto ring = std::make_shared<Ring>(
      g.ring_slots.load(std::memory_order_relaxed));
  {
    std::lock_guard lk(g.rings_mu);
    g.rings.push_back(ring);
  }
  t_ring.store(ring.get(), std::memory_order_release);
}

void DrainNow() { DrainPass(); }

ProfileStats GetStats() {
  GlobalState& g = G();
  ProfileStats stats;
  stats.samples = g.samples.load(std::memory_order_relaxed);
  stats.no_ring = g_no_ring.load(std::memory_order_relaxed);
  stats.hz = g.hz.load(std::memory_order_relaxed);
  stats.period_ns = g.period_ns.load(std::memory_order_relaxed);
  std::lock_guard lk(g.rings_mu);
  for (const auto& ring : g.rings) {
    stats.dropped += ring->dropped.load(std::memory_order_relaxed);
  }
  return stats;
}

std::string FoldedStacks() {
  std::string out;
  char buf[32];
  for (const FoldedEntry& e : SnapshotFolded()) {
    out += e.layer;
    out += ';';
    out += e.span;
    for (const std::string& frame : e.frames) {
      out += ';';
      out += frame;
    }
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(e.count));
    out += buf;
  }
  return out;
}

std::string ProfileJson() {
  const std::vector<FoldedEntry> entries = SnapshotFolded();
  const ProfileStats stats = GetStats();
  const double us_per_sample =
      static_cast<double>(stats.period_ns) / 1000.0;

  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"schema_version\":1,\"hz\":%llu,\"period_ns\":%llu,"
                "\"samples\":%llu,\"dropped\":%llu,\"no_ring\":%llu",
                static_cast<unsigned long long>(stats.hz),
                static_cast<unsigned long long>(stats.period_ns),
                static_cast<unsigned long long>(stats.samples),
                static_cast<unsigned long long>(stats.dropped),
                static_cast<unsigned long long>(stats.no_ring));
  out += buf;

  out += ",\"stacks\":[";
  bool first = true;
  for (const FoldedEntry& e : entries) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"layer\":\"" + JsonEscape(e.layer) + "\",\"span\":\"" +
           JsonEscape(e.span) + "\",\"count\":";
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(e.count));
    out += buf;
    out += ",\"frames\":[";
    for (size_t i = 0; i < e.frames.size(); ++i) {
      if (i != 0) {
        out += ',';
      }
      out += "\"" + JsonEscape(e.frames[i]) + "\"";
    }
    out += "]}";
  }
  out += "]";

  // Self-CPU leaders: samples whose *leaf* frame is this symbol.
  std::map<std::string, uint64_t> leaf;
  for (const FoldedEntry& e : entries) {
    leaf[e.frames.empty() ? "(no_frames)" : e.frames.back()] += e.count;
  }
  std::vector<std::pair<std::string, uint64_t>> top(leaf.begin(), leaf.end());
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (top.size() > 32) {
    top.resize(32);
  }
  out += ",\"top\":[";
  first = true;
  for (const auto& [frame, count] : top) {
    if (!first) {
      out += ',';
    }
    first = false;
    std::snprintf(buf, sizeof(buf), "\"self_samples\":%llu,"
                  "\"self_cpu_us\":%.1f}",
                  static_cast<unsigned long long>(count),
                  static_cast<double>(count) * us_per_sample);
    out += "{\"frame\":\"" + JsonEscape(frame) + "\",";
    out += buf;
  }
  out += "]}";
  return out;
}

std::string TopText(size_t top_n) {
  const std::vector<FoldedEntry> entries = SnapshotFolded();
  const ProfileStats stats = GetStats();
  std::map<std::string, uint64_t> leaf;
  uint64_t total = 0;
  for (const FoldedEntry& e : entries) {
    leaf[e.frames.empty() ? "(no_frames)" : e.frames.back()] += e.count;
    total += e.count;
  }
  std::vector<std::pair<std::string, uint64_t>> top(leaf.begin(), leaf.end());
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (top.size() > top_n) {
    top.resize(top_n);
  }
  std::string out;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%-4s %10s %10s %6s  %s\n", "#",
                "samples", "cpu(ms)", "%", "frame");
  out += buf;
  size_t rank = 1;
  for (const auto& [frame, count] : top) {
    std::snprintf(
        buf, sizeof(buf), "%-4zu %10llu %10.2f %5.1f%%  ", rank++,
        static_cast<unsigned long long>(count),
        static_cast<double>(count * stats.period_ns) / 1e6,
        total > 0 ? 100.0 * static_cast<double>(count) /
                        static_cast<double>(total)
                  : 0.0);
    out += buf;
    out += frame;
    out += '\n';
  }
  return out;
}

bool WriteProfileFilesIfConfigured() {
  const char* folded_path = std::getenv("AERIE_PROF_FOLDED");
  const char* json_path = std::getenv("AERIE_PROF_JSON");
  const bool want_folded = folded_path != nullptr && *folded_path != '\0';
  const bool want_json = json_path != nullptr && *json_path != '\0';
  if (!want_folded && !want_json) {
    return false;
  }
  DrainNow();
  bool wrote = false;
  if (want_folded) {
    if (FILE* f = std::fopen(folded_path, "w")) {
      const std::string folded = FoldedStacks();
      std::fwrite(folded.data(), 1, folded.size(), f);
      std::fclose(f);
      wrote = true;
    }
  }
  if (want_json) {
    if (FILE* f = std::fopen(json_path, "w")) {
      const std::string json = ProfileJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      wrote = true;
    }
  }
  return wrote;
}

bool InjectSampleForTesting(SpanStat* span, const uintptr_t* frames,
                            int num_frames) {
  RegisterCurrentThread();
  Ring* ring = t_ring.load(std::memory_order_relaxed);
  if (ring == nullptr) {
    return false;  // profiler not running
  }
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  const uint64_t tail = ring->tail.load(std::memory_order_acquire);
  if (head - tail >= ring->size) {
    ring->dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Slot& slot = ring->slots[head & ring->mask];
  slot.span.store(reinterpret_cast<uint64_t>(span),
                  std::memory_order_relaxed);
  uint32_t out = 0;
  for (int i = 0; i < num_frames && out < kMaxFrames; ++i, ++out) {
    slot.frames[out].store(frames[i], std::memory_order_relaxed);
  }
  slot.nframes.store(out, std::memory_order_relaxed);
  ring->head.store(head + 1, std::memory_order_release);
  return true;
}

void Reset(const std::function<void()>& also) {
  GlobalState& g = G();
  std::lock_guard drain(g.drain_mu);
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard lk(g.rings_mu);
    rings = g.rings;
  }
  for (const auto& ring : rings) {
    // Discard pending samples without aggregating them.
    ring->tail.store(ring->head.load(std::memory_order_acquire),
                     std::memory_order_release);
    ring->dropped.store(0, std::memory_order_relaxed);
  }
  {
    std::lock_guard lk(g.agg_mu);
    g.agg.clear();
    g.samples.store(0, std::memory_order_relaxed);
    g_no_ring.store(0, std::memory_order_relaxed);
  }
  if (also) {
    also();
  }
}

}  // namespace prof
}  // namespace obs
}  // namespace aerie
