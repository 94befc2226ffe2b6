#include "src/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <utility>

#include "src/common/check.h"
#include "src/common/clock.h"

namespace aerie {
namespace obs {

namespace {

constexpr uint64_t kDefaultRingEvents = 4096;
constexpr uint64_t kMinRingEvents = 64;
constexpr uint64_t kMaxRingEvents = 1 << 20;

uint64_t RoundUpPow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

// Per-thread ring capacity, AERIE_TRACE_RING events (rounded up to a power
// of two). Read once; all rings share the capacity.
uint64_t RingCapacity() {
  static const uint64_t cap = [] {
    const char* env = std::getenv("AERIE_TRACE_RING");
    uint64_t v = env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
    if (v == 0) {
      v = kDefaultRingEvents;
    }
    return std::clamp(RoundUpPow2(v), kMinRingEvents, kMaxRingEvents);
  }();
  return cap;
}

// One recorder slot. Every field is an atomic so a concurrent dump is
// race-free; the per-slot seqlock (seq == position+1 when the slot holds
// event #position) lets the reader detect slots overwritten mid-read.
struct Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> ts_ns{0};
  std::atomic<uint64_t> dur_ns{0};
  std::atomic<uint64_t> trace_id{0};
  std::atomic<uint64_t> span_id{0};
  std::atomic<uint64_t> parent_id{0};
  std::atomic<uint64_t> arg{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<uint32_t> kind{0};
};

// Single-writer ring: only the owning thread records; any thread may
// collect. The registry holds a shared_ptr so events of exited threads
// survive until the next reset.
class Ring {
 public:
  explicit Ring(uint32_t tid)
      : tid_(tid), cap_(RingCapacity()), slots_(new Slot[cap_]) {}

  void Record(TraceEventKind kind, const char* name, uint64_t trace_id,
              uint64_t span_id, uint64_t parent_id, uint64_t ts_ns,
              uint64_t dur_ns, uint64_t arg) {
    const uint64_t pos = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[pos & (cap_ - 1)];
    // Invalidate, fill, publish. A collector that observes seq == pos+1
    // both before and after reading the fields accepts the slot; tears are
    // possible only if a full ring lap happens mid-read, and then the slot
    // is rejected by the second check (best-effort on non-TSO hardware).
    s.seq.store(0, std::memory_order_relaxed);
    s.ts_ns.store(ts_ns, std::memory_order_relaxed);
    s.dur_ns.store(dur_ns, std::memory_order_relaxed);
    s.trace_id.store(trace_id, std::memory_order_relaxed);
    s.span_id.store(span_id, std::memory_order_relaxed);
    s.parent_id.store(parent_id, std::memory_order_relaxed);
    s.arg.store(arg, std::memory_order_relaxed);
    s.name.store(name, std::memory_order_relaxed);
    s.kind.store(static_cast<uint32_t>(kind), std::memory_order_relaxed);
    s.seq.store(pos + 1, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_release);
  }

  void Collect(std::vector<TraceEventView>* out) const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t floor = floor_.load(std::memory_order_acquire);
    uint64_t begin = head > cap_ ? head - cap_ : 0;
    begin = std::max(begin, floor);
    for (uint64_t pos = begin; pos < head; ++pos) {
      const Slot& s = slots_[pos & (cap_ - 1)];
      if (s.seq.load(std::memory_order_acquire) != pos + 1) {
        continue;
      }
      TraceEventView v;
      v.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
      v.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
      v.trace_id = s.trace_id.load(std::memory_order_relaxed);
      v.span_id = s.span_id.load(std::memory_order_relaxed);
      v.parent_id = s.parent_id.load(std::memory_order_relaxed);
      v.arg = s.arg.load(std::memory_order_relaxed);
      v.name = s.name.load(std::memory_order_relaxed);
      v.kind = static_cast<TraceEventKind>(
          s.kind.load(std::memory_order_relaxed));
      v.tid = tid_;
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != pos + 1 ||
          v.name == nullptr) {
        continue;  // overwritten while we read it
      }
      out->push_back(v);
    }
  }

  // Logical clear: events below the floor are dead. The writer never moves
  // backwards, so this needs no coordination with it.
  void Reset() {
    floor_.store(head_.load(std::memory_order_acquire),
                 std::memory_order_release);
  }

  uint32_t tid() const { return tid_; }

  // Guarded by TraceState::mu (set rarely, read only by exporters).
  std::string display_name;

 private:
  const uint32_t tid_;
  const uint64_t cap_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> floor_{0};
};

void CheckFailureDump();  // forward; installed into check.h's hook

struct TraceState {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;  // guarded by mu
  std::atomic<uint64_t> next_id{1};
  std::atomic<uint32_t> next_tid{1};

  TraceState() { SetCheckFailureHook(&CheckFailureDump); }
};

TraceState& State() {
  static TraceState* state = new TraceState();  // leaked: usable at exit
  return *state;
}

Ring& CurrentRing() {
  thread_local std::shared_ptr<Ring> ring = [] {
    TraceState& st = State();
    auto r = std::make_shared<Ring>(
        st.next_tid.fetch_add(1, std::memory_order_relaxed));
    std::lock_guard<std::mutex> lock(st.mu);
    st.rings.push_back(r);
    return r;
  }();
  return *ring;
}

TraceContext& TlsContextRef() {
  thread_local TraceContext ctx;
  return ctx;
}

// Rings plus their display names, snapshotted under the lock so collection
// itself runs unlocked (writers never take the lock at all).
void SnapshotRings(std::vector<std::shared_ptr<Ring>>* rings,
                   std::vector<std::pair<uint32_t, std::string>>* names) {
  TraceState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);
  *rings = st.rings;
  if (names != nullptr) {
    for (const auto& r : st.rings) {
      names->emplace_back(r->tid(), r->display_name);
    }
  }
}

constexpr uint64_t kSlowUnset = ~uint64_t{0};
std::atomic<uint64_t> g_slow_us{kSlowUnset};

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void MaybeDumpSlowTrace(const char* name, uint64_t trace_id,
                        uint64_t dur_ns) {
  const uint64_t threshold_us = SlowTraceThresholdUs();
  if (threshold_us == 0 || dur_ns < threshold_us * 1000) {
    return;
  }
  AERIE_COUNT("obs.trace.slow_dump");
  const std::string trail = FlightRecorderText(trace_id);
  std::fprintf(stderr,
               "== aerie slow op: %s %.1fus exceeds AERIE_TRACE_SLOW_US=%llu "
               "(trace %llu) ==\n%s",
               name, dur_ns / 1e3,
               static_cast<unsigned long long>(threshold_us),
               static_cast<unsigned long long>(trace_id), trail.c_str());
}

// Post-mortem on AERIE_CHECK failure. Runs at most once (check.h consumes
// the hook), right before abort. The SIGUSR1 sigdump (telemetry.cc) shares
// the same DumpPostMortem body, minus the abort.
void CheckFailureDump() { DumpPostMortem(); }

}  // namespace

void DumpPostMortem() {
  const std::string trail = FlightRecorderText(/*trace_id=*/0, /*limit=*/64);
  std::fputs("== aerie flight recorder (most recent events) ==\n", stderr);
  std::fputs(trail.empty() ? "(no events recorded)\n" : trail.c_str(),
             stderr);
  const std::string path = WriteTraceFileIfConfigured();
  if (!path.empty()) {
    std::fprintf(stderr, "full trace written to %s\n", path.c_str());
  }
}

namespace detail {

void TraceSpanBegin(const char* name, TraceLink* link) {
  TraceContext& cur = TlsContextRef();
  link->prev_trace_id = cur.trace_id;
  link->prev_span_id = cur.span_id;
  link->prev_parent_id = cur.parent_id;
  link->trace_id = cur.trace_id != 0 ? cur.trace_id : NewTraceId();
  link->parent_id = cur.span_id;
  link->span_id = NewSpanId();
  cur.trace_id = link->trace_id;
  cur.span_id = link->span_id;
  cur.parent_id = link->parent_id;
  CurrentRing().Record(TraceEventKind::kSpanBegin, name, link->trace_id,
                       link->span_id, link->parent_id, NowNanos(), 0, 0);
}

void TraceSpanEnd(const char* name, const TraceLink& link, uint64_t start_ns,
                  uint64_t end_ns) {
  TraceContext& cur = TlsContextRef();
  cur.trace_id = link.prev_trace_id;
  cur.span_id = link.prev_span_id;
  cur.parent_id = link.prev_parent_id;
  const uint64_t dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  CurrentRing().Record(TraceEventKind::kSpanEnd, name, link.trace_id,
                       link.span_id, link.parent_id, start_ns, dur_ns, 0);
  if (link.prev_trace_id == 0) {
    MaybeDumpSlowTrace(name, link.trace_id, dur_ns);
  }
}

}  // namespace detail

TraceContext CurrentTraceContext() { return TlsContextRef(); }

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx) {
  TraceContext& cur = TlsContextRef();
  prev_ = cur;
  cur = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { TlsContextRef() = prev_; }

uint64_t NewTraceId() {
  return State().next_id.fetch_add(1, std::memory_order_relaxed);
}

uint64_t NewSpanId() {
  return State().next_id.fetch_add(1, std::memory_order_relaxed);
}

void TraceInstant(const char* name, uint64_t arg) {
  if (!SpansOn()) {
    return;
  }
  const TraceContext& cur = TlsContextRef();
  CurrentRing().Record(TraceEventKind::kInstant, name, cur.trace_id,
                       cur.span_id, cur.parent_id, NowNanos(), 0, arg);
}

void SetThreadTraceName(std::string_view name) {
  Ring& ring = CurrentRing();
  std::lock_guard<std::mutex> lock(State().mu);
  ring.display_name.assign(name);
}

std::vector<TraceEventView> CollectTraceEvents() {
  std::vector<std::shared_ptr<Ring>> rings;
  SnapshotRings(&rings, nullptr);
  std::vector<TraceEventView> out;
  for (const auto& ring : rings) {
    ring->Collect(&out);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEventView& a, const TraceEventView& b) {
              if (a.ts_ns != b.ts_ns) {
                return a.ts_ns < b.ts_ns;
              }
              return a.tid < b.tid;
            });
  return out;
}

std::string DumpTraceJson() {
  std::vector<std::shared_ptr<Ring>> rings;
  std::vector<std::pair<uint32_t, std::string>> names;
  SnapshotRings(&rings, &names);
  std::vector<TraceEventView> events;
  for (const auto& ring : rings) {
    ring->Collect(&events);
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEventView& a, const TraceEventView& b) {
              return a.ts_ns < b.ts_ns;
            });

  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char buf[256];
  bool first = true;
  auto emit = [&](const std::string& line) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += line;
  };

  emit("{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
       "\"args\":{\"name\":\"aerie\"}}");
  for (const auto& [tid, name] : names) {
    std::string line;
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                  "\"name\":\"thread_name\",\"args\":{\"name\":\"",
                  tid);
    line += buf;
    if (name.empty()) {
      std::snprintf(buf, sizeof(buf), "thread%u", tid);
      line += buf;
    } else {
      AppendJsonEscaped(&line, name);
    }
    line += "\"}}";
    emit(line);
  }

  auto args_json = [&](const TraceEventView& e, bool with_arg) {
    std::string a;
    std::snprintf(buf, sizeof(buf),
                  "{\"trace_id\":\"%llu\",\"span_id\":\"%llu\","
                  "\"parent_id\":\"%llu\"",
                  static_cast<unsigned long long>(e.trace_id),
                  static_cast<unsigned long long>(e.span_id),
                  static_cast<unsigned long long>(e.parent_id));
    a += buf;
    if (with_arg) {
      std::snprintf(buf, sizeof(buf), ",\"arg\":%llu",
                    static_cast<unsigned long long>(e.arg));
      a += buf;
    }
    a += "}";
    return a;
  };

  for (const TraceEventView& e : events) {
    std::string line = "{\"pid\":1,";
    std::snprintf(buf, sizeof(buf), "\"tid\":%u,\"ts\":%.3f,\"name\":\"",
                  e.tid, e.ts_ns / 1e3);
    line += buf;
    AppendJsonEscaped(&line, e.name);
    line += "\",";
    switch (e.kind) {
      case TraceEventKind::kSpanEnd:
        std::snprintf(buf, sizeof(buf), "\"ph\":\"X\",\"dur\":%.3f,",
                      e.dur_ns / 1e3);
        line += buf;
        line += "\"args\":" + args_json(e, false) + "}";
        break;
      case TraceEventKind::kSpanBegin:
        line += "\"ph\":\"B\",\"args\":" + args_json(e, false) + "}";
        break;
      case TraceEventKind::kInstant:
        line += "\"ph\":\"i\",\"s\":\"t\",\"args\":" + args_json(e, true) +
                "}";
        break;
    }
    emit(line);
  }
  out += "\n]}\n";
  return out;
}

bool WriteTraceJsonFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = DumpTraceJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok && written != json.size()) {
    std::fclose(f);
  }
  return ok;
}

std::string WriteTraceFileIfConfigured() {
  const char* path = std::getenv("AERIE_TRACE_FILE");
  if (path == nullptr || path[0] == '\0') {
    return std::string();
  }
  return WriteTraceJsonFile(path) ? std::string(path) : std::string();
}

std::string FlightRecorderText(uint64_t trace_id, size_t limit) {
  std::vector<TraceEventView> events = CollectTraceEvents();
  if (trace_id != 0) {
    events.erase(std::remove_if(events.begin(), events.end(),
                                [trace_id](const TraceEventView& e) {
                                  return e.trace_id != trace_id;
                                }),
                 events.end());
  }
  if (events.size() > limit) {
    events.erase(events.begin(),
                 events.end() - static_cast<ptrdiff_t>(limit));
  }
  std::string out;
  char buf[256];
  for (const TraceEventView& e : events) {
    const char* kind = e.kind == TraceEventKind::kSpanEnd    ? "span"
                       : e.kind == TraceEventKind::kSpanBegin ? "open"
                                                              : "inst";
    std::snprintf(buf, sizeof(buf),
                  "[tid %2u] %14.3fus %s %-28s trace=%llu span=%llu "
                  "parent=%llu",
                  e.tid, e.ts_ns / 1e3, kind, e.name,
                  static_cast<unsigned long long>(e.trace_id),
                  static_cast<unsigned long long>(e.span_id),
                  static_cast<unsigned long long>(e.parent_id));
    out += buf;
    if (e.kind == TraceEventKind::kSpanEnd) {
      std::snprintf(buf, sizeof(buf), " dur=%.3fus", e.dur_ns / 1e3);
      out += buf;
    } else if (e.kind == TraceEventKind::kInstant) {
      std::snprintf(buf, sizeof(buf), " arg=%llu",
                    static_cast<unsigned long long>(e.arg));
      out += buf;
    }
    out += '\n';
  }
  return out;
}

void ResetFlightRecorder() {
  std::vector<std::shared_ptr<Ring>> rings;
  SnapshotRings(&rings, nullptr);
  for (const auto& ring : rings) {
    ring->Reset();
  }
}

uint64_t SlowTraceThresholdUs() {
  uint64_t v = g_slow_us.load(std::memory_order_relaxed);
  if (v != kSlowUnset) [[likely]] {
    return v;
  }
  const char* env = std::getenv("AERIE_TRACE_SLOW_US");
  v = env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
  g_slow_us.store(v, std::memory_order_relaxed);
  return v;
}

void SetSlowTraceThresholdUs(uint64_t us) {
  g_slow_us.store(us, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace aerie
