// Unified observability layer: process-wide metrics registry + trace spans.
//
// The paper's headline argument (Fig. 1, Table 1, §7) attributes latency to
// layers — VFS entry vs. naming vs. locking vs. RPC vs. SCM flushes. This
// module is the measurement substrate for the same breakdown on the Aerie
// side: every runtime layer (pxfs/flatfs API, name cache, clerk, RPC
// transport, TFS, txlog, SCM primitives) reports into one registry, and the
// benches print one per-layer table from it.
//
// Primitives:
//   * Counter   — monotonically increasing u64 (relaxed atomic).
//   * Gauge     — signed instantaneous value (relaxed atomic).
//   * LatencyHistogram — aerie::Histogram sharded across threads; recording
//     takes a per-shard spinlock that is effectively uncontended (shards are
//     selected by a per-thread id), so the hot path stays allocation-free.
//   * SpanStat / ScopedSpan / AERIE_SPAN(layer, op) — scoped spans. Whenever
//     counters are on, a span is the thread's *layer tag*: one thread-local
//     pointer to the innermost live span's SpanStat, which the SCM
//     primitives charge media traffic to (scm.layer.<layer>.*) and the
//     SIGPROF sampler attributes CPU to. In span mode spans are also timed
//     (inclusive wall time, for latency histograms and traces); per-layer
//     CPU comes only from the sampler and per-layer off-CPU time only from
//     ScopedWait.
//
// Metrics are either *interned* (Registry::GetCounter("layer.op.metric");
// live forever; the AERIE_SPAN macro interns once per call site via a
// function-local static) or *instance* metrics (owned by an object such as
// ScmStats, registered for the object's lifetime; the exporter aggregates
// same-named instances).
//
// Gating: the AERIE_OBS environment variable (off | counters | spans;
// default counters) selects the recording level. Every record path is
// guarded by a single relaxed load + branch, so `off` costs one predictable
// branch per call site. `counters` adds the layer tag (a clock-free TLS
// store on span entry and exit); `spans` adds timing and trace events.
// obs::SetMode() overrides the environment at runtime. Benches measure in
// counters mode and take their per-layer CPU from the sampling profiler
// (src/obs/profiler.h), so span mode is for traces and telemetry.
//
// Naming convention: `layer.op.metric`, e.g. `scm.flush.lines`,
// `clerk.acquire.global`, `rpc.tfs.apply_batch.bytes_out`. Span names are
// `layer.op`; the exporter derives the layer table from the prefix before
// the first '.'.
#ifndef AERIE_SRC_OBS_OBS_H_
#define AERIE_SRC_OBS_OBS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/histogram.h"

namespace aerie {
namespace obs {

enum class Mode : int {
  kOff = 0,       // record nothing
  kCounters = 1,  // counters, gauges, histograms
  kSpans = 2,     // everything, including trace spans
};

namespace detail {
// -1 = "not yet initialized from AERIE_OBS"; constant-initialized so there
// is no static-init-order hazard. First reader parses the environment.
inline std::atomic<int> g_mode{-1};
int InitModeFromEnv();  // parses AERIE_OBS, stores and returns the mode
// Idempotent process-telemetry attach (shm publisher / sigdump / dump-file;
// defined in telemetry.cc, invoked from InitModeFromEnv).
void StartProcessTelemetryOnce();
}  // namespace detail

inline int ModeRaw() {
  const int m = detail::g_mode.load(std::memory_order_relaxed);
  if (m >= 0) [[likely]] {
    return m;
  }
  return detail::InitModeFromEnv();
}

inline Mode CurrentMode() { return static_cast<Mode>(ModeRaw()); }
void SetMode(Mode mode);
// Parses "off"/"counters"/"spans" (anything else -> kCounters).
Mode ParseMode(std::string_view text);

// The single-branch gates every hot path uses.
inline bool CountersOn() {
  return ModeRaw() >= static_cast<int>(Mode::kCounters);
}
inline bool SpansOn() { return ModeRaw() >= static_cast<int>(Mode::kSpans); }

class Registry;

// Base for everything the registry can enumerate.
class Metric {
 public:
  enum class Kind { kCounter, kGauge, kHistogram, kSpan };

  virtual ~Metric() = default;
  Metric(const Metric&) = delete;
  Metric& operator=(const Metric&) = delete;

  const std::string& name() const { return name_; }
  Kind kind() const { return kind_; }
  virtual void Reset() = 0;

 protected:
  Metric(std::string name, Kind kind) : name_(std::move(name)), kind_(kind) {}

 private:
  std::string name_;
  Kind kind_;
};

class Counter final : public Metric {
 public:
  explicit Counter(std::string name)
      : Metric(std::move(name), Kind::kCounter) {}

  void Add(uint64_t n = 1) {
    if (CountersOn()) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  // std::atomic-compatible spelling; keeps migrated call sites (ScmStats,
  // VfsStats) reading the way they always did.
  uint64_t load() const { return value(); }
  void Reset() override { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge final : public Metric {
 public:
  explicit Gauge(std::string name) : Metric(std::move(name), Kind::kGauge) {}

  void Set(int64_t v) {
    if (CountersOn()) {
      value_.store(v, std::memory_order_relaxed);
    }
  }
  void Add(int64_t n) {
    if (CountersOn()) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  void Sub(int64_t n) { Add(-n); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() override { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

namespace detail {

class SpinLock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    }
  }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

// Small dense per-thread id used to pick a histogram shard.
inline uint32_t ThreadShardId() {
  static std::atomic<uint32_t> next{0};
  static thread_local uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// Length of one rolling-window sub-epoch in nanoseconds: the window spans
// kWindowEpochs of these (~AERIE_OBS_WINDOW_SECS seconds total, default 10).
// Cached after the first read; SetWindowEpochNanosForTesting overrides.
uint64_t WindowEpochNanos();

}  // namespace detail

// Number of sub-epochs in a rolling histogram window. A WindowSnapshot
// merges the most recent kWindowEpochs epochs (including the in-progress
// one), so tails reflect roughly the last AERIE_OBS_WINDOW_SECS seconds
// rather than the process lifetime.
inline constexpr int kWindowEpochs = 8;

// Overrides the sub-epoch length (0 restores the environment default on the
// next read). Tests drive rotation with a synthetic clock through this plus
// RecordAtForTesting/WindowSnapshotAt.
void SetWindowEpochNanosForTesting(uint64_t ns);

// aerie::Histogram sharded across threads. Recording locks one shard
// spinlock; threads map to shards by a dense thread id, so the lock is
// uncontended unless thread count far exceeds kShards.
//
// Each shard additionally keeps a rotating window of kWindowEpochs
// sub-epoch histograms (allocated lazily on the shard's first record, so
// idle histograms cost nothing): a record lands in the epoch slot derived
// from its timestamp, reusing — and first clearing — slots whose epoch has
// expired. WindowSnapshot merges the epochs that are still inside the
// window, which is what makes "p99 over the last ~10 s" cheap to answer.
class LatencyHistogram final : public Metric {
 public:
  explicit LatencyHistogram(std::string name)
      : Metric(std::move(name), Kind::kHistogram) {}

  void Record(uint64_t value) {
    if (CountersOn()) {
      RecordAlways(value, NowNanos());
    }
  }

  // Merged lifetime view across shards.
  Histogram Snapshot() const;
  // Merged view of the rolling window: samples from the most recent
  // kWindowEpochs sub-epochs (including the in-progress one).
  Histogram WindowSnapshot() const { return WindowSnapshotAt(NowNanos()); }
  Histogram WindowSnapshotAt(uint64_t now_ns) const;
  void Reset() override;

  // Test hook: record with an explicit timestamp (drives window rotation
  // deterministically together with SetWindowEpochNanosForTesting).
  void RecordAtForTesting(uint64_t value, uint64_t now_ns) {
    RecordAlways(value, now_ns);
  }

 private:
  friend class SpanStat;

  static constexpr uint64_t kNoEpoch = ~uint64_t{0};

  struct WindowEpoch {
    uint64_t epoch_id = kNoEpoch;
    Histogram hist;
  };

  void RecordAlways(uint64_t value, uint64_t now_ns) {
    Shard& shard = shards_[detail::ThreadShardId() % kShards];
    const uint64_t epoch_id = now_ns / detail::WindowEpochNanos();
    shard.lock.lock();
    shard.hist.Record(value);
    if (shard.window == nullptr) {
      shard.window = std::make_unique<WindowEpoch[]>(kWindowEpochs);
    }
    WindowEpoch& epoch =
        shard.window[epoch_id % static_cast<uint64_t>(kWindowEpochs)];
    if (epoch.epoch_id != epoch_id) {
      // Rotation: this slot last held an epoch that has left the window
      // (or was never used); retire its samples before reuse.
      epoch.hist.Clear();
      epoch.epoch_id = epoch_id;
    }
    epoch.hist.Record(value);
    shard.lock.unlock();
  }

  static constexpr uint32_t kShards = 8;
  struct alignas(64) Shard {
    mutable detail::SpinLock lock;
    Histogram hist;
    std::unique_ptr<WindowEpoch[]> window;  // lazy; kWindowEpochs entries
  };
  mutable std::array<Shard, kShards> shards_;
};

// Off-CPU wait categories for span attribution (profiler plane, DESIGN.md
// §9.4). Instrumented wait sites charge their blocked wall time to the
// calling thread's innermost live span under one of these; sampled CPU time
// (src/obs/profiler.h) is the fourth bucket, so every span decomposes into
// cpu / lock_wait / rpc_wait / other_wait.
enum class WaitKind : int {
  kLock = 0,   // lock-service waiter queues, clerk local-grant waits
  kRpc = 1,    // RPC round trips (transport Call blocked on the server)
  kOther = 2,  // everything else (drain stalls, batch-ship backpressure)
};
inline constexpr int kWaitKinds = 3;

// The layer of a span or metric name: the prefix before the first '.'.
inline std::string_view LayerOf(std::string_view name) {
  return name.substr(0, name.find('.'));
}

// One layer's SCM media traffic (write amplification, DESIGN.md §9.3):
// the interned counters scm.layer.<layer>.{lines_flushed,bytes_streamed,
// fences}, charged by the persistence primitives (src/scm/pmem.h) to the
// calling thread's layer tag.
struct ScmLayerCounters {
  Counter& lines_flushed;   // cache lines made persistent
  Counter& bytes_streamed;  // bytes through StreamWrite
  Counter& fences;          // Fence calls
};
// Interned per layer name; lives for the process.
ScmLayerCounters& ScmLayerCountersFor(std::string_view layer);

// Aggregate for one span call-site family (one `layer.op`): a histogram of
// inclusive wall time (its count and sum are the calls and total time)
// plus the profiler plane's CPU and wait sums.
class SpanStat final : public Metric {
 public:
  explicit SpanStat(std::string name)
      : Metric(std::move(name), Kind::kSpan), hist_(std::string()) {}

  // end_ns stamps the sample into the rolling window (callers that already
  // read the clock — ScopedSpan — pass their end timestamp; 0 reads it).
  void Record(uint64_t total_ns, uint64_t end_ns = 0) {
    hist_.RecordAlways(total_ns, end_ns != 0 ? end_ns : NowNanos());
  }

  // Calls (count) and inclusive wall time (sum, child spans included).
  Histogram Snapshot() const { return hist_.Snapshot(); }
  // Rolling-window view (same window semantics as
  // LatencyHistogram::WindowSnapshot).
  Histogram WindowSnapshot() const { return hist_.WindowSnapshot(); }

  // CPU time attributed by the sampling profiler (each SIGPROF sample
  // landing while this span was innermost on some thread carries the
  // thread CPU time it measured since that thread's previous sample) and
  // off-CPU wait charged by instrumented wait sites. All relaxed; the
  // profiler collector is the only AddCpuNs caller, wait sites call
  // AddWaitNs from their own thread.
  void AddCpuNs(uint64_t ns) {
    cpu_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void AddWaitNs(WaitKind kind, uint64_t ns) {
    wait_ns_[static_cast<int>(kind)].fetch_add(ns, std::memory_order_relaxed);
  }
  uint64_t cpu_ns() const { return cpu_ns_.load(std::memory_order_relaxed); }
  uint64_t wait_ns(WaitKind kind) const {
    return wait_ns_[static_cast<int>(kind)].load(std::memory_order_relaxed);
  }
  uint64_t lock_wait_ns() const { return wait_ns(WaitKind::kLock); }
  uint64_t rpc_wait_ns() const { return wait_ns(WaitKind::kRpc); }
  uint64_t other_wait_ns() const { return wait_ns(WaitKind::kOther); }

  // The SCM counters of this span's layer, resolved on first use.
  ScmLayerCounters& scm_layer() {
    ScmLayerCounters* counters = scm_layer_.load(std::memory_order_acquire);
    if (counters == nullptr) [[unlikely]] {
      counters = &ScmLayerCountersFor(LayerOf(name()));
      scm_layer_.store(counters, std::memory_order_release);
    }
    return *counters;
  }

  void Reset() override {
    cpu_ns_.store(0, std::memory_order_relaxed);
    for (auto& w : wait_ns_) {
      w.store(0, std::memory_order_relaxed);
    }
    hist_.Reset();
  }

 private:
  std::atomic<uint64_t> cpu_ns_{0};
  std::array<std::atomic<uint64_t>, kWaitKinds> wait_ns_{};
  LatencyHistogram hist_;
  std::atomic<ScmLayerCounters*> scm_layer_{nullptr};
};

namespace detail {

// The thread's layer tag: the innermost live span's stat, or null outside
// any span. ScopedSpan sets it on entry and restores it on exit whenever
// counters are on. The SCM primitives charge the tag's layer, and the
// SIGPROF handler (src/obs/profiler.cc) reads it — an atomic because a
// sample can land between any two instructions of ctor/dtor. Values are
// interned SpanStat pointers, valid for the process lifetime, so a stale
// read is at worst misattributed, never a dangling dereference.
extern thread_local constinit std::atomic<SpanStat*> g_tls_span_tag;

}  // namespace detail

inline SpanStat* CurrentSpanTag() {
  return detail::g_tls_span_tag.load(std::memory_order_relaxed);
}

namespace prof {
// src/obs/profiler.h: gives the calling thread a sample ring. A thread's
// outermost span calls it, so every thread that carries a layer tag can be
// sampled in any mode that maintains the tag.
void RegisterCurrentThread();
}  // namespace prof

namespace detail {

// Trace-context bookkeeping for one live ScopedSpan, maintained by the
// flight recorder (obs/trace.cc — out of line so obs.h need not see the
// tracing internals). Begin mints/extends the thread's TraceContext and
// stamps a begin event; End restores the previous context and stamps the
// completed span. Only called on the spans-enabled path.
struct TraceLink {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  // Thread context to restore when the span ends.
  uint64_t prev_trace_id = 0;
  uint64_t prev_span_id = 0;
  uint64_t prev_parent_id = 0;
};
// `name` must outlive the process (interned SpanStat names qualify).
void TraceSpanBegin(const char* name, TraceLink* link);
void TraceSpanEnd(const char* name, const TraceLink& link, uint64_t start_ns,
                  uint64_t end_ns);

}  // namespace detail

// RAII span. A null stat leaves it inert; callers pass null when counters
// are off (AERIE_SPAN does), so `off` costs the caller's one branch. With a
// stat the span tags the thread with it until destruction (no clock read);
// in span mode it is also timed, recorded and linked into the trace.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanStat* stat) {
    if (stat == nullptr) {
      return;
    }
    stat_ = stat;
    prev_tag_ = CurrentSpanTag();
    detail::g_tls_span_tag.store(stat, std::memory_order_relaxed);
    if (prev_tag_ == nullptr) {
      prof::RegisterCurrentThread();
    }
    if (!SpansOn()) {
      return;
    }
    detail::TraceSpanBegin(stat->name().c_str(), &trace_);
    start_ns_ = NowNanos();
  }

  ~ScopedSpan() {
    if (stat_ == nullptr) {
      return;
    }
    detail::g_tls_span_tag.store(prev_tag_, std::memory_order_relaxed);
    if (start_ns_ == 0) {
      return;  // tag only: entered outside span mode
    }
    const uint64_t end_ns = NowNanos();
    stat_->Record(end_ns - start_ns_, end_ns);
    detail::TraceSpanEnd(stat_->name().c_str(), trace_, start_ns_, end_ns);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanStat* stat_ = nullptr;
  SpanStat* prev_tag_ = nullptr;  // the tag to restore on exit
  uint64_t start_ns_ = 0;         // 0 = untimed
  detail::TraceLink trace_;
};

// Charges `ns` of off-CPU wait of `kind` to the calling thread's layer tag
// (its innermost live span). No-op when counters are off or no span is
// live.
void AddWaitNsToCurrentSpan(WaitKind kind, uint64_t ns);

// RAII off-CPU wait measurement for an instrumented blocking site: whenever
// counters are on, charges the wall time between construction and
// destruction as `kind` wait to the calling thread's layer tag. When
// `total_ns` is non-null the measured time is also accumulated there, even
// without a live span — the lock service feeds lock.wait.latency_us from
// it. Inert (one clock-free branch) when counters are off, or when there is
// neither a tag nor a total to charge.
class ScopedWait {
 public:
  explicit ScopedWait(WaitKind kind, uint64_t* total_ns = nullptr);
  ~ScopedWait();
  ScopedWait(const ScopedWait&) = delete;
  ScopedWait& operator=(const ScopedWait&) = delete;

 private:
  uint64_t start_ns_ = 0;  // 0 = inert
  uint64_t* total_ns_ = nullptr;
  WaitKind kind_ = WaitKind::kOther;
};

// One row of an exporter snapshot; same-named instance metrics are merged.
struct MetricSnapshot {
  std::string name;
  Metric::Kind kind;
  uint64_t counter = 0;    // kCounter
  int64_t gauge = 0;       // kGauge
  Histogram hist;          // kHistogram (values), kSpan (inclusive time)
  Histogram window;        // rolling-window view of `hist` (same kinds)
  // Profiler plane (DESIGN.md §9.4): sampled CPU + attributed off-CPU wait.
  uint64_t span_cpu_ns = 0;
  uint64_t span_lock_wait_ns = 0;
  uint64_t span_rpc_wait_ns = 0;
  uint64_t span_other_wait_ns = 0;
};

class Registry {
 public:
  static Registry& Instance();

  // Interned metrics: one per name, live for the process lifetime.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  LatencyHistogram& GetHistogram(std::string_view name);
  SpanStat& GetSpan(std::string_view name);

  // Instance metrics owned by some object (per-region ScmStats, per-VFS
  // VfsStats, per-clerk counters). The object must Unregister before dying.
  void Register(Metric* metric);
  void Unregister(Metric* metric);

  // Aggregated snapshot, sorted by name; same-named metrics are merged
  // (counters/gauges summed, histograms merged).
  std::vector<MetricSnapshot> Collect() const;

  // Zeroes every live metric (bench epochs).
  void ResetAll();

  size_t MetricCountForTesting() const;

 private:
  Registry() = default;
};

// Registers a set of instance metrics and unregisters them on destruction.
// Declare it AFTER the metrics it guards so unregistration runs first.
class ScopedRegistration {
 public:
  ScopedRegistration() = default;
  ~ScopedRegistration() {
    for (Metric* m : metrics_) {
      Registry::Instance().Unregister(m);
    }
  }
  ScopedRegistration(const ScopedRegistration&) = delete;
  ScopedRegistration& operator=(const ScopedRegistration&) = delete;

  void Add(Metric* metric) {
    Registry::Instance().Register(metric);
    metrics_.push_back(metric);
  }
  template <typename... Ms>
  void AddAll(Ms&... metrics) {
    (Add(&metrics), ...);
  }

 private:
  std::vector<Metric*> metrics_;
};

// --- Exporters (benches print these; EXPERIMENTS.md records the JSON) ---

// One layer's span totals: the sums over every span whose name has the
// layer prefix. spans/total_ns are measured in span mode only; cpu_ns
// (sampled) and the waits are charged through the layer tag in any mode
// that keeps it, and are the layer's whole time breakdown.
struct LayerRow {
  std::string layer;
  uint64_t spans = 0;
  uint64_t total_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t lock_wait_ns = 0;
  uint64_t rpc_wait_ns = 0;
  uint64_t other_wait_ns = 0;
};
// Aggregates the span rows of a snapshot by layer, sorted by layer name. A
// layer is kept when any of its spans was called, sampled or waited.
std::vector<LayerRow> LayerRows(const std::vector<MetricSnapshot>& snaps);

// Human-readable dump of every metric, sorted by name.
std::string DumpText();
// One JSON object: {"schema_version":2, "mode":..., "counters":{...},
// "gauges":{...}, "histograms":{name: summary...}, "spans":{...},
// "layers":{...}} where "layers" aggregates span calls, inclusive time,
// sampled CPU and waits by the `layer` name prefix. schema_version is
// bumped whenever a section changes shape.
std::string DumpJson();
// Per-layer table (layer, spans, inclusive ms, cpu ms, lock/rpc/other wait
// ms, wait share of cpu + waits) from span data.
std::string LayerBreakdownText();

// Zeroes all metrics, the flight recorder and the sampling profiler's
// folded aggregate (Registry::ResetAll plus prof::Reset), so span cpu_ns
// and the profile restart from the same point.
void ResetAll();

// --- SCM write-amplification accounting -----------------------------------
// The SCM primitives attribute physical media traffic per layer
// (ScmLayerCounters: the caller's layer tag picks the scm.layer.<layer>.*
// row) and the PXFS/FlatFS API boundary counts the logical bytes
// applications asked to write (*.api.logical_write_bytes). ComputeWriteAmp
// derives per-layer write amplification from any (name, counter value) set
// — the local registry, or a cross-process telemetry merge in aerie_top.
// Bytes per flushed cache line (mirrors aerie::kCacheLineSize without an
// obs -> scm dependency).
inline constexpr uint64_t kWriteAmpLineBytes = 64;

struct WriteAmpRow {
  std::string layer;
  uint64_t physical_bytes = 0;  // 64 * scm.layer.<layer>.lines_flushed
  uint64_t streamed_bytes = 0;  // scm.layer.<layer>.bytes_streamed
  uint64_t fences = 0;          // scm.layer.<layer>.fences
  double amplification = 0;     // physical_bytes / total logical bytes
};
struct WriteAmpReport {
  uint64_t logical_bytes = 0;   // sum of *.api.logical_write_bytes
  uint64_t physical_bytes = 0;  // sum of layer physical bytes
  double amplification = 0;     // physical / logical (0 when logical == 0)
  std::vector<WriteAmpRow> layers;  // sorted by layer name
};
WriteAmpReport ComputeWriteAmp(
    const std::vector<std::pair<std::string, uint64_t>>& counters);
// The same report computed from this process's registry.
WriteAmpReport LocalWriteAmp();

// --- RPC method instrumentation -------------------------------------------
// Transports record per-method call counts and bytes without knowing which
// subsystem owns a method id; subsystems register readable names when they
// wire their dispatcher (before the first call, or the id is rendered in
// hex). Counter names: rpc.<method>.calls / .bytes_out / .bytes_in, span
// name rpc.<method>.
struct RpcMethodStats {
  Counter& calls;
  Counter& bytes_out;
  Counter& bytes_in;
  SpanStat& span;
};
void SetRpcMethodName(uint32_t method, std::string_view name);
RpcMethodStats& RpcMethodStatsFor(uint32_t method);

}  // namespace obs
}  // namespace aerie

// Scoped span: AERIE_SPAN("pxfs", "open") tags the enclosing scope with
// layer "pxfs", op "open" (SCM traffic and CPU samples land there) and, in
// span mode, attributes its wall time to it. Both arguments must be string
// literals. Costs one branch when obs is off.
#define AERIE_OBS_CONCAT_(a, b) a##b
#define AERIE_OBS_CONCAT(a, b) AERIE_OBS_CONCAT_(a, b)
#define AERIE_SPAN(layer, op)                                               \
  static ::aerie::obs::SpanStat& AERIE_OBS_CONCAT(aerie_span_stat_,         \
                                                  __LINE__) =               \
      ::aerie::obs::Registry::Instance().GetSpan(layer "." op);             \
  ::aerie::obs::ScopedSpan AERIE_OBS_CONCAT(aerie_span_, __LINE__)(         \
      ::aerie::obs::CountersOn()                                            \
          ? &AERIE_OBS_CONCAT(aerie_span_stat_, __LINE__)                   \
          : nullptr)

// Interned-counter increment: AERIE_COUNT("pxfs.name_cache.hit") or
// AERIE_COUNT_N("txlog.append.bytes", n). Interns once per call site.
#define AERIE_COUNT_N(name, n)                                              \
  do {                                                                      \
    if (::aerie::obs::CountersOn()) {                                       \
      static ::aerie::obs::Counter& AERIE_OBS_CONCAT(aerie_counter_,        \
                                                     __LINE__) =            \
          ::aerie::obs::Registry::Instance().GetCounter(name);              \
      AERIE_OBS_CONCAT(aerie_counter_, __LINE__).Add(n);                    \
    }                                                                       \
  } while (0)
#define AERIE_COUNT(name) AERIE_COUNT_N(name, 1)

#endif  // AERIE_SRC_OBS_OBS_H_
