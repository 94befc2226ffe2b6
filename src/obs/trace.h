// Per-operation tracing: trace contexts, a lock-free per-thread flight
// recorder, and a Chrome trace-event / Perfetto JSON exporter.
//
// The registry (obs.h) answers "where does time go in aggregate"; this
// module answers "why was *this* open() slow". Every root AERIE_SPAN (one
// with no enclosing span on its thread — in practice the PXFS/FlatFS API
// entry points) mints a fresh trace_id; nested spans extend the thread's
// TraceContext, and the RPC transports carry the context across the
// client/server boundary (see WireTraceContext in src/rpc/wire.h) so
// LockService and TFS spans are recorded as children of the client op.
//
// The flight recorder keeps the last N events per thread in a fixed ring
// (default 4096 events, AERIE_TRACE_RING overrides; ~64 bytes/event).
// Writers are lock-free: each thread owns its ring and stamps slots through
// a per-slot seqlock, so a concurrent dump never blocks the data path and
// never trips TSan. Dumps happen on demand (DumpTraceJson), on a failed
// AERIE_CHECK (post-mortem trail to stderr), or when a root span exceeds
// AERIE_TRACE_SLOW_US (that trace's event trail to stderr).
//
// Everything here is inert unless AERIE_OBS=spans: the record paths are
// behind the same single-branch SpansOn() gate as ScopedSpan's timing.
#ifndef AERIE_SRC_OBS_TRACE_H_
#define AERIE_SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/obs.h"

namespace aerie {
namespace obs {

// The position of the current operation in its trace tree. Flows through
// thread-local state on each thread and through RPC frames across
// processes. trace_id == 0 means "no active trace".
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;    // innermost live span; parent for new children
  uint64_t parent_id = 0;  // that span's parent (0 at the root)

  bool valid() const { return trace_id != 0; }
};

// This thread's current context (zero outside any traced span).
TraceContext CurrentTraceContext();

// Installs `ctx` as this thread's context and restores the previous one on
// destruction. RPC servers wrap handler dispatch in one of these so handler
// spans become children of the remote client span; installing an empty
// context isolates the handler from any stale thread state.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
};

// Fresh process-unique nonzero ids (also used by tests).
uint64_t NewTraceId();
uint64_t NewSpanId();

// Annotated point event attributed to the current span, e.g.
// TraceInstant("clerk.revoke.handled", lock_id). `name` must be a string
// literal (the recorder stores the pointer). One branch when spans are off.
void TraceInstant(const char* name, uint64_t arg = 0);

// Names this thread's track in exported timelines ("client3",
// "tfs.conn1001", ...). Unnamed threads show as "thread<N>".
void SetThreadTraceName(std::string_view name);

// One decoded flight-recorder event.
enum class TraceEventKind : uint32_t {
  kSpanBegin = 1,  // span opened and not yet closed when collected
  kSpanEnd = 2,    // completed span: ts_ns..ts_ns+dur_ns
  kInstant = 3,    // point annotation (arg carries the value)
};

struct TraceEventView {
  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint64_t arg = 0;
  const char* name = nullptr;
  uint32_t tid = 0;  // dense recorder thread id (stable per thread)
  TraceEventKind kind = TraceEventKind::kInstant;
};

// Snapshot of every thread's ring, sorted by timestamp. Safe to call while
// writers are live; slots overwritten mid-read are skipped (seqlock).
std::vector<TraceEventView> CollectTraceEvents();

// Chrome trace-event JSON ({"traceEvents":[...]}) of the recorder contents.
// Loadable in ui.perfetto.dev or chrome://tracing. Completed spans export as
// "X" events, still-open spans as "B", instants as "i"; every event carries
// trace_id/span_id/parent_id args for cross-track correlation.
std::string DumpTraceJson();

// DumpTraceJson() to a file. Returns false (and leaves a partial file) on
// I/O error.
bool WriteTraceJsonFile(const std::string& path);

// Writes the trace to $AERIE_TRACE_FILE if that is set (benches call this
// at exit). Returns the path written, or "" if unset or on error.
std::string WriteTraceFileIfConfigured();

// Human-readable event trail: events of one trace (trace_id != 0), or the
// most recent `limit` events overall. The CHECK-failure and slow-op dumps
// print this.
std::string FlightRecorderText(uint64_t trace_id = 0, size_t limit = 256);

// The failed-AERIE_CHECK dump, callable on demand: recent flight-recorder
// events to stderr plus the full trace JSON to $AERIE_TRACE_FILE if set.
// The SIGUSR1 sigdump (AERIE_OBS_SIGDUMP=1, telemetry.cc) reuses it.
void DumpPostMortem();

// Drops all recorded events; rings stay registered (bench epochs pair this
// with Registry::ResetAll, see obs::ResetAll).
void ResetFlightRecorder();

// Slow-op trigger: root spans whose duration exceeds this dump their trace
// trail to stderr. 0 disables. Initialized from AERIE_TRACE_SLOW_US;
// SetSlowTraceThresholdUs overrides at runtime (tests, benches).
uint64_t SlowTraceThresholdUs();
void SetSlowTraceThresholdUs(uint64_t us);

}  // namespace obs
}  // namespace aerie

#endif  // AERIE_SRC_OBS_TRACE_H_
