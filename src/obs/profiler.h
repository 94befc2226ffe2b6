// Continuous sampling profiler: span-attributed CPU samples + folded-stack
// export (DESIGN.md §9.4).
//
// A process-wide ITIMER_PROF timer delivers SIGPROF at `hz` to whichever
// thread is currently burning CPU. The handler — restricted to operations
// that are async-signal-safe in practice (relaxed atomic stores plus
// glibc's backtrace(), pre-warmed at Start() so its lazy libgcc dlopen
// happens outside signal context) — captures the call stack and the
// thread's layer tag (obs::CurrentSpanTag(): the innermost live span,
// maintained by ScopedSpan whenever counters are on, so a plain
// `counters` run is attributed as fully as a `spans` run) into a
// per-thread single-producer/single-consumer ring of atomics. A collector
// thread drains the rings every ~100 ms into folded-stack aggregates keyed
// by (span, frames) and credits each sample's CPU time (the thread's CPU
// clock delta since its previous sample) to the span's cpu_ns, so
// the span tables (DumpJson / LayerBreakdownText / telemetry / BenchReport)
// decompose every layer into cpu vs. lock/rpc/other wait (the wait side is
// obs::ScopedWait at the instrumented blocking sites).
//
// Gating: AERIE_PROF=0|off disables, =1|on samples at the default rate, a
// number is taken as hz. AERIE_PROF_HZ and AERIE_PROF_RING override the
// rate and per-thread ring capacity. AERIE_PROF_FOLDED=<file> /
// AERIE_PROF_JSON=<file> write the collapsed-stack (flamegraph.pl /
// speedscope compatible) and JSON profile artifacts at process exit or
// explicitly via WriteProfileFilesIfConfigured(). MaybeStartFromEnv() is
// invoked from the process-telemetry attach, so any Aerie process profiles
// itself when AERIE_PROF is set — no per-binary wiring.
//
// Threads are registered lazily from non-signal contexts (a thread's
// outermost span — the point where it first takes a layer tag — Start(),
// RegisterCurrentThread()); a sample landing on an unregistered thread is
// counted in ProfileStats::no_ring and dropped, never buffered unsafely.
#ifndef AERIE_SRC_OBS_PROFILER_H_
#define AERIE_SRC_OBS_PROFILER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/obs/obs.h"

namespace aerie {
namespace obs {
namespace prof {

// Deepest stack recorded per sample (frames beyond this are truncated at
// the root end — the leaf side is what ranks the self-CPU table).
inline constexpr int kMaxFrames = 24;

struct Options {
  uint64_t hz = 997;          // sampling rate; prime to dodge lockstep loops
  uint64_t ring_slots = 1024; // per-thread ring capacity (power of two)
  // Manual mode: no ITIMER_PROF timer and no collector thread — samples
  // arrive only via InjectSampleForTesting and move on DrainNow(). Makes
  // ring-overflow and folded-determinism tests exact.
  bool manual = false;
};

// Installs the SIGPROF handler, registers the calling thread, starts the
// collector and the timer (unless manual). Idempotent while running;
// returns false if a timer/handler could not be installed. Starts a new
// sampling generation (see Reset).
bool Start(const Options& options = Options{});
// Stops the timer and collector and performs a final drain. The SIGPROF
// handler stays installed (late signals hit a running=false fast path).
void Stop();
bool IsRunning();

// Reads AERIE_PROF / AERIE_PROF_HZ / AERIE_PROF_RING and starts when
// enabled; registers an atexit hook that stops and writes any configured
// artifacts. Called from the process-telemetry attach. Safe to call often.
void MaybeStartFromEnv();

// Gives the calling thread a sample ring (idempotent, cheap after the
// first call). A thread's outermost span does this in any mode that keeps
// the layer tag; explicit registration is for threads that burn CPU
// without ever opening a span.
void RegisterCurrentThread();

// Synchronously drains all thread rings into the aggregates (also credits
// span cpu_ns). BenchReport calls this before collecting so the CPU column
// includes the final partial collector interval.
void DrainNow();

// Sampler health; every weight the profiler reports is credited CPU.
struct ProfileStats {
  uint64_t samples = 0;      // drained into aggregates
  uint64_t dropped = 0;      // ring full (overflow accounting)
  uint64_t no_ring = 0;      // sample hit an unregistered thread
  uint64_t hz = 0;           // requested timer rate
};
ProfileStats GetStats();

// Collapsed stacks weighted by credited CPU, one per line:
// `layer;span;root;..;leaf cpu_ns\n`, sorted lexically (deterministic for a
// fixed aggregate). Frames are symbolized via dladdr with `0x...` fallback;
// samples outside any span fold under `(none);(no_span)`.
std::string FoldedStacks();
// JSON profile: {"schema_version":2,"hz":...,"samples":...,"dropped":...,
// "no_ring":...,"stacks":[{layer,span,cpu_ns,frames[]}...],
// "top":[{frame,self_cpu_us}...]} — stacks as in FoldedStacks, top ranked
// by leaf self CPU.
std::string ProfileJson();
// Top-N self-CPU table (rank, cpu ms, %, frame), the profiler's
// analogue of the bench harness's hot-span table.
std::string TopText(size_t top_n = 20);

// Writes AERIE_PROF_FOLDED / AERIE_PROF_JSON artifacts if those variables
// name files; drains first. Returns true if anything was written.
bool WriteProfileFilesIfConfigured();

// Discards pending samples and the folded aggregate and starts a new
// sampling generation (a thread's next sample only re-baselines its CPU
// clock, so CPU burned before the reset is never credited), then runs
// `also` while still holding the drain lock, so no drain lands between.
// obs::ResetAll passes the registry reset, which zeroes span cpu_ns: a
// record and the profile of the same process then count the same samples.
void Reset(const std::function<void()>& also = nullptr);

// Test hook: appends one synthetic sample of `cpu_ns` to the calling
// thread's ring exactly as the signal handler would (registering the
// thread if needed); returns false on ring overflow, which it counts.
bool InjectSampleForTesting(SpanStat* span, uint64_t cpu_ns,
                            const uintptr_t* frames, int num_frames);

}  // namespace prof
}  // namespace obs
}  // namespace aerie

#endif  // AERIE_SRC_OBS_PROFILER_H_
