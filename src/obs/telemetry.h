// Live telemetry plane: shared-memory metrics export + cross-process reader.
//
// Every Aerie process (TFS, lock service, clients, benches) publishes its
// obs registry — counters, gauges, histogram buckets, span times with
// their sampled CPU and charged waits, and rolling-window views — into one
// per-process shared-memory segment (`<dir>/aerie.obs.<pid>`, dir defaults
// to /dev/shm). Readers (aerie_top, the CI smoke test) discover segments by
// prefix scan, merge same-named metrics across processes, and compute
// interval rates and window tails while the system runs. DESIGN.md §9.3 documents the layout and protocol.
//
// Concurrency: the segment is seqlock-versioned. The publisher bumps the
// sequence word to odd, rewrites the payload, and bumps it to even; it
// never blocks and never sees readers. A reader copies the payload out and
// retries until it observes the same even sequence on both sides of the
// copy. All shared words are accessed through std::atomic<uint64_t> with
// relaxed ordering inside release/acquire fences, so concurrent
// publish/snapshot is also TSan-clean in-process (tests/telemetry_test.cc).
//
// Lifecycle: obs::detail::StartProcessTelemetryOnce() (called from the
// first obs-mode read, i.e. effectively process start) creates the
// process-wide publisher unless AERIE_OBS=off or AERIE_OBS_SHM=0, plus the
// opt-in SIGUSR1 sigdump (AERIE_OBS_SIGDUMP=1) and the clean-shutdown
// registry dump (AERIE_OBS_DUMP_FILE). Segments of processes that died
// without cleanup are garbage-collected by any later publisher or reader.
#ifndef AERIE_SRC_OBS_TELEMETRY_H_
#define AERIE_SRC_OBS_TELEMETRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/obs/obs.h"

namespace aerie {
namespace obs {

// --- Segment format (format_version 3) -------------------------------------
// The segment is an array of 64-bit words. Word 0..31 are the header,
// followed by `entry_capacity` fixed-size entries and `hist_capacity`
// bucket blobs (one blob = cumulative + window raw bucket arrays). Strings
// (metric names, process name) are NUL-padded byte ranges inside words.
// v2 widened span entries with the profiler plane's cpu/lock-wait/rpc-wait/
// other-wait sums. v3 drops span self time, so the sampled CPU and the
// charged waits are a span's only time breakdown, and the separate span
// total, which the cumulative histogram's sum already carries. Readers
// reject mismatched versions, so mixed-version processes simply don't
// merge.

inline constexpr uint64_t kTelemetryMagic = 0x53424f4549524541ull;  // AERIEOBS
inline constexpr uint64_t kTelemetryFormatVersion = 3;
inline constexpr int kTelemetryHeaderWords = 32;
inline constexpr int kTelemetryNameBytes = 96;
// name + kind + value + span cpu/lock/rpc/other + 2x(count,sum,min,max) +
// bucket_slot.
inline constexpr int kTelemetryEntryWords =
    kTelemetryNameBytes / 8 + 2 + 4 + 8 + 1;
inline constexpr int kTelemetryBucketWords = 2 * Histogram::kBuckets;
inline constexpr uint64_t kTelemetryEntryCapacity = 768;
inline constexpr uint64_t kTelemetryHistCapacity = 160;
inline constexpr uint64_t kTelemetryNoBucketSlot = ~uint64_t{0};

// Header word indexes.
enum TelemetryHeaderWord : int {
  kHdrMagic = 0,
  kHdrFormatVersion = 1,
  kHdrSeq = 2,  // seqlock; odd while a publish is in flight
  kHdrPid = 3,
  kHdrStartUnixNs = 4,
  kHdrPublishUnixNs = 5,
  kHdrPublishMonoNs = 6,
  kHdrEntryCount = 7,
  kHdrEntryCapacity = 8,
  kHdrHistCapacity = 9,
  kHdrWindowEpochNs = 10,
  kHdrWindowEpochs = 11,
  kHdrPublishCount = 12,
  kHdrDroppedEntries = 13,
  kHdrDroppedHists = 14,
  kHdrMode = 15,
  kHdrProcessName = 16,  // 64 bytes: words 16..23
  // The bucket-blob region starts right after the published entries (the
  // layout is rebuilt every publish, so only a used prefix of the segment
  // is ever written or read).
  kHdrBucketBase = 24,  // word index of bucket blob 0
  kHdrHistCount = 25,   // bucket blobs in use
};
inline constexpr int kTelemetryProcessNameBytes = 64;

inline constexpr uint64_t TelemetrySegmentWords() {
  return kTelemetryHeaderWords +
         kTelemetryEntryCapacity * kTelemetryEntryWords +
         kTelemetryHistCapacity * kTelemetryBucketWords;
}
inline constexpr uint64_t TelemetrySegmentBytes() {
  return TelemetrySegmentWords() * 8;
}

// Segment directory: $AERIE_OBS_SHM_DIR, else /dev/shm.
std::string TelemetryDir();
// "<dir>/aerie.obs.<pid>".
std::string TelemetrySegmentPath(const std::string& dir, uint64_t pid);

// --- Publisher --------------------------------------------------------------

class TelemetryPublisher {
 public:
  struct Options {
    std::string dir;           // empty: TelemetryDir()
    std::string process_name;  // empty: program name
    uint64_t pid = 0;          // 0: getpid() (tests fake dead pids)
  };

  // Creates the segment file and publishes an initial snapshot. Returns
  // nullptr if the segment cannot be created (missing dir, no shm).
  static std::unique_ptr<TelemetryPublisher> Create(const Options& options);
  ~TelemetryPublisher();  // unlinks the segment

  TelemetryPublisher(const TelemetryPublisher&) = delete;
  TelemetryPublisher& operator=(const TelemetryPublisher&) = delete;

  // Serializes the current registry state into the segment (one seqlock
  // generation). Called by the process ticker thread; tests call it from
  // storm loops.
  void PublishNow();

  const std::string& path() const { return path_; }
  uint64_t publish_count() const { return publish_count_; }

 private:
  TelemetryPublisher() = default;

  std::string path_;
  uint64_t pid_ = 0;
  std::string process_name_;
  uint64_t start_unix_ns_ = 0;
  void* map_ = nullptr;
  std::vector<uint64_t> staging_;
  uint64_t publish_count_ = 0;
};

// --- Reader -----------------------------------------------------------------

struct TelemetryMetric {
  std::string name;
  Metric::Kind kind = Metric::Kind::kCounter;
  uint64_t counter = 0;
  int64_t gauge = 0;
  // Profiler plane: sampled CPU + attributed off-CPU waits.
  uint64_t span_cpu_ns = 0;
  uint64_t span_lock_wait_ns = 0;
  uint64_t span_rpc_wait_ns = 0;
  uint64_t span_other_wait_ns = 0;
  bool has_hist = false;  // bucket blob present (histogram/span kinds)
  Histogram cumulative;
  Histogram window;
};

struct TelemetrySnapshot {
  uint64_t pid = 0;
  std::string process_name;
  uint64_t start_unix_ns = 0;
  uint64_t publish_unix_ns = 0;
  uint64_t publish_mono_ns = 0;
  uint64_t publish_count = 0;
  uint64_t window_epoch_ns = 0;
  uint64_t dropped_entries = 0;
  uint64_t dropped_hists = 0;
  Mode mode = Mode::kOff;
  std::vector<TelemetryMetric> metrics;  // sorted by name within a process
};

// Seqlock-consistent snapshot of one segment. Returns false for segments
// that are missing, not yet published, from a different format version, or
// that could not be read consistently within the retry budget.
bool ReadTelemetrySegment(const std::string& path, TelemetrySnapshot* out);

// Discovers `aerie.obs.<pid>` segments under `dir` and snapshots the live
// ones. With gc_dead, segments whose pid no longer exists are unlinked
// (count reported via gc_count). Results are sorted by pid.
std::vector<TelemetrySnapshot> ReadTelemetryDir(const std::string& dir,
                                                bool gc_dead,
                                                int* gc_count = nullptr);

// Merges same-named metrics across process snapshots: counters/gauges/span
// sums add, histogram buckets (cumulative and window) merge. Sorted by name.
std::vector<TelemetryMetric> MergeTelemetry(
    const std::vector<TelemetrySnapshot>& snapshots);

// --- Process lifecycle ------------------------------------------------------

// The process-wide publisher instance, if StartProcessTelemetryOnce started
// one (null when disabled). Tests use it to force a publish tick.
TelemetryPublisher* ProcessTelemetryPublisher();

// Synchronously runs one process-telemetry tick (publish + pending sigdump)
// as the ticker thread would; exposed for tests and aerie_top --self.
void ProcessTelemetryTickForTesting();

}  // namespace obs
}  // namespace aerie

#endif  // AERIE_SRC_OBS_TELEMETRY_H_
