// Closed-loop workload generators with an integrity model.
//
// Each client is one thread that waits for every file-system call before it
// issues the next. Every call is timed at the Pxfs or FlatFs API and
// accounted in the client's OpLog. The generator keeps a model of every file
// or key it believes is live (size plus a head and tail stamp written into the
// data), checks each read against it, and re-checks the whole model through
// the API after the timed phase.
//
// Footprints are bounded so run length does not change the working set:
// creates reuse names from a fixed universe of 2x the fileset (so the live
// count stays at the fileset size), and the log file or log key is truncated
// once the next append would pass its cap.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/rand.h"
#include "src/common/status.h"
#include "src/flatfs/flatfs.h"
#include "src/pxfs/pxfs.h"

namespace perfbench {

enum class OpKind {
  kOpen,    // open of an existing file (reads and log appends)
  kCreate,  // open with create + truncate
  kRead,
  kWrite,
  kClose,
  kUnlink,
  kStat,
  kPut,
  kGet,
  kErase,
};
inline constexpr int kOpKinds = 10;
const char* OpKindName(OpKind kind);

enum class Mix { kWebserver, kWebproxy, kFileserver, kFlatWebproxy };

struct WorkloadSpec {
  std::string name;
  Mix mix = Mix::kWebserver;
  int clients = 1;
  uint64_t scm_write_ns = 0;
  uint64_t region_bytes = 0;
  uint64_t nfiles = 0;          // live files or keys per client
  uint64_t dir_width = 0;       // mean directory fan-out; 0 = one directory
  uint64_t mean_size = 0;       // exponential, clamped to [1 KB, max_size]
  uint64_t max_size = 0;
  uint64_t io_size = 1 << 20;   // read/write chunk
  uint64_t append_size = 16 << 10;
  uint64_t log_cap = 0;         // the log restarts once it would pass this
  uint64_t flat_capacity = 0;   // FlatFS value capacity
};

// Returns false for an unknown name. `tiny` shrinks filesets for self-tests.
bool SpecFor(const std::string& name, bool tiny, WorkloadSpec* spec);

// An exact latency distribution in fixed memory: one counter per nanosecond
// below kLinearNs, and the rare slower samples kept individually. Fixed
// memory keeps the benchmark's own footprint out of peak_rss_mb's variation.
class LatencyCounts {
 public:
  static constexpr uint64_t kLinearNs = 1 << 18;  // 262 us

  LatencyCounts() : counts_(kLinearNs, 0) {}

  void Record(uint64_t ns) {
    if (ns < kLinearNs) {
      counts_[ns]++;
    } else {
      slow_.push_back(ns);
    }
    total_++;
  }
  uint64_t count() const { return total_; }

  // Nearest-rank percentile (p in (0, 1]) over the union of `parts`, in
  // microseconds; 0 when they are empty.
  static double PercentileUs(const std::vector<const LatencyCounts*>& parts,
                             double p);

 private:
  std::vector<uint32_t> counts_;
  std::vector<uint64_t> slow_;
  uint64_t total_ = 0;
};

// Per-client call accounting. The client thread is the only writer; the
// main thread reads the atomics at phase boundaries and everything else
// after the client thread has been joined.
class OpLog {
 public:
  // kSetup: nothing is counted (errors still surface through last_error).
  // kRun: calls are counted. kSample: counted and their latencies kept.
  enum class Mode { kSetup, kRun, kSample };

  void set_mode(Mode mode) { mode_.store(mode, std::memory_order_relaxed); }

  void Account(OpKind kind, uint64_t ns, const aerie::Status& status);
  void AddBytes(uint64_t read, uint64_t written);
  // A read or a verification check that returned the wrong data.
  void Mismatch(const std::string& what);

  uint64_t completed() const { return completed_.load(std::memory_order_relaxed); }
  uint64_t read_bytes() const { return read_bytes_.load(std::memory_order_relaxed); }
  uint64_t write_bytes() const {
    return write_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t mismatches() const { return mismatches_; }
  // The first few errors, in order; the record carries them for diagnosis.
  const std::vector<std::string>& errors() const { return errors_; }
  const std::string& last_error() const { return last_error_; }
  const LatencyCounts& latencies(OpKind kind) const {
    return latency_[static_cast<size_t>(kind)];
  }

 private:
  void NoteError(const std::string& what);

  static constexpr size_t kKeptErrors = 5;

  std::atomic<Mode> mode_{Mode::kSetup};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> write_bytes_{0};
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
  std::vector<std::string> errors_;
  std::string last_error_;
  std::array<LatencyCounts, kOpKinds> latency_;
};

// One client's generator. Prepare() builds the fileset (untimed), then the
// client thread calls RunIteration() until told to stop, then the main thread
// calls Verify() on the quiesced client.
class WorkloadClient {
 public:
  virtual ~WorkloadClient() = default;

  virtual aerie::Status Prepare() = 0;
  virtual void RunIteration() = 0;
  // Ships buffered metadata, then checks every live file or key (and the
  // absence of every removed one) through the API.
  virtual void Verify() = 0;

  OpLog* log() { return &log_; }
  // True once the client stopped issuing calls after too many failures.
  bool gave_up() const { return gave_up_; }
  // Self-test hook: the next read check sees one byte fewer than returned.
  void InjectBadReadLength() { inject_bad_length_ = true; }

 protected:
  WorkloadClient(const WorkloadSpec& spec, uint64_t seed);

  // Runs `fn` (returning a Status or Result), timing it as `kind`.
  template <typename Fn>
  auto Timed(OpKind kind, Fn&& fn) -> decltype(fn());
  // After a failed call: the iteration is abandoned and the client backs off
  // briefly (not while verifying), so a persistent fault cannot spin into a
  // loop of fast failures.
  void AfterFailure();
  // AfterFailure for a call on `name`, whose state is now unknown.
  bool Fail(uint32_t name) {
    Quarantine(name);
    AfterFailure();
    return false;
  }

  uint64_t SampleSize();
  uint64_t Stamp(uint64_t name, uint64_t generation, uint64_t which) const;
  // Writes `head` (when non-zero) at the start and `tail` at the end of the
  // first `len` bytes of the write buffer and returns them.
  std::span<const char> StampedBuffer(uint64_t len, uint64_t head,
                                      uint64_t tail);
  // Checks a read of `got` bytes whose first and last eight bytes are
  // `head`/`tail` against the model; false (and a mismatch) if they differ.
  bool CheckRead(const std::string& what, uint64_t got, uint64_t want,
                 uint64_t head, uint64_t want_head, uint64_t tail,
                 uint64_t want_tail);

  // Name bookkeeping: a fixed universe of names, each live or free. A name
  // involved in a failed call is dropped from both sets (its state is
  // unknown) and never touched again.
  struct FileState {
    uint64_t size = 0;
    uint64_t head = 0;
    uint64_t tail = 0;
  };
  uint32_t PickLive() { return live_[rng_.Uniform(live_.size())]; }
  void MoveToLive(uint32_t name);
  void MoveToFree(uint32_t name);
  void Quarantine(uint32_t name);

  WorkloadSpec spec_;
  uint64_t seed_;
  aerie::Rng rng_;
  OpLog log_;
  bool gave_up_ = false;
  bool verifying_ = false;
  bool inject_bad_length_ = false;
  uint64_t generation_ = 0;
  std::vector<uint64_t> sizes_;  // SampleSize's deck
  size_t next_size_ = 0;
  std::vector<FileState> files_;
  std::vector<uint32_t> live_;
  std::vector<uint32_t> free_;
  std::vector<int32_t> position_;  // index into live_/free_, -1 if dropped
  std::vector<bool> is_live_;
  std::string write_buffer_;
  std::string read_buffer_;
};

std::unique_ptr<WorkloadClient> MakePxfsClient(const WorkloadSpec& spec,
                                               aerie::Pxfs* fs,
                                               std::string root,
                                               uint64_t seed);
std::unique_ptr<WorkloadClient> MakeFlatClient(const WorkloadSpec& spec,
                                               aerie::FlatFs* fs,
                                               uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
