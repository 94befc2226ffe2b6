// Storage-class-memory emulation (paper §2, §5.1, §7.1, §7.4).
//
// The paper emulates SCM with DRAM and models slow SCM by injecting
// software-created delays at the points where software persists data (clflush
// / write-combining flush). ScmRegion reproduces that mechanism:
//
//  * the region is an mmap'ed range of DRAM (anonymous, or file-backed so a
//    "machine crash + reboot" can be simulated by reopening the file). An
//    anonymous region is 2 MiB-aligned, asks for transparent huge pages and
//    is populated by the kernel before first use (MapPresentMemory), as a
//    DAX mapping of real SCM on 2 MiB pages would be;
//  * persistence primitives mirror Mnemosyne's (paper §5.1):
//      - WlFlush  : write back the cache lines     (x86 CLWB where the CPU
//                   has it, else clflush)
//      - BFlush   : drain write-combining buffers   (x86 mfence after NT store)
//      - Fence    : order writes to SCM             (x86 mfence; also orders
//                   CLWB)
//      - StreamWrite : non-temporal streaming copy (x86 MOVNT) of log
//                   records and file data
//  * a latency model charges a configurable delay per persisted cache line,
//    which is how Figure 6's sensitivity study is produced. The charge is per
//    line whichever instruction wrote it back.
//
// The memory controller is assumed to make aligned 64-bit stores atomic
// (paper assumption, from BPFS), which the consistency protocols rely on.
#ifndef AERIE_SRC_SCM_PMEM_H_
#define AERIE_SRC_SCM_PMEM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/obs/obs.h"

namespace aerie {

class CrashSimulator;

inline constexpr size_t kCacheLineSize = 64;
inline constexpr size_t kScmPageSize = 4096;
inline constexpr size_t kHugePageSize = 2u << 20;

// ScmRegion::StreamWrite copies this many bytes or more with non-temporal
// stores and shorter copies with cached ones. Bulk file data (whole-file
// writes, one extent run per call) then bypasses the cache, while values,
// log records and small appends, which are often read back soon, stay
// cached: on a 4-CPU host with a 300 MiB L3, MOVNT for every copy made
// fileserver_1c faster but slowed FlatFS gets of 16 KB values that had just
// been put, because each one missed the cache.
inline constexpr size_t kStreamNonTemporalMinBytes = 64 << 10;

// Maps `size` bytes of private anonymous memory that is present before first
// use: the range is 2 MiB-aligned, advised for transparent huge pages, and
// populated by the kernel (MADV_POPULATE_WRITE; a memset where the kernel
// refuses), so it reads zero and no access takes a first-touch fault. The
// SCM region and the kernel baselines' RAM disk both take their memory from
// here, so both sides of a comparison sit on the same pages. Release the
// range with munmap(ptr, size).
Result<char*> MapPresentMemory(size_t size);

// Sentinel for persistence calls that are not registered as suppressible
// sites in the crash-simulation mutation registry (src/scm/crash_sim.h).
inline constexpr int kNoPersistSite = -1;

// Latency injected at persistence points. All values in nanoseconds; a value
// of zero means "raw DRAM speed" (the paper's default configuration).
struct ScmLatencyModel {
  // Extra delay charged per cache line made persistent (clflush or WC drain).
  std::atomic<uint64_t> write_ns_per_line{0};

  void set_write_ns(uint64_t ns) {
    write_ns_per_line.store(ns, std::memory_order_relaxed);
  }
  uint64_t write_ns() const {
    return write_ns_per_line.load(std::memory_order_relaxed);
  }
};

// Counters for persistence traffic; useful in tests and for reasoning about
// benchmark results. Backed by the obs registry: each region registers its
// counters for its lifetime, and the exporter merges all live regions under
// the scm.* names, so benches see one reporting path.
struct ScmStats {
  obs::Counter lines_flushed{"scm.flush.lines"};
  obs::Counter fences{"scm.fence.count"};
  obs::Counter bytes_streamed{"scm.stream.bytes"};
  obs::Counter wc_drains{"scm.wc_drain.count"};
  obs::ScopedRegistration registration;

  ScmStats() {
    registration.AddAll(lines_flushed, fences, bytes_streamed, wc_drains);
  }
};

// Per-layer media accounting (write amplification, DESIGN.md §9.3): each
// primitive also charges obs::ScmLayerCounters of the layer tag that was
// current when it was entered (the caller's innermost obs span — read
// before the primitive's own scm.* span opens, so layer `scm` never takes
// the charge), or scm.layer.unattributed.* outside any span.

// A contiguous range of emulated SCM mapped into the process.
//
// All persistent data structures store offsets (not raw pointers) so the
// region remains valid if the host maps it at a different virtual address
// after a simulated reboot.
class ScmRegion {
 public:
  // Creates an anonymous (non-reopenable) region of `size` bytes in present
  // memory (MapPresentMemory).
  static Result<std::unique_ptr<ScmRegion>> CreateAnonymous(size_t size);

  // Creates or opens a file-backed region; reopening the same path after a
  // simulated crash observes exactly the bytes that reached "SCM".
  static Result<std::unique_ptr<ScmRegion>> OpenFileBacked(
      const std::string& path, size_t size);

  ~ScmRegion();

  ScmRegion(const ScmRegion&) = delete;
  ScmRegion& operator=(const ScmRegion&) = delete;

  char* base() const { return base_; }
  size_t size() const { return size_; }

  // Offset <-> pointer translation. Offsets are the persistent addressing
  // form (the paper stores virtual addresses but maps SCM at the same address
  // everywhere; offsets are the relocation-safe equivalent).
  char* PtrAt(uint64_t offset) const { return base_ + offset; }
  uint64_t OffsetOf(const void* ptr) const {
    return static_cast<uint64_t>(static_cast<const char*>(ptr) - base_);
  }
  bool Contains(const void* ptr) const {
    return ptr >= base_ && ptr < base_ + size_;
  }

  // --- Persistence primitives (Mnemosyne-style, paper §5.1) ---
  //
  // The optional `site` argument names the call site in the crash-sim
  // mutation registry (RegisterPersistSite); in AERIE_CRASH_SIM mode the
  // simulator can suppress a registered site to prove the checker detects
  // the resulting ordering bug. Sites default to kNoPersistSite.

  // Writes the cache lines covering [addr, addr+len) back to SCM.
  void WlFlush(const void* addr, size_t len, int site = kNoPersistSite);

  // Orders subsequent SCM writes after preceding ones.
  void Fence(int site = kNoPersistSite);

  // Streams `len` bytes to dst. On x86-64, a copy of at least
  // kStreamNonTemporalMinBytes writes its whole line-aligned cache lines
  // with MOVNT (SSE2 _mm_stream_si128), which bypass the cache into the
  // write-combining buffers, and a partial head or tail line with plain
  // stores; shorter copies, non-x86 and sanitizer builds use memcpy. MOVNT
  // stores are weakly ordered: the bytes are ordered against other stores,
  // and persistent, only after the next BFlush() (or Fence()), so every
  // caller drains before it publishes what it streamed. The next BFlush
  // charges the lines covering [dst, dst+len) however they were written.
  void StreamWrite(void* dst, const void* src, size_t len);

  // Drains write-combining buffers: everything streamed so far is persistent.
  void BFlush(int site = kNoPersistSite);

  // Convenience: store + WlFlush of a 64-bit value (the atomic-commit write
  // used by shadow updates).
  void PersistU64(uint64_t* dst, uint64_t value,
                  int flush_site = kNoPersistSite,
                  int fence_site = kNoPersistSite) {
    reinterpret_cast<std::atomic<uint64_t>*>(dst)->store(
        value, std::memory_order_release);
    WlFlush(dst, sizeof(uint64_t), flush_site);
    Fence(fence_site);
  }

  // Named interest point for the crash simulator (no-op otherwise): marks a
  // protocol step worth enumerating crash images at, beyond the implicit
  // point at every Fence.
  void CrashPoint(const char* name);

  // Attaches/detaches a crash simulator observing this region's persistence
  // traffic. The simulator must outlive the attachment (it detaches itself
  // in its destructor); not thread-safe versus concurrent primitive calls,
  // so attach before the workload starts.
  void AttachCrashSim(CrashSimulator* sim) { crash_sim_ = sim; }
  void DetachCrashSim() { crash_sim_ = nullptr; }
  CrashSimulator* crash_sim() const { return crash_sim_; }

  ScmLatencyModel& latency_model() { return latency_; }
  ScmStats& stats() { return stats_; }

  // Real mprotect() on a sub-range, for the permission-change benchmark.
  // Rights bitmask: 1 = read, 2 = write.
  Status HardProtect(uint64_t offset, size_t len, int rights);

 private:
  ScmRegion(char* base, size_t size, int fd, std::string path)
      : base_(base), size_(size), fd_(fd), path_(std::move(path)) {}

  // Counts `lines` made persistent for a primitive entered under `caller`
  // (the layer tag) and injects the latency model's delay.
  void ChargeLines(uint64_t lines, obs::SpanStat* caller);

  char* base_;
  size_t size_;
  int fd_;  // -1 for anonymous regions
  std::string path_;
  ScmLatencyModel latency_;
  ScmStats stats_;
  // Cache lines streamed since the last BFlush (approximates WC occupancy).
  std::atomic<uint64_t> pending_wc_lines_{0};
  CrashSimulator* crash_sim_ = nullptr;
};

}  // namespace aerie

#endif  // AERIE_SRC_SCM_PMEM_H_
