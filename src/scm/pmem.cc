#include "src/scm/pmem.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23  // Linux 5.14; older kernels refuse it
#endif

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "src/common/clock.h"
#include "src/obs/trace.h"
#include "src/scm/crash_sim.h"

namespace aerie {

namespace {

uint64_t LinesCovering(const void* addr, size_t len) {
  const auto start = reinterpret_cast<uintptr_t>(addr) & ~(kCacheLineSize - 1);
  const auto end = reinterpret_cast<uintptr_t>(addr) + len;
  return (end - start + kCacheLineSize - 1) / kCacheLineSize;
}

// The layer a primitive entered under `caller` charges.
obs::ScmLayerCounters& ChargedLayer(obs::SpanStat* caller) {
  static obs::ScmLayerCounters& unattributed =
      obs::ScmLayerCountersFor("unattributed");
  return caller != nullptr ? caller->scm_layer() : unattributed;
}

#if defined(__x86_64__)
// CLWB writes a line back and leaves it cached; CLFLUSH also evicts it, so
// the next access to a just-persisted line misses. Both are ordered by the
// mfence of Fence/BFlush.
bool CpuHasClwb() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
         (ebx & bit_CLWB) != 0;
}

__attribute__((target("clwb"))) void WriteBackLines(uintptr_t p,
                                                   uintptr_t end) {
  for (; p < end; p += kCacheLineSize) {
    _mm_clwb(reinterpret_cast<void*>(p));
  }
}

void FlushLines(uintptr_t p, uintptr_t end) {
  for (; p < end; p += kCacheLineSize) {
    __builtin_ia32_clflush(reinterpret_cast<const void*>(p));
  }
}
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AERIE_SANITIZED 1
#endif

// StreamWrite's copy (see pmem.h). SSE2 is baseline x86-64, so MOVNT needs
// no CPUID check; sanitizers do not see the intrinsics' stores, so their
// builds copy with memcpy.
void StreamCopy(char* dst, const char* src, size_t len) {
#if defined(__x86_64__) && !defined(AERIE_SANITIZED)
  if (len >= kStreamNonTemporalMinBytes) {
    const size_t head =
        -reinterpret_cast<uintptr_t>(dst) & (kCacheLineSize - 1);
    std::memcpy(dst, src, head);
    size_t done = head;
    for (; len - done >= kCacheLineSize; done += kCacheLineSize) {
      const auto* in = reinterpret_cast<const __m128i*>(src + done);
      auto* out = reinterpret_cast<__m128i*>(dst + done);
      const __m128i a = _mm_loadu_si128(in);
      const __m128i b = _mm_loadu_si128(in + 1);
      const __m128i c = _mm_loadu_si128(in + 2);
      const __m128i d = _mm_loadu_si128(in + 3);
      _mm_stream_si128(out, a);
      _mm_stream_si128(out + 1, b);
      _mm_stream_si128(out + 2, c);
      _mm_stream_si128(out + 3, d);
    }
    dst += done;
    src += done;
    len -= done;
  }
#endif
  std::memcpy(dst, src, len);
}

}  // namespace

Result<char*> MapPresentMemory(size_t size) {
  const size_t len = (size + kScmPageSize - 1) & ~(kScmPageSize - 1);
  // Over-map by a huge page and keep the 2 MiB-aligned `len` bytes inside.
  void* raw = ::mmap(nullptr, len + kHugePageSize, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) {
    return Status(ErrorCode::kOutOfSpace,
                  std::string("mmap failed: ") + std::strerror(errno));
  }
  const auto start = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t aligned = (start + kHugePageSize - 1) & ~(kHugePageSize - 1);
  char* const mem = reinterpret_cast<char*>(aligned);
  if (aligned != start) {
    ::munmap(raw, aligned - start);
  }
  ::munmap(mem + len, start + kHugePageSize - aligned);
  // Real SCM is present memory, so benchmarks must not observe first-touch
  // page-fault costs on the data path. The kernel hands out zeroed pages;
  // populating them is all that is left to do. Huge pages are advice: where
  // the kernel has none, the range stays on 4 KiB pages.
  (void)::madvise(mem, len, MADV_HUGEPAGE);
  if (::madvise(mem, len, MADV_POPULATE_WRITE) != 0) {
    std::memset(mem, 0, len);
  }
  return mem;
}

Result<std::unique_ptr<ScmRegion>> ScmRegion::CreateAnonymous(size_t size) {
  AERIE_ASSIGN_OR_RETURN(char* mem, MapPresentMemory(size));
  return std::unique_ptr<ScmRegion>(new ScmRegion(mem, size, -1, ""));
}

Result<std::unique_ptr<ScmRegion>> ScmRegion::OpenFileBacked(
    const std::string& path, size_t size) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status(ErrorCode::kIoError,
                  std::string("open failed: ") + std::strerror(errno));
  }
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    ::close(fd);
    return Status(ErrorCode::kIoError,
                  std::string("ftruncate failed: ") + std::strerror(errno));
  }
  void* mem =
      ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (mem == MAP_FAILED) {
    ::close(fd);
    return Status(ErrorCode::kOutOfSpace,
                  std::string("mmap failed: ") + std::strerror(errno));
  }
  return std::unique_ptr<ScmRegion>(
      new ScmRegion(static_cast<char*>(mem), size, fd, path));
}

ScmRegion::~ScmRegion() {
  if (crash_sim_ != nullptr) {
    crash_sim_->OnRegionDestroyed();
    crash_sim_ = nullptr;
  }
  ::munmap(base_, size_);
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void ScmRegion::ChargeLines(uint64_t lines, obs::SpanStat* caller) {
  stats_.lines_flushed.Add(lines);
  if (obs::CountersOn() && lines != 0) {
    ChargedLayer(caller).lines_flushed.Add(lines);
  }
  const uint64_t ns = latency_.write_ns();
  if (ns != 0) {
    SpinDelayNanos(ns * lines);
  }
}

void ScmRegion::WlFlush(const void* addr, size_t len, int site) {
  obs::SpanStat* const caller = obs::CurrentSpanTag();
  AERIE_SPAN("scm", "wl_flush");
  const uint64_t lines = LinesCovering(addr, len);
#if defined(__x86_64__)
  static const bool has_clwb = CpuHasClwb();
  const auto p = reinterpret_cast<uintptr_t>(addr) & ~(kCacheLineSize - 1);
  const auto end = reinterpret_cast<uintptr_t>(addr) + len;
  if (has_clwb) {
    WriteBackLines(p, end);
  } else {
    FlushLines(p, end);
  }
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  ChargeLines(lines, caller);
  if (crash_sim_ != nullptr) {
    crash_sim_->OnWlFlush(addr, len, site);
  }
}

void ScmRegion::Fence(int site) {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  stats_.fences.Add(1);
  if (obs::CountersOn()) {
    ChargedLayer(obs::CurrentSpanTag()).fences.Add(1);
  }
  if (crash_sim_ != nullptr) {
    crash_sim_->OnFence(site);
  }
}

void ScmRegion::StreamWrite(void* dst, const void* src, size_t len) {
  // The persistence cost is deferred to BFlush(), exactly as WC buffering
  // defers it: BFlush's fence drains the buffers these stores fill.
  StreamCopy(static_cast<char*>(dst), static_cast<const char*>(src), len);
  stats_.bytes_streamed.Add(len);
  if (obs::CountersOn() && len != 0) {
    ChargedLayer(obs::CurrentSpanTag()).bytes_streamed.Add(len);
  }
  pending_wc_lines_.fetch_add(LinesCovering(dst, len),
                              std::memory_order_relaxed);
  if (crash_sim_ != nullptr) {
    crash_sim_->OnStreamWrite(dst, len);
  }
}

void ScmRegion::BFlush(int site) {
  obs::SpanStat* const caller = obs::CurrentSpanTag();
  AERIE_SPAN("scm", "bflush");
  std::atomic_thread_fence(std::memory_order_seq_cst);
  stats_.wc_drains.Add(1);
  const uint64_t lines = pending_wc_lines_.exchange(0);
  obs::TraceInstant("scm.bflush.lines", lines);
  ChargeLines(lines, caller);
  if (crash_sim_ != nullptr) {
    crash_sim_->OnBFlush(site);
  }
}

void ScmRegion::CrashPoint(const char* name) {
  if (crash_sim_ != nullptr) {
    crash_sim_->OnInterestPoint(name);
  }
}

Status ScmRegion::HardProtect(uint64_t offset, size_t len, int rights) {
  if (offset % kScmPageSize != 0 || len % kScmPageSize != 0 ||
      offset + len > size_) {
    return Status(ErrorCode::kInvalidArgument,
                  "HardProtect requires page-aligned range inside region");
  }
  int prot = PROT_NONE;
  if (rights & 1) {
    prot |= PROT_READ;
  }
  if (rights & 2) {
    prot |= PROT_READ | PROT_WRITE;
  }
  if (::mprotect(base_ + offset, len, prot) != 0) {
    return Status(ErrorCode::kIoError,
                  std::string("mprotect failed: ") + std::strerror(errno));
  }
  return OkStatus();
}

}  // namespace aerie
