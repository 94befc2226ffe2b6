// Tests for the SCM emulation: region mapping, persistence primitives,
// latency model, file-backed reopen (simulated reboot), and per-layer media
// accounting through the obs layer tag.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/obs/obs.h"
#include "src/scm/pmem.h"

namespace aerie {
namespace {

TEST(ScmRegionTest, AnonymousCreateAndAccess) {
  auto region = ScmRegion::CreateAnonymous(1 << 20);
  ASSERT_TRUE(region.ok());
  ScmRegion* r = region->get();
  EXPECT_EQ(r->size(), 1u << 20);
  std::memset(r->base(), 0xab, 4096);
  EXPECT_EQ(static_cast<unsigned char>(*r->PtrAt(100)), 0xab);
}

TEST(ScmRegionTest, OffsetPointerRoundTrip) {
  auto region = ScmRegion::CreateAnonymous(1 << 20);
  ASSERT_TRUE(region.ok());
  ScmRegion* r = region->get();
  char* p = r->PtrAt(12345);
  EXPECT_EQ(r->OffsetOf(p), 12345u);
  EXPECT_TRUE(r->Contains(p));
  EXPECT_FALSE(r->Contains(r->base() + r->size()));
}

TEST(ScmRegionTest, FlushCountsLines) {
  auto region = ScmRegion::CreateAnonymous(1 << 20);
  ASSERT_TRUE(region.ok());
  ScmRegion* r = region->get();
  r->WlFlush(r->PtrAt(0), 1);  // one line
  EXPECT_EQ(r->stats().lines_flushed.load(), 1u);
  r->WlFlush(r->PtrAt(64), 128);  // two lines
  EXPECT_EQ(r->stats().lines_flushed.load(), 3u);
  // Unaligned span crossing a line boundary.
  r->WlFlush(r->PtrAt(60), 8);  // covers lines 0 and 1
  EXPECT_EQ(r->stats().lines_flushed.load(), 5u);
}

TEST(ScmRegionTest, StreamWriteChargedAtBFlush) {
  auto region = ScmRegion::CreateAnonymous(1 << 20);
  ASSERT_TRUE(region.ok());
  ScmRegion* r = region->get();
  char buf[256];
  std::memset(buf, 7, sizeof(buf));
  r->StreamWrite(r->PtrAt(0), buf, sizeof(buf));
  EXPECT_EQ(r->stats().bytes_streamed.load(), 256u);
  EXPECT_EQ(std::memcmp(r->PtrAt(0), buf, sizeof(buf)), 0);
  const uint64_t lines_before = r->stats().lines_flushed.load();
  r->BFlush();
  EXPECT_EQ(r->stats().lines_flushed.load(), lines_before + 4);
  // Second BFlush has nothing pending.
  r->BFlush();
  EXPECT_EQ(r->stats().lines_flushed.load(), lines_before + 4);
}

// The copy kernel: from kStreamNonTemporalMinBytes on, whole line-aligned
// lines take streaming stores and a partial head or tail line plain ones.
// At every destination alignment within a line, from a misaligned source,
// and at lengths around the line and page sizes and that threshold, the
// copy is byte-exact, leaves every byte outside the destination range
// alone, and is charged what a per-call count of the lines covering the
// range charges.
TEST(ScmRegionTest, StreamWriteCopiesExactlyAtEveryAlignment) {
  constexpr size_t kMaxLen = 1 << 20;
  auto region = ScmRegion::CreateAnonymous(kMaxLen + 2 * kScmPageSize);
  ASSERT_TRUE(region.ok());
  ScmRegion* r = region->get();
  std::vector<char> src(kMaxLen + kCacheLineSize);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<char>(i * 131 + i / 251 + 7);
  }
  auto untouched = [](const char* begin, const char* end) {
    return std::all_of(begin, end, [](char c) { return c == '\xcc'; });
  };
  for (const size_t dst_off : {0, 1, 17, 63}) {
    for (const size_t src_off : {0, 5}) {
      for (const size_t len :
           {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{65},
            size_t{127}, size_t{4096}, size_t{4113},
            kStreamNonTemporalMinBytes - 1, kStreamNonTemporalMinBytes,
            kStreamNonTemporalMinBytes + 65, kMaxLen}) {
        SCOPED_TRACE(::testing::Message() << "dst_off " << dst_off
                                          << " src_off " << src_off
                                          << " len " << len);
        std::memset(r->base(), 0xcc, r->size());
        char* const dst = r->PtrAt(kCacheLineSize + dst_off);
        const uint64_t bytes = r->stats().bytes_streamed.load();
        const uint64_t lines = r->stats().lines_flushed.load();
        r->StreamWrite(dst, src.data() + src_off, len);
        r->BFlush();
        EXPECT_EQ(r->stats().bytes_streamed.load() - bytes, len);
        EXPECT_EQ(r->stats().lines_flushed.load() - lines,
                  (dst_off + len + kCacheLineSize - 1) / kCacheLineSize);
        EXPECT_EQ(std::memcmp(dst, src.data() + src_off, len), 0);
        EXPECT_TRUE(untouched(r->base(), dst));
        EXPECT_TRUE(untouched(dst + len, r->base() + r->size()));
      }
    }
  }
}

TEST(ScmRegionTest, WriteLatencyModelInjectsDelay) {
  auto region = ScmRegion::CreateAnonymous(1 << 20);
  ASSERT_TRUE(region.ok());
  ScmRegion* r = region->get();
  r->latency_model().set_write_ns(50000);  // 50us per line
  Stopwatch sw;
  r->WlFlush(r->PtrAt(0), 4 * kCacheLineSize);
  const uint64_t elapsed = sw.ElapsedNanos();
  EXPECT_GE(elapsed, 4 * 50000u);
}

TEST(ScmRegionTest, PersistU64IsVisible) {
  auto region = ScmRegion::CreateAnonymous(1 << 20);
  ASSERT_TRUE(region.ok());
  ScmRegion* r = region->get();
  auto* p = reinterpret_cast<uint64_t*>(r->PtrAt(512));
  r->PersistU64(p, 0xdeadbeefcafeULL);
  EXPECT_EQ(*p, 0xdeadbeefcafeULL);
  EXPECT_GE(r->stats().fences.load(), 1u);
}

TEST(ScmRegionTest, FileBackedSurvivesReopen) {
  const std::string path = ::testing::TempDir() + "/aerie_scm_reopen.img";
  {
    auto region = ScmRegion::OpenFileBacked(path, 1 << 20);
    ASSERT_TRUE(region.ok());
    std::memcpy((*region)->PtrAt(4096), "persist me", 10);
    (*region)->WlFlush((*region)->PtrAt(4096), 10);
  }
  {
    auto region = ScmRegion::OpenFileBacked(path, 1 << 20);
    ASSERT_TRUE(region.ok());
    EXPECT_EQ(std::memcmp((*region)->PtrAt(4096), "persist me", 10), 0);
  }
  ::unlink(path.c_str());
}

TEST(ScmRegionTest, HardProtectValidatesArguments) {
  auto region = ScmRegion::CreateAnonymous(1 << 20);
  ASSERT_TRUE(region.ok());
  ScmRegion* r = region->get();
  EXPECT_EQ(r->HardProtect(100, 4096, 1).code(),
            ErrorCode::kInvalidArgument);  // unaligned
  EXPECT_EQ(r->HardProtect(0, r->size() + 4096, 1).code(),
            ErrorCode::kInvalidArgument);  // out of range
  EXPECT_TRUE(r->HardProtect(4096, 4096, 1).ok());   // read-only
  EXPECT_TRUE(r->HardProtect(4096, 4096, 3).ok());   // back to rw
}

// An anonymous region is present memory on 2 MiB boundaries: every page is
// resident before the first access, and every byte reads zero.
TEST(ScmRegionTest, AnonymousRegionIsAlignedPresentAndZero) {
  const size_t size = 6 * kHugePageSize;
  auto region = ScmRegion::CreateAnonymous(size);
  ASSERT_TRUE(region.ok());
  ScmRegion* r = region->get();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(r->base()) % kHugePageSize, 0u);

  std::vector<unsigned char> resident(size / kScmPageSize);
  ASSERT_EQ(::mincore(r->base(), size, resident.data()), 0);
  size_t absent = 0;
  for (unsigned char page : resident) {
    absent += (page & 1) == 0 ? 1 : 0;
  }
  EXPECT_EQ(absent, 0u) << "pages not populated at creation";

  const auto* words = reinterpret_cast<const uint64_t*>(r->base());
  uint64_t ored = 0;
  for (size_t i = 0; i < size / sizeof(uint64_t); ++i) {
    ored |= words[i];
  }
  EXPECT_EQ(ored, 0u);
}

// Where the host allows transparent huge pages at all, the region's mapping
// is eligible for them.
TEST(ScmRegionTest, AnonymousRegionIsAdvisedForHugePages) {
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  std::getline(thp, mode);
  if (mode.empty() || mode.find("[never]") != std::string::npos) {
    GTEST_SKIP() << "transparent huge pages unavailable: '" << mode << "'";
  }
  auto region = ScmRegion::CreateAnonymous(2 * kHugePageSize);
  ASSERT_TRUE(region.ok());
  const auto base = reinterpret_cast<uintptr_t>((*region)->base());

  // The smaps entry of the mapping that holds the region's base.
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool in_region = false;
  std::string eligible;
  while (std::getline(smaps, line)) {
    uintptr_t lo = 0, hi = 0;
    char dash = 0;
    std::istringstream head(line);
    if (head >> std::hex >> lo >> dash >> hi && dash == '-') {
      in_region = lo <= base && base < hi;
    } else if (in_region && line.rfind("THPeligible:", 0) == 0) {
      eligible = line;
    }
  }
  ASSERT_FALSE(eligible.empty()) << "no smaps entry for the region";
  EXPECT_NE(eligible.find('1'), std::string::npos) << eligible;
}

// A 4 KiB HardProtect inside a 2 MiB page splits it: the protected page
// faults on a write, its neighbours stay writable.
TEST(ScmRegionDeathTest, ReadOnlyPageInsideHugePageFaultsOnWrite) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto region = ScmRegion::CreateAnonymous(2 * kHugePageSize);
  ASSERT_TRUE(region.ok());
  ScmRegion* r = region->get();
  const uint64_t page = kHugePageSize + 16 * kScmPageSize;
  ASSERT_TRUE(r->HardProtect(page, kScmPageSize, 1).ok());

  volatile char* const locked = r->PtrAt(page);
  EXPECT_EQ(locked[0], 0);  // still readable
  EXPECT_DEATH(locked[0] = 1, "");

  volatile char* const next = r->PtrAt(page + kScmPageSize);
  volatile char* const prev = r->PtrAt(page - 1);
  next[0] = 7;
  prev[0] = 9;
  EXPECT_EQ(next[0], 7);
  EXPECT_EQ(prev[0], 9);
}

// Creation over-maps and trims to the aligned range; the destructor returns
// exactly that range: all of it, and nothing mapped beyond it.
TEST(ScmRegionTest, DestructorUnmapsExactlyWhatCreationKept) {
  const size_t size = kHugePageSize + 8 * kScmPageSize;
  auto region = ScmRegion::CreateAnonymous(size);
  ASSERT_TRUE(region.ok());
  char* const base = (*region)->base();

  // The over-mapped slack past the region was given back at creation, so a
  // guard page fits right behind it.
  void* guard = ::mmap(base + size, kScmPageSize, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE, -1,
                       0);
  ASSERT_EQ(guard, static_cast<void*>(base + size)) << std::strerror(errno);
  *static_cast<char*>(guard) = 0x5a;

  region->reset();

  void* again = ::mmap(base, size, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE, -1,
                       0);
  EXPECT_EQ(again, static_cast<void*>(base)) << "region range not unmapped";
  unsigned char resident = 0;
  ASSERT_EQ(::mincore(guard, kScmPageSize, &resident), 0) << "guard unmapped";
  EXPECT_EQ(*static_cast<char*>(guard), 0x5a);
  if (again != MAP_FAILED) {
    ::munmap(again, size);
  }
  ::munmap(guard, kScmPageSize);
}

// Per-layer media accounting: a primitive charges scm.layer.<layer>.* of the
// innermost obs span live when it was entered. Counters are read by name
// from the registry and compared as deltas.
class ScmLayerChargeTest : public ::testing::Test {
 protected:
  struct Traffic {
    uint64_t lines = 0;
    uint64_t streamed = 0;
    uint64_t fences = 0;
  };

  void SetUp() override {
    obs::SetMode(obs::Mode::kCounters);
    auto region = ScmRegion::CreateAnonymous(1 << 20);
    ASSERT_TRUE(region.ok());
    region_ = std::move(*region);
  }
  void TearDown() override { obs::SetMode(obs::Mode::kCounters); }

  static Traffic Layer(const std::string& layer) {
    auto& reg = obs::Registry::Instance();
    const std::string prefix = "scm.layer." + layer + ".";
    return {reg.GetCounter(prefix + "lines_flushed").value(),
            reg.GetCounter(prefix + "bytes_streamed").value(),
            reg.GetCounter(prefix + "fences").value()};
  }
  static Traffic Delta(const std::string& layer, const Traffic& before) {
    const Traffic now = Layer(layer);
    return {now.lines - before.lines, now.streamed - before.streamed,
            now.fences - before.fences};
  }

  std::unique_ptr<ScmRegion> region_;
};

TEST_F(ScmLayerChargeTest, InnermostSpanTakesTheCharge) {
  for (const obs::Mode mode : {obs::Mode::kCounters, obs::Mode::kSpans}) {
    obs::SetMode(mode);
    const Traffic tfs = Layer("tfs");
    const Traffic osd = Layer("osd");
    {
      AERIE_SPAN("tfs", "charge_outer");
      {
        AERIE_SPAN("osd", "charge_inner");
        region_->WlFlush(region_->PtrAt(0), 128);  // two lines
        region_->Fence();
      }
      // The osd span has returned: the tag is tfs again.
      region_->WlFlush(region_->PtrAt(4096), 64);
      region_->Fence();
    }
    const Traffic d_osd = Delta("osd", osd);
    const Traffic d_tfs = Delta("tfs", tfs);
    EXPECT_EQ(d_osd.lines, 2u) << static_cast<int>(mode);
    EXPECT_EQ(d_osd.fences, 1u) << static_cast<int>(mode);
    EXPECT_EQ(d_tfs.lines, 1u) << static_cast<int>(mode);
    EXPECT_EQ(d_tfs.fences, 1u) << static_cast<int>(mode);
  }
}

// WlFlush and BFlush open their own scm.* spans; the charge still goes to
// the caller's layer, never to `scm`.
TEST_F(ScmLayerChargeTest, PrimitivesChargeTheirCallerNotScm) {
  for (const obs::Mode mode : {obs::Mode::kCounters, obs::Mode::kSpans}) {
    obs::SetMode(mode);
    const Traffic scm = Layer("scm");
    const Traffic txlog = Layer("txlog");
    {
      AERIE_SPAN("txlog", "charge_caller");
      char buf[256];
      std::memset(buf, 1, sizeof(buf));
      region_->StreamWrite(region_->PtrAt(8192), buf, sizeof(buf));
      region_->BFlush();                        // four lines
      region_->WlFlush(region_->PtrAt(0), 64);  // one line
    }
    const Traffic d_scm = Delta("scm", scm);
    const Traffic d_txlog = Delta("txlog", txlog);
    EXPECT_EQ(d_scm.lines, 0u) << static_cast<int>(mode);
    EXPECT_EQ(d_scm.streamed, 0u) << static_cast<int>(mode);
    EXPECT_EQ(d_txlog.lines, 5u) << static_cast<int>(mode);
    EXPECT_EQ(d_txlog.streamed, 256u) << static_cast<int>(mode);
  }
}

TEST_F(ScmLayerChargeTest, TrafficOutsideSpansIsUnattributed) {
  const Traffic before = Layer("unattributed");
  char buf[64] = {};
  region_->StreamWrite(region_->PtrAt(0), buf, sizeof(buf));
  region_->BFlush();
  region_->WlFlush(region_->PtrAt(4096), 64);
  region_->Fence();
  const Traffic d = Delta("unattributed", before);
  EXPECT_EQ(d.lines, 2u);
  EXPECT_EQ(d.streamed, 64u);
  EXPECT_EQ(d.fences, 1u);
}

// Counters mode keeps the tag without timing anything: the layer is charged
// while the span itself records no call.
TEST_F(ScmLayerChargeTest, CountersModeChargesWithoutSpanMode) {
  ASSERT_EQ(obs::CurrentMode(), obs::Mode::kCounters);
  const Traffic osd = Layer("osd");
  {
    AERIE_SPAN("osd", "charge_counters_only");
    region_->WlFlush(region_->PtrAt(0), 64);
  }
  EXPECT_EQ(Delta("osd", osd).lines, 1u);
  EXPECT_EQ(obs::Registry::Instance()
                .GetSpan("osd.charge_counters_only")
                .count(),
            0u);
}

TEST_F(ScmLayerChargeTest, OffModeMovesNoLayerCounter) {
  const Traffic tfs = Layer("tfs");
  const Traffic osd = Layer("osd");
  const Traffic unattributed = Layer("unattributed");
  obs::SetMode(obs::Mode::kOff);
  {
    AERIE_SPAN("tfs", "charge_off");
    {
      AERIE_SPAN("osd", "charge_off");
      region_->WlFlush(region_->PtrAt(0), 128);
      region_->Fence();
    }
  }
  region_->WlFlush(region_->PtrAt(0), 128);
  region_->Fence();
  obs::SetMode(obs::Mode::kCounters);
  const std::pair<const char*, Traffic> layers[] = {
      {"tfs", tfs}, {"osd", osd}, {"unattributed", unattributed}};
  for (const auto& [layer, before] : layers) {
    const Traffic d = Delta(layer, before);
    EXPECT_EQ(d.lines, 0u) << layer;
    EXPECT_EQ(d.fences, 0u) << layer;
  }
}

}  // namespace
}  // namespace aerie
