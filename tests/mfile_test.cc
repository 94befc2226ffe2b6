// Tests for the mFile object: radix tree growth, sparse reads, in-place
// writes through extent-map snapshots, truncation, single-extent mode,
// destroy, property sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "src/common/rand.h"
#include "src/osd/mfile.h"
#include "src/osd/volume.h"

namespace aerie {
namespace {

uint64_t PagesFor(uint64_t bytes) {
  return (bytes + kScmPageSize - 1) / kScmPageSize;
}

// Reads and writes copy through a snapshot of the pages they touch, as every
// data path does.
uint64_t ReadAt(const MFile& file, ScmRegion* region, uint64_t offset,
                std::span<char> out) {
  return MFile::ReadDirect(
      region,
      file.SnapshotExtents(offset / kScmPageSize,
                           PagesFor(offset + out.size())),
      offset, out);
}

Status WriteAt(const MFile& file, ScmRegion* region, uint64_t offset,
               std::span<const char> data) {
  return MFile::WriteDirect(
      region,
      file.SnapshotExtents(offset / kScmPageSize,
                           PagesFor(offset + data.size())),
      offset, data);
}

class MFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto region = ScmRegion::CreateAnonymous(128 << 20);
    ASSERT_TRUE(region.ok());
    region_ = std::move(*region);
    auto volume = Volume::Format(region_.get(), 0, region_->size(),
                                 Volume::Options{.log_bytes = 1 << 20});
    ASSERT_TRUE(volume.ok());
    volume_ = std::move(*volume);
    ctx_ = volume_->context();
  }

  uint64_t NewExtent() {
    auto offset = ctx_.alloc->Alloc(0);
    EXPECT_TRUE(offset.ok());
    std::memset(ctx_.region->PtrAt(*offset), 0, kScmPageSize);
    return *offset;
  }

  std::unique_ptr<ScmRegion> region_;
  std::unique_ptr<Volume> volume_;
  OsdContext ctx_;
};

TEST_F(MFileTest, CreateOpenEmpty) {
  auto file = MFile::Create(ctx_, 7);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->size(), 0u);
  EXPECT_EQ(file->acl(), 7u);
  EXPECT_FALSE(file->single_extent());
  EXPECT_EQ(file->ExtentForPage(0).code(), ErrorCode::kNotFound);
  auto reopened = MFile::Open(ctx_, file->oid());
  ASSERT_TRUE(reopened.ok());
}

TEST_F(MFileTest, AttachAndReadBack) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  const uint64_t extent = NewExtent();
  std::memcpy(ctx_.region->PtrAt(extent), "page zero data", 14);
  ASSERT_TRUE(file->AttachRun(0, extent, 1).ok());
  ASSERT_TRUE(file->SetSize(14).ok());

  char buf[32] = {};
  EXPECT_EQ(ReadAt(*file, ctx_.region, 0, std::span<char>(buf, sizeof(buf))),
            14u);
  EXPECT_EQ(std::string_view(buf, 14), "page zero data");
  EXPECT_EQ(*file->ExtentForPage(0), extent);
}

TEST_F(MFileTest, DoubleAttachRejected) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->AttachRun(0, NewExtent(), 1).ok());
  EXPECT_EQ(file->AttachRun(0, NewExtent(), 1).code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(MFileTest, TreeGrowsAcrossLevels) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  // Page indexes forcing height 1, 2 and 3 (512 pointers per block).
  const uint64_t pages[] = {0, 511, 512, 262143, 262144, 1000000};
  std::map<uint64_t, uint64_t> attached;
  for (uint64_t p : pages) {
    const uint64_t extent = NewExtent();
    ASSERT_TRUE(file->AttachRun(p, extent, 1).ok()) << p;
    attached[p] = extent;
  }
  for (const auto& [page, extent] : attached) {
    auto found = file->ExtentForPage(page);
    ASSERT_TRUE(found.ok()) << page;
    EXPECT_EQ(*found, extent);
  }
  // Holes in between are still holes.
  EXPECT_EQ(file->ExtentForPage(100).code(), ErrorCode::kNotFound);
  EXPECT_TRUE(file->Validate().ok());
}

TEST_F(MFileTest, SparseReadsReturnZeros) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  const uint64_t extent = NewExtent();
  std::memset(ctx_.region->PtrAt(extent), 0xee, kScmPageSize);
  ASSERT_TRUE(file->AttachRun(2, extent, 1).ok());
  ASSERT_TRUE(file->SetSize(3 * kScmPageSize).ok());

  std::string buf(3 * kScmPageSize, 'x');
  EXPECT_EQ(ReadAt(*file, ctx_.region, 0, std::span<char>(buf)),
            3 * kScmPageSize);
  EXPECT_EQ(buf[0], '\0');
  EXPECT_EQ(buf[2 * kScmPageSize - 1], '\0');
  EXPECT_EQ(static_cast<unsigned char>(buf[2 * kScmPageSize]), 0xee);
}

TEST_F(MFileTest, WriteDirectRequiresExtents) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  const char data[] = "hello";
  // Past the size, and then over a hole: both refused.
  EXPECT_EQ(WriteAt(*file, ctx_.region, 0, std::span<const char>(data, 5))
                .code(),
            ErrorCode::kNotFound);
  ASSERT_TRUE(file->SetSize(5).ok());
  EXPECT_EQ(WriteAt(*file, ctx_.region, 0, std::span<const char>(data, 5))
                .code(),
            ErrorCode::kNotFound);
  ASSERT_TRUE(file->AttachRun(0, NewExtent(), 1).ok());
  EXPECT_TRUE(
      WriteAt(*file, ctx_.region, 0, std::span<const char>(data, 5)).ok());
  char buf[8] = {};
  EXPECT_EQ(ReadAt(*file, ctx_.region, 0, std::span<char>(buf, 8)), 5u);
  EXPECT_EQ(std::string_view(buf, 5), "hello");
}

TEST_F(MFileTest, CrossPageWrite) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->AttachRun(0, NewExtent(), 1).ok());
  ASSERT_TRUE(file->AttachRun(1, NewExtent(), 1).ok());
  ASSERT_TRUE(file->SetSize(7000).ok());
  std::string data(6000, 'q');
  ASSERT_TRUE(WriteAt(*file, ctx_.region, 1000, data).ok());
  std::string buf(6000, '\0');
  EXPECT_EQ(ReadAt(*file, ctx_.region, 1000, std::span<char>(buf)), 6000u);
  EXPECT_EQ(buf, data);
}

TEST_F(MFileTest, TruncateFreesTail) {
  const uint64_t free_before_create = ctx_.alloc->pages_free();
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  const uint64_t free_start = ctx_.alloc->pages_free();
  EXPECT_EQ(free_start, free_before_create - 1);  // header page
  for (uint64_t p = 0; p < 20; ++p) {
    ASSERT_TRUE(file->AttachRun(p, NewExtent(), 1).ok());
  }
  ASSERT_TRUE(file->SetSize(20 * kScmPageSize).ok());
  ASSERT_TRUE(file->Truncate(5 * kScmPageSize).ok());
  EXPECT_EQ(file->size(), 5 * kScmPageSize);
  EXPECT_TRUE(file->ExtentForPage(4).ok());
  EXPECT_EQ(file->ExtentForPage(5).code(), ErrorCode::kNotFound);
  EXPECT_EQ(file->ExtentForPage(19).code(), ErrorCode::kNotFound);
  // 15 data extents came back (the root block stays).
  EXPECT_EQ(ctx_.alloc->pages_free(), free_start - 5 - 1);
  // Truncate to zero releases everything including the tree.
  ASSERT_TRUE(file->Truncate(0).ok());
  EXPECT_EQ(ctx_.alloc->pages_free(), free_start);
}

TEST_F(MFileTest, DestroyFreesEverything) {
  const uint64_t free_start = ctx_.alloc->pages_free();
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  for (uint64_t p = 0; p < 600; ++p) {  // forces height 2
    ASSERT_TRUE(file->AttachRun(p, NewExtent(), 1).ok());
  }
  ASSERT_TRUE(file->Destroy().ok());
  EXPECT_EQ(ctx_.alloc->pages_free(), free_start);
  EXPECT_EQ(MFile::Open(ctx_, file->oid()).code(), ErrorCode::kCorrupted);
}

TEST_F(MFileTest, LinkCountPersists) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  file->SetLinkCount(3);
  auto reopened = MFile::Open(ctx_, file->oid());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->link_count(), 3u);
}

TEST_F(MFileTest, ForEachExtentVisitsAll) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  std::map<uint64_t, uint64_t> attached;
  for (uint64_t p : {0ull, 7ull, 513ull, 4096ull}) {
    const uint64_t extent = NewExtent();
    ASSERT_TRUE(file->AttachRun(p, extent, 1).ok());
    attached[p] = extent;
  }
  std::map<uint64_t, uint64_t> seen;
  ASSERT_TRUE(file->ForEachExtent([&](uint64_t page, uint64_t extent) {
                  seen[page] = extent;
                  return true;
                })
                  .ok());
  EXPECT_EQ(seen, attached);
}

// --- Single-extent mode (FlatFS files) ---

TEST_F(MFileTest, SingleExtentCreateWriteRead) {
  auto file = MFile::CreateSingleExtent(ctx_, 0, 10000);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file->single_extent());
  EXPECT_GE(file->capacity(), 10000u);  // rounded to power-of-two pages
  ASSERT_TRUE(file->SetSize(9000).ok());
  std::string data(9000, 'm');
  ASSERT_TRUE(WriteAt(*file, ctx_.region, 0, data).ok());
  std::string buf(9000, '\0');
  EXPECT_EQ(ReadAt(*file, ctx_.region, 0, std::span<char>(buf)), 9000u);
  EXPECT_EQ(buf, data);
}

TEST_F(MFileTest, SingleExtentCapacityEnforced) {
  auto file = MFile::CreateSingleExtent(ctx_, 0, 4096);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->SetSize(5000).code(), ErrorCode::kOutOfSpace);
  // A write can reach no further than the size, which stops at capacity.
  ASSERT_TRUE(file->SetSize(4096).ok());
  std::string data(5000, 'x');
  EXPECT_EQ(WriteAt(*file, ctx_.region, 0, data).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(file->AttachRun(0, NewExtent(), 1).code(),
            ErrorCode::kNotSupported);
}

TEST_F(MFileTest, SingleExtentDestroyFreesStorage) {
  const uint64_t free_start = ctx_.alloc->pages_free();
  auto file = MFile::CreateSingleExtent(ctx_, 0, 64 << 10);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Destroy().ok());
  EXPECT_EQ(ctx_.alloc->pages_free(), free_start);
}

// ReadDirect and WriteDirect copy one extent run at a time. The hand-built
// map holds a run of three adjacent pages, then a page whose extent does not
// follow the run's (the region page that would is a decoy no file page
// maps), then a hole, then a second run. Ranges that start and end mid-page
// across those boundaries must match a reference buffer, and no copy may
// read or write the decoy.
TEST(DirectExtentMapTest, ReadAndWriteDirectCopyOneRunAtATime) {
  constexpr uint64_t kRegionPages = 64;
  auto region = ScmRegion::CreateAnonymous(kRegionPages * kScmPageSize);
  ASSERT_TRUE(region.ok());
  ScmRegion* r = region->get();
  for (uint64_t i = 0; i < kRegionPages * kScmPageSize; ++i) {
    r->base()[i] = static_cast<char>(i / kScmPageSize * 37 + i % 251);
  }
  constexpr uint64_t kDecoy = 13;
  // Region page backing each file page; 0 is the hole.
  constexpr uint64_t kBacking[] = {10, 11, 12, 20, 0, 30, 31};
  constexpr uint64_t kPages = std::size(kBacking);
  MFile::DirectExtentMap map;
  map.size = kPages * kScmPageSize - 100;
  map.Own(0, kPages);
  std::string model(map.size, '\0');
  for (uint64_t p = 0; p < kPages; ++p) {
    map.set_extent(p, kBacking[p] * kScmPageSize);
    const uint64_t bytes = std::min(kScmPageSize, map.size - p * kScmPageSize);
    if (kBacking[p] != 0) {
      std::memcpy(model.data() + p * kScmPageSize,
                  r->PtrAt(kBacking[p] * kScmPageSize), bytes);
    }
  }
  const std::string decoy(r->PtrAt(kDecoy * kScmPageSize), kScmPageSize);
  auto read_all = [&] {
    std::string out(map.size, 'x');
    EXPECT_EQ(MFile::ReadDirect(r, map, 0, std::span<char>(out)), map.size);
    return out;
  };

  constexpr uint64_t kPage = kScmPageSize;
  const std::pair<uint64_t, uint64_t> reads[] = {
      {100, 3 * kPage - 1},              // inside the first run
      {2 * kPage + 7, 3 * kPage + 9},     // run into the stray page
      {kPage + 3000, 4 * kPage + 5},      // run, stray page, hole
      {3 * kPage + 50, 5 * kPage + 70},   // stray page, hole, second run
      {kPage - 1, map.size + 500},        // clamped at the size
  };
  for (const auto& [begin, end] : reads) {
    SCOPED_TRACE(::testing::Message() << "read [" << begin << ", " << end
                                      << ")");
    std::string out(end - begin, 'x');
    const uint64_t n = MFile::ReadDirect(r, map, begin, std::span<char>(out));
    ASSERT_EQ(n, std::min(end, map.size) - begin);
    EXPECT_EQ(out.substr(0, n), model.substr(begin, n));
  }

  const std::pair<uint64_t, uint64_t> writes[] = {
      {100, 3 * kPage - 1},
      {2 * kPage + 7, 3 * kPage + 9},
      {5 * kPage + 1, map.size - 200},
      {kPage + 3000, 4 * kPage + 5},  // reaches the hole: refused whole
  };
  for (const auto& [begin, end] : writes) {
    SCOPED_TRACE(::testing::Message() << "write [" << begin << ", " << end
                                      << ")");
    std::string data(end - begin, '\0');
    for (uint64_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<char>('a' + (begin + i * 7) % 26);
    }
    const Status st = MFile::WriteDirect(r, map, begin, data);
    if (end > 4 * kPage && begin < 5 * kPage) {
      EXPECT_EQ(st.code(), ErrorCode::kNotFound);
    } else {
      ASSERT_TRUE(st.ok()) << st.ToString();
      model.replace(begin, data.size(), data);
    }
    EXPECT_EQ(read_all(), model);
  }
  EXPECT_EQ(std::string(r->PtrAt(kDecoy * kScmPageSize), kScmPageSize),
            decoy);
}

class MFileRandomIoTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MFileRandomIoTest, RandomWritesMatchReferenceBuffer) {
  auto region = ScmRegion::CreateAnonymous(128 << 20);
  ASSERT_TRUE(region.ok());
  auto volume = Volume::Format(region->get(), 0, (*region)->size(),
                               Volume::Options{.log_bytes = 1 << 20});
  ASSERT_TRUE(volume.ok());
  OsdContext ctx = (*volume)->context();

  auto file = MFile::Create(ctx, 0);
  ASSERT_TRUE(file.ok());
  constexpr uint64_t kFileBytes = 64 << 10;
  std::string model(kFileBytes, '\0');
  Rng rng(GetParam());

  for (int op = 0; op < 300; ++op) {
    const uint64_t offset = rng.Uniform(kFileBytes - 1);
    const uint64_t len =
        std::min<uint64_t>(1 + rng.Uniform(8000), kFileBytes - offset);
    std::string data(len, '\0');
    for (auto& ch : data) {
      ch = static_cast<char>('a' + rng.Uniform(26));
    }
    // Attach any missing pages first (client pre-allocation pattern).
    for (uint64_t p = offset / kScmPageSize;
         p <= (offset + len - 1) / kScmPageSize; ++p) {
      if (!file->ExtentForPage(p).ok()) {
        auto extent = ctx.alloc->Alloc(0);
        ASSERT_TRUE(extent.ok());
        std::memset(ctx.region->PtrAt(*extent), 0, kScmPageSize);
        ASSERT_TRUE(file->AttachRun(p, *extent, 1).ok());
      }
    }
    if (offset + len > file->size()) {
      ASSERT_TRUE(file->SetSize(offset + len).ok());
    }
    ASSERT_TRUE(WriteAt(*file, ctx.region, offset, data).ok());
    std::memcpy(model.data() + offset, data.data(), len);
  }
  std::string buf(file->size(), '\0');
  ASSERT_EQ(ReadAt(*file, ctx.region, 0, std::span<char>(buf)),
            file->size());
  EXPECT_EQ(buf, model.substr(0, file->size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MFileRandomIoTest,
                         ::testing::Values(11, 22, 33));

// Allocates `pages` contiguous pages (a power of two: one buddy block).
uint64_t NewRun(const OsdContext& ctx, uint64_t pages) {
  std::vector<uint64_t> offsets;
  EXPECT_TRUE(ctx.alloc->AllocPages(pages, BuddyAllocator::kMaxOrder, &offsets)
                  .ok());
  for (size_t i = 1; i < offsets.size(); ++i) {
    EXPECT_EQ(offsets[i], offsets[0] + i * kScmPageSize);
  }
  return offsets.empty() ? 0 : offsets[0];
}

TEST_F(MFileTest, AttachRunSpansLeavesAndGrowsTheTree) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  const uint64_t run = NewRun(ctx_, 16);
  // Pages 505..520 straddle the first leaf and force height 2.
  ASSERT_TRUE(file->AttachRun(505, run, 16).ok());
  for (uint64_t i = 0; i < 16; ++i) {
    auto extent = file->ExtentForPage(505 + i);
    ASSERT_TRUE(extent.ok()) << i;
    EXPECT_EQ(*extent, run + i * kScmPageSize);
  }
  EXPECT_EQ(file->ExtentForPage(504).code(), ErrorCode::kNotFound);
  EXPECT_EQ(file->ExtentForPage(521).code(), ErrorCode::kNotFound);
  EXPECT_TRUE(file->Validate().ok());
}

TEST_F(MFileTest, AttachRunIsIdempotentAndAllOrNothing) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  const uint64_t run = NewRun(ctx_, 8);
  ASSERT_TRUE(file->AttachRun(20, run, 4).ok());
  // A replay of the same run, or one overlapping it with the same extents,
  // succeeds.
  EXPECT_TRUE(file->AttachRun(20, run, 4).ok());
  EXPECT_TRUE(file->AttachRun(22, run + 2 * kScmPageSize, 6).ok());
  // Pages 16..19 are holes, 20 and 21 are mapped to other extents: the run
  // fails before storing anything.
  const uint64_t other = NewRun(ctx_, 8);
  EXPECT_EQ(file->AttachRun(16, other, 6).code(), ErrorCode::kAlreadyExists);
  for (uint64_t p = 16; p < 20; ++p) {
    EXPECT_EQ(file->ExtentForPage(p).code(), ErrorCode::kNotFound) << p;
  }
  for (uint64_t p = 20; p < 28; ++p) {
    EXPECT_EQ(*file->ExtentForPage(p), run + (p - 20) * kScmPageSize) << p;
  }
  EXPECT_EQ(file->AttachRun(40, other, 0).code(), ErrorCode::kInvalidArgument);
}

TEST_F(MFileTest, TruncateIntoARunAndDestroyFreeEveryPage) {
  const uint64_t free_start = ctx_.alloc->pages_free();
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  const uint64_t run = NewRun(ctx_, 32);
  ASSERT_TRUE(file->AttachRun(0, run, 32).ok());
  ASSERT_TRUE(file->SetSize(32 * kScmPageSize).ok());
  const uint64_t free_full = ctx_.alloc->pages_free();
  ASSERT_TRUE(file->Truncate(10 * kScmPageSize + 1).ok());
  EXPECT_EQ(file->size(), 10 * kScmPageSize + 1);
  EXPECT_EQ(ctx_.alloc->pages_free(), free_full + 21);
  EXPECT_TRUE(ctx_.alloc->IsAllocated(run + 10 * kScmPageSize));
  EXPECT_FALSE(ctx_.alloc->IsAllocated(run + 11 * kScmPageSize));
  EXPECT_EQ(file->ExtentForPage(11).code(), ErrorCode::kNotFound);
  // Header, root leaf and the 11 kept pages.
  EXPECT_EQ(file->StoragePages().size(), 13u);
  ASSERT_TRUE(file->Destroy().ok());
  EXPECT_EQ(ctx_.alloc->pages_free(), free_start);
  // The freed run coalesced back: a maximal block is allocatable again.
  EXPECT_TRUE(ctx_.alloc->Alloc(BuddyAllocator::kMaxOrder).ok());
}

}  // namespace
}  // namespace aerie
