// Tests for the buddy allocator: allocation, splitting, coalescing,
// persistence of the bitmap across remount, exhaustion, double free.
#include <gtest/gtest.h>

#include <set>

#include "src/common/rand.h"
#include "src/osd/buddy.h"

namespace aerie {
namespace {

class BuddyTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kPages = 1024;
  static constexpr uint64_t kBitmapOffset = 4096;
  static constexpr uint64_t kDataStart = 1 << 20;

  void SetUp() override {
    auto region = ScmRegion::CreateAnonymous(16 << 20);
    ASSERT_TRUE(region.ok());
    region_ = std::move(*region);
    auto alloc = BuddyAllocator::Create(region_.get(), kBitmapOffset,
                                        kDataStart, kPages, /*fresh=*/true);
    ASSERT_TRUE(alloc.ok());
    alloc_ = std::move(*alloc);
  }

  std::unique_ptr<ScmRegion> region_;
  std::unique_ptr<BuddyAllocator> alloc_;
};

TEST_F(BuddyTest, OrderForBytes) {
  EXPECT_EQ(BuddyAllocator::OrderForBytes(1), 0);
  EXPECT_EQ(BuddyAllocator::OrderForBytes(4096), 0);
  EXPECT_EQ(BuddyAllocator::OrderForBytes(4097), 1);
  EXPECT_EQ(BuddyAllocator::OrderForBytes(8192), 1);
  EXPECT_EQ(BuddyAllocator::OrderForBytes(64 << 10), 4);
}

TEST_F(BuddyTest, AllocReturnsAlignedDisjointBlocks) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    auto offset = alloc_->Alloc(0);
    ASSERT_TRUE(offset.ok());
    EXPECT_EQ(*offset % kScmPageSize, 0u);
    EXPECT_GE(*offset, kDataStart);
    EXPECT_TRUE(seen.insert(*offset).second);
    EXPECT_TRUE(alloc_->IsAllocated(*offset));
  }
  EXPECT_EQ(alloc_->pages_free(), kPages - 100);
}

TEST_F(BuddyTest, LargeBlocksAreNaturallyAligned) {
  auto offset = alloc_->Alloc(4);  // 16 pages
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ((*offset - kDataStart) % (16 * kScmPageSize), 0u);
}

TEST_F(BuddyTest, FreeAndCoalesceRestoresFullCapacity) {
  std::vector<uint64_t> blocks;
  for (int i = 0; i < 64; ++i) {
    auto offset = alloc_->Alloc(2);  // 4 pages each
    ASSERT_TRUE(offset.ok());
    blocks.push_back(*offset);
  }
  EXPECT_EQ(alloc_->pages_free(), kPages - 64 * 4);
  for (uint64_t b : blocks) {
    EXPECT_TRUE(alloc_->Free(b, 2).ok());
  }
  EXPECT_EQ(alloc_->pages_free(), kPages);
  // After coalescing, a max-order block must be allocatable again.
  EXPECT_TRUE(alloc_->Alloc(BuddyAllocator::kMaxOrder).ok());
}

TEST_F(BuddyTest, ExhaustionReportsOutOfSpace) {
  uint64_t total = 0;
  while (true) {
    auto offset = alloc_->Alloc(0);
    if (!offset.ok()) {
      EXPECT_EQ(offset.code(), ErrorCode::kOutOfSpace);
      break;
    }
    total++;
  }
  EXPECT_EQ(total, kPages);
  EXPECT_EQ(alloc_->pages_free(), 0u);
}

TEST_F(BuddyTest, DoubleFreeRejected) {
  auto offset = alloc_->Alloc(0);
  ASSERT_TRUE(offset.ok());
  EXPECT_TRUE(alloc_->Free(*offset, 0).ok());
  EXPECT_EQ(alloc_->Free(*offset, 0).code(), ErrorCode::kInvalidArgument);
}

TEST_F(BuddyTest, BadFreeArgumentsRejected) {
  EXPECT_EQ(alloc_->Free(kDataStart - kScmPageSize, 0).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(alloc_->Free(kDataStart + 17, 0).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(alloc_->Free(kDataStart, 99).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(BuddyTest, StateSurvivesRemount) {
  auto a = alloc_->Alloc(3);  // 8 pages
  auto b = alloc_->Alloc(0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const uint64_t free_before = alloc_->pages_free();

  // Remount from the persistent bitmap (volatile free lists rebuilt).
  auto remounted = BuddyAllocator::Create(region_.get(), kBitmapOffset,
                                          kDataStart, kPages,
                                          /*fresh=*/false);
  ASSERT_TRUE(remounted.ok());
  EXPECT_EQ((*remounted)->pages_free(), free_before);
  EXPECT_TRUE((*remounted)->IsAllocated(*a));
  EXPECT_TRUE((*remounted)->IsAllocated(*b));
  // Freeing through the remounted allocator works.
  EXPECT_TRUE((*remounted)->Free(*a, 3).ok());
  EXPECT_EQ((*remounted)->pages_free(), free_before + 8);
  // New allocations never overlap surviving ones.
  for (int i = 0; i < 50; ++i) {
    auto offset = (*remounted)->Alloc(0);
    ASSERT_TRUE(offset.ok());
    EXPECT_NE(*offset, *b);
  }
}

TEST_F(BuddyTest, AllocBytesRoundsUp) {
  auto offset = alloc_->AllocBytes(5000);
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(alloc_->pages_free(), kPages - 2);
  EXPECT_TRUE(alloc_->FreeBytes(*offset, 5000).ok());
  EXPECT_EQ(alloc_->pages_free(), kPages);
}

TEST_F(BuddyTest, AllocPagesHandsOutRunsOfTheRequestedOrder) {
  std::vector<uint64_t> pages;
  ASSERT_TRUE(alloc_->AllocPages(70, 5, &pages).ok());
  ASSERT_EQ(pages.size(), 70u);
  EXPECT_EQ(alloc_->pages_free(), kPages - 70);
  // Two whole 32-page blocks, then the 6-page remainder in smaller ones.
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(pages[i], pages[i / 32 * 32] + (i % 32) * kScmPageSize) << i;
    EXPECT_TRUE(alloc_->IsAllocated(pages[i]));
  }
  EXPECT_EQ((pages[0] - kDataStart) % (32 * kScmPageSize), 0u);
  EXPECT_EQ(std::set<uint64_t>(pages.begin(), pages.end()).size(), 70u);
}

TEST_F(BuddyTest, AllocPagesFallsBackWhenFragmented) {
  // Allocate every page, then free every other one: no block above order 0.
  std::vector<uint64_t> all;
  ASSERT_TRUE(alloc_->AllocPages(kPages, 0, &all).ok());
  for (size_t i = 0; i < all.size(); i += 2) {
    ASSERT_TRUE(alloc_->Free(all[i], 0).ok());
  }
  std::vector<uint64_t> pages;
  ASSERT_TRUE(alloc_->AllocPages(100, 5, &pages).ok());
  EXPECT_EQ(pages.size(), 100u);
  EXPECT_EQ(alloc_->pages_free(), kPages / 2 - 100);
}

TEST_F(BuddyTest, AllocPagesIsAllOrNothing) {
  std::vector<uint64_t> held;
  ASSERT_TRUE(alloc_->AllocPages(kPages - 10, 5, &held).ok());
  std::vector<uint64_t> pages;
  EXPECT_EQ(alloc_->AllocPages(11, 5, &pages).code(),
            ErrorCode::kOutOfSpace);
  EXPECT_TRUE(pages.empty());
  EXPECT_EQ(alloc_->pages_free(), 10u);
  ASSERT_TRUE(alloc_->AllocPages(10, 5, &pages).ok());
  EXPECT_EQ(alloc_->pages_free(), 0u);
}

TEST_F(BuddyTest, ClearThenReleaseFreesOnlyAllocatedPages) {
  std::vector<uint64_t> pages;
  ASSERT_TRUE(alloc_->AllocPages(32, 5, &pages).ok());
  std::vector<uint64_t> batch = pages;
  alloc_->ClearPages(&batch, kNoPersistSite);
  EXPECT_EQ(batch.size(), 32u);
  // Cleared but not yet released: not allocated, yet not allocatable.
  EXPECT_FALSE(alloc_->IsAllocated(pages[0]));
  EXPECT_EQ(alloc_->pages_free(), kPages - 32);
  // A replayed free finds the bits clear and releases nothing twice.
  std::vector<uint64_t> replay = pages;
  alloc_->ClearPages(&replay, kNoPersistSite);
  EXPECT_TRUE(replay.empty());
  alloc_->ReleasePages(batch);
  EXPECT_EQ(alloc_->pages_free(), kPages);
  EXPECT_TRUE(alloc_->Alloc(BuddyAllocator::kMaxOrder).ok());
}

// Random allocs and frees (exercising lazy list removal and compaction):
// live blocks never overlap, the free count stays exact, and freeing
// everything coalesces back to maximal blocks.
TEST_F(BuddyTest, RandomChurnKeepsBlocksDisjointAndCoalesces) {
  Rng rng(20261017);
  std::vector<std::pair<uint64_t, int>> live;  // offset, order
  std::vector<bool> used(kPages, false);
  uint64_t used_pages = 0;
  for (int step = 0; step < 20000; ++step) {
    if (live.empty() || rng.Chance(1, 2)) {
      const int order = static_cast<int>(rng.Uniform(4));
      auto offset = alloc_->Alloc(order);
      if (!offset.ok()) {
        continue;
      }
      const uint64_t page = (*offset - kDataStart) / kScmPageSize;
      for (uint64_t p = page; p < page + (1ULL << order); ++p) {
        ASSERT_FALSE(used[p]) << "page " << p << " handed out twice";
        used[p] = true;
      }
      used_pages += 1ULL << order;
      live.emplace_back(*offset, order);
    } else {
      const size_t i = rng.Uniform(live.size());
      const auto [offset, order] = live[i];
      live[i] = live.back();
      live.pop_back();
      ASSERT_TRUE(alloc_->Free(offset, order).ok());
      const uint64_t page = (offset - kDataStart) / kScmPageSize;
      for (uint64_t p = page; p < page + (1ULL << order); ++p) {
        used[p] = false;
      }
      used_pages -= 1ULL << order;
    }
    ASSERT_EQ(alloc_->pages_free(), kPages - used_pages);
  }
  for (const auto& [offset, order] : live) {
    ASSERT_TRUE(alloc_->Free(offset, order).ok());
  }
  EXPECT_EQ(alloc_->pages_free(), kPages);
  EXPECT_TRUE(alloc_->Alloc(BuddyAllocator::kMaxOrder).ok());
}

}  // namespace
}  // namespace aerie
