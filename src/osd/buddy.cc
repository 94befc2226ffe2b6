#include "src/osd/buddy.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/check.h"

namespace aerie {

Result<std::unique_ptr<BuddyAllocator>> BuddyAllocator::Create(
    ScmRegion* region, uint64_t bitmap_offset, uint64_t data_start,
    uint64_t page_count, bool fresh) {
  if (data_start % kScmPageSize != 0 || page_count == 0) {
    return Status(ErrorCode::kInvalidArgument, "bad allocator geometry");
  }
  auto alloc = std::unique_ptr<BuddyAllocator>(
      new BuddyAllocator(region, bitmap_offset, data_start, page_count));
  if (fresh) {
    char* bm = region->PtrAt(bitmap_offset);
    std::memset(bm, 0, BitmapBytes(page_count));
    region->WlFlush(bm, BitmapBytes(page_count));
    region->Fence();
  }
  alloc->RebuildFreeLists();
  return alloc;
}

int BuddyAllocator::OrderForBytes(uint64_t bytes) {
  const uint64_t pages =
      std::max<uint64_t>(1, (bytes + kScmPageSize - 1) / kScmPageSize);
  const int order = std::bit_width(pages) - (std::has_single_bit(pages) ? 1 : 0);
  return order;
}

bool BuddyAllocator::BitmapBit(uint64_t page) const {
  const char* bm = region_->PtrAt(bitmap_offset_);
  return (bm[page / 8] >> (page % 8)) & 1;
}

void BuddyAllocator::SetBitmap(uint64_t page, uint64_t count, bool allocated) {
  AERIE_SPAN("osd", "set_bitmap");
  char* bm = region_->PtrAt(bitmap_offset_);
  const uint64_t first_byte = page / 8;
  for (uint64_t p = page; p < page + count; ++p) {
    if (allocated) {
      bm[p / 8] = static_cast<char>(bm[p / 8] | (1 << (p % 8)));
    } else {
      bm[p / 8] = static_cast<char>(bm[p / 8] & ~(1 << (p % 8)));
    }
  }
  const uint64_t last_byte = (page + count - 1) / 8;
  region_->WlFlush(bm + first_byte, last_byte - first_byte + 1);
  region_->Fence();
}

void BuddyAllocator::RebuildFreeLists() {
  std::lock_guard lock(mu_);
  for (auto& fl : free_lists_) {
    fl.clear();
  }
  // Coalesce maximal aligned free runs into the largest possible blocks.
  uint64_t page = 0;
  while (page < page_count_) {
    if (BitmapBit(page)) {
      page++;
      continue;
    }
    // Length of this free run.
    uint64_t run_end = page;
    while (run_end < page_count_ && !BitmapBit(run_end)) {
      run_end++;
    }
    uint64_t p = page;
    while (p < run_end) {
      // Largest order block aligned at p that fits in the run.
      int order = kMaxOrder;
      while (order > 0 &&
             ((p & ((1ULL << order) - 1)) != 0 ||
              p + (1ULL << order) > run_end)) {
        order--;
      }
      free_lists_[order].push_back(p);
      p += 1ULL << order;
    }
    page = run_end;
  }
}

Result<uint64_t> BuddyAllocator::Alloc(int order) {
  if (order < 0 || order > kMaxOrder) {
    return Status(ErrorCode::kInvalidArgument, "bad order");
  }
  std::lock_guard lock(mu_);
  int have = order;
  while (have <= kMaxOrder && free_lists_[have].empty()) {
    have++;
  }
  if (have > kMaxOrder) {
    return Status(ErrorCode::kOutOfSpace, "buddy allocator exhausted");
  }
  uint64_t page = free_lists_[have].back();
  free_lists_[have].pop_back();
  // Split down to the requested order, returning buddies to the lists.
  while (have > order) {
    have--;
    free_lists_[have].push_back(page + (1ULL << have));
  }
  SetBitmap(page, 1ULL << order, /*allocated=*/true);
  return data_start_ + page * kScmPageSize;
}

Status BuddyAllocator::AllocMany(int order, uint64_t count,
                                 std::vector<uint64_t>* out) {
  AERIE_SPAN("osd", "alloc_many");
  if (order < 0 || order > kMaxOrder) {
    return Status(ErrorCode::kInvalidArgument, "bad order");
  }
  std::lock_guard lock(mu_);
  out->reserve(out->size() + count);
  uint64_t min_page = ~0ull;
  uint64_t max_page = 0;
  for (uint64_t n = 0; n < count; ++n) {
    int have = order;
    while (have <= kMaxOrder && free_lists_[have].empty()) {
      have++;
    }
    if (have > kMaxOrder) {
      return Status(ErrorCode::kOutOfSpace, "buddy allocator exhausted");
    }
    uint64_t page = free_lists_[have].back();
    free_lists_[have].pop_back();
    while (have > order) {
      have--;
      free_lists_[have].push_back(page + (1ULL << have));
    }
    // Set bits without flushing; one flush covers the whole range below.
    char* bm = region_->PtrAt(bitmap_offset_);
    for (uint64_t p = page; p < page + (1ULL << order); ++p) {
      bm[p / 8] = static_cast<char>(bm[p / 8] | (1 << (p % 8)));
    }
    min_page = std::min(min_page, page);
    max_page = std::max<uint64_t>(max_page, page + (1ULL << order) - 1);
    out->push_back(data_start_ + page * kScmPageSize);
  }
  if (count > 0) {
    char* bm = region_->PtrAt(bitmap_offset_);
    region_->WlFlush(bm + min_page / 8, max_page / 8 - min_page / 8 + 1);
    region_->Fence();
  }
  return OkStatus();
}

Result<uint64_t> BuddyAllocator::AllocBytes(uint64_t bytes) {
  return Alloc(OrderForBytes(bytes));
}

Status BuddyAllocator::Free(uint64_t offset, int order) {
  if (order < 0 || order > kMaxOrder || offset < data_start_ ||
      (offset - data_start_) % kScmPageSize != 0) {
    return Status(ErrorCode::kInvalidArgument, "bad free");
  }
  uint64_t page = (offset - data_start_) / kScmPageSize;
  if (page + (1ULL << order) > page_count_) {
    return Status(ErrorCode::kInvalidArgument, "free beyond allocator range");
  }
  std::lock_guard lock(mu_);
  if (!BitmapBit(page)) {
    return Status(ErrorCode::kInvalidArgument, "double free");
  }
  SetBitmap(page, 1ULL << order, /*allocated=*/false);

  // Merge with free buddies.
  int ord = order;
  while (ord < kMaxOrder) {
    const uint64_t buddy = page ^ (1ULL << ord);
    auto& fl = free_lists_[ord];
    auto it = std::find(fl.begin(), fl.end(), buddy);
    if (it == fl.end()) {
      break;
    }
    fl.erase(it);
    page = std::min(page, buddy);
    ord++;
  }
  free_lists_[ord].push_back(page);
  return OkStatus();
}

Status BuddyAllocator::FreeBytes(uint64_t offset, uint64_t bytes) {
  return Free(offset, OrderForBytes(bytes));
}

bool BuddyAllocator::IsAllocated(uint64_t offset) const {
  if (offset < data_start_) {
    return false;
  }
  const uint64_t page = (offset - data_start_) / kScmPageSize;
  if (page >= page_count_) {
    return false;
  }
  std::lock_guard lock(mu_);
  return BitmapBit(page);
}

uint64_t BuddyAllocator::pages_free() const {
  std::lock_guard lock(mu_);
  uint64_t total = 0;
  for (int k = 0; k <= kMaxOrder; ++k) {
    total += free_lists_[k].size() << k;
  }
  return total;
}

}  // namespace aerie
