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

void BuddyAllocator::StoreBit(uint64_t page, bool allocated) {
  char* bm = region_->PtrAt(bitmap_offset_);
  if (allocated) {
    bm[page / 8] = static_cast<char>(bm[page / 8] | (1 << (page % 8)));
  } else {
    bm[page / 8] = static_cast<char>(bm[page / 8] & ~(1 << (page % 8)));
  }
}

void BuddyAllocator::SetBitmap(uint64_t page, uint64_t count, bool allocated) {
  AERIE_SPAN("osd", "set_bitmap");
  char* bm = region_->PtrAt(bitmap_offset_);
  const uint64_t first_byte = page / 8;
  for (uint64_t p = page; p < page + count; ++p) {
    StoreBit(p, allocated);
  }
  const uint64_t last_byte = (page + count - 1) / 8;
  region_->WlFlush(bm + first_byte, last_byte - first_byte + 1);
  region_->Fence();
}

void BuddyAllocator::FlushPages(const std::vector<uint64_t>& offsets,
                                int flush_site) {
  if (offsets.empty()) {
    return;
  }
  char* bm = region_->PtrAt(bitmap_offset_);
  auto byte_of = [this](uint64_t offset) {
    return (offset - data_start_) / kScmPageSize / 8;
  };
  uint64_t first = byte_of(offsets.front());
  uint64_t last = first;
  for (uint64_t offset : offsets) {
    const uint64_t byte = byte_of(offset);
    if (byte / kCacheLineSize > last / kCacheLineSize + 1) {
      region_->WlFlush(bm + first, last - first + 1, flush_site);
      first = byte;
    }
    last = byte;
  }
  region_->WlFlush(bm + first, last - first + 1, flush_site);
  region_->Fence();
}

void BuddyAllocator::RebuildFreeLists() {
  std::lock_guard lock(mu_);
  for (int k = 0; k <= kMaxOrder; ++k) {
    free_lists_[k].clear();
    free_blocks_[k] = 0;
  }
  free_order_.assign(page_count_, 0);
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
      PushFreeLocked(p, order);
      p += 1ULL << order;
    }
    page = run_end;
  }
}

void BuddyAllocator::PushFreeLocked(uint64_t page, int order) {
  free_lists_[order].push_back(page);
  free_order_[page] = static_cast<uint8_t>(order + 1);
  free_blocks_[order]++;
}

uint64_t BuddyAllocator::PopFreeLocked(int order) {
  std::vector<uint64_t>& fl = free_lists_[order];
  while (free_order_[fl.back()] != order + 1) {
    fl.pop_back();  // stale: merged away since it was pushed
  }
  const uint64_t page = fl.back();
  fl.pop_back();
  free_order_[page] = 0;
  free_blocks_[order]--;
  return page;
}

void BuddyAllocator::RemoveFreeLocked(uint64_t page, int order) {
  free_order_[page] = 0;
  free_blocks_[order]--;
  std::vector<uint64_t>& fl = free_lists_[order];
  if (fl.size() > 2 * free_blocks_[order] + 64) {
    // Keep the first entry of each live block; drop stale ones and repeats
    // (a block freed, merged away and freed again is listed twice).
    constexpr uint8_t kSeen = 0x80;
    std::erase_if(fl, [&](uint64_t p) {
      if (free_order_[p] != order + 1) {
        return true;
      }
      free_order_[p] |= kSeen;
      return false;
    });
    for (uint64_t p : fl) {
      free_order_[p] &= static_cast<uint8_t>(~kSeen);
    }
  }
}

uint64_t BuddyAllocator::BlocksAvailableLocked(int order) const {
  uint64_t blocks = 0;
  for (int k = order; k <= kMaxOrder; ++k) {
    blocks += free_blocks_[k] << (k - order);
  }
  return blocks;
}

uint64_t BuddyAllocator::TakeBlockLocked(int order) {
  int have = order;
  while (free_blocks_[have] == 0) {
    have++;
  }
  const uint64_t page = PopFreeLocked(have);
  // Split down to the requested order, returning the upper halves.
  while (have > order) {
    have--;
    PushFreeLocked(page + (1ULL << have), have);
  }
  return page;
}

void BuddyAllocator::PutBlockLocked(uint64_t page, int order) {
  while (order < kMaxOrder) {
    const uint64_t buddy = page ^ (1ULL << order);
    if (buddy >= page_count_ || free_order_[buddy] != order + 1) {
      break;
    }
    RemoveFreeLocked(buddy, order);
    page = std::min(page, buddy);
    order++;
  }
  PushFreeLocked(page, order);
}

Result<uint64_t> BuddyAllocator::Alloc(int order) {
  if (order < 0 || order > kMaxOrder) {
    return Status(ErrorCode::kInvalidArgument, "bad order");
  }
  std::lock_guard lock(mu_);
  if (BlocksAvailableLocked(order) == 0) {
    return Status(ErrorCode::kOutOfSpace, "buddy allocator exhausted");
  }
  const uint64_t page = TakeBlockLocked(order);
  SetBitmap(page, 1ULL << order, /*allocated=*/true);
  return data_start_ + page * kScmPageSize;
}

Status BuddyAllocator::AllocPages(uint64_t pages, int max_order,
                                  std::vector<uint64_t>* out) {
  AERIE_SPAN("osd", "alloc_pages");
  if (max_order < 0 || max_order > kMaxOrder) {
    return Status(ErrorCode::kInvalidArgument, "bad order");
  }
  std::lock_guard lock(mu_);
  // Any free page can be had at order 0, so the free total decides.
  if (BlocksAvailableLocked(0) < pages) {
    return Status(ErrorCode::kOutOfSpace, "buddy allocator exhausted");
  }
  const size_t first = out->size();
  out->reserve(first + pages);
  int order = max_order;
  for (uint64_t left = pages; left > 0; left -= 1ULL << order) {
    while ((1ULL << order) > left || BlocksAvailableLocked(order) == 0) {
      order--;
    }
    const uint64_t page = TakeBlockLocked(order);
    for (uint64_t p = page; p < page + (1ULL << order); ++p) {
      StoreBit(p, /*allocated=*/true);
      out->push_back(data_start_ + p * kScmPageSize);
    }
  }
  std::vector<uint64_t> taken(out->begin() + first, out->end());
  std::sort(taken.begin(), taken.end());
  FlushPages(taken, kNoPersistSite);
  return OkStatus();
}

void BuddyAllocator::ClearPages(std::vector<uint64_t>* offsets,
                                int flush_site) {
  AERIE_SPAN("osd", "clear_pages");
  std::sort(offsets->begin(), offsets->end());
  std::lock_guard lock(mu_);
  std::erase_if(*offsets, [&](uint64_t offset) {
    const uint64_t page = (offset - data_start_) / kScmPageSize;
    if (offset < data_start_ || page >= page_count_ || !BitmapBit(page)) {
      return true;
    }
    StoreBit(page, /*allocated=*/false);
    return false;
  });
  FlushPages(*offsets, flush_site);
}

void BuddyAllocator::ReleasePages(const std::vector<uint64_t>& offsets) {
  std::lock_guard lock(mu_);
  // Each contiguous run goes back as its largest aligned blocks.
  for (size_t i = 0; i < offsets.size();) {
    size_t end = i + 1;
    while (end < offsets.size() &&
           offsets[end] == offsets[end - 1] + kScmPageSize) {
      end++;
    }
    uint64_t page = (offsets[i] - data_start_) / kScmPageSize;
    const uint64_t run_end = page + (end - i);
    while (page < run_end) {
      int order = kMaxOrder;
      while (order > 0 && ((page & ((1ULL << order) - 1)) != 0 ||
                           page + (1ULL << order) > run_end)) {
        order--;
      }
      PutBlockLocked(page, order);
      page += 1ULL << order;
    }
    i = end;
  }
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
  PutBlockLocked(page, order);
  return OkStatus();
}

Status BuddyAllocator::FreeBytes(uint64_t offset, uint64_t bytes) {
  return Free(offset, OrderForBytes(bytes));
}

bool BuddyAllocator::IsAllocated(uint64_t offset, uint64_t pages) const {
  if (offset < data_start_) {
    return false;
  }
  const uint64_t first = (offset - data_start_) / kScmPageSize;
  if (first >= page_count_ || pages > page_count_ - first) {
    return false;
  }
  std::lock_guard lock(mu_);
  for (uint64_t page = first; page < first + pages; ++page) {
    if (!BitmapBit(page)) {
      return false;
    }
  }
  return true;
}

uint64_t BuddyAllocator::pages_free() const {
  std::lock_guard lock(mu_);
  uint64_t total = 0;
  for (int k = 0; k <= kMaxOrder; ++k) {
    total += free_blocks_[k] << k;
  }
  return total;
}

}  // namespace aerie
