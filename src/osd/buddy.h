// Buddy storage allocator (paper §5.3.7: "The TFS implements a buddy storage
// allocator to create extents out of a partition").
//
// Page-granular (4KB) with power-of-two block sizes up to kMaxOrder. The
// allocated/free state persists as a bitmap in SCM (one bit per page,
// flushed on every transition); the per-order free lists are volatile and
// rebuilt from the bitmap on mount by coalescing maximal aligned free runs.
// Bitmap updates are idempotent, so replaying a TFS redo log over an
// already-updated bitmap is harmless.
//
// Only the TFS allocates (clients draw from pre-allocated pools), so a single
// mutex suffices; the paper's observed contention on the storage allocator
// beyond 4 threads (§7.2.3) reproduces naturally from this design.
#ifndef AERIE_SRC_OSD_BUDDY_H_
#define AERIE_SRC_OSD_BUDDY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/scm/pmem.h"

namespace aerie {

class BuddyAllocator {
 public:
  static constexpr int kMaxOrder = 10;  // 4KB .. 4MB blocks

  // The allocator manages [data_start, data_start + page_count*4KB) using a
  // bitmap stored at [bitmap_offset, ...) (one bit per page; caller sizes it
  // with BitmapBytes). `fresh` zeroes the bitmap; otherwise free lists are
  // rebuilt from the existing bitmap.
  static Result<std::unique_ptr<BuddyAllocator>> Create(
      ScmRegion* region, uint64_t bitmap_offset, uint64_t data_start,
      uint64_t page_count, bool fresh);

  static constexpr uint64_t BitmapBytes(uint64_t page_count) {
    return (page_count + 7) / 8;
  }

  // Allocates a block of 2^order pages; returns its byte offset.
  Result<uint64_t> Alloc(int order);
  // Allocates `count` blocks of 2^order pages with a single bitmap flush
  // (the pre-allocation pool fill path, paper §5.3.7).
  Status AllocMany(int order, uint64_t count, std::vector<uint64_t>* out);
  // Allocates the smallest power-of-two block covering `bytes`.
  Result<uint64_t> AllocBytes(uint64_t bytes);
  // Frees a block previously allocated at `offset` with the same order.
  Status Free(uint64_t offset, int order);
  Status FreeBytes(uint64_t offset, uint64_t bytes);

  static int OrderForBytes(uint64_t bytes);

  // True if the page containing `offset` is allocated (validator use).
  bool IsAllocated(uint64_t offset) const;

  uint64_t pages_free() const;
  uint64_t pages_total() const { return page_count_; }
  uint64_t data_start() const { return data_start_; }

 private:
  BuddyAllocator(ScmRegion* region, uint64_t bitmap_offset,
                 uint64_t data_start, uint64_t page_count)
      : region_(region),
        bitmap_offset_(bitmap_offset),
        data_start_(data_start),
        page_count_(page_count) {}

  void RebuildFreeLists();
  // Marks pages [page, page+count) allocated/free in the persistent bitmap.
  void SetBitmap(uint64_t page, uint64_t count, bool allocated);
  bool BitmapBit(uint64_t page) const;

  ScmRegion* region_;
  uint64_t bitmap_offset_;
  uint64_t data_start_;
  uint64_t page_count_;

  mutable std::mutex mu_;
  // free_lists_[k] holds page indexes of free 2^k-page blocks.
  std::vector<uint64_t> free_lists_[kMaxOrder + 1];
};

}  // namespace aerie

#endif  // AERIE_SRC_OSD_BUDDY_H_
