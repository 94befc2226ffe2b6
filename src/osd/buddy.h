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
// Freeing a batch of pages is split in two so the caller can order its own
// persists in between (MFile::Truncate/Destroy): ClearPages persists the
// cleared bits, ReleasePages later makes the pages allocatable.
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
  // Allocates `pages` pages as blocks of 2^max_order pages, falling back to
  // smaller blocks when the volume is fragmented (the extent-pool fill,
  // paper §5.3.7). Appends one offset per page, ascending within each block,
  // or fails with nothing taken. One flush per touched bitmap line range.
  Status AllocPages(uint64_t pages, int max_order, std::vector<uint64_t>* out);
  // Allocates the smallest power-of-two block covering `bytes`.
  Result<uint64_t> AllocBytes(uint64_t bytes);
  // Frees a block previously allocated at `offset` with the same order.
  Status Free(uint64_t offset, int order);
  Status FreeBytes(uint64_t offset, uint64_t bytes);

  // Batched free, step one: sorts `offsets`, clears their pages' bits, one
  // flush per touched bitmap line range at `flush_site`, then one fence.
  // Drops from `offsets` the pages already clear (a replayed free), which
  // must not be released again. The pages stay off the free lists.
  void ClearPages(std::vector<uint64_t>* offsets, int flush_site);
  // Batched free, last step: puts the pages ClearPages left in `offsets`
  // (sorted) on the free lists, merging buddies.
  void ReleasePages(const std::vector<uint64_t>& offsets);
  static int OrderForBytes(uint64_t bytes);

  // True if the page containing `offset`, and the `pages` - 1 pages after
  // it, are allocated (validator use).
  bool IsAllocated(uint64_t offset, uint64_t pages = 1) const;

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
  // Plain store of one page's bit; the caller flushes.
  void StoreBit(uint64_t page, bool allocated);
  // Flushes the bitmap bytes of the pages at `offsets` (sorted), one flush
  // per run of touched lines, then fences.
  void FlushPages(const std::vector<uint64_t>& offsets, int flush_site);
  // Free blocks able to supply 2^order-page blocks, counted in such blocks.
  uint64_t BlocksAvailableLocked(int order) const;
  // Takes a free block of exactly 2^order pages (splitting a larger one),
  // without touching the bitmap; the caller checked availability.
  uint64_t TakeBlockLocked(int order);
  // Returns one free 2^order block at `page` to the lists, merging buddies.
  void PutBlockLocked(uint64_t page, int order);
  // Free-list primitives (see free_lists_).
  void PushFreeLocked(uint64_t page, int order);
  uint64_t PopFreeLocked(int order);
  void RemoveFreeLocked(uint64_t page, int order);

  ScmRegion* region_;
  uint64_t bitmap_offset_;
  uint64_t data_start_;
  uint64_t page_count_;

  mutable std::mutex mu_;
  // free_lists_[k] holds page indexes of free 2^k-page blocks, the most
  // recently freed last: it is taken first, while its lines may still be
  // cached, and the upper halves a split pushes come out in address order.
  // A merge removes its buddy lazily: free_order_[page] is k + 1 while the
  // page heads a free 2^k block and 0 otherwise, entries that disagree are
  // skipped, and a list is compacted once they outnumber the live ones.
  std::vector<uint64_t> free_lists_[kMaxOrder + 1];
  uint64_t free_blocks_[kMaxOrder + 1] = {};  // live entries per list
  std::vector<uint8_t> free_order_;           // one byte per page
};

}  // namespace aerie

#endif  // AERIE_SRC_OSD_BUDDY_H_
