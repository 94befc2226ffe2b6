// mFile object: offset -> data-extent map (paper §5.3.2, Figure 3).
//
// PXFS files are mFiles with page-sized (4KB) extents indexed by a radix
// tree of indirect blocks (512 pointers per 4KB block). FlatFS files are
// mFiles in *single-extent* mode: one extent holds the whole file, so a get
// or put is a single memcpy (paper §6.2).
//
// Responsibility split mirrors the paper:
//   * clients read file data directly, and write it in place where the
//     extents exist, through a snapshot of the extent map (ReadDirect,
//     WriteDirect: no service);
//   * mapping changes (attaching extents a client pre-allocated, growing
//     the tree, truncation, setting the size) are metadata and are applied
//     by the TFS after validation.
//
// Crash consistency: indirect-block pointer stores and the size field are
// single atomic 64-bit stores; height changes pack the height into the low
// bits of the root pointer so root+height swing in one store. An attached
// run's slots, and the slots a truncate clears, are flushed per leaf range
// and sealed by one fence (DESIGN.md §6 item 7): replay redoes either.
#ifndef AERIE_SRC_OSD_MFILE_H_
#define AERIE_SRC_OSD_MFILE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/osd/oid.h"
#include "src/osd/osd_context.h"

namespace aerie {

class MFile {
 public:
  static constexpr uint64_t kPointersPerBlock = kScmPageSize / 8;  // 512

  // Creates a paged (radix-tree) mFile.
  static Result<MFile> Create(const OsdContext& ctx, uint32_t acl);
  // Creates a single-extent mFile with `capacity_bytes` of storage
  // (rounded up to a power-of-two page multiple). FlatFS mode.
  static Result<MFile> CreateSingleExtent(const OsdContext& ctx, uint32_t acl,
                                          uint64_t capacity_bytes);
  static Result<MFile> Open(const OsdContext& ctx, Oid oid);

  Oid oid() const { return oid_; }
  uint64_t size() const;
  bool single_extent() const;
  uint64_t capacity() const;  // single-extent mode: allocated bytes
  uint32_t acl() const;
  void SetAcl(uint32_t acl);

  // Collection-membership count (paper §5.3.4: transitions between
  // hierarchical and explicit locking). Maintained by the TFS.
  uint64_t link_count() const;
  void SetLinkCount(uint64_t n);

  // --- Reads (untrusted clients; direct memory access) ---
  // Region offset of the extent backing `page_index`, or kNotFound (hole).
  Result<uint64_t> ExtentForPage(uint64_t page_index) const;

  // --- Extent maps: PXFS's one data path (DESIGN.md §10) ---
  // Immutable snapshot of the offset -> extent map, taken while the caller
  // holds lock authority on the file. Region offsets of 4KB pages; 0 = hole.
  // A snapshot stays safe to use after the lock is released *only* under a
  // valid direct-access epoch from the clerk (extents are never reclaimed
  // while any client could still hold authority over them).
  //
  // The pages are held in chunks of kChunkPages, under a tree of inner
  // nodes of kFanout children; a missing chunk or subtree is all holes. So
  // a map costs memory for the pages that are mapped, not for the offsets
  // it spans, and copies of a map share every node: an edited copy costs
  // the nodes on the paths to the chunks it edits. A node is written only
  // by the map that made it private (Own, Resize), and only before that map
  // is shared.
  struct DirectExtentMap {
    static constexpr uint32_t kChunkBits = 9;
    static constexpr uint64_t kChunkPages = 1ull << kChunkBits;  // 512
    static constexpr uint32_t kFanoutBits = 3;
    static constexpr uint64_t kFanout = 1ull << kFanoutBits;  // 8
    // A chunk's extents; pages past its end are holes.
    using Chunk = std::vector<uint64_t>;
    struct Node {
      Chunk extents;                            // height 0
      std::vector<std::shared_ptr<Node>> kids;  // height > 0: kFanout
    };

    uint64_t size = 0;        // file size when snapped
    uint64_t first_page = 0;  // the map covers pages [first_page, end_page)
    uint64_t end_page = 0;
    // Indexed by page - first_page; a root of height h spans
    // kChunkPages * kFanout^h pages.
    std::shared_ptr<Node> root;
    uint32_t height = 0;

    // The node of the chunk holding `page`, or nullptr when there is none
    // (all holes); `*i` receives the page's index in it.
    Node* ChunkNode(uint64_t page, uint64_t* i) const {
      *i = page - first_page;
      Node* n = root.get();
      for (uint32_t h = height; n != nullptr && h > 0; --h) {
        const uint32_t shift = kChunkBits + kFanoutBits * (h - 1);
        const uint64_t k = *i >> shift;
        n = k < kFanout ? n->kids[k].get() : nullptr;
        *i -= k << shift;
      }
      return n != nullptr && *i < kChunkPages ? n : nullptr;
    }
    // Region offset backing `page`; 0 = hole.
    uint64_t extent(uint64_t page) const {
      uint64_t i;
      const Node* n = ChunkNode(page, &i);
      return n != nullptr && i < n->extents.size() ? n->extents[i] : 0;
    }
    // The chunk holding `page`, or nullptr.
    const Chunk* chunk(uint64_t page) const {
      uint64_t i;
      const Node* n = ChunkNode(page, &i);
      return n != nullptr ? &n->extents : nullptr;
    }
    // Grows the map to cover [first, last) (new pages are holes) and gives
    // it private copies of the chunks holding those pages; set_extent may
    // then write them.
    void Own(uint64_t first, uint64_t last);
    void set_extent(uint64_t page, uint64_t extent) {
      uint64_t i;
      ChunkNode(page, &i)->extents[i] = extent;
    }
    // Makes the map end at `page`: the pages past it leave the map, and
    // the pages it gains are holes.
    void Resize(uint64_t page);
  };

  // Snapshots the size and the extents backing pages [first_page, end_page).
  // Pages at or past the size stay holes. A paged mFile's snapshot from
  // page 0 walks the tree once, copying each leaf block it finds; others
  // look each page up.
  DirectExtentMap SnapshotExtents(uint64_t first_page,
                                  uint64_t end_page) const;

  // Copies out of the snapped extents without touching the mFile header
  // (no Open, no size load — the snapshot is the truth the lease froze).
  // Holes read as zeros; returns bytes read, clamped to map.size. The map
  // must cover every page of the clamped range.
  static uint64_t ReadDirect(ScmRegion* region, const DirectExtentMap& map,
                             uint64_t offset, std::span<char> out);

  // In-place write strictly within [0, map.size) over mapped pages;
  // kNotFound if the write extends the file or touches a hole (the caller
  // allocates and logs the attach first). Streams the bytes, then drains
  // write-combining buffers at the registered "libfs.direct.write.bflush"
  // persist site so the write is durable before the caller acknowledges it.
  static Status WriteDirect(ScmRegion* region, const DirectExtentMap& map,
                            uint64_t offset, std::span<const char> data);

  // Streams zeros over the bytes of [map.size, end) that lie in the file's
  // last page, if that page is mapped; returns whether it streamed any. The
  // bytes past a file's size are not kept zero, so whatever extends the
  // file calls this first and drains the zeros with its own data. The map
  // must cover the last page.
  static bool ZeroGap(ScmRegion* region, const DirectExtentMap& map,
                      uint64_t end);
  // Streams zeros over region bytes [at, at + len). The caller drains them
  // (BFlush) with whatever else it streams.
  static void StreamZeros(ScmRegion* region, uint64_t at, uint64_t len);

  // --- Structural mutations (TFS after validation) ---
  // Maps pages [page_index, page_index + pages) to the contiguous,
  // pre-allocated pages starting at extent_offset, growing the tree as
  // needed. Plain slot stores, one flush per touched leaf range, one fence.
  // A slot already holding its extent is skipped (idempotent replay); any
  // other mapped slot fails the whole run with kAlreadyExists, before any
  // store.
  Status AttachRun(uint64_t page_index, uint64_t extent_offset,
                   uint64_t pages);
  // Publishes a new file size (atomic).
  Status SetSize(uint64_t bytes);
  // Frees extents wholly beyond `bytes` and publishes the new size.
  Status Truncate(uint64_t bytes);
  // Frees all storage including the header (unlink with no remaining links).
  Status Destroy();
  // Every page this object owns: data pages (a single-extent file's whole
  // extent), indirect blocks and the header. Destroy frees exactly these.
  std::vector<uint64_t> StoragePages() const;

  // Visits (page_index, extent_offset) for every mapped page.
  Status ForEachExtent(
      const std::function<bool(uint64_t, uint64_t)>& visit) const;

  // Structural validation (recovery tests): every pointer in range, no
  // cycles by construction (tree), height consistent.
  Status Validate() const;

 private:
  MFile(const OsdContext& ctx, Oid oid) : ctx_(ctx), oid_(oid) {}

  Status GrowHeightTo(uint32_t height);
  // The leaf block holding `page_index`'s slot. With `create`, grows the
  // tree and allocates missing blocks; without, nullptr when the page lies
  // in no existing leaf.
  Result<uint64_t*> LeafFor(uint64_t page_index, bool create);
  // The batched free behind Truncate and Destroy (see mfile.cc).
  void FreePages(std::vector<uint64_t> pages,
                 const std::vector<uint64_t*>& slots, uint64_t* field,
                 uint64_t value);

  OsdContext ctx_;
  Oid oid_;
};

}  // namespace aerie

#endif  // AERIE_SRC_OSD_MFILE_H_
