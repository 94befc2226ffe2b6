#include "src/osd/mfile.h"

#include <algorithm>
#include <cstring>

#include "src/scm/crash_sim.h"

namespace aerie {

namespace {

constexpr uint64_t kMFileMagic = 0x41455249450d0001ULL;
constexpr uint64_t kFlagSingleExtent = 1;

struct MHeaderRep {
  uint64_t magic;
  uint64_t size;
  // Packed root pointer: bits [12..63] block offset (4KB aligned), bits
  // [0..5] tree height. One atomic store changes both.
  uint64_t root;
  uint64_t flags;
  uint64_t capacity;  // single-extent mode: allocated bytes
  uint64_t link_count;
  uint64_t acl;
};

uint64_t PackRoot(uint64_t offset, uint32_t height) {
  return offset | height;
}
uint64_t RootOffset(uint64_t packed) { return packed & ~0xfffULL; }
uint32_t RootHeight(uint64_t packed) {
  return static_cast<uint32_t>(packed & 0x3f);
}

// Pages covered by a tree of `height` levels of indirect blocks.
uint64_t Coverage(uint32_t height) {
  uint64_t pages = 1;
  for (uint32_t i = 0; i < height; ++i) {
    pages *= MFile::kPointersPerBlock;
  }
  return pages;
}

MHeaderRep* HeaderAt(const OsdContext& ctx, Oid oid) {
  return reinterpret_cast<MHeaderRep*>(ctx.region->PtrAt(oid.offset()));
}

uint64_t* BlockAt(const OsdContext& ctx, uint64_t offset) {
  return reinterpret_cast<uint64_t*>(ctx.region->PtrAt(offset));
}

Result<uint64_t> AllocZeroedBlock(const OsdContext& ctx) {
  auto off = ctx.alloc->Alloc(0);
  if (!off.ok()) {
    return off.status();
  }
  std::memset(ctx.region->PtrAt(*off), 0, kScmPageSize);
  ctx.region->WlFlush(ctx.region->PtrAt(*off), kScmPageSize);
  ctx.region->Fence();
  return *off;
}

// Visits the leaf blocks under `block` (at `level` >= 1) in page order:
// visit(base_page, slots) gets a leaf's first page index and its
// kPointersPerBlock slots, and returns false to stop the walk.
template <typename Fn>
bool WalkLeaves(const OsdContext& ctx, uint64_t block, uint32_t level,
                uint64_t base_page, Fn&& visit) {
  const uint64_t* slots = BlockAt(ctx, block);
  if (level == 1) {
    return visit(base_page, slots);
  }
  const uint64_t stride = Coverage(level - 1);
  for (uint64_t i = 0; i < MFile::kPointersPerBlock; ++i) {
    const uint64_t child = LoadPublished(&slots[i]);
    if (child != 0 &&
        !WalkLeaves(ctx, child, level - 1, base_page + i * stride, visit)) {
      return false;
    }
  }
  return true;
}

// Visits file bytes [offset, offset + len) one run at a time. A run is a
// stretch of pages each backed by the region page after its predecessor's,
// or a stretch of holes. fn(done, at, chunk) gets the bytes visited before
// the run, the region offset of the run's first byte (0 in a hole) and the
// run's length in bytes, so each run costs one copy.
template <typename Fn>
void ForEachRun(const MFile::DirectExtentMap& map, uint64_t offset,
                uint64_t len, Fn fn) {
  const uint64_t end_page = (offset + len + kScmPageSize - 1) / kScmPageSize;
  uint64_t done = 0;
  while (done < len) {
    const uint64_t pos = offset + done;
    const uint64_t page = pos / kScmPageSize;
    const uint64_t extent = map.extent(page);
    uint64_t pages = 1;
    while (page + pages < end_page &&
           map.extent(page + pages) ==
               (extent == 0 ? 0 : extent + pages * kScmPageSize)) {
      pages++;
    }
    const uint64_t in_page = pos % kScmPageSize;
    const uint64_t chunk =
        std::min(len - done, pages * kScmPageSize - in_page);
    fn(done, extent == 0 ? 0 : extent + in_page, chunk);
    done += chunk;
  }
}

}  // namespace

Result<MFile> MFile::Create(const OsdContext& ctx, uint32_t acl) {
  AERIE_SPAN("osd", "mfile_create");
  if (!ctx.can_allocate()) {
    return Status(ErrorCode::kPermissionDenied,
                  "mFile creation requires the allocator");
  }
  auto head = ctx.alloc->Alloc(0);
  if (!head.ok()) {
    return head.status();
  }
  auto* hdr = reinterpret_cast<MHeaderRep*>(ctx.region->PtrAt(*head));
  std::memset(hdr, 0, sizeof(*hdr));
  hdr->acl = acl;
  ctx.region->WlFlush(hdr, sizeof(*hdr));
  ctx.region->Fence();
  ctx.region->PersistU64(&hdr->magic, kMFileMagic);
  return MFile(ctx, Oid::Make(ObjType::kMFile, *head));
}

Result<MFile> MFile::CreateSingleExtent(const OsdContext& ctx, uint32_t acl,
                                        uint64_t capacity_bytes) {
  AERIE_SPAN("osd", "mfile_create_single");
  if (!ctx.can_allocate()) {
    return Status(ErrorCode::kPermissionDenied,
                  "mFile creation requires the allocator");
  }
  auto head = ctx.alloc->Alloc(0);
  if (!head.ok()) {
    return head.status();
  }
  auto data = ctx.alloc->AllocBytes(capacity_bytes);
  if (!data.ok()) {
    return data.status();
  }
  const int order = BuddyAllocator::OrderForBytes(capacity_bytes);
  auto* hdr = reinterpret_cast<MHeaderRep*>(ctx.region->PtrAt(*head));
  std::memset(hdr, 0, sizeof(*hdr));
  hdr->acl = acl;
  hdr->flags = kFlagSingleExtent;
  hdr->capacity = (1ULL << order) * kScmPageSize;
  hdr->root = PackRoot(*data, 0);
  ctx.region->WlFlush(hdr, sizeof(*hdr));
  ctx.region->Fence();
  ctx.region->PersistU64(&hdr->magic, kMFileMagic);
  return MFile(ctx, Oid::Make(ObjType::kMFile, *head));
}

Result<MFile> MFile::Open(const OsdContext& ctx, Oid oid) {
  if (oid.type() != ObjType::kMFile) {
    return Status(ErrorCode::kInvalidArgument, "oid is not an mFile");
  }
  if (oid.offset() + sizeof(MHeaderRep) > ctx.region->size()) {
    return Status(ErrorCode::kInvalidArgument, "oid out of range");
  }
  if (HeaderAt(ctx, oid)->magic != kMFileMagic) {
    return Status(ErrorCode::kCorrupted, "bad mFile magic");
  }
  return MFile(ctx, oid);
}

uint64_t MFile::size() const {
  return LoadPublished(&HeaderAt(ctx_, oid_)->size);
}
bool MFile::single_extent() const {
  return (HeaderAt(ctx_, oid_)->flags & kFlagSingleExtent) != 0;
}
uint64_t MFile::capacity() const { return HeaderAt(ctx_, oid_)->capacity; }
uint32_t MFile::acl() const {
  return static_cast<uint32_t>(LoadPublished(&HeaderAt(ctx_, oid_)->acl));
}
void MFile::SetAcl(uint32_t new_acl) {
  AERIE_SPAN("osd", "mfile_set_acl");
  ctx_.region->PersistU64(&HeaderAt(ctx_, oid_)->acl, new_acl);
}

uint64_t MFile::link_count() const {
  return LoadPublished(&HeaderAt(ctx_, oid_)->link_count);
}
void MFile::SetLinkCount(uint64_t n) {
  AERIE_SPAN("osd", "mfile_set_links");
  ctx_.region->PersistU64(&HeaderAt(ctx_, oid_)->link_count, n);
}

Result<uint64_t> MFile::ExtentForPage(uint64_t page_index) const {
  const MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  if (hdr->flags & kFlagSingleExtent) {
    if (page_index * kScmPageSize >= hdr->capacity) {
      return Status(ErrorCode::kNotFound, "beyond single extent");
    }
    return RootOffset(LoadPublished(&hdr->root)) + page_index * kScmPageSize;
  }
  const uint64_t packed = LoadPublished(&hdr->root);
  if (RootOffset(packed) == 0) {
    return Status(ErrorCode::kNotFound, "empty file");
  }
  const uint32_t height = RootHeight(packed);
  if (page_index >= Coverage(height)) {
    return Status(ErrorCode::kNotFound, "page beyond tree coverage");
  }
  uint64_t block = RootOffset(packed);
  for (uint32_t level = height; level > 0; --level) {
    const uint64_t stride = Coverage(level - 1);
    const uint64_t slot = page_index / stride;
    page_index %= stride;
    const uint64_t next = LoadPublished(&BlockAt(ctx_, block)[slot]);
    if (next == 0) {
      return Status(ErrorCode::kNotFound, "hole");
    }
    block = next;
  }
  return block;
}

namespace {

using ExtentMap = MFile::DirectExtentMap;

// Pages a map node of `height` spans.
uint64_t NodePages(uint32_t height) {
  return ExtentMap::kChunkPages << (ExtentMap::kFanoutBits * height);
}

// `node` made private to the map being edited: created if missing, copied
// if it may be shared. Callers walk from the root down, so a node is only
// checked once its parent is private; then a use count of 1 means that
// parent is the only path to it.
ExtentMap::Node* PrivateNode(std::shared_ptr<ExtentMap::Node>& node,
                             uint32_t height) {
  if (node == nullptr) {
    node = std::make_shared<ExtentMap::Node>();
    if (height > 0) {
      node->kids.resize(ExtentMap::kFanout);
    }
  } else if (node.use_count() > 1) {
    node = std::make_shared<ExtentMap::Node>(*node);
  }
  return node.get();
}

// Makes the chunks holding node-relative pages [lo, hi) private and long
// enough to hold them.
void OwnNode(std::shared_ptr<ExtentMap::Node>& node, uint32_t height,
             uint64_t lo, uint64_t hi) {
  ExtentMap::Node* n = PrivateNode(node, height);
  if (height == 0) {
    if (n->extents.size() < hi) {
      n->extents.resize(hi, 0);
    }
    return;
  }
  const uint64_t span = NodePages(height - 1);
  for (uint64_t k = lo / span; k * span < hi; ++k) {
    const uint64_t base = k * span;
    OwnNode(n->kids[k], height - 1, std::max(lo, base) - base,
            std::min(hi, base + span) - base);
  }
}

// Turns node-relative pages at or past `keep` into holes.
void TrimNode(std::shared_ptr<ExtentMap::Node>& node, uint32_t height,
              uint64_t keep) {
  if (node == nullptr || keep >= NodePages(height) ||
      (height == 0 && node->extents.size() <= keep)) {
    return;
  }
  if (keep == 0) {
    node.reset();
    return;
  }
  ExtentMap::Node* n = PrivateNode(node, height);
  if (height == 0) {
    n->extents.resize(keep);
    return;
  }
  const uint64_t span = NodePages(height - 1);
  const uint64_t k = keep / span;
  for (uint64_t j = k + 1; j < ExtentMap::kFanout; ++j) {
    n->kids[j].reset();
  }
  TrimNode(n->kids[k], height - 1, keep - k * span);
}

}  // namespace

void MFile::DirectExtentMap::Own(uint64_t first, uint64_t last) {
  end_page = std::max(end_page, last);
  if (first >= last) {
    return;
  }
  while (NodePages(height) < last - first_page) {
    if (root != nullptr) {
      auto up = std::make_shared<Node>();
      up->kids.resize(kFanout);
      up->kids[0] = std::move(root);
      root = std::move(up);
    }
    height++;
  }
  OwnNode(root, height, first - first_page, last - first_page);
}

void MFile::DirectExtentMap::Resize(uint64_t page) {
  page = std::max(first_page, page);
  if (page < end_page) {
    TrimNode(root, height, page - first_page);
  }
  end_page = page;
}

MFile::DirectExtentMap MFile::SnapshotExtents(uint64_t first_page,
                                              uint64_t end_page) const {
  const MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  DirectExtentMap map;
  map.size = LoadPublished(&hdr->size);
  map.first_page = first_page;
  map.end_page = std::max(first_page, end_page);
  const uint64_t mapped_end =
      std::min(end_page, (map.size + kScmPageSize - 1) / kScmPageSize);
  if (first_page >= mapped_end) {
    return map;
  }
  if (first_page == 0 && (hdr->flags & kFlagSingleExtent) == 0) {
    // One tree walk, in page order, stopping at the snapshot's end: a map
    // chunk covers the same pages as a leaf block.
    static_assert(DirectExtentMap::kChunkPages == kPointersPerBlock);
    const uint64_t packed = LoadPublished(&hdr->root);
    if (RootOffset(packed) != 0) {
      WalkLeaves(ctx_, RootOffset(packed), RootHeight(packed), 0,
                 [&](uint64_t base, const uint64_t* slots) {
                   if (base >= mapped_end) {
                     return false;
                   }
                   const uint64_t n =
                       std::min(kPointersPerBlock, mapped_end - base);
                   map.Own(base, base + n);
                   uint64_t i;
                   uint64_t* out = map.ChunkNode(base, &i)->extents.data();
                   for (i = 0; i < n; ++i) {
                     out[i] = LoadPublished(&slots[i]);
                   }
                   return true;
                 });
    }
  } else {
    map.Own(first_page, mapped_end);
    for (uint64_t p = first_page; p < mapped_end; ++p) {
      auto extent = ExtentForPage(p);
      if (extent.ok()) {
        map.set_extent(p, *extent);
      }
    }
  }
  return map;
}

uint64_t MFile::ReadDirect(ScmRegion* region, const DirectExtentMap& map,
                           uint64_t offset, std::span<char> out) {
  if (offset >= map.size) {
    return 0;
  }
  const uint64_t want = std::min<uint64_t>(out.size(), map.size - offset);
  ForEachRun(map, offset, want,
             [&](uint64_t done, uint64_t at, uint64_t chunk) {
               if (at != 0) {
                 std::memcpy(out.data() + done, region->PtrAt(at), chunk);
               } else {
                 std::memset(out.data() + done, 0, chunk);  // holes read zero
               }
             });
  return want;
}

Status MFile::WriteDirect(ScmRegion* region, const DirectExtentMap& map,
                          uint64_t offset, std::span<const char> data) {
  if (data.empty()) {
    return OkStatus();
  }
  if (offset + data.size() > map.size) {
    return Status(ErrorCode::kNotFound, "extends file: not an overwrite");
  }
  const uint64_t first_page = offset / kScmPageSize;
  const uint64_t last_page = (offset + data.size() - 1) / kScmPageSize;
  for (uint64_t p = first_page; p <= last_page; ++p) {
    if (map.extent(p) == 0) {
      return Status(ErrorCode::kNotFound, "hole");
    }
  }
  ForEachRun(map, offset, data.size(),
             [&](uint64_t done, uint64_t at, uint64_t chunk) {
               region->StreamWrite(region->PtrAt(at), data.data() + done,
                                   chunk);
             });
  // Every PXFS data write, pinned or locked, ends here: this drain is its
  // entire durability story, so it is a registered mutation target
  // (suppressing it must fail crash_sim).
  static const int kSite = RegisterPersistSite("libfs.direct.write.bflush");
  region->BFlush(kSite);
  region->CrashPoint("libfs.direct.write");
  return OkStatus();
}

bool MFile::ZeroGap(ScmRegion* region, const DirectExtentMap& map,
                    uint64_t end) {
  const uint64_t in_page = map.size % kScmPageSize;
  if (end <= map.size || in_page == 0) {
    return false;
  }
  const uint64_t extent = map.extent(map.size / kScmPageSize);
  if (extent == 0) {
    return false;
  }
  StreamZeros(region, extent + in_page,
              std::min(end - map.size, kScmPageSize - in_page));
  return true;
}

void MFile::StreamZeros(ScmRegion* region, uint64_t at, uint64_t len) {
  static const char kZeros[kScmPageSize] = {};
  while (len > 0) {
    const uint64_t n = std::min<uint64_t>(len, kScmPageSize);
    region->StreamWrite(region->PtrAt(at), kZeros, n);
    at += n;
    len -= n;
  }
}

Status MFile::GrowHeightTo(uint32_t target) {
  MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  uint64_t packed = hdr->root;
  while (RootOffset(packed) != 0 && RootHeight(packed) < target) {
    auto block = AllocZeroedBlock(ctx_);
    if (!block.ok()) {
      return block.status();
    }
    uint64_t* slots = BlockAt(ctx_, *block);
    slots[0] = RootOffset(packed);
    ctx_.region->WlFlush(slots, sizeof(uint64_t));
    ctx_.region->Fence();
    // Root offset and height change together in one atomic store.
    packed = PackRoot(*block, RootHeight(packed) + 1);
    ctx_.region->PersistU64(&hdr->root, packed);
  }
  return OkStatus();
}

Result<uint64_t*> MFile::LeafFor(uint64_t page_index, bool create) {
  MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  if (RootOffset(hdr->root) == 0) {
    if (!create) {
      return nullptr;
    }
    AERIE_ASSIGN_OR_RETURN(uint64_t block, AllocZeroedBlock(ctx_));
    ctx_.region->PersistU64(&hdr->root, PackRoot(block, 1));
  }
  // Grow until the page is within coverage.
  uint32_t height = RootHeight(hdr->root);
  while (page_index >= Coverage(height)) {
    if (!create) {
      return nullptr;
    }
    AERIE_RETURN_IF_ERROR(GrowHeightTo(height + 1));
    height = RootHeight(hdr->root);
  }
  uint64_t block = RootOffset(hdr->root);
  uint64_t remaining = page_index;
  for (uint32_t level = height; level > 1; --level) {
    const uint64_t stride = Coverage(level - 1);
    const uint64_t slot = remaining / stride;
    remaining %= stride;
    uint64_t* slots = BlockAt(ctx_, block);
    if (slots[slot] == 0) {
      if (!create) {
        return nullptr;
      }
      AERIE_ASSIGN_OR_RETURN(uint64_t child, AllocZeroedBlock(ctx_));
      ctx_.region->PersistU64(&slots[slot], child);
    }
    block = slots[slot];
  }
  return BlockAt(ctx_, block);
}

Status MFile::AttachRun(uint64_t page_index, uint64_t extent_offset,
                        uint64_t pages) {
  AERIE_SPAN("osd", "mfile_attach");
  if (!ctx_.can_allocate()) {
    return Status(ErrorCode::kPermissionDenied,
                  "mFile mapping changes require the allocator");
  }
  if (HeaderAt(ctx_, oid_)->flags & kFlagSingleExtent) {
    return Status(ErrorCode::kNotSupported,
                  "single-extent mFiles have fixed storage");
  }
  const uint64_t region_pages = ctx_.region->size() / kScmPageSize;
  if (pages == 0 || extent_offset == 0 ||
      extent_offset % kScmPageSize != 0 ||
      extent_offset / kScmPageSize >= region_pages ||
      pages > region_pages - extent_offset / kScmPageSize) {
    return Status(ErrorCode::kInvalidArgument, "bad extent run");
  }
  // The run's slots, one leaf at a time: [page, page + n) of the leaf
  // holding `page`.
  auto for_each_leaf = [&](const std::function<Status(uint64_t, uint64_t)>&
                               visit) -> Status {
    for (uint64_t i = 0; i < pages;) {
      const uint64_t n = std::min(
          pages - i, kPointersPerBlock - (page_index + i) % kPointersPerBlock);
      AERIE_RETURN_IF_ERROR(visit(i, n));
      i += n;
    }
    return OkStatus();
  };
  // Check every slot before storing any: a hole, or this run's extent
  // already (an attach replayed over its own earlier apply).
  AERIE_RETURN_IF_ERROR(for_each_leaf([&](uint64_t i, uint64_t n) -> Status {
    AERIE_ASSIGN_OR_RETURN(const uint64_t* leaf,
                           LeafFor(page_index + i, /*create=*/false));
    for (uint64_t k = 0; leaf != nullptr && k < n; ++k) {
      const uint64_t slot = leaf[(page_index + i + k) % kPointersPerBlock];
      if (slot != 0 && slot != extent_offset + (i + k) * kScmPageSize) {
        return Status(ErrorCode::kAlreadyExists, "page already mapped");
      }
    }
    return OkStatus();
  }));
  // Plain slot stores, one flush per leaf range, one fence for the run.
  static const int kLeafSite = RegisterPersistSite("osd.mfile.attach.flush");
  AERIE_RETURN_IF_ERROR(for_each_leaf([&](uint64_t i, uint64_t n) -> Status {
    AERIE_ASSIGN_OR_RETURN(uint64_t* leaf,
                           LeafFor(page_index + i, /*create=*/true));
    uint64_t* first = &leaf[(page_index + i) % kPointersPerBlock];
    for (uint64_t k = 0; k < n; ++k) {
      StorePublished(&first[k], extent_offset + (i + k) * kScmPageSize);
    }
    ctx_.region->WlFlush(first, n * sizeof(uint64_t), kLeafSite);
    return OkStatus();
  }));
  ctx_.region->Fence();
  return OkStatus();
}

Status MFile::SetSize(uint64_t bytes) {
  AERIE_SPAN("osd", "mfile_set_size");
  MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  if ((hdr->flags & kFlagSingleExtent) && bytes > hdr->capacity) {
    return Status(ErrorCode::kOutOfSpace, "beyond single-extent capacity");
  }
  ctx_.region->PersistU64(&hdr->size, bytes);
  return OkStatus();
}

namespace {

// Collects what freeing every data extent at page index >= keep_pages under
// the subtree at `block` (level >= 1) takes: the pages to free (data
// extents, and indirect blocks left empty) and the slots of surviving blocks
// that point at them. Returns true when `block` itself is freed; its own
// slots then need no clearing.
bool CollectSubtree(const OsdContext& ctx, uint64_t block, uint32_t level,
                    uint64_t base_page, uint64_t keep_pages,
                    std::vector<uint64_t>* pages,
                    std::vector<uint64_t*>* slots_to_clear) {
  uint64_t* slots = BlockAt(ctx, block);
  std::vector<uint64_t*> cleared;
  bool any_kept = false;
  const uint64_t stride = Coverage(level - 1);
  for (uint64_t i = 0; i < MFile::kPointersPerBlock; ++i) {
    if (slots[i] == 0) {
      continue;
    }
    const uint64_t child_base = base_page + i * stride;
    if (child_base >= keep_pages) {
      if (level == 1) {
        pages->push_back(slots[i]);
      } else {
        (void)CollectSubtree(ctx, slots[i], level - 1, child_base, 0, pages,
                             slots_to_clear);
      }
      cleared.push_back(&slots[i]);
    } else if (level > 1 && child_base + stride > keep_pages &&
               CollectSubtree(ctx, slots[i], level - 1, child_base,
                              keep_pages, pages, slots_to_clear)) {
      cleared.push_back(&slots[i]);
    } else {
      any_kept = true;
    }
  }
  if (!any_kept) {
    pages->push_back(block);
    return true;
  }
  slots_to_clear->insert(slots_to_clear->end(), cleared.begin(),
                         cleared.end());
  return false;
}

}  // namespace

// Frees `pages` in three steps:
//   1. clear their bitmap bits (one flush per line range, one fence);
//   2. zero `slots`, the pointers at them from surviving blocks, and store
//      `value` to the header `field`: one flush each, one fence;
//   3. only then put the pages on the free lists.
// A crash before step 2 completes leaves the pointers for a replayed free to
// find again, and since no page is allocatable before step 3, no other
// client's pool can hold a page such a replay would free a second time.
// Step 1 skips pages already clear, so a replay never lists a page twice.
void MFile::FreePages(std::vector<uint64_t> pages,
                      const std::vector<uint64_t*>& slots, uint64_t* field,
                      uint64_t value) {
  static const int kBitmapSite = RegisterPersistSite("osd.buddy.clear.flush");
  static const int kSlotSite = RegisterPersistSite("osd.mfile.clear.flush");
  ctx_.alloc->ClearPages(&pages, kBitmapSite);
  for (uint64_t* slot : slots) {
    StorePublished(slot, 0);
    ctx_.region->WlFlush(slot, sizeof(uint64_t), kSlotSite);
  }
  StorePublished(field, value);
  ctx_.region->WlFlush(field, sizeof(uint64_t));
  ctx_.region->Fence();
  ctx_.alloc->ReleasePages(pages);
}

std::vector<uint64_t> MFile::StoragePages() const {
  const MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  std::vector<uint64_t> pages;
  if (hdr->flags & kFlagSingleExtent) {
    pages.reserve(hdr->capacity / kScmPageSize + 1);
    for (uint64_t off = 0; off < hdr->capacity; off += kScmPageSize) {
      pages.push_back(RootOffset(hdr->root) + off);
    }
  } else if (RootOffset(hdr->root) != 0) {
    std::vector<uint64_t*> unused;
    (void)CollectSubtree(ctx_, RootOffset(hdr->root), RootHeight(hdr->root),
                         0, 0, &pages, &unused);
  }
  pages.push_back(oid_.offset());
  return pages;
}

Status MFile::Truncate(uint64_t bytes) {
  AERIE_SPAN("osd", "mfile_truncate");
  if (!ctx_.can_allocate()) {
    return Status(ErrorCode::kPermissionDenied, "truncate requires allocator");
  }
  MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  if (hdr->flags & kFlagSingleExtent) {
    return SetSize(std::min(bytes, hdr->capacity));
  }
  // NOTE: Truncate is metadata-only: it does NOT zero the boundary page's
  // tail. Zero-fill is a *data* effect, and data effects are the client's
  // (paper §4.2: clients write data directly; the service only changes
  // metadata). Whatever later extends the file zeroes the tail first
  // (ZeroGap); doing it here would replay after — and clobber — any
  // in-place writes the client performed between batching the truncate and
  // shipping it.
  const uint64_t keep_pages = (bytes + kScmPageSize - 1) / kScmPageSize;
  std::vector<uint64_t> pages;
  std::vector<uint64_t*> slots;
  if (RootOffset(hdr->root) != 0 &&
      CollectSubtree(ctx_, RootOffset(hdr->root), RootHeight(hdr->root), 0,
                     keep_pages, &pages, &slots)) {
    slots.push_back(&hdr->root);
  }
  FreePages(std::move(pages), slots, &hdr->size, bytes);
  return OkStatus();
}

Status MFile::Destroy() {
  AERIE_SPAN("osd", "mfile_destroy");
  if (!ctx_.can_allocate()) {
    return Status(ErrorCode::kPermissionDenied, "destroy requires allocator");
  }
  // Every page goes, the header with them, so no slot needs clearing: the
  // cleared magic kills the whole object.
  FreePages(StoragePages(), {}, &HeaderAt(ctx_, oid_)->magic, 0);
  return OkStatus();
}

Status MFile::ForEachExtent(
    const std::function<bool(uint64_t, uint64_t)>& visit) const {
  const MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  const uint64_t packed = LoadPublished(&hdr->root);
  if (hdr->flags & kFlagSingleExtent) {
    visit(0, RootOffset(packed));
    return OkStatus();
  }
  if (RootOffset(packed) == 0) {
    return OkStatus();
  }
  WalkLeaves(ctx_, RootOffset(packed), RootHeight(packed), 0,
             [&](uint64_t base, const uint64_t* slots) {
               for (uint64_t i = 0; i < kPointersPerBlock; ++i) {
                 const uint64_t extent = LoadPublished(&slots[i]);
                 if (extent != 0 && !visit(base + i, extent)) {
                   return false;
                 }
               }
               return true;
             });
  return OkStatus();
}

Status MFile::Validate() const {
  const MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  if (hdr->magic != kMFileMagic) {
    return Status(ErrorCode::kCorrupted, "bad magic");
  }
  const uint64_t region_size = ctx_.region->size();
  if (hdr->flags & kFlagSingleExtent) {
    if (RootOffset(hdr->root) + hdr->capacity > region_size ||
        hdr->size > hdr->capacity) {
      return Status(ErrorCode::kCorrupted, "single extent out of range");
    }
    return OkStatus();
  }
  Status st = OkStatus();
  (void)ForEachExtent([&](uint64_t, uint64_t extent) {
    if (extent % kScmPageSize != 0 || extent + kScmPageSize > region_size) {
      st = Status(ErrorCode::kCorrupted, "extent pointer out of range");
      return false;
    }
    return true;
  });
  return st;
}

}  // namespace aerie
