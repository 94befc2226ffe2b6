#include "src/osd/volume.h"

#include <cstring>

namespace aerie {

namespace {

constexpr uint64_t kFsMagic = 0x4145524945465331ULL;  // "AERIEFS1"

struct FsSuperRep {
  uint64_t magic;
  uint64_t version;
  uint64_t root_oid;
  uint64_t log_offset;
  uint64_t log_bytes;
  uint64_t bitmap_offset;
  uint64_t data_start;
  uint64_t page_count;
};

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) & ~(a - 1); }

FsSuperRep* SuperAt(ScmRegion* region, uint64_t partition_offset) {
  return reinterpret_cast<FsSuperRep*>(region->PtrAt(partition_offset));
}

}  // namespace

Result<std::unique_ptr<Volume>> Volume::Format(ScmRegion* region,
                                               uint64_t partition_offset,
                                               uint64_t partition_size,
                                               const Options& options) {
  AERIE_SPAN("osd", "volume_format");
  const uint64_t log_offset = AlignUp(
      partition_offset + sizeof(FsSuperRep), kScmPageSize);
  const uint64_t bitmap_offset =
      AlignUp(log_offset + options.log_bytes, kScmPageSize);

  if (bitmap_offset + kScmPageSize >= partition_offset + partition_size) {
    return Status(ErrorCode::kOutOfSpace, "partition too small for a volume");
  }
  // Solve for the data area: bitmap needs 1 bit per page.
  const uint64_t after_bitmap_budget =
      partition_offset + partition_size - bitmap_offset;
  // pages * 4096 + pages/8 <= budget  =>  pages <= budget / (4096 + 1/8)
  uint64_t page_count =
      (after_bitmap_budget * 8) / (8 * kScmPageSize + 1);
  if (page_count < 16) {
    return Status(ErrorCode::kOutOfSpace, "partition too small for a volume");
  }
  const uint64_t data_start = AlignUp(
      bitmap_offset + BuddyAllocator::BitmapBytes(page_count), kScmPageSize);
  // Alignment may have eaten into the last page.
  while (data_start + page_count * kScmPageSize >
         partition_offset + partition_size) {
    page_count--;
  }

  FsSuperRep* sb = SuperAt(region, partition_offset);
  std::memset(sb, 0, sizeof(*sb));
  sb->version = 1;
  sb->log_offset = log_offset;
  sb->log_bytes = options.log_bytes;
  sb->bitmap_offset = bitmap_offset;
  sb->data_start = data_start;
  sb->page_count = page_count;
  region->WlFlush(sb, sizeof(*sb));
  region->Fence();

  auto vol = std::unique_ptr<Volume>(new Volume(region, partition_offset));
  auto log = RedoLog::Format(region, log_offset, options.log_bytes);
  if (!log.ok()) {
    return log.status();
  }
  vol->log_.emplace(std::move(*log));
  auto alloc = BuddyAllocator::Create(region, bitmap_offset, data_start,
                                      page_count, /*fresh=*/true);
  if (!alloc.ok()) {
    return alloc.status();
  }
  vol->allocator_ = std::move(*alloc);

  region->PersistU64(&sb->magic, kFsMagic);
  return vol;
}

Result<std::unique_ptr<Volume>> Volume::Open(ScmRegion* region,
                                             uint64_t partition_offset,
                                             bool writable) {
  FsSuperRep* sb = SuperAt(region, partition_offset);
  if (sb->magic != kFsMagic || sb->version != 1) {
    return Status(ErrorCode::kCorrupted, "bad volume superblock");
  }
  auto vol = std::unique_ptr<Volume>(new Volume(region, partition_offset));
  if (writable) {
    auto log = RedoLog::Open(region, sb->log_offset);
    if (!log.ok()) {
      return log.status();
    }
    vol->log_.emplace(std::move(*log));
    auto alloc =
        BuddyAllocator::Create(region, sb->bitmap_offset, sb->data_start,
                               sb->page_count, /*fresh=*/false);
    if (!alloc.ok()) {
      return alloc.status();
    }
    vol->allocator_ = std::move(*alloc);
  }
  return vol;
}

Oid Volume::root_oid() const {
  return Oid(SuperAt(region_, partition_offset_)->root_oid);
}

void Volume::SetRootOid(Oid oid) {
  AERIE_SPAN("osd", "set_root");
  region_->PersistU64(&SuperAt(region_, partition_offset_)->root_oid,
                      oid.raw());
}

}  // namespace aerie
