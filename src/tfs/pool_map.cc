#include "src/tfs/pool_map.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace aerie {

namespace {

struct PoolMapHeader {
  uint64_t data_start;  // region offset of data page 0
  uint64_t pages;       // entries that follow the header
  uint64_t reserved[6];
};
static_assert(sizeof(PoolMapHeader) == kCacheLineSize);

}  // namespace

Result<PoolMap> PoolMap::Create(const OsdContext& ctx) {
  const uint64_t pages = ctx.alloc->pages_total();
  AERIE_ASSIGN_OR_RETURN(uint64_t offset,
                         ctx.alloc->AllocBytes(sizeof(PoolMapHeader) + pages));
  char* base = ctx.region->PtrAt(offset);
  std::memset(base, 0, sizeof(PoolMapHeader) + pages);
  auto* hdr = reinterpret_cast<PoolMapHeader*>(base);
  hdr->data_start = ctx.alloc->data_start();
  hdr->pages = pages;
  ctx.region->WlFlush(base, sizeof(PoolMapHeader) + pages);
  ctx.region->Fence();
  return Open(ctx, Oid::Make(ObjType::kPoolTable, offset));
}

Result<PoolMap> PoolMap::Open(const OsdContext& ctx, Oid oid) {
  if (oid.type() != ObjType::kPoolTable ||
      oid.offset() + sizeof(PoolMapHeader) > ctx.region->size()) {
    return Status(ErrorCode::kCorrupted, "bad pool map oid");
  }
  char* base = ctx.region->PtrAt(oid.offset());
  const auto* hdr = reinterpret_cast<const PoolMapHeader*>(base);
  if (oid.offset() + sizeof(PoolMapHeader) + hdr->pages > ctx.region->size()) {
    return Status(ErrorCode::kCorrupted, "pool map exceeds the region");
  }
  PoolMap map;
  map.ctx_ = ctx;
  map.oid_ = oid;
  map.data_start_ = hdr->data_start;
  map.pages_ = hdr->pages;
  map.entries_ = reinterpret_cast<uint8_t*>(base) + sizeof(PoolMapHeader);
  return map;
}

int64_t PoolMap::IndexOf(Oid oid) const {
  const uint64_t rel = oid.offset() - data_start_;
  if (oid.offset() < data_start_ || rel % kScmPageSize != 0 ||
      rel / kScmPageSize >= pages_) {
    return -1;
  }
  return static_cast<int64_t>(rel / kScmPageSize);
}

bool PoolMap::Set(Oid oid, bool marked) {
  const int64_t index = IndexOf(oid);
  const auto value =
      static_cast<uint8_t>(marked ? oid.type() : ObjType::kNone);
  if (index < 0 || entries_[index] == value) {
    return false;
  }
  entries_[index] = value;
  return true;
}

void PoolMap::Persist(std::span<const Oid> oids, int flush_site) const {
  std::vector<uint64_t> lines;
  for (Oid oid : oids) {
    if (const int64_t index = IndexOf(oid); index >= 0) {
      lines.push_back(static_cast<uint64_t>(index) / kCacheLineSize);
    }
  }
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  for (uint64_t line : lines) {
    ctx_.region->WlFlush(entries_ + line * kCacheLineSize, kCacheLineSize,
                         flush_site);
  }
  ctx_.region->Fence();
}

void PoolMap::ForEach(const std::function<void(Oid)>& visit) const {
  for (uint64_t i = 0; i < pages_; ++i) {
    if (entries_[i] != 0) {
      visit(Oid::Make(static_cast<ObjType>(entries_[i]),
                      data_start_ + i * kScmPageSize));
    }
  }
}

}  // namespace aerie
