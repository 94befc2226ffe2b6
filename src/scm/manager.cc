#include "src/scm/manager.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"

namespace aerie {

namespace {

constexpr uint64_t kScmMagic = 0x4145524945534d31ULL;  // "AERIESM1"
constexpr uint64_t kVersion = 1;

// On-SCM layout: superblock, partition table, extent table, then data.
struct SuperblockRep {
  uint64_t magic;
  uint64_t version;
  uint64_t region_size;
  uint64_t max_partitions;
  uint64_t max_extents;
  uint64_t data_start;
};

struct PartitionRep {
  uint64_t offset;
  uint64_t size;
  // Low 32 bits: ACL. Bit 63: valid. Committed with a single atomic store.
  uint64_t acl_state;
};

struct ExtentRep {
  uint64_t start;
  uint64_t length;
  // Low 32 bits: ACL. Bit 63: valid. Committed with a single atomic store.
  uint64_t acl_state;
};

constexpr uint64_t kValidBit = 1ULL << 63;

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) & ~(a - 1); }

SuperblockRep* Super(ScmRegion* region) {
  return reinterpret_cast<SuperblockRep*>(region->base());
}

PartitionRep* PartitionTable(ScmRegion* region) {
  return reinterpret_cast<PartitionRep*>(region->base() +
                                         sizeof(SuperblockRep));
}

ExtentRep* ExtentTable(ScmRegion* region, uint64_t max_partitions) {
  return reinterpret_cast<ExtentRep*>(
      region->base() + sizeof(SuperblockRep) +
      max_partitions * sizeof(PartitionRep));
}

}  // namespace

ProcessContext::ProcessContext(std::vector<uint32_t> gids) {
  for (uint32_t g : gids) {
    gids_.insert(g);
  }
}

Result<std::unique_ptr<ScmManager>> ScmManager::Format(
    ScmRegion* region, const Options& options) {
  AERIE_SPAN("scm_mgr", "format");
  const uint64_t tables_end = sizeof(SuperblockRep) +
                              options.max_partitions * sizeof(PartitionRep) +
                              options.max_extents * sizeof(ExtentRep);
  const uint64_t data_start = AlignUp(tables_end, kScmPageSize);
  if (data_start >= region->size()) {
    return Status(ErrorCode::kOutOfSpace, "region too small for SCM tables");
  }

  // Zero the tables, then publish the superblock with a flushed magic.
  std::memset(region->base(), 0, data_start);
  region->WlFlush(region->base(), data_start);

  SuperblockRep* sb = Super(region);
  sb->version = kVersion;
  sb->region_size = region->size();
  sb->max_partitions = options.max_partitions;
  sb->max_extents = options.max_extents;
  sb->data_start = data_start;
  region->WlFlush(sb, sizeof(*sb));
  region->Fence();
  region->PersistU64(&sb->magic, kScmMagic);

  auto mgr = std::unique_ptr<ScmManager>(new ScmManager(region, options));
  AERIE_RETURN_IF_ERROR(mgr->LoadFromRegion());
  return mgr;
}

Result<std::unique_ptr<ScmManager>> ScmManager::Mount(ScmRegion* region) {
  SuperblockRep* sb = Super(region);
  if (sb->magic != kScmMagic || sb->version != kVersion) {
    return Status(ErrorCode::kCorrupted, "bad SCM superblock");
  }
  Options options;
  options.max_partitions = static_cast<uint32_t>(sb->max_partitions);
  options.max_extents = static_cast<uint32_t>(sb->max_extents);
  auto mgr = std::unique_ptr<ScmManager>(new ScmManager(region, options));
  AERIE_RETURN_IF_ERROR(mgr->LoadFromRegion());
  return mgr;
}

Status ScmManager::LoadFromRegion() {
  SuperblockRep* sb = Super(region_);
  data_start_ = sb->data_start;

  partitions_.clear();
  PartitionRep* ptab = PartitionTable(region_);
  for (uint32_t i = 0; i < options_.max_partitions; ++i) {
    if (ptab[i].acl_state & kValidBit) {
      partitions_.push_back(
          {ptab[i].offset, ptab[i].size,
           static_cast<uint32_t>(ptab[i].acl_state & 0xffffffffULL)});
    }
  }

  extents_.clear();
  free_slots_.clear();
  ExtentRep* etab = ExtentTable(region_, options_.max_partitions);
  for (uint32_t i = 0; i < options_.max_extents; ++i) {
    if (etab[i].acl_state & kValidBit) {
      ExtentInfo info{etab[i].start, etab[i].length,
                      static_cast<uint32_t>(etab[i].acl_state & 0xffffffffULL)};
      extents_[info.start] = ExtentSlotRef{i, info};
    } else {
      free_slots_.push_back(i);
    }
  }
  // Allocate low slots first for compact tables.
  std::reverse(free_slots_.begin(), free_slots_.end());
  return OkStatus();
}

Result<PartitionInfo> ScmManager::AllocatePartition(uint64_t size,
                                                    uint32_t acl) {
  AERIE_SPAN("scm_mgr", "alloc_partition");
  std::unique_lock lock(mu_);
  size = AlignUp(size, kScmPageSize);

  // First-fit over the gaps between existing partitions (paper §5.2).
  std::vector<PartitionInfo> sorted = partitions_;
  std::sort(sorted.begin(), sorted.end(),
            [](const PartitionInfo& a, const PartitionInfo& b) {
              return a.offset < b.offset;
            });
  uint64_t cursor = data_start_;
  uint64_t found = 0;
  bool ok = false;
  for (const PartitionInfo& p : sorted) {
    if (p.offset - cursor >= size) {
      found = cursor;
      ok = true;
      break;
    }
    cursor = p.offset + p.size;
  }
  if (!ok && region_->size() - cursor >= size) {
    found = cursor;
    ok = true;
  }
  if (!ok) {
    return Status(ErrorCode::kOutOfSpace, "no partition space");
  }
  if (partitions_.size() >= options_.max_partitions) {
    return Status(ErrorCode::kOutOfSpace, "partition table full");
  }

  // Find a free persistent slot (slot i is free iff not valid).
  PartitionRep* ptab = PartitionTable(region_);
  uint32_t slot = options_.max_partitions;
  for (uint32_t i = 0; i < options_.max_partitions; ++i) {
    if (!(ptab[i].acl_state & kValidBit)) {
      slot = i;
      break;
    }
  }
  AERIE_CHECK(slot < options_.max_partitions);

  ptab[slot].offset = found;
  ptab[slot].size = size;
  region_->WlFlush(&ptab[slot], sizeof(PartitionRep));
  region_->Fence();
  region_->PersistU64(&ptab[slot].acl_state, kValidBit | acl);

  PartitionInfo info{found, size, acl};
  partitions_.push_back(info);
  return info;
}

std::vector<PartitionInfo> ScmManager::ListPartitions() const {
  std::shared_lock lock(mu_);
  return partitions_;
}

Result<char*> ScmManager::MountPartition(ProcessContext* ctx,
                                         uint64_t partition_offset) {
  std::shared_lock lock(mu_);
  for (const PartitionInfo& p : partitions_) {
    if (p.offset == partition_offset) {
      // Linear mapping: no page-table population; faults come later.
      (void)ctx;
      return region_->base() + p.offset;
    }
  }
  return Status(ErrorCode::kNotFound, "no such partition");
}

Status ScmManager::CreateExtent(uint64_t start, uint64_t length,
                                uint32_t acl) {
  AERIE_SPAN("scm_mgr", "create_extent");
  if (start % kScmPageSize != 0 || length == 0 ||
      length % kScmPageSize != 0 || start + length > region_->size()) {
    return Status(ErrorCode::kInvalidArgument, "bad extent range");
  }
  std::unique_lock lock(mu_);
  // Overlap check against neighbours in the ordered map.
  auto next = extents_.lower_bound(start);
  if (next != extents_.end() && next->first < start + length) {
    return Status(ErrorCode::kAlreadyExists, "extent overlaps successor");
  }
  if (next != extents_.begin()) {
    auto prev = std::prev(next);
    if (prev->second.info.start + prev->second.info.length > start) {
      return Status(ErrorCode::kAlreadyExists, "extent overlaps predecessor");
    }
  }
  if (free_slots_.empty()) {
    return Status(ErrorCode::kOutOfSpace, "extent table full");
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();

  ExtentRep* etab = ExtentTable(region_, options_.max_partitions);
  etab[slot].start = start;
  etab[slot].length = length;
  region_->WlFlush(&etab[slot], sizeof(ExtentRep));
  region_->Fence();
  region_->PersistU64(&etab[slot].acl_state, kValidBit | acl);

  extents_[start] = ExtentSlotRef{slot, ExtentInfo{start, length, acl}};
  return OkStatus();
}

Status ScmManager::MprotectExtent(uint64_t start, uint32_t new_acl) {
  AERIE_SPAN("scm_mgr", "mprotect_extent");
  std::unique_lock lock(mu_);
  auto it = extents_.find(start);
  if (it == extents_.end()) {
    return Status(ErrorCode::kNotFound, "no such extent");
  }
  ExtentRep* etab = ExtentTable(region_, options_.max_partitions);
  region_->PersistU64(&etab[it->second.slot].acl_state, kValidBit | new_acl);
  it->second.info.acl = new_acl;

  // Invalidate the affected pages in every context's soft page table; they
  // will be refaulted with the new rights (paper: page-table invalidation
  // instead of synchronous modification).
  const uint64_t first_page = start / kScmPageSize;
  const uint64_t page_count = it->second.info.length / kScmPageSize;
  for (ProcessContext* ctx : contexts_) {
    std::lock_guard ctx_lock(ctx->mu_);
    for (uint64_t p = first_page; p < first_page + page_count; ++p) {
      if (ctx->mapped_pages_.erase(p) != 0) {
        pages_invalidated_++;
        if (options_.hard_protect) {
          // Real page-table + TLB work, charged per referenced page.
          (void)region_->HardProtect(p * kScmPageSize, kScmPageSize,
                                     static_cast<int>(AclRights(new_acl)));
        }
      }
    }
  }
  return OkStatus();
}

Status ScmManager::DestroyExtent(uint64_t start) {
  AERIE_SPAN("scm_mgr", "destroy_extent");
  std::unique_lock lock(mu_);
  auto it = extents_.find(start);
  if (it == extents_.end()) {
    return Status(ErrorCode::kNotFound, "no such extent");
  }
  ExtentRep* etab = ExtentTable(region_, options_.max_partitions);
  region_->PersistU64(&etab[it->second.slot].acl_state, 0);
  free_slots_.push_back(it->second.slot);
  extents_.erase(it);
  return OkStatus();
}

Status ScmManager::CheckAccess(const ProcessContext& ctx, uint64_t offset,
                               uint64_t len, uint32_t rights) const {
  std::shared_lock lock(mu_);
  uint64_t pos = offset;
  const uint64_t end = offset + len;
  while (pos < end) {
    auto it = extents_.upper_bound(pos);
    if (it == extents_.begin()) {
      return Status(ErrorCode::kPermissionDenied, "no covering extent");
    }
    --it;
    const ExtentInfo& e = it->second.info;
    if (pos >= e.start + e.length) {
      return Status(ErrorCode::kPermissionDenied, "no covering extent");
    }
    if ((AclRights(e.acl) & rights) != rights) {
      return Status(ErrorCode::kPermissionDenied, "insufficient rights");
    }
    if (!ctx.HasGid(AclGid(e.acl))) {
      return Status(ErrorCode::kPermissionDenied, "gid not in context");
    }
    pos = e.start + e.length;
  }
  return OkStatus();
}

Status ScmManager::TouchRange(ProcessContext* ctx, uint64_t offset,
                              uint64_t len, uint32_t rights) {
  const uint64_t first_page = offset / kScmPageSize;
  const uint64_t last_page = (offset + len - 1) / kScmPageSize;
  std::lock_guard ctx_lock(ctx->mu_);
  for (uint64_t p = first_page; p <= last_page; ++p) {
    if (ctx->mapped_pages_.count(p) != 0) {
      continue;
    }
    // Soft fault: compute the PTE from the linear map + extent rights.
    ctx->soft_faults_++;
    AERIE_RETURN_IF_ERROR(
        CheckAccess(*ctx, p * kScmPageSize, kScmPageSize, rights));
    ctx->mapped_pages_.insert(p);
  }
  return OkStatus();
}

Result<ExtentInfo> ScmManager::FindExtent(uint64_t offset) const {
  std::shared_lock lock(mu_);
  auto it = extents_.upper_bound(offset);
  if (it == extents_.begin()) {
    return Status(ErrorCode::kNotFound, "no covering extent");
  }
  --it;
  const ExtentInfo& e = it->second.info;
  if (offset >= e.start + e.length) {
    return Status(ErrorCode::kNotFound, "no covering extent");
  }
  return e;
}

size_t ScmManager::extent_count() const {
  std::shared_lock lock(mu_);
  return extents_.size();
}

void ScmManager::RegisterContext(ProcessContext* ctx) {
  std::unique_lock lock(mu_);
  contexts_.push_back(ctx);
}

void ScmManager::UnregisterContext(ProcessContext* ctx) {
  std::unique_lock lock(mu_);
  std::erase(contexts_, ctx);
}

}  // namespace aerie
