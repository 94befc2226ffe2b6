#include "src/flatfs/flatfs.h"

#include <cstring>

#include "src/obs/obs.h"
#include "src/obs/trace.h"

namespace aerie {

FlatFs::FlatFs(LibFs* fs, const Options& options)
    : fs_(fs),
      options_(options),
      ctx_(fs->read_context()),
      root_(fs->flat_root()) {
  hook_token_ = fs_->AddReleaseHook([this](LockId) {
    {
      std::lock_guard lock(overlay_mu_);
      pending_.clear();
    }
    // Cached value locations were validated under authority that is leaving
    // us; drop them (the departing epoch would force fallback anyway, and a
    // replaced value's storage may be recycled once the batch applies).
    std::unique_lock dlock(direct_mu_);
    direct_values_.clear();
  });
}

FlatFs::~FlatFs() { fs_->RemoveReleaseHook(hook_token_); }

Result<LockId> FlatFs::LockBucket(std::string_view key, bool write) {
  LockClerk* clerk = fs_->clerk();
  const LockId root_lock = root_.lock_id();
  for (int attempt = 0; attempt < 8; ++attempt) {
    AERIE_ASSIGN_OR_RETURN(Collection coll, Collection::Open(ctx_, root_));
    if (write && coll.GrowthImminent()) {
      // Rehash coming: take the single lock covering the whole collection
      // in write mode (paper §6.2).
      AERIE_RETURN_IF_ERROR(
          clerk->Acquire(root_lock, LockMode::kExclusiveHier));
      return root_lock;
    }
    AERIE_ASSIGN_OR_RETURN(Oid bucket, coll.BucketExtentForKey(key));
    // Intent lock on the collection, then the bucket-extent lock; the clerk
    // takes the intent lock as the "ancestor" of the bucket lock.
    const LockId ancestors[] = {root_lock};
    AERIE_RETURN_IF_ERROR(clerk->Acquire(
        bucket.lock_id(),
        write ? LockMode::kExclusive : LockMode::kShared, ancestors));
    // A rehash may have moved the key between the hash computation and the
    // grant; re-check and retry.
    auto recheck = coll.BucketExtentForKey(key);
    if (recheck.ok() && *recheck == bucket) {
      return bucket.lock_id();
    }
    clerk->Release(bucket.lock_id());
  }
  return Status(ErrorCode::kLockConflict, "bucket kept moving under rehash");
}

Result<std::pair<Oid, uint64_t>> FlatFs::Find(const Collection& coll,
                                              std::string_view key) {
  {
    std::lock_guard lock(overlay_mu_);
    auto it = pending_.find(std::string(key));
    if (it != pending_.end()) {
      if (it->second.erased) {
        return Status(ErrorCode::kNotFound, "erased");
      }
      return std::make_pair(Oid(it->second.oid_raw), it->second.size);
    }
  }
  auto value = coll.Lookup(key);
  if (!value.ok()) {
    return value.status();
  }
  const Oid oid(*value);
  auto mfile = MFile::Open(ctx_, oid);
  if (!mfile.ok()) {
    return mfile.status();
  }
  return std::make_pair(oid, mfile->size());
}

// --- Direct data path (DESIGN.md §10) ---------------------------------------

bool FlatFs::TryDirectGet(std::string_view key, std::span<char> out,
                          uint64_t* n) {
  if (!options_.direct_data) {
    return false;
  }
  DirectValue v;
  {
    std::shared_lock lock(direct_mu_);
    auto it = direct_values_.find(std::string(key));
    if (it == direct_values_.end()) {
      return false;
    }
    v = it->second;
  }
  LockClerk* clerk = fs_->clerk();
  if (!clerk->TryEnterDirect(v.epoch)) {
    fs_->CountDirectFallback();
    return false;
  }
  const uint64_t copied = std::min<uint64_t>(out.size(), v.size);
  std::memcpy(out.data(), ctx_.region->PtrAt(v.extent), copied);
  clerk->ExitDirect();
  fs_->CountDirectRead(copied);
  *n = copied;
  return true;
}

void FlatFs::StoreDirectValue(std::string_view key, LockId lock, Oid file,
                              uint64_t size) {
  if (!options_.direct_data) {
    return;
  }
  auto epoch = fs_->clerk()->DirectGrant(lock, LockMode::kShared);
  if (!epoch.ok()) {
    return;
  }
  auto mfile = MFile::Open(ctx_, file);
  if (!mfile.ok()) {
    return;
  }
  auto extent = mfile->ExtentForPage(0);
  if (!extent.ok()) {
    return;
  }
  std::unique_lock dlock(direct_mu_);
  if (direct_values_.size() >= kDirectValuesMax) {
    direct_values_.clear();
  }
  direct_values_[std::string(key)] = DirectValue{*extent, size, *epoch};
}

void FlatFs::InvalidateDirectValue(std::string_view key) {
  std::unique_lock dlock(direct_mu_);
  direct_values_.erase(std::string(key));
}

Status FlatFs::Put(std::string_view key, std::span<const char> data) {
  AERIE_SPAN("flatfs", "put");
  obs::TraceInstant("flatfs.put.bytes", data.size());
  if (key.empty() || key.size() > Collection::kMaxKeyLen) {
    return Status(ErrorCode::kInvalidArgument, "bad key");
  }
  if (data.size() > options_.file_capacity) {
    return Status(ErrorCode::kOutOfSpace, "value exceeds file capacity");
  }
  // Take a pre-allocated single-extent file and fill it directly: the whole
  // put is one memcpy plus one logged op (paper §7.3.2).
  AERIE_ASSIGN_OR_RETURN(
      Oid file, fs_->TakePooled(ObjType::kMFile, options_.file_capacity));
  AERIE_ASSIGN_OR_RETURN(MFile mfile, MFile::Open(ctx_, file));
  AERIE_RETURN_IF_ERROR(mfile.WriteInPlace(0, data));
  if (options_.flush_data_on_write) {
    ctx_.region->BFlush();
  }

  AERIE_ASSIGN_OR_RETURN(LockId lock, LockBucket(key, /*write=*/true));
  MetaOp op;
  op.type = MetaOpType::kFlatPut;
  op.authority = fs_->clerk()->GlobalAuthorityOf(lock);
  op.dir = root_;
  op.name = std::string(key);
  op.obj = file;
  op.a = data.size();
  Status st = fs_->LogOp(std::move(op));
  if (st.ok()) {
    AERIE_COUNT_N("flatfs.api.logical_write_bytes", data.size());
    {
      std::lock_guard guard(overlay_mu_);
      pending_[std::string(key)] =
          PendingEntry{file.raw(), data.size(), false};
    }
    // The key now points at a new file; re-cache eagerly while the bucket
    // lock is held so read-after-write stays on the direct path.
    InvalidateDirectValue(key);
    StoreDirectValue(key, lock, file, data.size());
  }
  fs_->clerk()->Release(lock);
  return st;
}

Result<uint64_t> FlatFs::Get(std::string_view key, std::span<char> out) {
  AERIE_SPAN("flatfs", "get");
  uint64_t direct_n = 0;
  if (TryDirectGet(key, out, &direct_n)) {
    return direct_n;
  }
  AERIE_ASSIGN_OR_RETURN(LockId lock, LockBucket(key, /*write=*/false));
  Status st = OkStatus();
  uint64_t copied = 0;
  {
    auto coll = Collection::Open(ctx_, root_);
    if (!coll.ok()) {
      st = coll.status();
    } else {
      auto found = Find(*coll, key);
      if (!found.ok()) {
        st = found.status();
      } else {
        // Locate the file in memory and copy it to the application buffer
        // in one step (paper §7.3.2).
        auto mfile = MFile::Open(ctx_, found->first);
        if (!mfile.ok()) {
          st = mfile.status();
        } else {
          const uint64_t want =
              std::min<uint64_t>(out.size(), found->second);
          auto n = mfile->Read(0, out.subspan(0, want));
          if (!n.ok()) {
            st = n.status();
          } else {
            copied = std::min<uint64_t>(want, found->second);
            if (*n < copied) {
              // Size is pending (batched SetSize): bytes live in the extent
              // already; copy directly.
              auto extent = mfile->ExtentForPage(0);
              if (extent.ok()) {
                std::memcpy(out.data(), ctx_.region->PtrAt(*extent), copied);
              } else {
                copied = *n;
              }
            }
            StoreDirectValue(key, lock, found->first, found->second);
          }
        }
      }
    }
  }
  fs_->clerk()->Release(lock);
  if (!st.ok()) {
    return st;
  }
  return copied;
}

Result<std::string> FlatFs::Get(std::string_view key) {
  std::string out(options_.file_capacity, '\0');
  auto n = Get(key, std::span<char>(out.data(), out.size()));
  if (!n.ok()) {
    return n.status();
  }
  out.resize(*n);
  return out;
}

Status FlatFs::Erase(std::string_view key) {
  AERIE_SPAN("flatfs", "erase");
  AERIE_ASSIGN_OR_RETURN(LockId lock, LockBucket(key, /*write=*/true));
  Status st = OkStatus();
  {
    auto coll = Collection::Open(ctx_, root_);
    if (!coll.ok()) {
      st = coll.status();
    } else {
      auto found = Find(*coll, key);
      if (!found.ok()) {
        st = found.status();
      } else {
        MetaOp op;
        op.type = MetaOpType::kFlatErase;
        op.authority = fs_->clerk()->GlobalAuthorityOf(lock);
        op.dir = root_;
        op.name = std::string(key);
        st = fs_->LogOp(std::move(op));
        if (st.ok()) {
          {
            std::lock_guard guard(overlay_mu_);
            pending_[std::string(key)] = PendingEntry{0, 0, true};
          }
          InvalidateDirectValue(key);
        }
      }
    }
  }
  fs_->clerk()->Release(lock);
  return st;
}

Result<bool> FlatFs::Exists(std::string_view key) {
  AERIE_SPAN("flatfs", "exists");
  AERIE_ASSIGN_OR_RETURN(LockId lock, LockBucket(key, /*write=*/false));
  bool exists = false;
  Status st = OkStatus();
  {
    auto coll = Collection::Open(ctx_, root_);
    if (!coll.ok()) {
      st = coll.status();
    } else {
      auto found = Find(*coll, key);
      if (found.ok()) {
        exists = true;
      } else if (found.status().code() != ErrorCode::kNotFound) {
        st = found.status();
      }
    }
  }
  fs_->clerk()->Release(lock);
  if (!st.ok()) {
    return st;
  }
  return exists;
}

Status FlatFs::Scan(const std::function<bool(std::string_view)>& visit) {
  AERIE_SPAN("flatfs", "scan");
  LockClerk* clerk = fs_->clerk();
  AERIE_RETURN_IF_ERROR(
      clerk->Acquire(root_.lock_id(), LockMode::kSharedHier));
  Status st = OkStatus();
  std::set<std::string> keys;
  {
    auto coll = Collection::Open(ctx_, root_);
    if (!coll.ok()) {
      st = coll.status();
    } else {
      st = coll->Scan([&](std::string_view key, uint64_t) {
        keys.insert(std::string(key));
        return true;
      });
    }
  }
  clerk->Release(root_.lock_id());
  AERIE_RETURN_IF_ERROR(st);
  {
    std::lock_guard lock(overlay_mu_);
    for (const auto& [key, entry] : pending_) {
      if (entry.erased) {
        keys.erase(key);
      } else {
        keys.insert(key);
      }
    }
  }
  for (const auto& key : keys) {
    if (!visit(key)) {
      break;
    }
  }
  return OkStatus();
}

Status FlatFs::Sync() { return fs_->Sync(); }

}  // namespace aerie
