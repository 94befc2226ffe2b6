#include "src/flatfs/flatfs.h"

#include <algorithm>
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
    // The next holder of the departing lock may change any key this client
    // has read or shipped. An unshipped op's entry stays: its lock cannot
    // leave before the op ships.
    std::unique_lock guard(keys_mu_);
    DropShippedLocked();
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

Result<FlatFs::Entry> FlatFs::Find(std::string_view key, LockId lock) {
  Entry entry;
  bool hit = false;
  {
    std::shared_lock guard(keys_mu_);
    auto it = keys_.find(std::string(key));
    if (it != keys_.end()) {
      entry = it->second;
      hit = true;
    }
  }
  if (hit && entry.erased) {
    return Status(ErrorCode::kNotFound, "erased");
  }
  if (hit && (!fs_->direct_data() ||
              entry.epoch == fs_->clerk()->direct_epoch())) {
    return entry;
  }
  // A miss, or a hit to stamp again with the current epoch.
  if (!hit) {
    AERIE_ASSIGN_OR_RETURN(Collection coll, Collection::Open(ctx_, root_));
    AERIE_ASSIGN_OR_RETURN(uint64_t raw, coll.Lookup(key));
    AERIE_ASSIGN_OR_RETURN(MFile file, MFile::Open(ctx_, Oid(raw)));
    entry.oid = file.oid();
    entry.size = file.size();
    AERIE_ASSIGN_OR_RETURN(entry.extent, file.ExtentForPage(0));
  }
  (void)StoreEntry(key, lock, entry);
  return entry;
}

bool FlatFs::PinLocked(std::string_view key, Entry* entry) {
  if (!fs_->direct_data()) {
    return false;
  }
  auto it = keys_.find(std::string(key));
  if (it == keys_.end() || it->second.erased || it->second.epoch == 0) {
    return false;
  }
  if (!fs_->clerk()->TryEnterDirect(it->second.epoch)) {
    fs_->CountDirectFallback();
    return false;
  }
  *entry = it->second;
  return true;
}

Status FlatFs::StoreEntry(std::string_view key, LockId lock, Entry entry,
                          MetaOp* op) {
  if (fs_->direct_data() && !entry.erased) {
    auto epoch = fs_->clerk()->DirectGrant(lock, LockMode::kShared);
    entry.epoch = epoch.ok() ? *epoch : 0;
  }
  std::unique_lock guard(keys_mu_);
  if (op != nullptr) {
    AERIE_RETURN_IF_ERROR(fs_->LogOp(std::move(*op), &entry.seq));
  }
  if (keys_.size() >= sweep_at_) {
    DropShippedLocked();
    sweep_at_ = std::max(kKeysMax, 2 * keys_.size());
  }
  keys_[std::string(key)] = entry;
  return OkStatus();
}

void FlatFs::DropShippedLocked() {
  std::erase_if(keys_, [this](const auto& kv) {
    return fs_->Shipped(kv.second.seq);
  });
}

size_t FlatFs::key_table_size() {
  std::shared_lock guard(keys_mu_);
  return keys_.size();
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
  Entry entry;
  AERIE_ASSIGN_OR_RETURN(
      entry.oid, fs_->TakePooled(ObjType::kMFile, options_.file_capacity));
  AERIE_ASSIGN_OR_RETURN(MFile mfile, MFile::Open(ctx_, entry.oid));
  AERIE_ASSIGN_OR_RETURN(entry.extent, mfile.ExtentForPage(0));
  ctx_.region->StreamWrite(ctx_.region->PtrAt(entry.extent), data.data(),
                           data.size());
  ctx_.region->BFlush();
  entry.size = data.size();

  AERIE_ASSIGN_OR_RETURN(LockId lock, LockBucket(key, /*write=*/true));
  MetaOp op;
  op.type = MetaOpType::kFlatPut;
  op.authority = fs_->clerk()->GlobalAuthorityOf(lock);
  op.dir = root_;
  op.name = std::string(key);
  op.obj = entry.oid;
  op.a = data.size();
  // Stamped while the bucket lock is held, so read-after-write takes the
  // pinned way.
  Status st = StoreEntry(key, lock, entry, &op);
  if (st.ok()) {
    AERIE_COUNT_N("flatfs.api.logical_write_bytes", data.size());
  }
  fs_->clerk()->Release(lock);
  return st;
}

Result<uint64_t> FlatFs::Get(std::string_view key, std::span<char> out) {
  AERIE_SPAN("flatfs", "get");
  LockClerk* clerk = fs_->clerk();
  // Both ways copy under the table's shared lock (DESIGN.md §10).
  std::shared_lock guard(keys_mu_);
  Entry entry;
  const bool pinned = PinLocked(key, &entry);
  LockId lock = 0;
  if (!pinned) {
    guard.unlock();
    AERIE_ASSIGN_OR_RETURN(lock, LockBucket(key, /*write=*/false));
    auto found = Find(key, lock);
    if (!found.ok()) {
      clerk->Release(lock);
      return found.status();
    }
    entry = *found;
    guard.lock();
  }
  // Locate the file in memory and copy it to the application buffer in one
  // step (paper §7.3.2).
  const uint64_t copied = std::min<uint64_t>(out.size(), entry.size);
  std::memcpy(out.data(), ctx_.region->PtrAt(entry.extent), copied);
  guard.unlock();
  if (pinned) {
    clerk->ExitDirect();
    fs_->CountDirectRead(copied);
  } else {
    clerk->Release(lock);
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
  Status st = Find(key, lock).status();
  if (st.ok()) {
    MetaOp op;
    op.type = MetaOpType::kFlatErase;
    op.authority = fs_->clerk()->GlobalAuthorityOf(lock);
    op.dir = root_;
    op.name = std::string(key);
    Entry erased;
    erased.erased = true;
    st = StoreEntry(key, lock, erased, &op);
  }
  fs_->clerk()->Release(lock);
  return st;
}

Result<bool> FlatFs::Exists(std::string_view key) {
  AERIE_SPAN("flatfs", "exists");
  AERIE_ASSIGN_OR_RETURN(LockId lock, LockBucket(key, /*write=*/false));
  auto found = Find(key, lock);
  fs_->clerk()->Release(lock);
  if (found.ok()) {
    return true;
  }
  if (found.status().code() == ErrorCode::kNotFound) {
    return false;
  }
  return found.status();
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
    std::shared_lock lock(keys_mu_);
    for (const auto& [key, entry] : keys_) {
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
