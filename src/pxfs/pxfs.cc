#include "src/pxfs/pxfs.h"

#include <algorithm>
#include <map>

#include "src/common/check.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/scm/manager.h"

namespace aerie {

namespace {

// Splits a path into components ("/a//b/" -> ["a", "b"]).
Result<std::vector<std::string>> SplitPath(std::string_view path) {
  if (path.empty()) {
    return Status(ErrorCode::kInvalidArgument, "empty path");
  }
  std::vector<std::string> parts;
  size_t pos = 0;
  while (pos < path.size()) {
    while (pos < path.size() && path[pos] == '/') {
      pos++;
    }
    size_t end = pos;
    while (end < path.size() && path[end] != '/') {
      end++;
    }
    if (end > pos) {
      std::string_view comp = path.substr(pos, end - pos);
      if (comp == "." ) {
        // skip
      } else if (comp == "..") {
        return Status(ErrorCode::kInvalidArgument,
                      "'..' is not supported in PXFS paths");
      } else {
        parts.emplace_back(comp);
      }
    }
    pos = end;
  }
  return parts;
}

// True if `path` is its own canonical form: absolute, with no empty, "." or
// ".." component and no trailing '/'.
bool IsCanonical(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return false;
  }
  for (size_t pos = 1;;) {
    const size_t end = std::min(path.find('/', pos), path.size());
    const std::string_view comp = path.substr(pos, end - pos);
    if (comp.empty() || comp == "." || comp == "..") {
      return false;
    }
    if (end == path.size()) {
      return true;
    }
    pos = end + 1;
  }
}

uint64_t PagesFor(uint64_t bytes) {
  return (bytes + kScmPageSize - 1) / kScmPageSize;
}

std::string CanonicalPath(const std::vector<std::string>& parts) {
  std::string out = "/";
  for (size_t i = 0; i < parts.size(); ++i) {
    out += parts[i];
    if (i + 1 < parts.size()) {
      out += "/";
    }
  }
  return out;
}

}  // namespace

Pxfs::Pxfs(LibFs* fs, const Options& options)
    : fs_(fs), options_(options), ctx_(fs->read_context()) {
  obs_registration_.AddAll(cache_hits_, cache_misses_);
  // Whenever a global lock leaves this client (paper §6.1):
  //   * if it covered a file this client holds open, tell the TFS the file
  //     is open so unlink-reclaim is deferred ("clients with the file open
  //     notify the service ... when releasing the lock");
  //   * flush everything derived from cached authority (name cache, overlay,
  //     shadows).
  hook_token_ = fs_->AddReleaseHook([this](LockId) {
    // A released lock may have covered any open file (directly, or through
    // a hierarchical ancestor the clerk had cached), so every locally-open,
    // not-yet-notified file is reported before the lock leaves us.
    std::vector<uint64_t> notify;
    {
      std::lock_guard lock(fds_mu_);
      for (const auto& [raw, count] : open_counts_) {
        if (count > 0 && notified_open_.insert(raw).second) {
          notify.push_back(raw);
        }
      }
    }
    for (uint64_t raw : notify) {
      (void)fs_->NotifyOpen(Oid(raw));
    }
    ClearVolatileState();
    // Another client may now rename a directory above the cwd.
    ForgetCwdPath();
  });
}

Pxfs::~Pxfs() { fs_->RemoveReleaseHook(hook_token_); }

void Pxfs::ClearVolatileState() {
  {
    std::lock_guard lock(overlay_mu_);
    overlay_.clear();
    shadows_.clear();
  }
  // Cached direct maps may be the shadows just dropped, and the epoch they
  // were validated under is moving anyway (we are inside a release).
  fs_->ClearDirectCache();
  FlushNameCache();
}

void Pxfs::ForgetCwdPath() {
  std::lock_guard lock(cwd_mu_);
  if (cwd_path_ != "/") {  // the root cannot move
    cwd_path_.clear();
  }
}

void Pxfs::FlushNameCache() {
  AERIE_SPAN("namecache", "flush");
  std::lock_guard lock(cache_mu_);
  obs::TraceInstant("namecache.flush.entries", name_cache_.size());
  ClearNamesLocked();
}

void Pxfs::ClearNamesLocked() {
  name_cache_.Clear();
  name_chains_.clear();
}

size_t Pxfs::FindNameLocked(uint32_t tag, std::string_view key) const {
  return name_cache_.Find(
      tag, [&](const NameSlot& slot) { return slot.Holds(tag, key); });
}

Result<Oid> Pxfs::DirLookup(Oid dir, const std::string& name) {
  {
    std::lock_guard lock(overlay_mu_);
    auto it = overlay_.find(dir.raw());
    if (it != overlay_.end()) {
      auto added = it->second.added.find(name);
      if (added != it->second.added.end()) {
        return Oid(added->second);
      }
      if (it->second.removed.count(name) != 0) {
        return Status(ErrorCode::kNotFound, "name removed");
      }
    }
  }
  AERIE_ASSIGN_OR_RETURN(Collection coll, Collection::Open(ctx_, dir));
  auto value = coll.Lookup(name);
  if (!value.ok()) {
    return value.status();
  }
  return Oid(*value);
}

void Pxfs::OverlayAdd(Oid dir, const std::string& name, Oid oid) {
  std::lock_guard lock(overlay_mu_);
  DirOverlay& ov = overlay_[dir.raw()];
  ov.added[name] = oid.raw();
  ov.removed.erase(name);
}

void Pxfs::OverlayRemove(Oid dir, const std::string& name) {
  std::lock_guard lock(overlay_mu_);
  DirOverlay& ov = overlay_[dir.raw()];
  ov.added.erase(name);
  ov.removed.insert(name);
}

void Pxfs::ForgetRecycled(Oid oid) {
  {
    std::lock_guard lock(overlay_mu_);
    shadows_.erase(oid.raw());
    overlay_.erase(oid.raw());
  }
  fs_->InvalidateDirect(oid);
}

std::shared_ptr<const LibFs::DirectMap> Pxfs::ShadowFor(Oid file) {
  std::lock_guard lock(overlay_mu_);
  auto it = shadows_.find(file.raw());
  if (it == shadows_.end()) {
    return nullptr;
  }
  if (fs_->Shipped(it->second.seq)) {
    shadows_.erase(it);
    return nullptr;
  }
  return it->second.map;
}

void Pxfs::SetShadow(Oid file, uint64_t seq,
                     std::shared_ptr<const LibFs::DirectMap> map) {
  const bool cacheable = map->epoch != 0;
  {
    std::lock_guard lock(overlay_mu_);
    shadows_[file.raw()] = FileShadow{map, seq};
    if (shadows_.size() >= shadow_sweep_at_) {
      std::erase_if(shadows_, [this](const auto& entry) {
        return fs_->Shipped(entry.second.seq);
      });
      shadow_sweep_at_ = std::max(kShadowSweepMin, 2 * shadows_.size());
    }
  }
  if (cacheable) {
    fs_->StoreDirect(file, std::move(map));
  } else {
    fs_->InvalidateDirect(file);
  }
}

bool Pxfs::CacheLookup(std::string_view key, Resolved* out) {
  AERIE_SPAN("namecache", "lookup");
  const uint32_t tag = NameTag(key);
  std::lock_guard lock(cache_mu_);
  const size_t i = FindNameLocked(tag, key);
  if (i == OpenTable<NameSlot>::kNone) {
    cache_misses_.Add(1);
    return false;
  }
  cache_hits_.Add(1);
  const NameSlot& slot = name_cache_.at(i);
  out->parent = Oid(slot.parent->first);
  out->target = Oid(slot.target_raw);
  out->leaf = std::string(key.substr(key.rfind('/') + 1));
  out->ancestors = slot.parent->second;
  return true;
}

void Pxfs::CacheInsert(std::string_view key, Oid target, Oid parent,
                       std::span<const LockId> chain) {
  AERIE_SPAN("namecache", "insert");
  const uint32_t tag = NameTag(key);
  std::lock_guard lock(cache_mu_);
  const size_t i = FindNameLocked(tag, key);
  if (i != OpenTable<NameSlot>::kNone) {
    const NameSlot& slot = name_cache_.at(i);
    if (slot.target_raw == target.raw() &&
        slot.parent->first == parent.raw() &&
        std::ranges::equal(slot.parent->second, chain)) {
      return;  // every walk re-resolves its prefixes
    }
  } else if (name_cache_.size() >= name_cache_max_ ||
             name_chains_.size() >= name_cache_max_) {
    ClearNamesLocked();  // cheap wholesale eviction
  }
  NameChain& stored = *name_chains_.try_emplace(parent.raw()).first;
  if (!std::ranges::equal(stored.second, chain)) {
    stored.second.assign(chain.begin(), chain.end());
  }
  if (i == OpenTable<NameSlot>::kNone) {
    name_cache_.Insert(NameSlot{target.raw(), &stored, tag, SlotKey(key)});
    return;
  }
  NameSlot& slot = name_cache_.at(i);
  slot.target_raw = target.raw();
  slot.parent = &stored;
}

void Pxfs::CacheErase(std::string_view key) {
  const uint32_t tag = NameTag(key);
  std::lock_guard lock(cache_mu_);
  const size_t i = FindNameLocked(tag, key);
  if (i != OpenTable<NameSlot>::kNone) {
    name_cache_.Erase(i);
  }
}

Result<Pxfs::Resolved> Pxfs::Resolve(std::string_view path, bool fill_cache,
                                     std::string* key) {
  AERIE_SPAN("pxfs", "resolve");
  // Relative paths resolve from the working directory and skip the name
  // cache entirely (paper §6.1).
  const bool relative = !path.empty() && path[0] != '/';
  const bool use_cache = options_.name_cache && !relative;
  Resolved out;
  // A canonical path is its own cache key, so a hit needs no split.
  const bool probed = use_cache && IsCanonical(path);
  if (probed && CacheLookup(path, &out)) {
    if (key != nullptr) {
      *key = path;
    }
    return out;
  }
  Oid start = fs_->pxfs_root();
  std::vector<LockId> start_ancestors;
  std::string start_path = "/";
  if (relative) {
    std::lock_guard lock(cwd_mu_);
    if (!cwd_oid_.IsNull()) {
      start = cwd_oid_;
      start_ancestors = cwd_ancestors_;
      start_path = cwd_path_;
    }
  }
  AERIE_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  if (parts.empty()) {
    out.parent = start;
    out.target = start;
    out.leaf = "";
    out.ancestors = start_ancestors;
    if (key != nullptr) {
      *key = start_path;
    }
    return out;
  }
  const std::string canonical = CanonicalPath(parts);
  if (key != nullptr && !start_path.empty()) {
    *key = start_path == "/" ? canonical : start_path + canonical;
  }
  if (use_cache && !probed && CacheLookup(canonical, &out)) {
    return out;
  }

  // Walk from the start directory, taking a read lock on each directory
  // while its collection is consulted (paper §6.1 "Naming").
  Oid cur = start;
  std::vector<LockId> ancestors = start_ancestors;
  std::string prefix = "";
  LockClerk* clerk = fs_->clerk();
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    AERIE_RETURN_IF_ERROR(
        clerk->Acquire(cur.lock_id(), LockMode::kShared, ancestors));
    auto child = DirLookup(cur, parts[i]);
    clerk->Release(cur.lock_id());
    if (!child.ok()) {
      return child.status();
    }
    if (child->type() != ObjType::kCollection) {
      return Status(ErrorCode::kNotDirectory, parts[i]);
    }
    ancestors.push_back(cur.lock_id());
    prefix += "/" + parts[i];
    if (use_cache && fill_cache) {
      // Entry for each resolved prefix (created on demand, §6.1).
      CacheInsert(prefix, *child, cur,
                  std::span(ancestors).first(ancestors.size() - 1));
    }
    cur = *child;
  }

  out.parent = cur;
  out.leaf = parts.back();
  out.ancestors = ancestors;
  AERIE_RETURN_IF_ERROR(
      clerk->Acquire(cur.lock_id(), LockMode::kShared, ancestors));
  auto target = DirLookup(cur, out.leaf);
  clerk->Release(cur.lock_id());
  if (target.ok()) {
    out.target = *target;
    if (use_cache && fill_cache) {
      CacheInsert(canonical, out.target, out.parent, out.ancestors);
    }
  }
  return out;
}

uint64_t Pxfs::FileSize(Oid file) {
  if (auto shadow = ShadowFor(file)) {
    return shadow->map.size;
  }
  auto mfile = MFile::Open(ctx_, file);
  return mfile.ok() ? mfile->size() : 0;
}

// --- Open / Close ----------------------------------------------------------

Result<int> Pxfs::Open(std::string_view path, int flags) {
  AERIE_SPAN("pxfs", "open");
  if ((flags & (kOpenRead | kOpenWrite)) == 0) {
    return Status(ErrorCode::kInvalidArgument, "open needs read or write");
  }
  AERIE_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*fill_cache=*/true));
  LockClerk* clerk = fs_->clerk();
  bool created = false;

  if (r.target.IsNull()) {
    if ((flags & kOpenCreate) == 0) {
      return Status(ErrorCode::kNotFound, std::string(path));
    }
    // Create: write-lock the directory, re-check, take a pooled mFile, and
    // log the create (paper §4.3's "life of a file"). A newborn is empty, so
    // O_TRUNC has nothing to do.
    AERIE_RETURN_IF_ERROR(
        clerk->Acquire(r.parent.lock_id(), DirWriteMode(), r.ancestors));
    auto recheck = DirLookup(r.parent, r.leaf);
    if (recheck.ok()) {
      r.target = *recheck;
    } else {
      created = true;
      auto pooled = fs_->TakePooled(ObjType::kMFile);
      if (!pooled.ok()) {
        clerk->Release(r.parent.lock_id());
        return pooled.status();
      }
      MetaOp op;
      op.type = MetaOpType::kCreateFile;
      op.authority = clerk->GlobalAuthorityOf(r.parent.lock_id());
      op.dir = r.parent;
      op.name = r.leaf;
      op.obj = *pooled;
      Status st = fs_->LogOp(std::move(op));
      if (!st.ok()) {
        clerk->Release(r.parent.lock_id());
        return st;
      }
      OverlayAdd(r.parent, r.leaf, *pooled);
      ForgetRecycled(*pooled);
      r.target = *pooled;
    }
    clerk->Release(r.parent.lock_id());
  }
  if (r.target.type() != ObjType::kMFile) {
    return Status(ErrorCode::kIsDirectory, std::string(path));
  }

  // Acquire the file's lock (paper §6.1 "File sharing"). The *client* holds
  // it — cached at the clerk — until revoked; data-path operations re-take
  // the local grant per call, so multiple fds and threads coexist. A current
  // map of the file proves the lock is still cached here in a mode covering
  // the open, so such an open skips the clerk (DESIGN.md §10.2).
  std::vector<LockId> chain = std::move(r.ancestors);
  chain.push_back(r.parent.lock_id());
  const bool write = (flags & kOpenWrite) != 0;
  const bool truncate = (flags & kOpenTrunc) != 0 && !created;
  // A file created just now has no map to look up.
  const bool authorized = !created && !truncate && DirectUsable() &&
                          CurrentMap(r.target, write) != nullptr &&
                          !clerk->lease_lost();
  if (!authorized) {
    AERIE_RETURN_IF_ERROR(clerk->Acquire(
        r.target.lock_id(), write ? LockMode::kExclusive : LockMode::kShared,
        chain));
    if (truncate) {
      // Still under the file lock, so no locked call on another fd can
      // store a map of the extents the truncate frees.
      MetaOp op;
      op.type = MetaOpType::kTruncate;
      op.authority = clerk->GlobalAuthorityOf(r.target.lock_id());
      op.obj = r.target;
      op.a = 0;
      uint64_t seq = 0;
      Status st = fs_->LogOp(std::move(op), &seq);
      if (!st.ok()) {
        clerk->Release(r.target.lock_id());
        return st;
      }
      // The pending truncate frees every extent: the file is an empty map.
      SetShadow(r.target, seq, std::make_shared<LibFs::DirectMap>());
    }
    clerk->Release(r.target.lock_id());
  }

  auto entry = std::make_shared<FdEntry>();
  entry->oid = r.target;
  entry->dir = r.parent;
  entry->flags = flags;
  entry->ancestors = std::move(chain);
  entry->offset = (flags & kOpenAppend) ? FileSize(r.target) : 0;
  std::lock_guard lock(fds_mu_);
  open_counts_[r.target.raw()]++;

  int fd;
  if (!free_fds_.empty()) {
    fd = free_fds_.back();
    free_fds_.pop_back();
    fds_[static_cast<size_t>(fd)] = std::move(entry);
  } else {
    fd = static_cast<int>(fds_.size());
    fds_.push_back(std::move(entry));
  }
  return fd;
}

Result<std::shared_ptr<Pxfs::FdEntry>> Pxfs::LookupFd(int fd) {
  std::lock_guard lock(fds_mu_);
  if (fd < 0 || static_cast<size_t>(fd) >= fds_.size() ||
      fds_[static_cast<size_t>(fd)] == nullptr) {
    return Status(ErrorCode::kBadHandle, "bad fd");
  }
  return fds_[static_cast<size_t>(fd)];
}

Status Pxfs::Close(int fd) {
  AERIE_SPAN("pxfs", "close");
  AERIE_ASSIGN_OR_RETURN(std::shared_ptr<FdEntry> entry, LookupFd(fd));
  bool notify_closed = false;
  {
    std::lock_guard lock(fds_mu_);
    if (fds_[static_cast<size_t>(fd)] != entry) {
      return Status(ErrorCode::kBadHandle, "bad fd");  // closed meanwhile
    }
    fds_[static_cast<size_t>(fd)] = nullptr;
    free_fds_.push_back(fd);
    auto it = open_counts_.find(entry->oid.raw());
    if (it != open_counts_.end() && --it->second == 0) {
      open_counts_.erase(it);
      notify_closed = notified_open_.erase(entry->oid.raw()) != 0;
    }
  }
  if (notify_closed) {
    // Server may now reclaim the file if it was unlinked (paper §6.1).
    return fs_->NotifyClosed(entry->oid);
  }
  return OkStatus();
}

// --- Data path (DESIGN.md §10) -----------------------------------------------

std::shared_ptr<const LibFs::DirectMap> Pxfs::CurrentMap(Oid file,
                                                         bool write) {
  auto map = fs_->LookupDirect(file);
  if (map == nullptr || map->epoch != fs_->clerk()->direct_epoch() ||
      (write && !map->writable)) {
    return nullptr;
  }
  return map;
}

std::shared_ptr<const LibFs::DirectMap> Pxfs::PinMap(Oid file, bool write,
                                                     uint64_t end) {
  if (!DirectUsable()) {
    return nullptr;
  }
  auto map = fs_->LookupDirect(file);
  // Growing the file is metadata, so an extending write goes the locked way
  // without counting as a fallback.
  if (map == nullptr || (write && (!map->writable || end > map->map.size))) {
    return nullptr;
  }
  if (!fs_->clerk()->TryEnterDirect(map->epoch)) {
    fs_->CountDirectFallback();
    return nullptr;
  }
  return map;
}

Result<std::shared_ptr<const LibFs::DirectMap>> Pxfs::LockedMap(
    Oid file, LockMode mode, uint64_t offset, uint64_t end) {
  const bool writable = mode == LockMode::kExclusive;
  if (DirectUsable()) {
    auto cached = CurrentMap(file, writable);
    if (cached != nullptr &&
        (!writable || PagesFor(end) <= kDirectMaxPages)) {
      return cached;
    }
  }
  // Validated under the clerk mutex while we hold the local grant; a
  // failure (drain in flight, authority gone) leaves the map uncached.
  auto grant = [&](uint64_t pages) -> uint64_t {
    if (!DirectUsable() || pages > kDirectMaxPages) {
      return 0;
    }
    return fs_->clerk()->DirectGrant(file.lock_id(), mode).value_or(0);
  };
  if (auto shadow = ShadowFor(file)) {
    // A shallow copy: the shadow itself stays as it is.
    auto map = std::make_shared<LibFs::DirectMap>(*shadow);
    map->writable = writable;
    map->epoch = grant(writable ? std::max(map->map.end_page, PagesFor(end))
                                : map->map.end_page);
    return std::shared_ptr<const LibFs::DirectMap>(std::move(map));
  }
  AERIE_ASSIGN_OR_RETURN(MFile mfile, MFile::Open(ctx_, file));
  const uint64_t size = mfile.size();
  const uint64_t pages = PagesFor(writable ? std::max(size, end) : size);
  auto map = std::make_shared<LibFs::DirectMap>();
  map->writable = writable;
  map->epoch = grant(pages);
  map->map = map->epoch != 0
                 ? mfile.SnapshotExtents(0, pages)
                 : mfile.SnapshotExtents(offset / kScmPageSize, PagesFor(end));
  return std::shared_ptr<const LibFs::DirectMap>(std::move(map));
}

Result<std::shared_ptr<LibFs::DirectMap>> Pxfs::EditableMap(
    Oid file, const LibFs::DirectMap& map) {
  auto edited = std::make_shared<LibFs::DirectMap>(map);
  const MFile::DirectExtentMap& m = map.map;
  if (m.first_page != 0 || m.end_page < PagesFor(m.size)) {
    // Only a snapshot is ever a window, and there is no shadow to lose.
    AERIE_ASSIGN_OR_RETURN(MFile mfile, MFile::Open(ctx_, file));
    edited->map = mfile.SnapshotExtents(0, PagesFor(mfile.size()));
  }
  return edited;
}

uint32_t Pxfs::ProtectedRights(Oid file) {
  if (!options_.enforce_memory_protection) {
    return 0;
  }
  auto mfile = MFile::Open(ctx_, file);
  return mfile.ok() ? AclRights(mfile->acl()) : 0;
}

Result<uint64_t> Pxfs::ReadFile(const FdEntry& entry, uint64_t offset,
                                std::span<char> out) {
  LockClerk* clerk = fs_->clerk();
  if (auto map = PinMap(entry.oid, /*write=*/false, 0)) {
    const uint64_t n = MFile::ReadDirect(ctx_.region, map->map, offset, out);
    clerk->ExitDirect();
    fs_->CountDirectRead(n);
    return n;
  }
  AERIE_RETURN_IF_ERROR(clerk->Acquire(entry.oid.lock_id(), LockMode::kShared,
                                       entry.ancestors));
  auto n = ReadLocked(entry.oid, offset, out);
  clerk->Release(entry.oid.lock_id());
  return n;
}

Result<uint64_t> Pxfs::ReadLocked(Oid file, uint64_t offset,
                                  std::span<char> out) {
  const uint32_t rights = ProtectedRights(file);
  if (rights != 0 && (rights & kAclRightRead) == 0) {
    // Write-only file: memory protection cannot express it, so the hardware
    // maps it no-access and reads are denied at the FS level (paper §5.3.3).
    return Status(ErrorCode::kPermissionDenied, "file is write-only");
  }
  AERIE_ASSIGN_OR_RETURN(
      std::shared_ptr<const LibFs::DirectMap> map,
      LockedMap(file, LockMode::kShared, offset, offset + out.size()));
  const uint64_t n = MFile::ReadDirect(ctx_.region, map->map, offset, out);
  if (map->epoch != 0) {
    fs_->StoreDirect(file, std::move(map));
  }
  return n;
}

Result<uint64_t> Pxfs::WriteFile(const FdEntry& entry, uint64_t offset,
                                 std::span<const char> data) {
  if ((entry.flags & kOpenWrite) == 0) {
    return Status(ErrorCode::kPermissionDenied, "fd not open for write");
  }
  if (data.empty()) {
    return 0;
  }
  LockClerk* clerk = fs_->clerk();
  bool pinned = false;
  if (auto map = PinMap(entry.oid, /*write=*/true, offset + data.size())) {
    pinned = MFile::WriteDirect(ctx_.region, map->map, offset, data).ok();
    clerk->ExitDirect();
    if (pinned) {
      fs_->CountDirectWrite(data.size());
    } else {
      fs_->CountDirectFallback();  // a hole: the locked way allocates it
    }
  }
  Result<uint64_t> n = data.size();
  if (!pinned) {
    AERIE_RETURN_IF_ERROR(clerk->Acquire(
        entry.oid.lock_id(), LockMode::kExclusive, entry.ancestors));
    n = WriteLocked(entry.oid, offset, data);
    clerk->Release(entry.oid.lock_id());
  }
  if (n.ok()) {
    AERIE_COUNT_N("pxfs.api.logical_write_bytes", *n);
  }
  return n;
}

Result<uint64_t> Pxfs::WriteLocked(Oid file, uint64_t offset,
                                   std::span<const char> data) {
  const uint32_t rights = ProtectedRights(file);
  if (rights != 0 && (rights & kAclRightRead) == 0) {
    // Write-only: FS-level permissions allow the write, but memory
    // protection maps the extents no-access — route the data through the
    // trusted service (paper §5.3.3: "the library calls into the TFS for any
    // operations allowed by file system level permissions but prevented by
    // memory protection"). The batch ships first: the service writes the
    // mFile at once, and an op still batched (a truncate) must not apply
    // after it.
    AERIE_RETURN_IF_ERROR(fs_->Sync());
    AERIE_RETURN_IF_ERROR(fs_->ServiceWrite(file, offset, data));
    fs_->InvalidateDirect(file);
    return data.size();
  }
  if (rights != 0 && (rights & kAclRightWrite) == 0) {
    return Status(ErrorCode::kPermissionDenied, "file is read-only");
  }
  const uint64_t end = offset + data.size();
  AERIE_ASSIGN_OR_RETURN(std::shared_ptr<const LibFs::DirectMap> map,
                         LockedMap(file, LockMode::kExclusive, offset, end));

  // Holes and growth are metadata: fill holes with pooled extent runs and
  // log one attach per run plus the new size (paper §5.3.5: the server only
  // verifies and attaches), on a copy of the map that the copy loop then
  // runs against and that becomes the file's shadow.
  const uint64_t first = offset / kScmPageSize;
  const uint64_t last = PagesFor(end);
  bool edit = end > map->map.size;
  for (uint64_t p = first; !edit && p < last; ++p) {
    edit = map->map.extent(p) == 0;
  }
  std::vector<MetaOp> ops;
  std::shared_ptr<LibFs::DirectMap> edited;
  if (edit) {
    // The copy shares every chunk of pages the write does not touch.
    AERIE_ASSIGN_OR_RETURN(edited, EditableMap(file, *map));
    MFile::DirectExtentMap& m = edited->map;
    // A write past the size exposes the old last page's tail.
    MFile::ZeroGap(ctx_.region, m, offset);
    m.Own(first, last);
    const uint64_t authority =
        fs_->clerk()->GlobalAuthorityOf(file.lock_id());
    for (uint64_t p = first; p < last;) {
      if (m.extent(p) != 0) {
        p++;
        continue;
      }
      uint64_t hole_end = p + 1;
      while (hole_end < last && m.extent(hole_end) == 0) {
        hole_end++;
      }
      AERIE_ASSIGN_OR_RETURN(LibFs::ExtentRun run,
                             fs_->TakeExtentRun(hole_end - p));
      for (uint64_t i = 0; i < run.pages; ++i, ++p) {
        const uint64_t extent = run.offset + i * kScmPageSize;
        m.set_extent(p, extent);
        // The bytes of the page the write leaves unwritten but the file's
        // size covers must read as zeros: they are streamed and drained
        // with the data. Those past the size are zeroed by whatever extends
        // the file over them.
        const uint64_t page_start = p * kScmPageSize;
        if (page_start < offset) {
          MFile::StreamZeros(ctx_.region, extent, offset - page_start);
        }
        const uint64_t covered = std::min(page_start + kScmPageSize, m.size);
        if (covered > end) {
          MFile::StreamZeros(ctx_.region, extent + (end - page_start),
                             covered - end);
        }
      }
      MetaOp op;
      op.type = MetaOpType::kAttachExtent;
      op.authority = authority;
      op.obj = file;
      op.a = p - run.pages;
      op.b = run.offset;
      op.pages = run.pages;
      ops.push_back(std::move(op));
    }
    if (end > m.size) {
      m.size = end;
      MetaOp op;
      op.type = MetaOpType::kSetSize;
      op.authority = authority;
      op.obj = file;
      op.a = end;
      ops.push_back(std::move(op));
    }
    map = edited;
  }

  // Data writes go straight to SCM; no service involvement (§4.2).
  AERIE_RETURN_IF_ERROR(
      MFile::WriteDirect(ctx_.region, map->map, offset, data));
  if (edited != nullptr) {
    uint64_t seq = 0;
    AERIE_RETURN_IF_ERROR(fs_->LogOps(ops, &seq));
    SetShadow(file, seq, std::move(edited));
  } else if (map->epoch != 0) {
    fs_->StoreDirect(file, std::move(map));
  }
  return data.size();
}

Result<uint64_t> Pxfs::Read(int fd, std::span<char> out) {
  AERIE_SPAN("pxfs", "read");
  AERIE_ASSIGN_OR_RETURN(std::shared_ptr<FdEntry> entry, LookupFd(fd));
  const uint64_t offset = entry->offset.load();
  AERIE_ASSIGN_OR_RETURN(uint64_t n, ReadFile(*entry, offset, out));
  entry->offset = offset + n;
  return n;
}

Result<uint64_t> Pxfs::Write(int fd, std::span<const char> data) {
  AERIE_SPAN("pxfs", "write");
  AERIE_ASSIGN_OR_RETURN(std::shared_ptr<FdEntry> entry, LookupFd(fd));
  const uint64_t offset =
      (entry->flags & kOpenAppend) ? FileSize(entry->oid) : entry->offset.load();
  AERIE_ASSIGN_OR_RETURN(uint64_t n, WriteFile(*entry, offset, data));
  entry->offset = offset + n;
  return n;
}

Result<uint64_t> Pxfs::Pread(int fd, uint64_t offset, std::span<char> out) {
  AERIE_SPAN("pxfs", "pread");
  AERIE_ASSIGN_OR_RETURN(std::shared_ptr<FdEntry> entry, LookupFd(fd));
  return ReadFile(*entry, offset, out);
}

Result<uint64_t> Pxfs::Pwrite(int fd, uint64_t offset,
                              std::span<const char> data) {
  AERIE_SPAN("pxfs", "pwrite");
  AERIE_ASSIGN_OR_RETURN(std::shared_ptr<FdEntry> entry, LookupFd(fd));
  return WriteFile(*entry, offset, data);
}

Result<uint64_t> Pxfs::Seek(int fd, uint64_t offset) {
  AERIE_SPAN("pxfs", "seek");
  AERIE_ASSIGN_OR_RETURN(std::shared_ptr<FdEntry> entry, LookupFd(fd));
  entry->offset = offset;
  return offset;
}

Status Pxfs::Ftruncate(int fd, uint64_t size) {
  AERIE_SPAN("pxfs", "ftruncate");
  AERIE_ASSIGN_OR_RETURN(std::shared_ptr<FdEntry> entry, LookupFd(fd));
  if ((entry->flags & kOpenWrite) == 0) {
    return Status(ErrorCode::kPermissionDenied, "fd not open for write");
  }
  LockClerk* clerk = fs_->clerk();
  AERIE_RETURN_IF_ERROR(clerk->Acquire(entry->oid.lock_id(),
                                       LockMode::kExclusive, entry->ancestors));
  Status st = TruncateLocked(entry->oid, size);
  clerk->Release(entry->oid.lock_id());
  return st;
}

Status Pxfs::TruncateLocked(Oid file, uint64_t size) {
  AERIE_ASSIGN_OR_RETURN(std::shared_ptr<const LibFs::DirectMap> map,
                         LockedMap(file, LockMode::kExclusive, 0, size));
  AERIE_ASSIGN_OR_RETURN(std::shared_ptr<LibFs::DirectMap> edited,
                         EditableMap(file, *map));
  MFile::DirectExtentMap& m = edited->map;
  // POSIX zero-fill: growing the file brings its old last page's tail
  // inside the size.
  if (MFile::ZeroGap(ctx_.region, m, size)) {
    ctx_.region->BFlush();
  }
  MetaOp op;
  op.type = MetaOpType::kTruncate;
  op.authority = fs_->clerk()->GlobalAuthorityOf(file.lock_id());
  op.obj = file;
  op.a = size;
  uint64_t seq = 0;
  AERIE_RETURN_IF_ERROR(fs_->LogOp(std::move(op), &seq));
  // The apply frees the extents of the pages past the new size; pages a
  // grown file gains are holes.
  m.Resize(PagesFor(size));
  m.size = size;
  SetShadow(file, seq, std::move(edited));
  return OkStatus();
}

Status Pxfs::Fsync(int fd) {
  AERIE_SPAN("pxfs", "fsync");
  AERIE_RETURN_IF_ERROR(LookupFd(fd).status());
  ctx_.region->BFlush();
  return fs_->Sync();
}

Result<PxfsStat> Pxfs::Fstat(int fd) {
  AERIE_SPAN("pxfs", "fstat");
  AERIE_ASSIGN_OR_RETURN(std::shared_ptr<FdEntry> entry, LookupFd(fd));
  const Oid oid = entry->oid;
  AERIE_ASSIGN_OR_RETURN(MFile mfile, MFile::Open(ctx_, oid));
  PxfsStat st;
  st.oid = oid;
  st.is_dir = false;
  st.size = FileSize(oid);
  st.link_count = mfile.link_count();
  st.acl = mfile.acl();
  return st;
}

// --- Namespace operations ----------------------------------------------------

Status Pxfs::Create(std::string_view path) {
  AERIE_SPAN("pxfs", "create");
  AERIE_ASSIGN_OR_RETURN(int fd, Open(path, kOpenCreate | kOpenWrite));
  return Close(fd);
}

Status Pxfs::Mkdir(std::string_view path) {
  AERIE_SPAN("pxfs", "mkdir");
  AERIE_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*fill_cache=*/false));
  if (!r.target.IsNull()) {
    return Status(ErrorCode::kAlreadyExists, std::string(path));
  }
  LockClerk* clerk = fs_->clerk();
  AERIE_RETURN_IF_ERROR(
      clerk->Acquire(r.parent.lock_id(), DirWriteMode(), r.ancestors));
  Status st = OkStatus();
  if (DirLookup(r.parent, r.leaf).ok()) {
    st = Status(ErrorCode::kAlreadyExists, std::string(path));
  } else {
    auto pooled = fs_->TakePooled(ObjType::kCollection);
    if (!pooled.ok()) {
      st = pooled.status();
    } else {
      MetaOp op;
      op.type = MetaOpType::kCreateDir;
      op.authority = clerk->GlobalAuthorityOf(r.parent.lock_id());
      op.dir = r.parent;
      op.name = r.leaf;
      op.obj = *pooled;
      st = fs_->LogOp(std::move(op));
      if (st.ok()) {
        OverlayAdd(r.parent, r.leaf, *pooled);
        ForgetRecycled(*pooled);
      }
    }
  }
  clerk->Release(r.parent.lock_id());
  return st;
}

Status Pxfs::UnlinkLocked(const Resolved& r) {
  LockClerk* clerk = fs_->clerk();
  if (r.target.type() == ObjType::kMFile) {
    // Request the victim's file lock: any other client holding it with the
    // file open will notify the TFS while releasing, so reclamation is
    // deferred (paper §6.1 "File sharing").
    std::vector<LockId> chain = r.ancestors;
    chain.push_back(r.parent.lock_id());
    AERIE_RETURN_IF_ERROR(
        clerk->Acquire(r.target.lock_id(), LockMode::kExclusive, chain));
    clerk->Release(r.target.lock_id());

    // If this client has it open itself, notify directly.
    bool open_here = false;
    {
      std::lock_guard lock(fds_mu_);
      open_here = open_counts_.count(r.target.raw()) != 0 &&
                  notified_open_.count(r.target.raw()) == 0;
      if (open_here) {
        notified_open_.insert(r.target.raw());
      }
    }
    if (open_here) {
      AERIE_RETURN_IF_ERROR(fs_->NotifyOpen(r.target));
    }
  }
  MetaOp op;
  op.type = MetaOpType::kUnlink;
  op.authority = clerk->GlobalAuthorityOf(r.parent.lock_id());
  op.dir = r.parent;
  op.name = r.leaf;
  AERIE_RETURN_IF_ERROR(fs_->LogOp(std::move(op)));
  OverlayRemove(r.parent, r.leaf);
  // The object may be reclaimed at apply and its offset recycled into a
  // fresh pool object; a lingering map keyed by that offset must not alias
  // the new file.
  fs_->InvalidateDirect(r.target);
  return OkStatus();
}

Status Pxfs::Unlink(std::string_view path) {
  AERIE_SPAN("pxfs", "unlink");
  std::string key;
  AERIE_ASSIGN_OR_RETURN(Resolved r,
                         Resolve(path, /*fill_cache=*/false, &key));
  if (r.target.IsNull()) {
    return Status(ErrorCode::kNotFound, std::string(path));
  }
  if (r.target.type() != ObjType::kMFile) {
    return Status(ErrorCode::kIsDirectory, std::string(path));
  }
  LockClerk* clerk = fs_->clerk();
  AERIE_RETURN_IF_ERROR(
      clerk->Acquire(r.parent.lock_id(), DirWriteMode(), r.ancestors));
  Status st = UnlinkLocked(r);
  clerk->Release(r.parent.lock_id());
  if (st.ok()) {
    if (key.empty()) {
      FlushNameCache();  // relative to a cwd whose path is unknown
    } else {
      CacheErase(key);
    }
  }
  return st;
}

Status Pxfs::Rmdir(std::string_view path) {
  AERIE_SPAN("pxfs", "rmdir");
  AERIE_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*fill_cache=*/false));
  if (r.target.IsNull()) {
    return Status(ErrorCode::kNotFound, std::string(path));
  }
  if (r.target.type() != ObjType::kCollection) {
    return Status(ErrorCode::kNotDirectory, std::string(path));
  }
  LockClerk* clerk = fs_->clerk();
  AERIE_RETURN_IF_ERROR(
      clerk->Acquire(r.parent.lock_id(), DirWriteMode(), r.ancestors));
  Status st = OkStatus();
  // Client-side emptiness check against SCM plus this client's pending
  // overlay (the server re-validates against applied state at ship time).
  bool empty = true;
  {
    std::vector<std::string> applied;
    auto coll = Collection::Open(ctx_, r.target);
    if (coll.ok()) {
      (void)coll->Scan([&](std::string_view name, uint64_t) {
        applied.emplace_back(name);
        return true;
      });
    }
    std::lock_guard lock(overlay_mu_);
    auto it = overlay_.find(r.target.raw());
    if (it != overlay_.end() && !it->second.added.empty()) {
      empty = false;
    }
    for (const std::string& name : applied) {
      if (it == overlay_.end() || it->second.removed.count(name) == 0) {
        empty = false;
        break;
      }
    }
  }
  if (!empty) {
    st = Status(ErrorCode::kNotEmpty, std::string(path));
  } else {
    st = UnlinkLocked(r);
  }
  clerk->Release(r.parent.lock_id());
  if (st.ok()) {
    FlushNameCache();  // descendant paths are gone
  }
  return st;
}

Status Pxfs::Rename(std::string_view from, std::string_view to) {
  AERIE_SPAN("pxfs", "rename");
  std::string src_key;
  std::string dst_key;
  AERIE_ASSIGN_OR_RETURN(Resolved src,
                         Resolve(from, /*fill_cache=*/false, &src_key));
  AERIE_ASSIGN_OR_RETURN(Resolved dst,
                         Resolve(to, /*fill_cache=*/false, &dst_key));
  if (src.target.IsNull()) {
    return Status(ErrorCode::kNotFound, std::string(from));
  }
  if (src.target == dst.target && src.parent == dst.parent &&
      src.leaf == dst.leaf) {
    return OkStatus();  // POSIX: renaming a file onto itself does nothing
  }
  LockClerk* clerk = fs_->clerk();

  // Lock both directories in lock-id order (paper §6.1: both locks taken
  // before the operation; ordering prevents deadlock).
  const LockId a = std::min(src.parent.lock_id(), dst.parent.lock_id());
  const LockId b = std::max(src.parent.lock_id(), dst.parent.lock_id());
  const std::vector<LockId>& a_anc =
      a == src.parent.lock_id() ? src.ancestors : dst.ancestors;
  const std::vector<LockId>& b_anc =
      b == src.parent.lock_id() ? src.ancestors : dst.ancestors;
  AERIE_RETURN_IF_ERROR(clerk->Acquire(a, DirWriteMode(), a_anc));
  if (b != a) {
    Status st = clerk->Acquire(b, DirWriteMode(), b_anc);
    if (!st.ok()) {
      clerk->Release(a);
      return st;
    }
  }

  if (!dst.target.IsNull() && dst.target.type() == ObjType::kMFile) {
    std::vector<LockId> chain = dst.ancestors;
    chain.push_back(dst.parent.lock_id());
    Status vst =
        clerk->Acquire(dst.target.lock_id(), LockMode::kExclusive, chain);
    if (vst.ok()) {
      clerk->Release(dst.target.lock_id());
    }
  }

  MetaOp op;
  op.type = MetaOpType::kRename;
  op.authority = clerk->GlobalAuthorityOf(src.parent.lock_id());
  op.dir = src.parent;
  op.name = src.leaf;
  op.dir2 = dst.parent;
  op.name2 = dst.leaf;
  Status st = fs_->LogOp(std::move(op));
  if (st.ok()) {
    OverlayRemove(src.parent, src.leaf);
    OverlayAdd(dst.parent, dst.leaf, src.target);
    if (!dst.target.IsNull() && dst.target.type() == ObjType::kMFile) {
      // The replaced destination may be destroyed at apply; its offset must
      // not alias a future pool object through a stale direct map.
      fs_->InvalidateDirect(dst.target);
    }
  }
  if (b != a) {
    clerk->Release(b);
  }
  clerk->Release(a);

  if (st.ok()) {
    if (src.target.type() == ObjType::kCollection) {
      FlushNameCache();  // all descendant paths moved
      ForgetCwdPath();   // the cwd may be one of them
    } else if (src_key.empty() || dst_key.empty()) {
      FlushNameCache();  // relative to a cwd whose path is unknown
    } else {
      CacheErase(src_key);
      CacheErase(dst_key);
    }
  }
  return st;
}

Status Pxfs::Link(std::string_view from, std::string_view to) {
  AERIE_SPAN("pxfs", "link");
  AERIE_ASSIGN_OR_RETURN(Resolved src, Resolve(from, /*fill_cache=*/false));
  AERIE_ASSIGN_OR_RETURN(Resolved dst, Resolve(to, /*fill_cache=*/false));
  if (src.target.IsNull()) {
    return Status(ErrorCode::kNotFound, std::string(from));
  }
  if (src.target.type() != ObjType::kMFile) {
    return Status(ErrorCode::kIsDirectory, "cannot hard-link a directory");
  }
  if (!dst.target.IsNull()) {
    return Status(ErrorCode::kAlreadyExists, std::string(to));
  }
  LockClerk* clerk = fs_->clerk();
  AERIE_RETURN_IF_ERROR(
      clerk->Acquire(dst.parent.lock_id(), DirWriteMode(), dst.ancestors));
  MetaOp op;
  op.type = MetaOpType::kLink;
  op.authority = clerk->GlobalAuthorityOf(dst.parent.lock_id());
  op.dir = dst.parent;
  op.name = dst.leaf;
  op.obj = src.target;
  Status st = fs_->LogOp(std::move(op));
  if (st.ok()) {
    OverlayAdd(dst.parent, dst.leaf, src.target);
  }
  clerk->Release(dst.parent.lock_id());
  return st;
}

Result<PxfsStat> Pxfs::Stat(std::string_view path) {
  AERIE_SPAN("pxfs", "stat");
  AERIE_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*fill_cache=*/true));
  if (r.target.IsNull()) {
    return Status(ErrorCode::kNotFound, std::string(path));
  }
  LockClerk* clerk = fs_->clerk();
  std::vector<LockId> chain = r.ancestors;
  if (!(r.target == fs_->pxfs_root())) {
    chain.push_back(r.parent.lock_id());
  }
  AERIE_RETURN_IF_ERROR(
      clerk->Acquire(r.target.lock_id(), LockMode::kShared, chain));
  PxfsStat st;
  st.oid = r.target;
  Status result = OkStatus();
  if (r.target.type() == ObjType::kCollection) {
    auto coll = Collection::Open(ctx_, r.target);
    if (coll.ok()) {
      st.is_dir = true;
      st.size = coll->size();
      st.link_count = coll->link_count();
      st.acl = coll->acl();
    } else {
      result = coll.status();
    }
  } else {
    auto mfile = MFile::Open(ctx_, r.target);
    if (mfile.ok()) {
      st.is_dir = false;
      st.size = FileSize(r.target);
      st.link_count = mfile->link_count();
      st.acl = mfile->acl();
      if (st.link_count == 0) {
        // Batched create not yet applied: the overlay binding counts as the
        // first link.
        std::lock_guard lock(overlay_mu_);
        auto it = overlay_.find(r.parent.raw());
        if (it != overlay_.end()) {
          auto added = it->second.added.find(r.leaf);
          if (added != it->second.added.end() &&
              added->second == r.target.raw()) {
            st.link_count = 1;
          }
        }
      }
    } else {
      result = mfile.status();
    }
  }
  clerk->Release(r.target.lock_id());
  if (!result.ok()) {
    return result;
  }
  return st;
}

Result<std::vector<PxfsDirent>> Pxfs::ReadDir(std::string_view path) {
  AERIE_SPAN("pxfs", "readdir");
  AERIE_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*fill_cache=*/true));
  if (r.target.IsNull()) {
    return Status(ErrorCode::kNotFound, std::string(path));
  }
  if (r.target.type() != ObjType::kCollection) {
    return Status(ErrorCode::kNotDirectory, std::string(path));
  }
  LockClerk* clerk = fs_->clerk();
  std::vector<LockId> chain = r.ancestors;
  if (!(r.target == fs_->pxfs_root())) {
    chain.push_back(r.parent.lock_id());
  }
  AERIE_RETURN_IF_ERROR(
      clerk->Acquire(r.target.lock_id(), LockMode::kShared, chain));

  std::map<std::string, uint64_t> names;
  Status scan_status = OkStatus();
  {
    auto coll = Collection::Open(ctx_, r.target);
    if (coll.ok()) {
      scan_status = coll->Scan([&](std::string_view name, uint64_t value) {
        names[std::string(name)] = value;
        return true;
      });
    } else {
      scan_status = coll.status();
    }
  }
  clerk->Release(r.target.lock_id());
  AERIE_RETURN_IF_ERROR(scan_status);

  {
    std::lock_guard lock(overlay_mu_);
    auto it = overlay_.find(r.target.raw());
    if (it != overlay_.end()) {
      for (const auto& [name, oid] : it->second.added) {
        names[name] = oid;
      }
      for (const auto& name : it->second.removed) {
        names.erase(name);
      }
    }
  }

  std::vector<PxfsDirent> out;
  out.reserve(names.size());
  for (const auto& [name, raw] : names) {
    Oid oid(raw);
    out.push_back({name, oid, oid.type() == ObjType::kCollection});
  }
  return out;
}

Status Pxfs::Chmod(std::string_view path, uint32_t acl) {
  AERIE_SPAN("pxfs", "chmod");
  AERIE_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*fill_cache=*/false));
  if (r.target.IsNull()) {
    return Status(ErrorCode::kNotFound, std::string(path));
  }
  LockClerk* clerk = fs_->clerk();
  std::vector<LockId> chain = r.ancestors;
  chain.push_back(r.parent.lock_id());
  AERIE_RETURN_IF_ERROR(
      clerk->Acquire(r.target.lock_id(), LockMode::kExclusive, chain));
  MetaOp op;
  op.type = MetaOpType::kSetAcl;
  op.authority = clerk->GlobalAuthorityOf(r.target.lock_id());
  op.obj = r.target;
  op.a = acl;
  Status st = fs_->LogOp(std::move(op));
  if (st.ok()) {
    // Permission changes apply synchronously (paper §6.1): the memory
    // protection update must not linger in the batch.
    st = fs_->Sync();
  }
  clerk->Release(r.target.lock_id());
  return st;
}

Status Pxfs::Truncate(std::string_view path, uint64_t size) {
  AERIE_SPAN("pxfs", "truncate");
  AERIE_ASSIGN_OR_RETURN(int fd, Open(path, kOpenWrite));
  Status st = Ftruncate(fd, size);
  Status close_st = Close(fd);
  return st.ok() ? close_st : st;
}

Status Pxfs::SetCwd(std::string_view path) {
  std::string key;
  AERIE_ASSIGN_OR_RETURN(Resolved r,
                         Resolve(path, /*fill_cache=*/false, &key));
  if (r.target.IsNull()) {
    return Status(ErrorCode::kNotFound, std::string(path));
  }
  if (r.target.type() != ObjType::kCollection) {
    return Status(ErrorCode::kNotDirectory, std::string(path));
  }
  std::lock_guard lock(cwd_mu_);
  cwd_oid_ = r.target;
  cwd_ancestors_ = r.ancestors;
  if (!(r.target == r.parent)) {
    cwd_ancestors_.push_back(r.parent.lock_id());
  }
  cwd_path_ = std::move(key);
  return OkStatus();
}

std::string Pxfs::cwd() const {
  std::lock_guard lock(cwd_mu_);
  return cwd_path_;
}

Status Pxfs::SyncAll() {
  AERIE_SPAN("pxfs", "sync_all");
  ctx_.region->BFlush();
  return fs_->Sync();
}

}  // namespace aerie
