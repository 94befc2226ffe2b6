#include "src/tfs/service.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/obs/trace.h"
#include "src/scm/crash_sim.h"

namespace aerie {

namespace {

// 8-byte binary key for the oid-keyed orphan table.
std::string OidKey(Oid oid) {
  const uint64_t raw = oid.raw();
  return std::string(reinterpret_cast<const char*>(&raw), sizeof(raw));
}

uint64_t PagesFor(uint64_t bytes) {
  return (bytes + kScmPageSize - 1) / kScmPageSize;
}

constexpr uint64_t kMaxFileBytes = 1ull << 46;
constexpr uint64_t kMaxFilePages = kMaxFileBytes / kScmPageSize;

// Extent-pool fills hand out pages in blocks of 2^kExtentRunOrder pages
// (32: the mean file of the Filebench fileserver personality), so a client
// can attach a whole run with one op.
constexpr int kExtentRunOrder = 5;

}  // namespace

TrustedFsService::TrustedFsService(Volume* volume, LockService* locks,
                                   ScmManager* scm)
    : volume_(volume),
      locks_(locks),
      scm_(scm),
      ctx_(volume->context()) {
  obs_registration_.AddAll(batches_applied_, ops_applied_, ops_rejected_,
                           attach_pages_, pool_objects_);
  for (uint32_t t = 0; t < kMetaOpTypeCount; ++t) {
    ops_applied_by_type_[t] = std::make_unique<obs::Counter>(
        std::string("tfs.ops.applied.") +
        OpTypeName(static_cast<MetaOpType>(t)));
    obs_registration_.Add(ops_applied_by_type_[t].get());
  }
  AERIE_CHECK(ctx_.can_allocate());
  if (!volume_->root_oid().IsNull()) {
    // Existing volume: load system collection.
    auto sys = Collection::Open(ctx_, volume_->root_oid());
    if (sys.ok()) {
      auto get = [&](const char* key) {
        auto v = sys->Lookup(key);
        return v.ok() ? Oid(*v) : Oid();
      };
      roots_.pxfs_root = get("root");
      roots_.flat_root = get("flat");
      orphans_oid_ = get("orphans");
      if (auto map = PoolMap::Open(ctx_, get("pool_map")); map.ok()) {
        pool_map_ = *map;
        pool_map_.ForEach([this](Oid) { pool_marked_++; });  // until Recover
      }
    }
  }
}

Status TrustedFsService::Bootstrap() {
  AERIE_SPAN("tfs", "bootstrap");
  if (!volume_->root_oid().IsNull()) {
    return OkStatus();
  }
  AERIE_ASSIGN_OR_RETURN(Collection sys, Collection::Create(ctx_, 0));
  AERIE_ASSIGN_OR_RETURN(Collection root, Collection::Create(ctx_, 0));
  AERIE_ASSIGN_OR_RETURN(Collection flat, Collection::Create(ctx_, 0));
  AERIE_ASSIGN_OR_RETURN(Collection orphans, Collection::Create(ctx_, 0));
  AERIE_ASSIGN_OR_RETURN(PoolMap pool_map, PoolMap::Create(ctx_));
  root.SetParentOid(root.oid());  // "/.." == "/"
  root.SetLinkCount(1);
  flat.SetLinkCount(1);
  AERIE_RETURN_IF_ERROR(sys.Insert("root", root.oid().raw()));
  AERIE_RETURN_IF_ERROR(sys.Insert("flat", flat.oid().raw()));
  AERIE_RETURN_IF_ERROR(sys.Insert("orphans", orphans.oid().raw()));
  AERIE_RETURN_IF_ERROR(sys.Insert("pool_map", pool_map.oid().raw()));
  volume_->SetRootOid(sys.oid());
  roots_.pxfs_root = root.oid();
  roots_.flat_root = flat.oid();
  orphans_oid_ = orphans.oid();
  pool_map_ = pool_map;
  return OkStatus();
}

// --- Lock / lease checks -----------------------------------------------

Status TrustedFsService::HoldsWriteLock(uint64_t client_id,
                                        LockId object_lock,
                                        uint64_t authority) const {
  if (!locks_->LeaseValid(client_id)) {
    return Status(ErrorCode::kLockRevoked, "client lease expired");
  }
  const LockMode held = locks_->HeldMode(client_id, authority);
  if (held == LockMode::kExclusiveHier) {
    return OkStatus();  // hierarchical write authority claimed over object
  }
  if (held == LockMode::kExclusive && authority == object_lock) {
    return OkStatus();
  }
  // The object's own lock in a write mode is always sufficient authority.
  // This also absorbs a benign race with de-escalation: an op may cite a
  // hierarchical ancestor that was downgraded after logging, but the clerk
  // escalates in-use descendants to explicit locks first, so by ship time
  // the client holds the object's own exclusive lock.
  const LockMode held_obj = locks_->HeldMode(client_id, object_lock);
  if (held_obj == LockMode::kExclusive ||
      held_obj == LockMode::kExclusiveHier) {
    return OkStatus();
  }
  return Status(ErrorCode::kPermissionDenied,
                "client does not hold a covering write lock");
}

// --- Validation ---------------------------------------------------------

Status TrustedFsService::Validate(uint64_t client_id, MetaOp* op) {
  auto bad = [](const char* msg) {
    return Status(ErrorCode::kInvalidArgument, msg);
  };
  auto open_dir = [&](Oid oid) { return Collection::Open(ctx_, oid); };
  auto open_file = [&](Oid oid) { return MFile::Open(ctx_, oid); };

  switch (op->type) {
    case MetaOpType::kCreateFile:
    case MetaOpType::kCreateDir: {
      if (op->name.empty() || op->name.size() > Collection::kMaxKeyLen) {
        return bad("bad name");
      }
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->dir.lock_id(), op->authority));
      AERIE_ASSIGN_OR_RETURN(Collection dir, open_dir(op->dir));
      if (dir.Lookup(op->name).ok()) {
        return Status(ErrorCode::kAlreadyExists, "name exists");
      }
      const ObjType want = op->type == MetaOpType::kCreateFile
                               ? ObjType::kMFile
                               : ObjType::kCollection;
      if (op->obj.type() != want || !PoolContains(client_id, op->obj)) {
        return Status(ErrorCode::kPermissionDenied,
                      "object not in client pool");
      }
      op->obj_links = 1;
      return OkStatus();
    }

    case MetaOpType::kLink: {
      if (op->name.empty() || op->name.size() > Collection::kMaxKeyLen) {
        return bad("bad name");
      }
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->dir.lock_id(), op->authority));
      AERIE_ASSIGN_OR_RETURN(Collection dir, open_dir(op->dir));
      if (dir.Lookup(op->name).ok()) {
        return Status(ErrorCode::kAlreadyExists, "name exists");
      }
      if (op->obj.type() != ObjType::kMFile) {
        return bad("hard links to directories are not allowed");
      }
      AERIE_ASSIGN_OR_RETURN(MFile file, open_file(op->obj));
      op->obj_links = file.link_count() + 1;
      return OkStatus();
    }

    case MetaOpType::kUnlink: {
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->dir.lock_id(), op->authority));
      AERIE_ASSIGN_OR_RETURN(Collection dir, open_dir(op->dir));
      auto found = dir.Lookup(op->name);
      if (!found.ok()) {
        return found.status();
      }
      op->victim = Oid(*found);
      if (op->victim.type() == ObjType::kCollection) {
        AERIE_ASSIGN_OR_RETURN(Collection victim, open_dir(op->victim));
        if (victim.size() != 0) {
          return Status(ErrorCode::kNotEmpty, "directory not empty");
        }
        op->victim_is_dir = 1;
        op->victim_links = 0;
        op->victim_free = 1;
      } else {
        AERIE_ASSIGN_OR_RETURN(MFile victim, open_file(op->victim));
        const uint64_t links = victim.link_count();
        op->victim_links = links > 0 ? links - 1 : 0;
        op->victim_free =
            (op->victim_links == 0 && OpenCount(op->victim) == 0) ? 1 : 0;
      }
      return OkStatus();
    }

    case MetaOpType::kRename: {
      if (op->name2.empty() || op->name2.size() > Collection::kMaxKeyLen) {
        return bad("bad destination name");
      }
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->dir.lock_id(), op->authority));
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->dir2.lock_id(), op->authority));
      AERIE_ASSIGN_OR_RETURN(Collection src, open_dir(op->dir));
      AERIE_ASSIGN_OR_RETURN(Collection dst, open_dir(op->dir2));
      auto found = src.Lookup(op->name);
      if (!found.ok()) {
        return found.status();
      }
      op->obj = Oid(*found);

      if (op->obj.type() == ObjType::kCollection) {
        // No cycles: the destination must not be inside the moved subtree
        // (paper §5.3.5's canonical invariant example).
        Oid walk = op->dir2;
        for (int depth = 0; depth < 4096; ++depth) {
          if (walk == op->obj) {
            return bad("rename would create a namespace cycle");
          }
          AERIE_ASSIGN_OR_RETURN(Collection c, open_dir(walk));
          const Oid parent = c.parent_oid();
          if (parent == walk || parent.IsNull()) {
            break;
          }
          walk = parent;
        }
      }

      auto existing = dst.Lookup(op->name2);
      if (existing.ok()) {
        op->victim = Oid(*existing);
        if (op->victim == op->obj) {
          return bad("rename onto itself");
        }
        if (op->victim.type() == ObjType::kCollection) {
          AERIE_ASSIGN_OR_RETURN(Collection victim, open_dir(op->victim));
          if (victim.size() != 0) {
            return Status(ErrorCode::kNotEmpty, "destination not empty");
          }
          op->victim_is_dir = 1;
          op->victim_free = 1;
        } else {
          AERIE_ASSIGN_OR_RETURN(MFile victim, open_file(op->victim));
          const uint64_t links = victim.link_count();
          op->victim_links = links > 0 ? links - 1 : 0;
          op->victim_free =
              (op->victim_links == 0 && OpenCount(op->victim) == 0) ? 1 : 0;
        }
      }
      return OkStatus();
    }

    case MetaOpType::kAttachExtent: {
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->obj.lock_id(), op->authority));
      AERIE_ASSIGN_OR_RETURN(MFile file, open_file(op->obj));
      if (file.single_extent()) {
        return bad("cannot attach to single-extent file");
      }
      if (op->pages == 0 || op->pages > kMaxFilePages ||
          op->a > kMaxFilePages - op->pages) {
        return bad("page range out of range");
      }
      return PoolHoldsRun(client_id, op->b, op->pages);
    }

    case MetaOpType::kSetSize:
    case MetaOpType::kTruncate: {
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->obj.lock_id(), op->authority));
      AERIE_ASSIGN_OR_RETURN(MFile file, open_file(op->obj));
      if (op->a > kMaxFileBytes) {
        return bad("size out of range");
      }
      if (file.single_extent() && op->a > file.capacity()) {
        return Status(ErrorCode::kOutOfSpace, "beyond fixed capacity");
      }
      return OkStatus();
    }

    case MetaOpType::kSetAcl: {
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->obj.lock_id(), op->authority));
      if (op->obj.type() == ObjType::kMFile) {
        return open_file(op->obj).status();
      }
      return open_dir(op->obj).status();
    }

    case MetaOpType::kFlatPut: {
      if (op->name.empty() || op->name.size() > Collection::kMaxKeyLen) {
        return bad("bad key");
      }
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->authority, op->authority));
      AERIE_ASSIGN_OR_RETURN(Collection coll, open_dir(op->dir));
      if (op->obj.type() != ObjType::kMFile ||
          !PoolContains(client_id, op->obj)) {
        return Status(ErrorCode::kPermissionDenied,
                      "object not in client pool");
      }
      AERIE_ASSIGN_OR_RETURN(MFile file, open_file(op->obj));
      if (!file.single_extent() || op->a > file.capacity()) {
        return bad("bad flat file");
      }
      auto existing = coll.Lookup(op->name);
      if (existing.ok()) {
        op->victim = Oid(*existing);
        op->victim_free = OpenCount(op->victim) == 0 ? 1 : 0;
      }
      op->obj_links = 1;
      return OkStatus();
    }

    case MetaOpType::kFlatErase: {
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->authority, op->authority));
      AERIE_ASSIGN_OR_RETURN(Collection coll, open_dir(op->dir));
      auto existing = coll.Lookup(op->name);
      if (!existing.ok()) {
        return existing.status();
      }
      op->victim = Oid(*existing);
      op->victim_free = OpenCount(op->victim) == 0 ? 1 : 0;
      return OkStatus();
    }

    case MetaOpType::kNone:
      break;
  }
  return bad("unknown op type");
}

// --- Apply ---------------------------------------------------------------

Status TrustedFsService::Apply(const MetaOp& op, bool replay) {
  // Already-applied effects surface as kAlreadyExists / kNotFound during
  // replay; those are successes for an idempotent redo log.
  auto tolerate = [&](Status st, ErrorCode benign) {
    if (replay && st.code() == benign) {
      return OkStatus();
    }
    return st;
  };

  switch (op.type) {
    case MetaOpType::kCreateFile: {
      AERIE_ASSIGN_OR_RETURN(Collection dir, Collection::Open(ctx_, op.dir));
      AERIE_RETURN_IF_ERROR(tolerate(dir.Insert(op.name, op.obj.raw()),
                                     ErrorCode::kAlreadyExists));
      AERIE_ASSIGN_OR_RETURN(MFile file, MFile::Open(ctx_, op.obj));
      file.SetLinkCount(op.obj_links);
      return OkStatus();
    }

    case MetaOpType::kCreateDir: {
      AERIE_ASSIGN_OR_RETURN(Collection dir, Collection::Open(ctx_, op.dir));
      AERIE_RETURN_IF_ERROR(tolerate(dir.Insert(op.name, op.obj.raw()),
                                     ErrorCode::kAlreadyExists));
      AERIE_ASSIGN_OR_RETURN(Collection child,
                             Collection::Open(ctx_, op.obj));
      child.SetParentOid(op.dir);
      child.SetLinkCount(op.obj_links);
      return OkStatus();
    }

    case MetaOpType::kLink: {
      AERIE_ASSIGN_OR_RETURN(Collection dir, Collection::Open(ctx_, op.dir));
      AERIE_RETURN_IF_ERROR(tolerate(dir.Insert(op.name, op.obj.raw()),
                                     ErrorCode::kAlreadyExists));
      AERIE_ASSIGN_OR_RETURN(MFile file, MFile::Open(ctx_, op.obj));
      file.SetLinkCount(op.obj_links);
      return OkStatus();
    }

    case MetaOpType::kUnlink: {
      AERIE_ASSIGN_OR_RETURN(Collection dir, Collection::Open(ctx_, op.dir));
      AERIE_RETURN_IF_ERROR(
          tolerate(dir.Erase(op.name), ErrorCode::kNotFound));
      if (op.victim_is_dir) {
        auto victim = Collection::Open(ctx_, op.victim);
        if (victim.ok()) {
          AERIE_RETURN_IF_ERROR(victim->Destroy());
        }
        return OkStatus();
      }
      auto victim = MFile::Open(ctx_, op.victim);
      if (!victim.ok()) {
        return replay ? OkStatus() : victim.status();
      }
      victim->SetLinkCount(op.victim_links);
      if (op.victim_free) {
        return victim->Destroy();
      }
      if (op.victim_links == 0) {
        return OrphanAdd(op.victim);  // unlinked while open (§6.1)
      }
      return OkStatus();
    }

    case MetaOpType::kRename: {
      AERIE_ASSIGN_OR_RETURN(Collection src, Collection::Open(ctx_, op.dir));
      AERIE_ASSIGN_OR_RETURN(Collection dst,
                             Collection::Open(ctx_, op.dir2));
      AERIE_RETURN_IF_ERROR(
          tolerate(src.Erase(op.name), ErrorCode::kNotFound));
      if (!op.victim.IsNull()) {
        AERIE_RETURN_IF_ERROR(
            tolerate(dst.Erase(op.name2), ErrorCode::kNotFound));
        if (op.victim_is_dir) {
          auto victim = Collection::Open(ctx_, op.victim);
          if (victim.ok()) {
            AERIE_RETURN_IF_ERROR(victim->Destroy());
          }
        } else {
          auto victim = MFile::Open(ctx_, op.victim);
          if (victim.ok()) {
            victim->SetLinkCount(op.victim_links);
            if (op.victim_free) {
              AERIE_RETURN_IF_ERROR(victim->Destroy());
            } else if (op.victim_links == 0) {
              AERIE_RETURN_IF_ERROR(OrphanAdd(op.victim));
            }
          }
        }
      }
      AERIE_RETURN_IF_ERROR(tolerate(dst.Insert(op.name2, op.obj.raw()),
                                     ErrorCode::kAlreadyExists));
      if (op.obj.type() == ObjType::kCollection) {
        AERIE_ASSIGN_OR_RETURN(Collection moved,
                               Collection::Open(ctx_, op.obj));
        moved.SetParentOid(op.dir2);
      }
      return OkStatus();
    }

    case MetaOpType::kAttachExtent: {
      AERIE_ASSIGN_OR_RETURN(MFile file, MFile::Open(ctx_, op.obj));
      return tolerate(file.AttachRun(op.a, op.b, op.pages),
                      ErrorCode::kAlreadyExists);
    }

    case MetaOpType::kSetSize: {
      AERIE_ASSIGN_OR_RETURN(MFile file, MFile::Open(ctx_, op.obj));
      return file.SetSize(op.a);
    }

    case MetaOpType::kTruncate: {
      AERIE_ASSIGN_OR_RETURN(MFile file, MFile::Open(ctx_, op.obj));
      return file.Truncate(op.a);
    }

    case MetaOpType::kSetAcl: {
      const uint32_t acl = static_cast<uint32_t>(op.a);
      if (op.obj.type() == ObjType::kMFile) {
        AERIE_ASSIGN_OR_RETURN(MFile file, MFile::Open(ctx_, op.obj));
        file.SetAcl(acl);
        if (scm_ != nullptr) {
          // Propagate protection to every extent of the object (paper
          // §5.3.3): hardware (soft page table) rights must match.
          (void)file.ForEachExtent([&](uint64_t, uint64_t extent) {
            if (!scm_->MprotectExtent(extent, acl).ok()) {
              (void)scm_->CreateExtent(extent, kScmPageSize, acl);
            }
            return true;
          });
        }
      } else {
        AERIE_ASSIGN_OR_RETURN(Collection dir,
                               Collection::Open(ctx_, op.obj));
        dir.SetAcl(acl);
      }
      return OkStatus();
    }

    case MetaOpType::kFlatPut: {
      AERIE_ASSIGN_OR_RETURN(Collection coll, Collection::Open(ctx_, op.dir));
      if (!op.victim.IsNull() && op.victim != op.obj) {
        AERIE_RETURN_IF_ERROR(
            tolerate(coll.Erase(op.name), ErrorCode::kNotFound));
        auto victim = MFile::Open(ctx_, op.victim);
        if (victim.ok() && op.victim_free) {
          AERIE_RETURN_IF_ERROR(victim->Destroy());
        } else if (victim.ok()) {
          victim->SetLinkCount(0);
          AERIE_RETURN_IF_ERROR(OrphanAdd(op.victim));
        }
      }
      AERIE_RETURN_IF_ERROR(tolerate(coll.Insert(op.name, op.obj.raw()),
                                     ErrorCode::kAlreadyExists));
      AERIE_ASSIGN_OR_RETURN(MFile file, MFile::Open(ctx_, op.obj));
      AERIE_RETURN_IF_ERROR(file.SetSize(op.a));
      file.SetLinkCount(op.obj_links);
      return OkStatus();
    }

    case MetaOpType::kFlatErase: {
      AERIE_ASSIGN_OR_RETURN(Collection coll, Collection::Open(ctx_, op.dir));
      AERIE_RETURN_IF_ERROR(
          tolerate(coll.Erase(op.name), ErrorCode::kNotFound));
      auto victim = MFile::Open(ctx_, op.victim);
      if (victim.ok()) {
        victim->SetLinkCount(0);
        if (op.victim_free) {
          return victim->Destroy();
        }
        return OrphanAdd(op.victim);
      }
      return OkStatus();
    }

    case MetaOpType::kNone:
      break;
  }
  return Status(ErrorCode::kInvalidArgument, "unknown op type");
}

// --- Batch pipeline ------------------------------------------------------

Status TrustedFsService::ApplyBatch(uint64_t client_id,
                                    std::string_view batch_blob) {
  AERIE_SPAN("tfs", "apply_batch");
  // Any RPC from a live client proves it hasn't failed, so renew its lease —
  // exactly as Acquire/Release do. Without this, a client working entirely
  // out of its lock cache (no lock RPCs, hence no implicit renewals) could
  // ship a batch moments after a renewal stall lapsed the lease and have
  // every op rejected by HoldsWriteLock's LeaseValid check even though the
  // locks were never granted elsewhere. A client whose locks genuinely moved
  // on still fails the per-op HeldMode checks below.
  (void)locks_->Renew(client_id);
  auto ops = DecodeBatch(batch_blob);
  if (!ops.ok()) {
    ops_rejected_.Add(1);
    return ops.status();
  }
  obs::TraceInstant("tfs.apply_batch.ops", ops->size());

  // Each op is validated against the *current* state (so later ops in a
  // batch see the effects of earlier ones), WAL-logged, committed, then
  // applied in place (paper §5.3.6: log, flush, fence, then mutate). A
  // validation failure rejects the remainder of the batch; prior ops stand,
  // matching the paper's "individual metadata updates" semantics. Pooled
  // objects the committed ops link are retired from the pool map once per
  // batch, before it stops counting as in flight: until then no checkpoint
  // can truncate the records whose replay re-clears them.
  RedoLog* log = volume_->log();
  {
    std::lock_guard lock(log_mu_);
    applies_in_flight_++;
  }
  std::vector<Oid> consumed;
  Status result = OkStatus();
  for (MetaOp& op : *ops) {
    Status st = Validate(client_id, &op);
    if (!st.ok()) {
      ops_rejected_.Add(1);
      result = st;
      break;
    }
    {
      std::unique_lock lock(log_mu_);
      WireBuffer rec;
      rec.AppendU64(client_id);
      op.Encode(&rec);
      st = log->Append(static_cast<uint32_t>(op.type), rec.data());
      if (st.code() == ErrorCode::kOutOfSpace) {
        // Log full: leave the in-flight count (retiring first, as at batch
        // end) and checkpoint once no batch is mid-apply.
        log->Rollback();
        RetirePooled(&consumed);
        if (--applies_in_flight_ == 0) {
          log_idle_.notify_all();
        }
        log_idle_.wait(lock, [this] { return applies_in_flight_ == 0; });
        log->Truncate();
        ctx_.region->CrashPoint("tfs.checkpoint");
        applies_in_flight_++;
        st = log->Append(static_cast<uint32_t>(op.type), rec.data());
      }
      if (st.ok()) {
        st = log->Commit();
      }
      if (!st.ok()) {
        log->Rollback();
        result = st;
      }
    }
    if (!result.ok()) {
      break;
    }
    if (crash_after_log_commit_) {
      // Simulated crash: the commit is durable, the apply never happens.
      std::lock_guard lock(log_mu_);
      if (--applies_in_flight_ == 0) {
        log_idle_.notify_all();
      }
      return Status(ErrorCode::kUnavailable,
                    "injected crash after WAL commit");
    }
    Consume(op, &consumed);
    st = Apply(op, /*replay=*/false);
    if (!st.ok()) {
      result = st;  // validated ops should not fail; surface and continue
    }
    ops_applied_.Add(1);
    ops_applied_by_type_[static_cast<uint32_t>(op.type)]->Add(1);
    if (op.type == MetaOpType::kAttachExtent) {
      attach_pages_.Add(op.pages);
    }
    // Crash-sim interest point: the op is applied in place but the log
    // still holds its committed record (replay must be idempotent here).
    ctx_.region->CrashPoint("tfs.apply");
  }
  RetirePooled(&consumed);

  // Checkpoint: drop the log once no batch is mid-apply.
  {
    std::lock_guard lock(log_mu_);
    if (--applies_in_flight_ == 0) {
      log->Truncate();
      ctx_.region->CrashPoint("tfs.checkpoint");
      log_idle_.notify_all();
    }
  }
  batches_applied_.Add(1);
  return result;
}

Status TrustedFsService::Recover() {
  AERIE_SPAN("tfs", "recover");
  RedoLog* log = volume_->log();
  std::vector<Oid> consumed;
  AERIE_RETURN_IF_ERROR(log->Replay(
      [&](uint32_t type, std::span<const char> payload) -> Status {
        // Applying is tfs work even though txlog.replay drives it.
        AERIE_SPAN("tfs", "replay_apply");
        WireReader reader(std::string_view(payload.data(), payload.size()));
        auto client = reader.ReadU64();
        if (!client.ok()) {
          return client.status();
        }
        auto op = MetaOp::Decode(&reader);
        if (!op.ok()) {
          return op.status();
        }
        if (static_cast<uint32_t>(op->type) != type) {
          return Status(ErrorCode::kCorrupted, "op type mismatch in log");
        }
        Consume(*op, &consumed);
        return Apply(*op, /*replay=*/true);
      }));
  RetirePooled(&consumed);
  log->Truncate();

  // Reclaim unlinked files with no remaining opener (all openers died with
  // the crash).
  auto orphans = Collection::Open(ctx_, orphans_oid_);
  if (orphans.ok()) {
    std::vector<Oid> dead;
    (void)orphans->Scan([&](std::string_view, uint64_t value) {
      dead.push_back(Oid(value));
      return true;
    });
    for (Oid oid : dead) {
      auto file = MFile::Open(ctx_, oid);
      if (file.ok()) {
        (void)file->Destroy();
      }
      (void)orphans->Erase(OidKey(oid));
    }
  }

  // Free every object still pooled: no client session survives a restart.
  std::vector<Oid> stale;
  pool_map_.ForEach([&](Oid oid) {
    FreePooled(oid);
    stale.push_back(oid);
  });
  RetirePooled(&stale);
  return OkStatus();
}

// --- Pools ---------------------------------------------------------------

Result<std::vector<Oid>> TrustedFsService::PoolFill(uint64_t client_id,
                                                    ObjType type,
                                                    uint32_t count,
                                                    uint64_t capacity) {
  AERIE_SPAN("tfs", "pool_fill");
  if (count == 0 || count > 65536) {
    return Status(ErrorCode::kInvalidArgument, "bad pool fill count");
  }
  std::vector<Oid> out;
  out.reserve(count);
  switch (type) {
    case ObjType::kMFile:
      for (uint32_t i = 0; i < count; ++i) {
        auto f = capacity == 0 ? MFile::Create(ctx_, 0)
                               : MFile::CreateSingleExtent(ctx_, 0, capacity);
        if (!f.ok()) {
          return f.status();
        }
        out.push_back(f->oid());
      }
      break;
    case ObjType::kCollection:
      for (uint32_t i = 0; i < count; ++i) {
        auto c = Collection::Create(ctx_, 0);
        if (!c.ok()) {
          return c.status();
        }
        out.push_back(c->oid());
      }
      break;
    case ObjType::kExtent: {
      // Pages in runs, with one bitmap flush per line range for the fill.
      std::vector<uint64_t> offsets;
      AERIE_RETURN_IF_ERROR(
          ctx_.alloc->AllocPages(count, kExtentRunOrder, &offsets));
      for (uint64_t offset : offsets) {
        out.push_back(Oid::Make(ObjType::kExtent, offset));
      }
      break;
    }
    default:
      return Status(ErrorCode::kInvalidArgument, "bad pool object type");
  }

  // Mark the fill in the pool map, durably before the reply hands it out.
  {
    std::lock_guard lock(alloc_mu_);
    for (Oid oid : out) {
      pool_marked_ += pool_map_.Set(oid, /*marked=*/true) ? 1 : 0;
      pooled_[oid.offset()] = Pooled{client_id, oid};
    }
    pool_objects_.Set(pool_marked_);
  }
  static const int kMarkSite = RegisterPersistSite("tfs.pool.mark.flush");
  pool_map_.Persist(out, kMarkSite);
  return out;
}

bool TrustedFsService::PoolContains(uint64_t client_id, Oid oid) {
  std::lock_guard lock(alloc_mu_);
  auto it = pooled_.find(oid.offset());
  return it != pooled_.end() && it->second.client_id == client_id &&
         it->second.oid == oid;
}

Status TrustedFsService::PoolHoldsRun(uint64_t client_id, uint64_t offset,
                                      uint64_t pages) {
  std::lock_guard lock(alloc_mu_);
  for (uint64_t i = 0; i < pages; ++i) {
    const Oid page = Oid::Make(ObjType::kExtent, offset + i * kScmPageSize);
    auto it = pooled_.find(page.offset());
    if (it == pooled_.end() || it->second.client_id != client_id ||
        it->second.oid != page) {
      return Status(ErrorCode::kPermissionDenied, "extent not in client pool");
    }
  }
  if (!ctx_.alloc->IsAllocated(offset, pages)) {
    return Status(ErrorCode::kCorrupted, "extent not allocated");
  }
  return OkStatus();
}

void TrustedFsService::Consume(const MetaOp& op, std::vector<Oid>* consumed) {
  const size_t first = consumed->size();
  switch (op.type) {
    case MetaOpType::kCreateFile:
    case MetaOpType::kCreateDir:
    case MetaOpType::kFlatPut:
      consumed->push_back(op.obj);
      break;
    case MetaOpType::kAttachExtent:
      for (uint64_t i = 0; i < op.pages; ++i) {
        consumed->push_back(
            Oid::Make(ObjType::kExtent, op.b + i * kScmPageSize));
      }
      break;
    default:
      return;
  }
  std::lock_guard lock(alloc_mu_);
  for (size_t i = first; i < consumed->size(); ++i) {
    pooled_.erase((*consumed)[i].offset());
  }
}

void TrustedFsService::RetirePooled(std::vector<Oid>* oids) {
  if (oids->empty()) {
    return;
  }
  {
    std::lock_guard lock(alloc_mu_);
    // A page freed and pooled again since (an op later in the batch
    // destroyed the object) now carries another fill's mark: keep it.
    std::erase_if(*oids, [&](Oid oid) { return pooled_.count(oid.offset()); });
    for (Oid oid : *oids) {
      pool_marked_ -= pool_map_.Set(oid, /*marked=*/false) ? 1 : 0;
    }
    pool_objects_.Set(pool_marked_);
  }
  static const int kRetireSite = RegisterPersistSite("tfs.pool.retire.flush");
  pool_map_.Persist(*oids, kRetireSite);
  oids->clear();
}

void TrustedFsService::FreePooled(Oid oid) {
  // Open checks the OID's type, so at most one branch applies.
  if (oid.type() == ObjType::kExtent) {
    (void)ctx_.alloc->Free(oid.offset(), 0);
  } else if (auto f = MFile::Open(ctx_, oid); f.ok()) {
    (void)f->Destroy();
  } else if (auto c = Collection::Open(ctx_, oid); c.ok()) {
    (void)c->Destroy();
  }
}

// --- Open-file table (§6.1) ---------------------------------------------

uint64_t TrustedFsService::OpenCount(Oid file) const {
  std::lock_guard lock(clients_mu_);
  auto it = open_counts_.find(file.raw());
  return it == open_counts_.end() ? 0 : it->second;
}

Status TrustedFsService::NotifyOpen(uint64_t client_id, Oid file) {
  std::lock_guard lock(clients_mu_);
  open_files_[client_id].insert(file.raw());
  open_counts_[file.raw()]++;
  return OkStatus();
}

Status TrustedFsService::OrphanAdd(Oid file) {
  std::lock_guard lock(alloc_mu_);
  AERIE_ASSIGN_OR_RETURN(Collection orphans,
                         Collection::Open(ctx_, orphans_oid_));
  Status st = orphans.Insert(OidKey(file), file.raw());
  if (st.code() == ErrorCode::kAlreadyExists) {
    return OkStatus();
  }
  return st;
}

Status TrustedFsService::OrphanRemoveAndFree(Oid file) {
  {
    std::lock_guard lock(alloc_mu_);
    AERIE_ASSIGN_OR_RETURN(Collection orphans,
                           Collection::Open(ctx_, orphans_oid_));
    Status st = orphans.Erase(OidKey(file));
    if (st.code() == ErrorCode::kNotFound) {
      return OkStatus();  // was never orphaned
    }
    AERIE_RETURN_IF_ERROR(st);
  }
  auto f = MFile::Open(ctx_, file);
  if (f.ok()) {
    return f->Destroy();
  }
  return OkStatus();
}

Status TrustedFsService::NotifyClosed(uint64_t client_id, Oid file) {
  bool last = false;
  {
    std::lock_guard lock(clients_mu_);
    open_files_[client_id].erase(file.raw());
    auto it = open_counts_.find(file.raw());
    if (it != open_counts_.end() && --it->second == 0) {
      open_counts_.erase(it);
      last = true;
    }
  }
  if (last) {
    auto f = MFile::Open(ctx_, file);
    if (f.ok() && f->link_count() == 0) {
      return OrphanRemoveAndFree(file);
    }
  }
  return OkStatus();
}

Status TrustedFsService::ClientDisconnected(uint64_t client_id) {
  AERIE_SPAN("tfs", "client_disconnected");
  std::vector<uint64_t> open;
  {
    std::lock_guard lock(clients_mu_);
    auto it = open_files_.find(client_id);
    if (it != open_files_.end()) {
      open.assign(it->second.begin(), it->second.end());
      open_files_.erase(it);
    }
  }
  for (uint64_t raw : open) {
    (void)NotifyClosed(client_id, Oid(raw));
  }
  // Free the client's still-pooled objects (paper §5.3.7), clearing their
  // entries first: a crash in between leaks them rather than letting
  // recovery free pages reallocated meanwhile.
  std::vector<Oid> pooled;
  {
    std::lock_guard lock(alloc_mu_);
    std::erase_if(pooled_, [&](const auto& entry) {
      if (entry.second.client_id != client_id) {
        return false;
      }
      pooled.push_back(entry.second.oid);
      return true;
    });
  }
  const std::vector<Oid> to_free = pooled;
  RetirePooled(&pooled);
  for (Oid oid : to_free) {
    FreePooled(oid);
  }
  return OkStatus();
}

// --- Service-mediated data path (§5.3.3) ----------------------------------

Result<uint64_t> TrustedFsService::ServiceRead(uint64_t client_id, Oid file,
                                               uint64_t offset,
                                               std::span<char> out) {
  AERIE_SPAN("tfs", "service_read");
  (void)client_id;  // permission checks live at the interface layer
  AERIE_ASSIGN_OR_RETURN(MFile f, MFile::Open(ctx_, file));
  const MFile::DirectExtentMap map =
      f.SnapshotExtents(offset / kScmPageSize, PagesFor(offset + out.size()));
  return MFile::ReadDirect(ctx_.region, map, offset, out);
}

Status TrustedFsService::ServiceWrite(uint64_t client_id, Oid file,
                                      uint64_t offset,
                                      std::span<const char> data) {
  AERIE_SPAN("tfs", "service_write");
  (void)client_id;
  if (data.empty()) {
    return OkStatus();
  }
  AERIE_ASSIGN_OR_RETURN(MFile f, MFile::Open(ctx_, file));
  if (f.single_extent()) {
    return Status(ErrorCode::kNotSupported,
                  "service writes go to paged mFiles");
  }
  const uint64_t end = offset + data.size();
  // The old last page's tail up to the write, which the write brings inside
  // the size. The snapshot keeps the size its page was picked for, so a
  // concurrent apply cannot move ZeroGap off the page it covers.
  const uint64_t size = f.size();
  MFile::DirectExtentMap tail =
      f.SnapshotExtents(size / kScmPageSize, size / kScmPageSize + 1);
  tail.size = size;
  MFile::ZeroGap(ctx_.region, tail, offset);
  // Back the write's holes with zeroed pages, sealed before they are
  // attached.
  MFile::DirectExtentMap map =
      f.SnapshotExtents(offset / kScmPageSize, PagesFor(end));
  map.Own(map.first_page, map.end_page);
  std::vector<uint64_t> filled;
  for (uint64_t p = map.first_page; p < map.end_page; ++p) {
    if (map.extent(p) == 0) {
      AERIE_ASSIGN_OR_RETURN(uint64_t extent, ctx_.alloc->Alloc(0));
      MFile::StreamZeros(ctx_.region, extent, kScmPageSize);
      map.set_extent(p, extent);
      filled.push_back(p);
    }
  }
  ctx_.region->BFlush();
  for (uint64_t p : filled) {
    AERIE_RETURN_IF_ERROR(f.AttachRun(p, map.extent(p), 1));
  }
  map.size = std::max(map.size, end);
  AERIE_RETURN_IF_ERROR(MFile::WriteDirect(ctx_.region, map, offset, data));
  if (end > f.size()) {
    AERIE_RETURN_IF_ERROR(f.SetSize(end));
  }
  return OkStatus();
}

// --- RPC wiring ------------------------------------------------------------

void TrustedFsService::RegisterRpc(RpcDispatcher* dispatcher) {
  obs::SetRpcMethodName(kTfsRpcApplyBatch, "tfs.apply_batch");
  obs::SetRpcMethodName(kTfsRpcPoolFill, "tfs.pool_fill");
  obs::SetRpcMethodName(kTfsRpcNotifyOpen, "tfs.notify_open");
  obs::SetRpcMethodName(kTfsRpcNotifyClosed, "tfs.notify_closed");
  obs::SetRpcMethodName(kTfsRpcGetRoots, "tfs.get_roots");
  obs::SetRpcMethodName(kTfsRpcServiceRead, "tfs.service_read");
  obs::SetRpcMethodName(kTfsRpcServiceWrite, "tfs.service_write");
  dispatcher->Register(
      kTfsRpcApplyBatch,
      [this](uint64_t client, std::string_view req) -> Result<std::string> {
        AERIE_RETURN_IF_ERROR(ApplyBatch(client, req));
        return std::string();
      });
  dispatcher->Register(
      kTfsRpcPoolFill,
      [this](uint64_t client, std::string_view req) -> Result<std::string> {
        WireReader r(req);
        auto type = r.ReadU8();
        auto count = r.ReadU32();
        auto capacity = r.ReadU64();
        if (!type.ok() || !count.ok() || !capacity.ok()) {
          return Status(ErrorCode::kInvalidArgument, "bad pool-fill request");
        }
        auto oids = PoolFill(client, static_cast<ObjType>(*type), *count,
                             *capacity);
        if (!oids.ok()) {
          return oids.status();
        }
        WireBuffer out;
        out.AppendU32(static_cast<uint32_t>(oids->size()));
        for (Oid oid : *oids) {
          out.AppendU64(oid.raw());
        }
        return out.Release();
      });
  dispatcher->Register(
      kTfsRpcNotifyOpen,
      [this](uint64_t client, std::string_view req) -> Result<std::string> {
        WireReader r(req);
        auto oid = r.ReadU64();
        if (!oid.ok()) {
          return Status(ErrorCode::kInvalidArgument, "bad notify request");
        }
        AERIE_RETURN_IF_ERROR(NotifyOpen(client, Oid(*oid)));
        return std::string();
      });
  dispatcher->Register(
      kTfsRpcNotifyClosed,
      [this](uint64_t client, std::string_view req) -> Result<std::string> {
        WireReader r(req);
        auto oid = r.ReadU64();
        if (!oid.ok()) {
          return Status(ErrorCode::kInvalidArgument, "bad notify request");
        }
        AERIE_RETURN_IF_ERROR(NotifyClosed(client, Oid(*oid)));
        return std::string();
      });
  dispatcher->Register(
      kTfsRpcGetRoots,
      [this](uint64_t, std::string_view) -> Result<std::string> {
        WireBuffer out;
        out.AppendU64(roots_.pxfs_root.raw());
        out.AppendU64(roots_.flat_root.raw());
        return out.Release();
      });
  dispatcher->Register(
      kTfsRpcServiceRead,
      [this](uint64_t client, std::string_view req) -> Result<std::string> {
        WireReader r(req);
        auto oid = r.ReadU64();
        auto offset = r.ReadU64();
        auto len = r.ReadU32();
        if (!oid.ok() || !offset.ok() || !len.ok() || *len > (16u << 20)) {
          return Status(ErrorCode::kInvalidArgument, "bad read request");
        }
        std::string buf(*len, '\0');
        auto n = ServiceRead(client, Oid(*oid), *offset,
                             std::span<char>(buf.data(), buf.size()));
        if (!n.ok()) {
          return n.status();
        }
        buf.resize(*n);
        return buf;
      });
  dispatcher->Register(
      kTfsRpcServiceWrite,
      [this](uint64_t client, std::string_view req) -> Result<std::string> {
        WireReader r(req);
        auto oid = r.ReadU64();
        auto offset = r.ReadU64();
        auto data = r.ReadString();
        if (!oid.ok() || !offset.ok() || !data.ok()) {
          return Status(ErrorCode::kInvalidArgument, "bad write request");
        }
        AERIE_RETURN_IF_ERROR(ServiceWrite(
            client, Oid(*oid), *offset,
            std::span<const char>(data->data(), data->size())));
        return std::string();
      });
}

}  // namespace aerie
