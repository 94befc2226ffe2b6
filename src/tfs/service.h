// Trusted File System service (paper §4.2, §5.3.5–§5.3.7, §6).
//
// The TFS is the trusted user-mode process that mutually-distrustful clients
// cooperate through. It owns every metadata *mutation*:
//
//   validate  — each batched op is bounds-checked (untrusted bytes),
//               against the lock service (the client must hold the claimed
//               authority lock in a write mode with a live lease), and
//               against file-system invariants (unique names, empty-dir
//               removal, no rename cycles, extents really allocated and
//               owned by the client's pre-allocation pool);
//   log       — the validated, server-enriched ops are written to the
//               volume's redo log and committed (WAL, §5.3.6);
//   apply     — ops mutate collections/mFiles in place with flushes; replay
//               after a crash re-applies committed ops idempotently;
//   reclaim   — client failure discards unshipped batches implicitly (lock
//               leases), frees unused pre-allocated pool objects (the pool
//               map, §5.3.7), and collects unlinked-but-open files once the
//               last opener goes away (§6.1's open-file table).
//
// One TFS serves both PXFS and FlatFS over the same volume layout (§6).
#ifndef AERIE_SRC_TFS_SERVICE_H_
#define AERIE_SRC_TFS_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/lock/lock_service.h"
#include "src/obs/obs.h"
#include "src/osd/collection.h"
#include "src/osd/mfile.h"
#include "src/osd/volume.h"
#include "src/rpc/transport.h"
#include "src/scm/manager.h"
#include "src/tfs/ops.h"
#include "src/tfs/pool_map.h"

namespace aerie {

class TrustedFsService {
 public:
  // `scm` may be null (no hardware-protection propagation).
  TrustedFsService(Volume* volume, LockService* locks,
                   ScmManager* scm = nullptr);

  // Creates the system objects (PXFS root, FlatFS namespace, orphan table,
  // pool map) on a freshly formatted volume. Idempotent.
  Status Bootstrap();

  // Crash recovery: replays the redo log, then reclaims orphans and every
  // object still marked in the pool map.
  Status Recover();

  // --- Client-facing operations (also wired into RPC) ---

  // Validates, WAL-logs and applies a batch of metadata ops.
  Status ApplyBatch(uint64_t client_id, std::string_view batch_blob);

  // Pre-allocates `count` objects for the client (paper §5.3.7).
  // For kMFile with capacity != 0, single-extent mFiles are produced.
  Result<std::vector<Oid>> PoolFill(uint64_t client_id, ObjType type,
                                    uint32_t count, uint64_t capacity);

  // Open-file tracking for unlink-while-open (paper §6.1).
  Status NotifyOpen(uint64_t client_id, Oid file);
  Status NotifyClosed(uint64_t client_id, Oid file);

  struct Roots {
    Oid pxfs_root;
    Oid flat_root;
  };
  Roots GetRoots() const { return roots_; }

  // Fallback data path for files memory protection cannot express
  // (write-only files, §5.3.3): full read/write of paged mFiles through the
  // service, copied by MFile::ReadDirect / MFile::WriteDirect.
  Result<uint64_t> ServiceRead(uint64_t client_id, Oid file, uint64_t offset,
                               std::span<char> out);
  Status ServiceWrite(uint64_t client_id, Oid file, uint64_t offset,
                      std::span<const char> data);

  // Client session teardown: drops open-file refs, reclaims its pool.
  Status ClientDisconnected(uint64_t client_id);

  void RegisterRpc(RpcDispatcher* dispatcher);

  // --- Introspection ---
  uint64_t batches_applied() const { return batches_applied_.value(); }
  uint64_t ops_applied() const { return ops_applied_.value(); }
  uint64_t ops_rejected() const { return ops_rejected_.value(); }
  Volume* volume() { return volume_; }
  LockService* locks() { return locks_; }

  // Test hook: when true, ApplyBatch "crashes" after the WAL commit and
  // before applying (the recovery path must finish the job).
  void set_crash_after_log_commit(bool v) { crash_after_log_commit_ = v; }

 private:
  // A pooled object not yet consumed, keyed by its head page's offset.
  struct Pooled {
    uint64_t client_id;
    Oid oid;
  };

  // Validates `op` against locks, pools and invariants; fills the
  // server-enriched fields. mutating_ ops only.
  Status Validate(uint64_t client_id, MetaOp* op);
  // Applies an op to SCM structures. `replay` tolerates already-applied
  // effects (idempotent redo). Pool bookkeeping is the caller's.
  Status Apply(const MetaOp& op, bool replay);

  Status HoldsWriteLock(uint64_t client_id, LockId object_lock,
                        uint64_t authority) const;

  // Pool helpers. `pooled_` is the volatile owner index; the pool map is
  // its persistent record, written only here.
  bool PoolContains(uint64_t client_id, Oid oid);
  // OK if every page of the run [offset, offset + pages * 4KB) is an extent
  // in the client's pool and allocated, checked under one alloc_mu_ hold.
  Status PoolHoldsRun(uint64_t client_id, uint64_t offset, uint64_t pages);
  // Drops the pooled objects `op` links (each page of an attached run), if
  // any, from the owner index and queues them in `consumed` for
  // RetirePooled.
  void Consume(const MetaOp& op, std::vector<Oid>* consumed);
  // Clears the map entries of `oids` (one flush per line, one fence), except
  // pages pooled again since, and empties `oids`.
  void RetirePooled(std::vector<Oid>* oids);
  void FreePooled(Oid oid);

  // Orphan (unlinked-but-open) bookkeeping.
  Status OrphanAdd(Oid file);
  Status OrphanRemoveAndFree(Oid file);
  uint64_t OpenCount(Oid file) const;

  Volume* volume_;
  LockService* locks_;
  ScmManager* scm_;
  OsdContext ctx_;

  Roots roots_;
  Oid orphans_oid_;
  PoolMap pool_map_;

  mutable std::mutex clients_mu_;
  std::map<uint64_t, std::set<uint64_t>> open_files_;  // client -> files
  std::map<uint64_t, uint64_t> open_counts_;  // file oid -> openers

  std::mutex log_mu_;
  uint64_t applies_in_flight_ = 0;
  std::condition_variable log_idle_;  // applies_in_flight_ reached zero

  // Serializes orphan-table mutation and the pool bookkeeping below.
  std::mutex alloc_mu_;
  std::unordered_map<uint64_t, Pooled> pooled_;
  int64_t pool_marked_ = 0;  // entries set in the pool map

  // Service statistics live in the obs registry for the service's lifetime.
  obs::Counter batches_applied_{"tfs.batch.applied"};
  obs::Counter ops_applied_{"tfs.ops.applied"};
  obs::Counter ops_rejected_{"tfs.ops.rejected"};
  // tfs.ops.applied.<type>, indexed by MetaOpType.
  std::unique_ptr<obs::Counter> ops_applied_by_type_[kMetaOpTypeCount];
  obs::Counter attach_pages_{"tfs.attach.pages"};  // pages over all attaches
  obs::Gauge pool_objects_{"tfs.pool.objects"};  // == pool_marked_
  obs::ScopedRegistration obs_registration_;
  bool crash_after_log_commit_ = false;
};

}  // namespace aerie

#endif  // AERIE_SRC_TFS_SERVICE_H_
