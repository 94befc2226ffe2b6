// libFS client runtime (paper §4.2, §5.3.5, §5.3.7).
//
// Each application links a LibFs instance per mounted file system. It owns:
//   * a read-only view of the volume (direct SCM access for lookups/reads);
//   * the lock clerk (global lock caching, hierarchical grants);
//   * the metadata batch: clients buffer MetaOps locally and ship them to
//     the TFS when the batch exceeds the threshold, when the application
//     syncs, or — crucially — whenever the clerk must give up a global lock
//     (delayed writes, paper §5.3.5);
//   * object pools: pre-allocated collections, mFiles and extents so create
//     and append paths never RPC synchronously (paper §5.3.7: pools of 1000).
//
// With the flusher thread running (flush_interval_ms != 0), both RPCs leave
// the caller's thread: the flusher ships once the batch reaches half of
// max_pending_ops (the soft mark), and keeps shipping what was logged during
// its last ship or refill until it finds the batch empty; it refills a pool
// once a take leaves it below half of pool_refill. The caller ships inline
// only at max_pending_ops (backpressure) and waits on a pool only when it
// finds it empty.
//
// Interface layers (PXFS, FlatFS) sit on top of this class.
#ifndef AERIE_SRC_LIBFS_CLIENT_H_
#define AERIE_SRC_LIBFS_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <thread>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "src/common/hash.h"
#include "src/common/open_table.h"
#include "src/common/status.h"
#include "src/lock/clerk.h"
#include "src/osd/mfile.h"
#include "src/osd/oid.h"
#include "src/osd/osd_context.h"
#include "src/osd/volume.h"
#include "src/rpc/transport.h"
#include "src/tfs/ops.h"

namespace aerie {

class LibFs {
 public:
  struct Options {
    uint64_t batch_max_bytes = 8ull << 20;  // paper: optimum batch ~8MB
    // Objects per pool refill. With the flusher running, a take that leaves
    // the pool below half of this queues a background refill, so a client
    // holds up to ~1.5x this many pooled objects per type.
    uint32_t pool_refill = 1000;  // paper: pools of 1000 objects
    bool eager_ship = false;      // ship every op immediately (ablation)
    // Background shipping period (paper §5.3.5: clients send their buffered
    // updates "periodically (similar to delayed writes)"); the flusher also
    // wakes when the batch reaches batch_max_bytes or half of
    // max_pending_ops, so the caller fills the next batch while the flusher
    // ships this one. 0 disables the flusher (ships and refills
    // synchronously at the thresholds instead).
    uint64_t flush_interval_ms = 50;
    // Backpressure: once this many ops are buffered, producers ship inline
    // instead of racing ahead of the service. Bounds the storage "float"
    // (pool objects held by unapplied ops) when the client outruns the TFS.
    uint64_t max_pending_ops = 4096;
    // Pinned way into the data path (DESIGN.md §10), for every interface
    // layer: PXFS reads and in-place overwrites copy through the cached
    // extent map, and FlatFS gets through the key table, under a pinned
    // clerk direct-access epoch without taking a lock. false (the ablation
    // configuration) sends every call the locked way, and PXFS caches no
    // maps.
    bool direct_data = true;
    LockClerk::Options clerk;
  };

  // `transport` carries both lock-service and TFS methods; it must outlive
  // the LibFs. The caller registers the returned clerk as the client's
  // RevocationSink with the in-process LockService (see AerieSystem).
  static Result<std::unique_ptr<LibFs>> Mount(Transport* transport,
                                              ScmRegion* region,
                                              uint64_t partition_offset,
                                              const Options& options);

  ~LibFs();
  LibFs(const LibFs&) = delete;
  LibFs& operator=(const LibFs&) = delete;

  uint64_t client_id() const { return transport_->client_id(); }
  LockClerk* clerk() { return clerk_.get(); }
  OsdContext read_context() { return volume_->context(); }
  ScmRegion* region() { return region_; }
  bool direct_data() const { return options_.direct_data; }

  Oid pxfs_root() const { return pxfs_root_; }
  Oid flat_root() const { return flat_root_; }

  // --- Metadata batching ---
  // Buffers `ops` (moved from) under one lock; wakes the flusher or ships
  // inline if the batch crossed a threshold. Ops are numbered from 1 in log
  // order; `seq`, if set, receives the number of the last one.
  Status LogOps(std::span<MetaOp> ops, uint64_t* seq = nullptr);
  Status LogOp(MetaOp op, uint64_t* seq = nullptr) {
    return LogOps({&op, 1}, seq);
  }
  // True once every op numbered up to `seq` has left the batch: applied by
  // the TFS, or dropped with a failed ship. Interface layers use it to drop
  // local state that mirrors unshipped ops.
  bool Shipped(uint64_t seq) const {
    return seq <= shipped_seq_.load();
  }
  // Ships all buffered ops now (the library's fsync-equivalent,
  // libfs_sync in the paper).
  Status Sync();
  // Teardown step before the session disconnects: stops the flusher (it
  // finishes a ship or refill in flight and drops queued refills, so no pool
  // fill reaches the TFS after ClientDisconnected), ships the batch, then
  // releases every cached global lock.
  Status SyncAndReleaseLocks();

  uint64_t batches_shipped() const { return batches_shipped_.value(); }
  uint64_t ops_logged() const { return ops_logged_.value(); }
  uint64_t pending_ops() const;

  // Interface layers add hooks run whenever a global lock is released or
  // downgraded, receiving the lock id (PXFS flushes its name cache and sends
  // open-file notifications here, paper §6.1). Returns a token for
  // RemoveReleaseHook; the layer MUST remove its hook before it is destroyed.
  uint64_t AddReleaseHook(std::function<void(LockId)> hook);
  void RemoveReleaseHook(uint64_t token);

  // Crash-test hook: all future ships become no-ops, so buffered metadata
  // dies with the client exactly like a killed process's would.
  void AbandonForCrashTest() { abandoned_ = true; }

  // --- Pools (paper §5.3.7) ---
  // Takes one pre-allocated object. capacity selects single-extent mFiles
  // (FlatFS). A take that finds the pool empty waits for the background
  // refill in flight, or refills over RPC itself if there is none.
  Result<Oid> TakePooled(ObjType type, uint64_t capacity = 0);
  // Takes between 1 and `max_pages` contiguous pre-allocated extent pages,
  // waiting and refilling as TakePooled does. Fills hand out pages in
  // buddy-block runs, so a take usually gets all it asks for.
  struct ExtentRun {
    uint64_t offset = 0;  // region offset of the first page
    uint64_t pages = 0;
  };
  Result<ExtentRun> TakeExtentRun(uint64_t max_pages);

  // --- Open-file notifications (paper §6.1) ---
  Status NotifyOpen(Oid file);
  Status NotifyClosed(Oid file);

  // --- Service-mediated data path (paper §5.3.3) ---
  Result<uint64_t> ServiceRead(Oid file, uint64_t offset, std::span<char> out);
  Status ServiceWrite(Oid file, uint64_t offset, std::span<const char> data);

  // --- Extent-map cache (DESIGN.md §10) ---
  // An extent map plus the clerk direct-access epoch it was validated
  // under. Interface layers build one with the file lock held (so the map
  // is coherent), from a snapshot of the mFile or as an edited copy that
  // adds the layer's own unshipped changes, and reuse it either under the
  // lock again or lock-free: pin the clerk epoch, memcpy, unpin. `writable`
  // records whether the map was validated with exclusive authority
  // (required for writes).
  struct DirectMap {
    MFile::DirectExtentMap map;
    uint64_t epoch = 0;  // 0: never cached
    bool writable = false;
  };

  // Shared-lock lookup returning the cached snapshot (no deep copy), or
  // nullptr. A hit is only *usable* with the file lock held or after
  // clerk()->TryEnterDirect(epoch).
  std::shared_ptr<const DirectMap> LookupDirect(Oid file);
  // Inserts/replaces the snapshot for `file`. The cache holds at most
  // kDirectCacheSlots slots: when a map does not fit, a CLOCK sweep evicts
  // cold maps one at a time (rebuilt on demand the locked way) until it
  // does. A map must fit the whole budget (PXFS caches at most
  // Pxfs::kDirectMaxPages pages per map).
  void StoreDirect(Oid file, std::shared_ptr<const DirectMap> map);
  // Drops one file's map (a local change the layer stores no current map
  // for: an edit without an epoch, oid recycling) or all of them (lock
  // release hooks).
  void InvalidateDirect(Oid file);
  void ClearDirectCache();

  // The cache's budget in extent slots (8 bytes each): 8 MiB of extent
  // words. Each map is charged one slot per page it covers plus
  // kDirectEntrySlots for the map object, its inner nodes and its index
  // node, so the budget bounds memory whatever the mix of map sizes.
  static constexpr uint64_t kDirectCacheSlots = 1 << 20;
  static constexpr uint64_t kDirectEntrySlots = 32;
  static uint64_t DirectCharge(const DirectMap& map) {
    return map.map.end_page - map.map.first_page + kDirectEntrySlots;
  }
  uint64_t direct_cache_maps() const;
  uint64_t direct_cache_slots() const;
  uint64_t direct_cache_evictions() const {
    return direct_cache_evictions_.value();
  }

  void CountDirectRead(uint64_t bytes) { direct_read_bytes_.Add(bytes); }
  void CountDirectWrite(uint64_t bytes) { direct_write_bytes_.Add(bytes); }
  void CountDirectFallback() { direct_fallbacks_.Add(1); }
  uint64_t direct_read_bytes() const { return direct_read_bytes_.value(); }
  uint64_t direct_write_bytes() const { return direct_write_bytes_.value(); }
  uint64_t direct_fallbacks() const { return direct_fallbacks_.value(); }
  uint64_t batches_ship_failed() const { return batches_ship_failed_.value(); }
  // Foreground stalls: ships run on the caller's thread because the batch
  // hit a threshold, and takes that found their pool empty and waited.
  uint64_t inline_ships() const { return inline_ships_.value(); }
  uint64_t pool_refill_stalls() const { return pool_refill_stalls_.value(); }

 private:
  // (type, capacity): one pool per object type, with single-extent mFiles
  // pooled separately per capacity.
  using PoolKey = std::pair<uint8_t, uint64_t>;
  struct Pool {
    std::vector<Oid> free;
    bool refilling = false;  // a background refill is queued or running
    Status error;            // failed background refill, for the next taker
  };

  LibFs(Transport* transport, ScmRegion* region, Options options)
      : transport_(transport), region_(region), options_(options) {
    obs_registration_.AddAll(batches_shipped_, batches_ship_failed_,
                             inline_ships_, ops_logged_, pool_takes_,
                             pool_refills_, pool_refill_stalls_,
                             direct_read_bytes_, direct_write_bytes_,
                             direct_fallbacks_, direct_cache_evictions_,
                             direct_cache_maps_gauge_,
                             direct_cache_slots_gauge_, pending_ops_gauge_);
  }

  Status ShipBatchLocked(std::unique_lock<std::mutex>* lock);
  // True once the batch reaches the soft mark (half of max_pending_ops) or
  // batch_max_bytes: time for the flusher to ship it.
  bool ShipDueLocked() const;
  void FlusherLoop();
  // Stops and joins the flusher; refills still queued are dropped.
  void StopFlusher();
  // One pool_fill RPC for options_.pool_refill objects.
  Result<std::vector<Oid>> FillPool(PoolKey key);
  void RefillInBackground(PoolKey key);
  // Appends a fill so that takes from the back see it in fill order (a
  // fill's extent runs come out first page first).
  static void AddToPool(Pool* pool, const std::vector<Oid>& oids);
  // Takes the pool's last object and the up to max_run - 1 objects behind
  // it that continue it page by page; returns the first and the count.
  Result<std::pair<Oid, uint64_t>> Take(PoolKey key, uint64_t max_run);

  Transport* transport_;
  ScmRegion* region_;
  Options options_;
  std::unique_ptr<Volume> volume_;
  std::unique_ptr<RemoteLockService> lock_stub_;
  std::unique_ptr<LockClerk> clerk_;
  Oid pxfs_root_;
  Oid flat_root_;

  std::atomic<bool> abandoned_{false};
  // Guards the batch and the flusher's state (running flag, refill queue).
  // Lock order: ship_mu_ -> batch_mu_ and pool_mu_ -> batch_mu_.
  mutable std::mutex batch_mu_;
  std::condition_variable flush_cv_;
  bool flusher_running_ = false;
  std::vector<PoolKey> refill_queue_;
  std::thread flusher_;
  // Serializes batch shipment so concurrently-triggered ships (flusher vs
  // Sync vs release hook) cannot reorder ops at the server.
  std::mutex ship_mu_;
  std::vector<MetaOp> batch_;
  uint64_t batch_bytes_ = 0;
  uint64_t logged_seq_ = 0;  // number of the last op logged
  // Number of the last op that left the batch (ships are ordered).
  std::atomic<uint64_t> shipped_seq_{0};
  // Batch statistics live in the obs registry for this mount's lifetime.
  obs::Counter batches_shipped_{"libfs.batch.shipped"};
  // Batches the TFS rejected outright. Never silent: acknowledged ops died
  // with the rejection, so telemetry must show it even when the shipper
  // (flusher, release hook) has no caller to report to.
  obs::Counter batches_ship_failed_{"libfs.batch.ship_failed"};
  obs::Counter inline_ships_{"libfs.batch.inline_ship"};
  obs::Counter ops_logged_{"libfs.batch.ops"};
  obs::Counter pool_takes_{"libfs.pool.take"};
  obs::Counter pool_refills_{"libfs.pool.refill"};
  obs::Counter pool_refill_stalls_{"libfs.pool.refill_stall"};
  obs::Counter direct_read_bytes_{"libfs.direct.read_bytes"};
  obs::Counter direct_write_bytes_{"libfs.direct.write_bytes"};
  obs::Counter direct_fallbacks_{"libfs.direct.fallback"};
  obs::Counter direct_cache_evictions_{"libfs.direct.cache_evictions"};
  obs::Gauge direct_cache_maps_gauge_{"libfs.direct.cache_maps"};
  obs::Gauge direct_cache_slots_gauge_{"libfs.direct.cache_slots"};
  obs::Gauge pending_ops_gauge_{"libfs.batch.pending"};
  obs::ScopedRegistration obs_registration_;

  std::mutex hooks_mu_;
  uint64_t next_hook_token_ = 1;
  std::map<uint64_t, std::function<void(LockId)>> release_hooks_;

  std::mutex pool_mu_;
  std::condition_variable pool_cv_;  // a background refill finished
  std::map<PoolKey, Pool> pools_;

  // Direct-path extent-map cache (oid offset -> snapshot): an open-
  // addressing table swept by a CLOCK hand. Read-mostly: lookups take the
  // lock shared, copy only the shared_ptr and set the slot's referenced bit
  // (a store only when it was clear, so hot lookups write no shared line).
  // Everything else runs under the unique lock. The hand is a slot index:
  // it walks the array in order, giving a referenced map a second chance
  // (clearing its bit) and evicting an unreferenced one, then looks at the
  // same index again, since the erase may have shifted a later map into it.
  class DirectSlot {
   public:
    DirectSlot() = default;
    DirectSlot(uint64_t file, std::shared_ptr<const DirectMap> map)
        : file_ref_(file), map_(std::move(map)) {}
    DirectSlot(DirectSlot&& other) noexcept { *this = std::move(other); }
    DirectSlot& operator=(DirectSlot&& other) noexcept {
      file_ref_.store(other.file_ref_.load());
      map_ = std::move(other.map_);
      return *this;
    }

    bool empty() const { return map_ == nullptr; }
    uint64_t hash() const { return Mix64(file()); }
    uint64_t file() const { return file_ref_.load() & ~kReferenced; }
    const std::shared_ptr<const DirectMap>& map() const { return map_; }
    bool referenced() const { return (file_ref_.load() & kReferenced) != 0; }
    // Sets the bit; a const lookup may, under the shared lock.
    void MarkReferenced() const {
      const uint64_t word = file_ref_.load();
      if ((word & kReferenced) == 0) {
        file_ref_.store(word | kReferenced);
      }
    }
    void ClearReferenced() { file_ref_.store(file()); }

   private:
    // OID offsets are 64-byte aligned, so bit 0 is free for the CLOCK bit.
    static constexpr uint64_t kReferenced = 1;
    mutable std::atomic<uint64_t> file_ref_{0};
    std::shared_ptr<const DirectMap> map_;  // null: the slot is empty
  };
  // Index of `file`'s slot, or OpenTable::kNone.
  size_t FindDirectLocked(uint64_t file) const;
  // Drops `file`'s map, if cached, and its charge.
  void EraseDirectLocked(uint64_t file);
  void PublishDirectGaugesLocked();

  mutable std::shared_mutex direct_mu_;
  OpenTable<DirectSlot> direct_maps_;
  size_t direct_hand_ = 0;  // the slot index the hand resumes at
  uint64_t direct_charged_ = 0;  // slots charged to cached maps
};

}  // namespace aerie

#endif  // AERIE_SRC_LIBFS_CLIENT_H_
