#include "src/libfs/client.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string_view>
#include <utility>

#include "src/common/check.h"
#include "src/obs/trace.h"
#include "src/rpc/wire.h"

namespace aerie {

Result<std::unique_ptr<LibFs>> LibFs::Mount(Transport* transport,
                                            ScmRegion* region,
                                            uint64_t partition_offset,
                                            const Options& options) {
  auto fs = std::unique_ptr<LibFs>(new LibFs(transport, region, options));

  auto volume = Volume::Open(region, partition_offset, /*writable=*/false);
  if (!volume.ok()) {
    return volume.status();
  }
  fs->volume_ = std::move(*volume);

  auto roots = transport->Call(kTfsRpcGetRoots, {});
  if (!roots.ok()) {
    return roots.status();
  }
  WireReader r(*roots);
  auto pxfs_root = r.ReadU64();
  auto flat_root = r.ReadU64();
  if (!pxfs_root.ok() || !flat_root.ok()) {
    return Status(ErrorCode::kUnavailable, "bad roots response");
  }
  fs->pxfs_root_ = Oid(*pxfs_root);
  fs->flat_root_ = Oid(*flat_root);

  fs->lock_stub_ = std::make_unique<RemoteLockService>(transport);
  fs->clerk_ =
      std::make_unique<LockClerk>(fs->lock_stub_.get(), options.clerk);

  // Ship buffered metadata before any global lock leaves this client: the
  // next holder must observe our updates (paper §5.3.5).
  LibFs* raw = fs.get();
  fs->clerk_->set_release_hook([raw](LockId id, LockMode) {
    (void)raw->Sync();
    std::lock_guard lock(raw->hooks_mu_);
    for (const auto& [token, hook] : raw->release_hooks_) {
      hook(id);
    }
  });
  if (options.flush_interval_ms != 0 && !options.eager_ship) {
    fs->flusher_running_ = true;  // no other thread sees fs yet
    fs->flusher_ = std::thread([raw] { raw->FlusherLoop(); });
  }
  return fs;
}

bool LibFs::ShipDueLocked() const {
  if (abandoned_.load()) {
    return false;  // ships are no-ops; the batch never drains
  }
  return batch_.size() >= std::max<uint64_t>(1, options_.max_pending_ops / 2) ||
         batch_bytes_ >= options_.batch_max_bytes;
}

void LibFs::FlusherLoop() {
  if (obs::SpansOn()) {
    obs::SetThreadTraceName("libfs.flusher");
  }
  using Clock = std::chrono::steady_clock;
  const auto period = std::chrono::milliseconds(options_.flush_interval_ms);
  auto deadline = Clock::now() + period;
  // True after a pass that shipped or refilled. Ops logged during that work
  // ship straight away rather than at the soft mark: while the TFS is the
  // bottleneck the flusher never idles, and each batch is what the caller
  // logged during the previous ship.
  bool busy = false;
  std::unique_lock lock(batch_mu_);
  while (flusher_running_) {
    // The predicate catches wake-ups sent while this thread was busy.
    flush_cv_.wait_until(lock, deadline, [this, busy] {
      return !flusher_running_ || !refill_queue_.empty() ||
             ShipDueLocked() || (busy && !batch_.empty());
    });
    const bool chained = busy;
    busy = false;
    // Refills first: a taker may be close to finding its pool empty.
    while (flusher_running_ && !refill_queue_.empty()) {
      const PoolKey key = refill_queue_.front();
      refill_queue_.erase(refill_queue_.begin());
      lock.unlock();
      RefillInBackground(key);
      lock.lock();
      busy = true;
    }
    if (flusher_running_ && (chained || busy || ShipDueLocked() ||
                             Clock::now() >= deadline)) {
      if (!batch_.empty() && !abandoned_.load()) {
        (void)ShipBatchLocked(&lock);
        busy = true;
      }
      deadline = Clock::now() + period;
    }
  }
  // Refills that never ran: their takers must not wait for them.
  std::vector<PoolKey> dropped;
  dropped.swap(refill_queue_);
  lock.unlock();
  if (!dropped.empty()) {
    {
      std::lock_guard pool_lock(pool_mu_);
      for (const PoolKey& key : dropped) {
        pools_[key].refilling = false;
      }
    }
    pool_cv_.notify_all();
  }
}

void LibFs::StopFlusher() {
  {
    std::lock_guard lock(batch_mu_);
    flusher_running_ = false;
  }
  flush_cv_.notify_all();
  if (flusher_.joinable()) {
    flusher_.join();
  }
}

LibFs::~LibFs() {
  StopFlusher();
  // Best-effort final ship; lock teardown happens via clerk destructor.
  (void)Sync();
}

uint64_t LibFs::AddReleaseHook(std::function<void(LockId)> hook) {
  std::lock_guard lock(hooks_mu_);
  const uint64_t token = next_hook_token_++;
  release_hooks_[token] = std::move(hook);
  return token;
}

void LibFs::RemoveReleaseHook(uint64_t token) {
  std::lock_guard lock(hooks_mu_);
  release_hooks_.erase(token);
}

uint64_t LibFs::pending_ops() const {
  std::lock_guard lock(batch_mu_);
  return batch_.size();
}

Status LibFs::LogOps(std::span<MetaOp> ops, uint64_t* seq) {
  std::unique_lock lock(batch_mu_);
  logged_seq_ += ops.size();
  if (seq != nullptr) {
    *seq = logged_seq_;
  }
  for (MetaOp& op : ops) {
    // Rough wire size: fixed fields + names.
    batch_bytes_ += 96 + op.name.size() + op.name2.size();
    batch_.push_back(std::move(op));
  }
  ops_logged_.Add(ops.size());
  pending_ops_gauge_.Set(static_cast<int64_t>(batch_.size()));
  if (options_.eager_ship) {
    return ShipBatchLocked(&lock);
  }
  if (batch_.size() >= options_.max_pending_ops) {
    // Backpressure: the producer pays the ship itself.
    inline_ships_.Add(1);
    return ShipBatchLocked(&lock);
  }
  if (flusher_running_) {
    if (ShipDueLocked()) {
      flush_cv_.notify_one();  // background ship; don't stall the caller
    }
    return OkStatus();
  }
  if (batch_bytes_ >= options_.batch_max_bytes) {
    inline_ships_.Add(1);
    return ShipBatchLocked(&lock);
  }
  return OkStatus();
}

Status LibFs::ShipBatchLocked(std::unique_lock<std::mutex>* lock) {
  if (abandoned_.load()) {
    return OkStatus();
  }
  // Ship order must equal logging order. ship_mu_ is taken BEFORE the
  // batch is swapped out, so a concurrent shipper (flusher vs Sync vs
  // release hook) cannot overtake an in-flight earlier batch. Lock order is
  // always ship_mu_ -> batch_mu_ here; callers drop batch_mu_ first.
  //
  // An empty batch must NOT return before taking ship_mu_: the clerk's
  // release hook calls Sync() to guarantee every op logged under the lock
  // being released has reached the server, and a concurrent shipper may
  // have swapped the batch out while its ApplyBatch RPC is still in
  // flight. Returning early would let the clerk release the global lock
  // while that RPC races it to the server, where validation then fails
  // with kPermissionDenied and acknowledged ops are lost.
  lock->unlock();
  Status result = OkStatus();
  {
    AERIE_SPAN("libfs", "ship_batch");
    // Batch-ship stall: contended ship_mu_ means this shipper is blocked
    // behind another batch's in-flight ApplyBatch — off-CPU time the
    // profiler charges to libfs.ship_batch as lock wait. Uncontended
    // acquisition stays on the try_lock fast path and records nothing.
    std::unique_lock<std::mutex> ship(ship_mu_, std::try_to_lock);
    if (!ship.owns_lock()) {
      obs::ScopedWait stalled(obs::WaitKind::kLock);
      ship.lock();
    }
    std::vector<MetaOp> ops;
    uint64_t through = 0;
    {
      std::lock_guard relock(batch_mu_);
      ops.swap(batch_);
      batch_bytes_ = 0;
      through = logged_seq_;
      pending_ops_gauge_.Set(0);
    }
    if (!ops.empty()) {
      obs::TraceInstant("libfs.ship_batch.ops", ops.size());
      if (clerk_->lease_lost() || abandoned_.load()) {
        // The service already discarded our authority; these updates are
        // gone (paper §4.3: failed clients' updates are discarded).
        result =
            Status(ErrorCode::kLockRevoked, "lease lost; batch discarded");
      } else {
        const std::string blob = EncodeBatch(ops);
        result = transport_->Call(kTfsRpcApplyBatch, blob).status();
        if (result.ok()) {
          batches_shipped_.Add(1);
        } else {
          // A rejected batch means acknowledged metadata updates are gone.
          // Background shippers (flusher, release hook) have nobody to hand
          // the status to, so the loss must at least be visible here.
          batches_ship_failed_.Add(1);
          obs::TraceInstant("libfs.ship_batch.failed", ops.size());
        }
      }
      shipped_seq_.store(through);
    }
  }
  lock->lock();
  return result;
}

Status LibFs::Sync() {
  std::unique_lock lock(batch_mu_);
  return ShipBatchLocked(&lock);
}

// --- Direct data path (DESIGN.md §10) ---

size_t LibFs::FindDirectLocked(uint64_t file) const {
  return direct_maps_.Find(Mix64(file), [file](const DirectSlot& slot) {
    return slot.file() == file;
  });
}

std::shared_ptr<const LibFs::DirectMap> LibFs::LookupDirect(Oid file) {
  std::shared_lock lock(direct_mu_);
  const size_t i = FindDirectLocked(file.offset());
  if (i == OpenTable<DirectSlot>::kNone) {
    return nullptr;
  }
  const DirectSlot& slot = direct_maps_.at(i);
  slot.MarkReferenced();
  return slot.map();
}

void LibFs::StoreDirect(Oid file, std::shared_ptr<const DirectMap> map) {
  const uint64_t charge = DirectCharge(*map);
  // A larger map would never fit, and the sweep below would not end.
  AERIE_CHECK(charge <= kDirectCacheSlots);
  std::unique_lock lock(direct_mu_);
  EraseDirectLocked(file.offset());  // a replacement is stored as a new map
  // Ends: each step clears a bit or evicts a map, or passes an empty or
  // cleared slot, and a map is left only while some charge remains.
  size_t i = direct_hand_;
  while (direct_charged_ + charge > kDirectCacheSlots) {
    if (i >= direct_maps_.capacity()) {
      i = 0;
    }
    DirectSlot& slot = direct_maps_.at(i);
    if (slot.empty()) {
      ++i;
    } else if (slot.referenced()) {
      slot.ClearReferenced();
      ++i;
    } else {
      direct_charged_ -= DirectCharge(*slot.map());
      direct_maps_.Erase(i);
      direct_cache_evictions_.Add(1);
    }
  }
  direct_hand_ = i;
  direct_maps_.Insert(DirectSlot(file.offset(), std::move(map)));
  direct_charged_ += charge;
  PublishDirectGaugesLocked();
}

void LibFs::EraseDirectLocked(uint64_t file) {
  const size_t i = FindDirectLocked(file);
  if (i != OpenTable<DirectSlot>::kNone) {
    direct_charged_ -= DirectCharge(*direct_maps_.at(i).map());
    direct_maps_.Erase(i);
  }
}

void LibFs::PublishDirectGaugesLocked() {
  direct_cache_maps_gauge_.Set(static_cast<int64_t>(direct_maps_.size()));
  direct_cache_slots_gauge_.Set(static_cast<int64_t>(direct_charged_));
}

void LibFs::InvalidateDirect(Oid file) {
  std::unique_lock lock(direct_mu_);
  EraseDirectLocked(file.offset());
  PublishDirectGaugesLocked();
}

void LibFs::ClearDirectCache() {
  std::unique_lock lock(direct_mu_);
  direct_maps_.Clear();
  direct_charged_ = 0;
  PublishDirectGaugesLocked();
}

uint64_t LibFs::direct_cache_maps() const {
  std::shared_lock lock(direct_mu_);
  return direct_maps_.size();
}

uint64_t LibFs::direct_cache_slots() const {
  std::shared_lock lock(direct_mu_);
  return direct_charged_;
}

Status LibFs::SyncAndReleaseLocks() {
  // No background ship or pool fill may outlive the session.
  StopFlusher();
  AERIE_RETURN_IF_ERROR(Sync());
  clerk_->ReleaseAllGlobals();
  return OkStatus();
}

Result<std::vector<Oid>> LibFs::FillPool(PoolKey key) {
  // Paper: 1000 objects per refill keeps this RPC rare.
  AERIE_SPAN("libfs", "pool_refill");
  pool_refills_.Add(1);
  WireBuffer req;
  req.AppendU8(key.first);
  req.AppendU32(options_.pool_refill);
  req.AppendU64(key.second);
  auto resp = transport_->Call(kTfsRpcPoolFill, req.data());
  if (!resp.ok()) {
    return resp.status();
  }
  WireReader r(*resp);
  auto count = r.ReadU32();
  if (!count.ok() || *count == 0) {
    return Status(ErrorCode::kOutOfSpace, "pool refill returned nothing");
  }
  std::vector<Oid> oids;
  oids.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto oid = r.ReadU64();
    if (!oid.ok()) {
      return Status(ErrorCode::kUnavailable, "bad pool response");
    }
    oids.push_back(Oid(*oid));
  }
  return oids;
}

void LibFs::AddToPool(Pool* pool, const std::vector<Oid>& oids) {
  pool->free.insert(pool->free.end(), oids.rbegin(), oids.rend());
}

void LibFs::RefillInBackground(PoolKey key) {
  auto oids = FillPool(key);
  {
    std::lock_guard lock(pool_mu_);
    Pool& pool = pools_[key];
    if (oids.ok()) {
      AddToPool(&pool, *oids);
    } else {
      pool.error = oids.status();
    }
    pool.refilling = false;
  }
  pool_cv_.notify_all();
}

Result<Oid> LibFs::TakePooled(ObjType type, uint64_t capacity) {
  AERIE_ASSIGN_OR_RETURN(auto taken,
                         Take({static_cast<uint8_t>(type), capacity}, 1));
  return taken.first;
}

Result<LibFs::ExtentRun> LibFs::TakeExtentRun(uint64_t max_pages) {
  AERIE_ASSIGN_OR_RETURN(
      auto taken,
      Take({static_cast<uint8_t>(ObjType::kExtent), 0}, max_pages));
  return ExtentRun{taken.first.offset(), taken.second};
}

Result<std::pair<Oid, uint64_t>> LibFs::Take(PoolKey key, uint64_t max_run) {
  pool_takes_.Add(1);
  std::unique_lock lock(pool_mu_);
  Pool& pool = pools_[key];  // map nodes are stable across unlock
  if (pool.free.empty()) {
    pool_refill_stalls_.Add(1);
    if (pool.refilling) {
      // The refill-ahead fell behind: wait for the one in flight.
      obs::ScopedWait stalled(obs::WaitKind::kRpc);
      pool_cv_.wait(lock, [&pool] { return !pool.refilling; });
    }
  }
  if (pool.free.empty()) {
    if (!pool.error.ok()) {
      return std::exchange(pool.error, OkStatus());
    }
    lock.unlock();
    auto oids = FillPool(key);
    lock.lock();
    if (!oids.ok()) {
      return oids.status();
    }
    AddToPool(&pool, *oids);
  }
  const Oid first = pool.free.back();
  pool.free.pop_back();
  uint64_t run = 1;
  while (run < max_run && !pool.free.empty() &&
         pool.free.back().offset() == first.offset() + run * kScmPageSize) {
    pool.free.pop_back();
    run++;
  }
  // Refill ahead on the flusher once the pool is below half a refill.
  if (!pool.refilling && pool.error.ok() &&
      pool.free.size() < options_.pool_refill / 2) {
    std::lock_guard flusher_lock(batch_mu_);
    if (flusher_running_) {
      pool.refilling = true;
      refill_queue_.push_back(key);
      flush_cv_.notify_one();
    }
  }
  return std::make_pair(first, run);
}

Status LibFs::NotifyOpen(Oid file) {
  WireBuffer req;
  req.AppendU64(file.raw());
  return transport_->Call(kTfsRpcNotifyOpen, req.data()).status();
}

Status LibFs::NotifyClosed(Oid file) {
  WireBuffer req;
  req.AppendU64(file.raw());
  return transport_->Call(kTfsRpcNotifyClosed, req.data()).status();
}

Result<uint64_t> LibFs::ServiceRead(Oid file, uint64_t offset,
                                    std::span<char> out) {
  WireBuffer req;
  req.AppendU64(file.raw());
  req.AppendU64(offset);
  req.AppendU32(static_cast<uint32_t>(out.size()));
  auto resp = transport_->Call(kTfsRpcServiceRead, req.data());
  if (!resp.ok()) {
    return resp.status();
  }
  const uint64_t n = std::min(out.size(), resp->size());
  std::memcpy(out.data(), resp->data(), n);
  return n;
}

Status LibFs::ServiceWrite(Oid file, uint64_t offset,
                           std::span<const char> data) {
  WireBuffer req;
  req.AppendU64(file.raw());
  req.AppendU64(offset);
  req.AppendString(std::string_view(data.data(), data.size()));
  return transport_->Call(kTfsRpcServiceWrite, req.data()).status();
}

}  // namespace aerie
