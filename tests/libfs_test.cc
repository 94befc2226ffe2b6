// Tests for the libFS client runtime: batching thresholds, pools, sync,
// release-hook shipping, RPC accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/libfs/system.h"
#include "src/obs/obs.h"

namespace aerie {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// Wraps the in-process transport to record which thread issued each
// pool_fill, optionally fail pool fills, and optionally hold apply_batch
// calls at a gate (so a test can keep the flusher busy mid-ship).
class CountingTransport final : public Transport {
 public:
  CountingTransport(const RpcDispatcher* dispatcher, uint64_t client_id)
      : inner_(dispatcher, client_id) {}

  Result<std::string> Call(uint32_t method,
                           std::string_view request) override {
    if (method == kTfsRpcPoolFill) {
      std::lock_guard lock(mu_);
      pool_fill_threads_.push_back(std::this_thread::get_id());
      if (fail_pool_fill_) {
        return Status(ErrorCode::kOutOfSpace, "injected pool fill failure");
      }
    }
    if (method == kTfsRpcApplyBatch) {
      std::unique_lock lock(mu_);
      ++applies_entered_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return !hold_applies_; });
    }
    return inner_.Call(method, request);
  }
  uint64_t client_id() const override { return inner_.client_id(); }
  uint64_t calls_made() const override { return inner_.calls_made(); }

  size_t PoolFills() {
    std::lock_guard lock(mu_);
    return pool_fill_threads_.size();
  }
  size_t PoolFillsFrom(std::thread::id thread) {
    std::lock_guard lock(mu_);
    return std::count(pool_fill_threads_.begin(), pool_fill_threads_.end(),
                      thread);
  }
  void set_fail_pool_fill(bool fail) {
    std::lock_guard lock(mu_);
    fail_pool_fill_ = fail;
  }
  void set_hold_applies(bool hold) {
    std::lock_guard lock(mu_);
    hold_applies_ = hold;
    cv_.notify_all();
  }
  // Waits until `n` apply_batch calls have entered the transport.
  bool WaitForApplies(int n) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [&] { return applies_entered_ >= n; });
  }

 private:
  InprocTransport inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::thread::id> pool_fill_threads_;
  bool fail_pool_fill_ = false;
  bool hold_applies_ = false;
  int applies_entered_ = 0;
};

// A client mounted over a CountingTransport, wired and torn down the way
// AerieSystem::Client does it.
class CountingClient {
 public:
  static std::unique_ptr<CountingClient> Connect(AerieSystem* sys,
                                                 uint64_t id,
                                                 const LibFs::Options& opts) {
    auto client = std::unique_ptr<CountingClient>(new CountingClient(sys));
    client->transport_ =
        std::make_unique<CountingTransport>(sys->dispatcher(), id);
    auto fs = LibFs::Mount(client->transport_.get(), sys->scm_region(),
                           sys->partition_offset(), opts);
    if (!fs.ok()) {
      return nullptr;
    }
    client->fs_ = std::move(*fs);
    sys->lock_service()->RegisterClient(id, client->fs_->clerk());
    return client;
  }

  ~CountingClient() {
    if (fs_ == nullptr) {
      return;
    }
    transport_->set_hold_applies(false);  // a failed test may leave it held
    (void)fs_->SyncAndReleaseLocks();
    (void)sys_->tfs()->ClientDisconnected(transport_->client_id());
    sys_->lock_service()->UnregisterClient(transport_->client_id());
    fs_.reset();
  }

  LibFs* fs() { return fs_.get(); }
  CountingTransport* transport() { return transport_.get(); }

 private:
  explicit CountingClient(AerieSystem* sys) : sys_(sys) {}
  AerieSystem* sys_;
  std::unique_ptr<CountingTransport> transport_;
  std::unique_ptr<LibFs> fs_;
};

class LibFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AerieSystem::Options options;
    options.region_bytes = 128ull << 20;
    auto sys = AerieSystem::Create(options);
    ASSERT_TRUE(sys.ok());
    sys_ = std::move(*sys);
  }

  std::unique_ptr<AerieSystem> sys_;
};

MetaOp CreateFileOp(LibFs* fs, const std::string& name, Oid obj) {
  MetaOp op;
  op.type = MetaOpType::kCreateFile;
  op.authority = fs->pxfs_root().lock_id();
  op.dir = fs->pxfs_root();
  op.name = name;
  op.obj = obj;
  return op;
}

// Caches the root lock so logged creates carry valid authority.
void CacheRootLock(LibFs* fs) {
  ASSERT_TRUE(fs->clerk()
                  ->Acquire(fs->pxfs_root().lock_id(),
                            LockMode::kExclusiveHier)
                  .ok());
  fs->clerk()->Release(fs->pxfs_root().lock_id());
}

void LogCreates(LibFs* fs, const std::string& prefix, int n) {
  for (int i = 0; i < n; ++i) {
    auto pooled = fs->TakePooled(ObjType::kMFile);
    ASSERT_TRUE(pooled.ok());
    ASSERT_TRUE(
        fs->LogOp(CreateFileOp(fs, prefix + std::to_string(i), *pooled)).ok());
  }
}

// Polls `done` for up to `limit`.
template <typename Pred>
bool Eventually(Pred done, milliseconds limit) {
  const auto deadline = steady_clock::now() + limit;
  while (!done()) {
    if (steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

TEST_F(LibFsTest, MountLearnsRoots) {
  auto client = sys_->NewClient();
  ASSERT_TRUE(client.ok());
  EXPECT_EQ((*client)->fs()->pxfs_root(), sys_->tfs()->GetRoots().pxfs_root);
  EXPECT_EQ((*client)->fs()->flat_root(), sys_->tfs()->GetRoots().flat_root);
}

TEST_F(LibFsTest, OpsBufferUntilSync) {
  LibFs::Options no_flusher;
  no_flusher.flush_interval_ms = 0;  // deterministic buffering for asserts
  auto client = sys_->NewClient(no_flusher);
  ASSERT_TRUE(client.ok());
  LibFs* fs = (*client)->fs();
  ASSERT_TRUE(fs->clerk()
                  ->Acquire(fs->pxfs_root().lock_id(),
                            LockMode::kExclusiveHier)
                  .ok());
  fs->clerk()->Release(fs->pxfs_root().lock_id());
  auto pooled = fs->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(pooled.ok());
  ASSERT_TRUE(fs->LogOp(CreateFileOp(fs, "buffered", *pooled)).ok());
  EXPECT_EQ(fs->pending_ops(), 1u);
  EXPECT_EQ(fs->batches_shipped(), 0u);

  // Not yet visible in SCM.
  auto dir = Collection::Open(fs->read_context(), fs->pxfs_root());
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(dir->Lookup("buffered").code(), ErrorCode::kNotFound);

  ASSERT_TRUE(fs->Sync().ok());
  EXPECT_EQ(fs->pending_ops(), 0u);
  EXPECT_EQ(fs->batches_shipped(), 1u);
  EXPECT_TRUE(dir->Lookup("buffered").ok());
}

TEST_F(LibFsTest, EagerShipOptionShipsEveryOp) {
  LibFs::Options options;
  options.eager_ship = true;
  auto client = sys_->NewClient(options);
  ASSERT_TRUE(client.ok());
  LibFs* fs = (*client)->fs();
  ASSERT_TRUE(fs->clerk()
                  ->Acquire(fs->pxfs_root().lock_id(),
                            LockMode::kExclusiveHier)
                  .ok());
  fs->clerk()->Release(fs->pxfs_root().lock_id());
  for (int i = 0; i < 3; ++i) {
    auto pooled = fs->TakePooled(ObjType::kMFile);
    ASSERT_TRUE(pooled.ok());
    ASSERT_TRUE(
        fs->LogOp(CreateFileOp(fs, "eager" + std::to_string(i), *pooled))
            .ok());
  }
  EXPECT_EQ(fs->batches_shipped(), 3u);
  EXPECT_EQ(fs->pending_ops(), 0u);
}

TEST_F(LibFsTest, BatchShipsWhenThresholdCrossed) {
  LibFs::Options options;
  options.batch_max_bytes = 1024;  // tiny threshold
  options.flush_interval_ms = 0;   // synchronous threshold shipping
  auto client = sys_->NewClient(options);
  ASSERT_TRUE(client.ok());
  LibFs* fs = (*client)->fs();
  ASSERT_TRUE(fs->clerk()
                  ->Acquire(fs->pxfs_root().lock_id(),
                            LockMode::kExclusiveHier)
                  .ok());
  fs->clerk()->Release(fs->pxfs_root().lock_id());
  for (int i = 0; i < 20; ++i) {
    auto pooled = fs->TakePooled(ObjType::kMFile);
    ASSERT_TRUE(pooled.ok());
    ASSERT_TRUE(
        fs->LogOp(CreateFileOp(fs, "thresh" + std::to_string(i), *pooled))
            .ok());
  }
  EXPECT_GT(fs->batches_shipped(), 0u);
}

TEST_F(LibFsTest, ReleaseHookShipsBatchBeforeLockLeaves) {
  LibFs::Options no_flusher;
  no_flusher.flush_interval_ms = 0;
  auto c1 = sys_->NewClient(no_flusher);
  auto c2 = sys_->NewClient(no_flusher);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  LibFs* fs1 = (*c1)->fs();
  LibFs* fs2 = (*c2)->fs();

  ASSERT_TRUE(fs1->clerk()
                  ->Acquire(fs1->pxfs_root().lock_id(),
                            LockMode::kExclusiveHier)
                  .ok());
  fs1->clerk()->Release(fs1->pxfs_root().lock_id());
  auto pooled = fs1->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(pooled.ok());
  ASSERT_TRUE(fs1->LogOp(CreateFileOp(fs1, "handoff", *pooled)).ok());
  fs1->clerk()->Release(fs1->pxfs_root().lock_id());
  EXPECT_EQ(fs1->pending_ops(), 1u);  // still cached, nothing shipped

  // Client 2 takes the lock: revocation forces client 1 to ship first.
  ASSERT_TRUE(fs2->clerk()
                  ->Acquire(fs2->pxfs_root().lock_id(), LockMode::kShared)
                  .ok());
  EXPECT_EQ(fs1->pending_ops(), 0u);
  auto dir = Collection::Open(fs2->read_context(), fs2->pxfs_root());
  ASSERT_TRUE(dir.ok());
  EXPECT_TRUE(dir->Lookup("handoff").ok());
  fs2->clerk()->Release(fs2->pxfs_root().lock_id());
}

TEST_F(LibFsTest, PoolRefillKeepsRpcRare) {
  LibFs::Options options;
  options.pool_refill = 100;
  options.flush_interval_ms = 0;  // no refill-ahead: only the empty pool RPCs
  auto client = sys_->NewClient(options);
  ASSERT_TRUE(client.ok());
  LibFs* fs = (*client)->fs();
  const uint64_t calls_before = (*client)->transport()->calls_made();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(fs->TakePooled(ObjType::kExtent).ok());
  }
  // 100 takes should have cost exactly one RPC.
  EXPECT_EQ((*client)->transport()->calls_made(), calls_before + 1);
}

TEST_F(LibFsTest, PooledObjectsAreDistinct) {
  auto client = sys_->NewClient();
  ASSERT_TRUE(client.ok());
  LibFs* fs = (*client)->fs();
  std::set<uint64_t> seen;
  for (int i = 0; i < 50; ++i) {
    auto oid = fs->TakePooled(ObjType::kMFile);
    ASSERT_TRUE(oid.ok());
    EXPECT_TRUE(seen.insert(oid->raw()).second);
    EXPECT_EQ(oid->type(), ObjType::kMFile);
  }
}

TEST_F(LibFsTest, SingleExtentPoolRespectsCapacity) {
  auto client = sys_->NewClient();
  ASSERT_TRUE(client.ok());
  LibFs* fs = (*client)->fs();
  auto oid = fs->TakePooled(ObjType::kMFile, 32 << 10);
  ASSERT_TRUE(oid.ok());
  auto file = MFile::Open(fs->read_context(), *oid);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file->single_extent());
  EXPECT_GE(file->capacity(), 32u << 10);
}

TEST_F(LibFsTest, UdsTransportWorksEndToEnd) {
  AerieSystem::Options options;
  options.region_bytes = 128ull << 20;
  options.uds_path = ::testing::TempDir() + "/aerie_libfs_uds.sock";
  auto sys = AerieSystem::Create(options);
  ASSERT_TRUE(sys.ok());
  auto client = (*sys)->NewUdsClient(LibFs::Options{});
  ASSERT_TRUE(client.ok());
  LibFs* fs = (*client)->fs();
  ASSERT_TRUE(fs->clerk()
                  ->Acquire(fs->pxfs_root().lock_id(),
                            LockMode::kExclusiveHier)
                  .ok());
  fs->clerk()->Release(fs->pxfs_root().lock_id());
  auto pooled = fs->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(pooled.ok());
  ASSERT_TRUE(fs->LogOp(CreateFileOp(fs, "over-uds", *pooled)).ok());
  ASSERT_TRUE(fs->Sync().ok());
  auto dir = Collection::Open(fs->read_context(), fs->pxfs_root());
  ASSERT_TRUE(dir.ok());
  EXPECT_TRUE(dir->Lookup("over-uds").ok());
}

// The flusher wakes at half of max_pending_ops, not only on its timer, and
// a wake-up sent while it is mid-ship is not lost.
TEST_F(LibFsTest, SoftMarkShipsWithoutWaitingForTimer) {
  LibFs::Options options;
  options.flush_interval_ms = 10'000;  // the timer never fires in this test
  options.max_pending_ops = 16;        // soft mark: 8 ops
  auto client = CountingClient::Connect(sys_.get(), 1, options);
  ASSERT_NE(client, nullptr);
  LibFs* fs = client->fs();
  CacheRootLock(fs);

  // Hold the first ship at the transport, and cross the soft mark again
  // while the flusher is blocked in it.
  client->transport()->set_hold_applies(true);
  LogCreates(fs, "first", 8);
  ASSERT_TRUE(client->transport()->WaitForApplies(1));
  LogCreates(fs, "second", 8);
  client->transport()->set_hold_applies(false);

  EXPECT_TRUE(Eventually(
      [fs] { return fs->batches_shipped() >= 2 && fs->pending_ops() == 0; },
      milliseconds(1000)));
  EXPECT_EQ(fs->inline_ships(), 0u);
  // Sync waits out the flusher's ship, ordering its SCM writes before the
  // reads below.
  ASSERT_TRUE(fs->Sync().ok());
  auto dir = Collection::Open(fs->read_context(), fs->pxfs_root());
  ASSERT_TRUE(dir.ok());
  EXPECT_TRUE(dir->Lookup("first0").ok());
  EXPECT_TRUE(dir->Lookup("second7").ok());
}

// Ops logged while the flusher ships follow in the next batch at once, even
// below the soft mark.
TEST_F(LibFsTest, OpsLoggedDuringShipFollowWithoutTimer) {
  LibFs::Options options;
  options.flush_interval_ms = 10'000;
  options.max_pending_ops = 16;
  auto client = CountingClient::Connect(sys_.get(), 1, options);
  ASSERT_NE(client, nullptr);
  LibFs* fs = client->fs();
  CacheRootLock(fs);

  client->transport()->set_hold_applies(true);
  LogCreates(fs, "first", 8);
  ASSERT_TRUE(client->transport()->WaitForApplies(1));
  LogCreates(fs, "tail", 2);
  client->transport()->set_hold_applies(false);

  EXPECT_TRUE(Eventually(
      [fs] { return fs->batches_shipped() >= 2 && fs->pending_ops() == 0; },
      milliseconds(1000)));
}

// After the first (synchronous) fill, refills run ahead on the flusher: the
// taking thread never issues a pool_fill itself.
TEST_F(LibFsTest, PoolRefillRunsAheadOffTheCallerThread) {
  LibFs::Options options;
  options.pool_refill = 100;
  auto client = CountingClient::Connect(sys_.get(), 1, options);
  ASSERT_NE(client, nullptr);
  LibFs* fs = client->fs();
  const std::thread::id me = std::this_thread::get_id();

  std::set<uint64_t> seen;
  for (int i = 0; i < 350; ++i) {
    auto oid = fs->TakePooled(ObjType::kExtent);
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    EXPECT_TRUE(seen.insert(oid->raw()).second);
  }
  EXPECT_EQ(client->transport()->PoolFillsFrom(me), 1u);
  EXPECT_GE(client->transport()->PoolFills(), 4u);
}

// A background refill's error reaches the next taker that finds the pool
// empty, and the pool recovers once fills succeed again.
TEST_F(LibFsTest, BackgroundRefillErrorSurfacesOnLaterTake) {
  LibFs::Options options;
  options.pool_refill = 10;  // refill ahead below 5 objects
  auto client = CountingClient::Connect(sys_.get(), 1, options);
  ASSERT_NE(client, nullptr);
  LibFs* fs = client->fs();

  ASSERT_TRUE(fs->TakePooled(ObjType::kExtent).ok());  // synchronous fill
  client->transport()->set_fail_pool_fill(true);
  for (int i = 0; i < 9; ++i) {  // drain the 9 left; a refill fails behind
    ASSERT_TRUE(fs->TakePooled(ObjType::kExtent).ok());
  }
  auto empty = fs->TakePooled(ObjType::kExtent);
  EXPECT_EQ(empty.status().code(), ErrorCode::kOutOfSpace);
  EXPECT_EQ(client->transport()->PoolFillsFrom(std::this_thread::get_id()),
            1u);  // the failure came from the background refill

  client->transport()->set_fail_pool_fill(false);
  EXPECT_TRUE(fs->TakePooled(ObjType::kExtent).ok());
}

// A client whose flusher is parked in a held ship with an extent-pool
// refill queued behind it; 9 objects are left in that pool.
std::unique_ptr<CountingClient> ConnectWithRefillQueued(AerieSystem* sys) {
  LibFs::Options options;
  options.pool_refill = 20;     // refill ahead below 10 objects
  options.max_pending_ops = 8;  // soft mark: 4 ops
  auto client = CountingClient::Connect(sys, 1, options);
  EXPECT_NE(client, nullptr);
  if (client == nullptr) {
    return nullptr;
  }
  LibFs* fs = client->fs();
  CacheRootLock(fs);
  EXPECT_TRUE(fs->TakePooled(ObjType::kExtent).ok());  // synchronous fill
  client->transport()->set_hold_applies(true);
  LogCreates(fs, "f", 4);
  EXPECT_TRUE(client->transport()->WaitForApplies(1));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(fs->TakePooled(ObjType::kExtent).ok());
  }
  return client;
}

// Teardown with a refill queued behind a busy flusher does not leave a
// taker waiting for it.
TEST_F(LibFsTest, TeardownReleasesTakerWaitingOnQueuedRefill) {
  auto client = ConnectWithRefillQueued(sys_.get());
  ASSERT_FALSE(HasFailure());
  LibFs* fs = client->fs();
  // This taker drains the pool and then waits on the queued refill.
  Status taker_status;
  std::thread taker([fs, &taker_status] {
    for (int i = 0; i < 10; ++i) {
      auto oid = fs->TakePooled(ObjType::kExtent);
      if (!oid.ok()) {
        taker_status = oid.status();
        return;
      }
    }
  });
  std::thread release_ship([&client] {
    std::this_thread::sleep_for(milliseconds(50));
    client->transport()->set_hold_applies(false);
  });

  const auto start = steady_clock::now();
  EXPECT_TRUE(fs->SyncAndReleaseLocks().ok());
  taker.join();
  release_ship.join();
  EXPECT_TRUE(taker_status.ok()) << taker_status.ToString();
  EXPECT_LT(steady_clock::now() - start, milliseconds(2000));
}

TEST_F(LibFsTest, DestroyWithRefillQueuedReturnsPromptly) {
  auto client = ConnectWithRefillQueued(sys_.get());
  ASSERT_FALSE(HasFailure());
  const auto start = steady_clock::now();
  client.reset();  // releases the held ship, then tears down
  EXPECT_LT(steady_clock::now() - start, milliseconds(2000));
}

// --- Extent-map cache bound (DESIGN.md §10.2) ---

// A map covering `pages` pages; the cache charges it without reading its
// chunks.
std::shared_ptr<const LibFs::DirectMap> MapOfPages(uint64_t pages) {
  auto map = std::make_shared<LibFs::DirectMap>();
  map->map.end_page = pages;
  map->epoch = 1;
  return map;
}

Oid FileAt(uint64_t n) { return Oid::Make(ObjType::kMFile, n << 12); }

int64_t MetricValue(const std::string& name) {
  int64_t total = 0;
  for (const obs::MetricSnapshot& m : obs::Registry::Instance().Collect()) {
    if (m.name == name) {
      total += m.kind == obs::Metric::Kind::kGauge
                   ? m.gauge
                   : static_cast<int64_t>(m.counter);
    }
  }
  return total;
}

TEST_F(LibFsTest, DirectCacheGivesReferencedMapsASecondChance) {
  auto client = sys_->NewClient();
  ASSERT_TRUE(client.ok());
  LibFs* fs = (*client)->fs();
  constexpr uint64_t kPages = 300000;  // three fit in the budget, four don't
  const uint64_t charge = LibFs::DirectCharge(*MapOfPages(kPages));
  ASSERT_LE(3 * charge, LibFs::kDirectCacheSlots);
  ASSERT_GT(4 * charge, LibFs::kDirectCacheSlots);

  for (uint64_t f = 0; f < 3; ++f) {
    fs->StoreDirect(FileAt(f), MapOfPages(kPages));
  }
  EXPECT_EQ(fs->direct_cache_slots(), 3 * charge);
  ASSERT_NE(fs->LookupDirect(FileAt(0)), nullptr);  // files 0 and 1 are hot
  ASSERT_NE(fs->LookupDirect(FileAt(1)), nullptr);

  // The fourth map evicts exactly one map: the cold file 2, wherever the
  // hand starts.
  const uint64_t evictions = fs->direct_cache_evictions();
  fs->StoreDirect(FileAt(3), MapOfPages(kPages));
  EXPECT_EQ(fs->direct_cache_evictions(), evictions + 1);
  EXPECT_EQ(fs->direct_cache_maps(), 3u);
  EXPECT_EQ(fs->direct_cache_slots(), 3 * charge);
  EXPECT_NE(fs->LookupDirect(FileAt(0)), nullptr);
  EXPECT_NE(fs->LookupDirect(FileAt(1)), nullptr);
  EXPECT_EQ(fs->LookupDirect(FileAt(2)), nullptr);
  EXPECT_NE(fs->LookupDirect(FileAt(3)), nullptr);

  // Invalidation and the release-hook clear hand the slots back.
  fs->InvalidateDirect(FileAt(1));
  EXPECT_EQ(fs->direct_cache_maps(), 2u);
  EXPECT_EQ(fs->direct_cache_slots(), 2 * charge);
  fs->ClearDirectCache();
  EXPECT_EQ(fs->direct_cache_maps(), 0u);
  EXPECT_EQ(fs->direct_cache_slots(), 0u);
}

// One eviction shows in all three registry metrics: a replacement that
// grows past the budget evicts the one other (cold) map.
TEST_F(LibFsTest, DirectCacheEvictionMovesItsMetrics) {
  auto client = sys_->NewClient();
  ASSERT_TRUE(client.ok());
  LibFs* fs = (*client)->fs();
  fs->StoreDirect(FileAt(1), MapOfPages(400000));
  fs->StoreDirect(FileAt(2), MapOfPages(400000));
  const int64_t maps = MetricValue("libfs.direct.cache_maps");
  const int64_t slots = MetricValue("libfs.direct.cache_slots");
  const int64_t evictions = MetricValue("libfs.direct.cache_evictions");
  EXPECT_EQ(maps, 2);
  EXPECT_EQ(slots, 2 * (400000 + static_cast<int64_t>(
                                     LibFs::kDirectEntrySlots)));

  const auto grown = MapOfPages(700000);
  fs->StoreDirect(FileAt(2), grown);
  EXPECT_EQ(fs->LookupDirect(FileAt(1)), nullptr);
  EXPECT_EQ(fs->LookupDirect(FileAt(2)), grown);
  EXPECT_EQ(MetricValue("libfs.direct.cache_maps"), maps - 1);
  EXPECT_EQ(MetricValue("libfs.direct.cache_slots"),
            static_cast<int64_t>(LibFs::DirectCharge(*grown)));
  EXPECT_EQ(MetricValue("libfs.direct.cache_evictions"), evictions + 1);
}

}  // namespace
}  // namespace aerie
