// Tests for the trusted service: op validation (locks, pools, invariants),
// apply semantics, open-file table, pool lifecycle, service data path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/libfs/system.h"
#include "src/pxfs/pxfs.h"
#include "src/tfs/fsck.h"

namespace aerie {
namespace {

class TfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AerieSystem::Options options;
    options.region_bytes = 128ull << 20;
    auto sys = AerieSystem::Create(options);
    ASSERT_TRUE(sys.ok());
    sys_ = std::move(*sys);
    auto client = sys_->NewClient();
    ASSERT_TRUE(client.ok());
    client_ = std::move(*client);
  }

  void TearDown() override {
    client_.reset();
    sys_.reset();
  }

  // Builds a one-op batch blob.
  static std::string OneOp(const MetaOp& op) { return EncodeBatch({op}); }

  LibFs* fs() { return client_->fs(); }
  TrustedFsService* tfs() { return sys_->tfs(); }
  uint64_t cid() { return client_->id(); }

  // Acquires XH on the PXFS root so any op under it validates.
  void LockRootXH() {
    ASSERT_TRUE(fs()->clerk()
                    ->Acquire(fs()->pxfs_root().lock_id(),
                              LockMode::kExclusiveHier)
                    .ok());
    // Local release: the global XH stays cached at the clerk, so the
    // service still sees this client as the holder (authority persists).
    fs()->clerk()->Release(fs()->pxfs_root().lock_id());
  }

  uint64_t PooledObjects() {
    auto report = RunFsck(sys_->volume());
    EXPECT_TRUE(report.ok() && report->ok());
    return report.ok() ? report->pool_objects : 0;
  }

  std::unique_ptr<AerieSystem> sys_;
  std::unique_ptr<AerieSystem::Client> client_;
};

// Sum of the live counters named `name`.
uint64_t CounterValue(const std::string& name) {
  uint64_t total = 0;
  for (const obs::MetricSnapshot& m : obs::Registry::Instance().Collect()) {
    if (m.name == name) {
      total += m.counter;
    }
  }
  return total;
}

// Live value of the TFS's tfs.pool.objects gauge.
int64_t PoolObjectsGauge() {
  for (const obs::MetricSnapshot& m : obs::Registry::Instance().Collect()) {
    if (m.name == "tfs.pool.objects") {
      return m.gauge;
    }
  }
  return -1;
}

TEST_F(TfsTest, BootstrapCreatedRoots) {
  auto roots = tfs()->GetRoots();
  EXPECT_EQ(roots.pxfs_root.type(), ObjType::kCollection);
  EXPECT_EQ(roots.flat_root.type(), ObjType::kCollection);
  EXPECT_EQ(roots.pxfs_root, fs()->pxfs_root());
}

TEST_F(TfsTest, CreateFileAppliesUnderLock) {
  LockRootXH();
  auto pooled = fs()->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(pooled.ok());
  MetaOp op;
  op.type = MetaOpType::kCreateFile;
  op.authority = fs()->pxfs_root().lock_id();
  op.dir = fs()->pxfs_root();
  op.name = "hello.txt";
  op.obj = *pooled;
  ASSERT_TRUE(tfs()->ApplyBatch(cid(), OneOp(op)).ok());

  auto dir = Collection::Open(fs()->read_context(), fs()->pxfs_root());
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(*dir->Lookup("hello.txt"), pooled->raw());
  auto file = MFile::Open(fs()->read_context(), *pooled);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->link_count(), 1u);
}

TEST_F(TfsTest, OpRejectedWithoutWriteLock) {
  auto pooled = fs()->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(pooled.ok());
  MetaOp op;
  op.type = MetaOpType::kCreateFile;
  op.authority = fs()->pxfs_root().lock_id();  // claimed but not held
  op.dir = fs()->pxfs_root();
  op.name = "nope";
  op.obj = *pooled;
  EXPECT_EQ(tfs()->ApplyBatch(cid(), OneOp(op)).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(tfs()->ops_rejected(), 1u);
}

TEST_F(TfsTest, OpRejectedWithReadLockOnly) {
  ASSERT_TRUE(fs()->clerk()
                  ->Acquire(fs()->pxfs_root().lock_id(), LockMode::kShared)
                  .ok());
  fs()->clerk()->Release(fs()->pxfs_root().lock_id());
  auto pooled = fs()->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(pooled.ok());
  MetaOp op;
  op.type = MetaOpType::kCreateFile;
  op.authority = fs()->pxfs_root().lock_id();
  op.dir = fs()->pxfs_root();
  op.name = "nope";
  op.obj = *pooled;
  EXPECT_EQ(tfs()->ApplyBatch(cid(), OneOp(op)).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(TfsTest, ObjectNotInPoolRejected) {
  LockRootXH();
  MetaOp op;
  op.type = MetaOpType::kCreateFile;
  op.authority = fs()->pxfs_root().lock_id();
  op.dir = fs()->pxfs_root();
  op.name = "forged";
  // A forged OID pointing into the region but never pooled.
  op.obj = Oid::Make(ObjType::kMFile, sys_->partition_offset() + (4 << 20));
  EXPECT_EQ(tfs()->ApplyBatch(cid(), OneOp(op)).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(TfsTest, AnotherClientsPoolObjectRejected) {
  auto other = sys_->NewClient();
  ASSERT_TRUE(other.ok());
  auto stolen = (*other)->fs()->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(stolen.ok());
  LockRootXH();
  MetaOp op;
  op.type = MetaOpType::kCreateFile;
  op.authority = fs()->pxfs_root().lock_id();
  op.dir = fs()->pxfs_root();
  op.name = "stolen";
  op.obj = *stolen;
  EXPECT_EQ(tfs()->ApplyBatch(cid(), OneOp(op)).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(TfsTest, DuplicateNameRejected) {
  LockRootXH();
  for (int i = 0; i < 2; ++i) {
    auto pooled = fs()->TakePooled(ObjType::kMFile);
    ASSERT_TRUE(pooled.ok());
    MetaOp op;
    op.type = MetaOpType::kCreateFile;
    op.authority = fs()->pxfs_root().lock_id();
    op.dir = fs()->pxfs_root();
    op.name = "dup";
    op.obj = *pooled;
    Status st = tfs()->ApplyBatch(cid(), OneOp(op));
    if (i == 0) {
      EXPECT_TRUE(st.ok());
    } else {
      EXPECT_EQ(st.code(), ErrorCode::kAlreadyExists);
    }
  }
}

TEST_F(TfsTest, MalformedBatchRejected) {
  EXPECT_EQ(tfs()->ApplyBatch(cid(), "garbage-bytes").code(),
            ErrorCode::kInvalidArgument);
  // A structurally valid batch with trailing junk is also rejected.
  MetaOp op;
  op.type = MetaOpType::kSetSize;
  std::string blob = EncodeBatch({op});
  blob += "junk";
  EXPECT_EQ(tfs()->ApplyBatch(cid(), blob).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(TfsTest, UnlinkFreesStorageWhenNotOpen) {
  LockRootXH();
  auto pooled = fs()->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(pooled.ok());
  MetaOp create;
  create.type = MetaOpType::kCreateFile;
  create.authority = fs()->pxfs_root().lock_id();
  create.dir = fs()->pxfs_root();
  create.name = "victim";
  create.obj = *pooled;
  ASSERT_TRUE(tfs()->ApplyBatch(cid(), OneOp(create)).ok());

  MetaOp unlink;
  unlink.type = MetaOpType::kUnlink;
  unlink.authority = fs()->pxfs_root().lock_id();
  unlink.dir = fs()->pxfs_root();
  unlink.name = "victim";
  ASSERT_TRUE(tfs()->ApplyBatch(cid(), OneOp(unlink)).ok());
  // Storage reclaimed: the mFile header is gone.
  EXPECT_EQ(MFile::Open(fs()->read_context(), *pooled).code(),
            ErrorCode::kCorrupted);
}

TEST_F(TfsTest, UnlinkWhileOpenDefersReclaim) {
  LockRootXH();
  auto pooled = fs()->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(pooled.ok());
  MetaOp create;
  create.type = MetaOpType::kCreateFile;
  create.authority = fs()->pxfs_root().lock_id();
  create.dir = fs()->pxfs_root();
  create.name = "held";
  create.obj = *pooled;
  ASSERT_TRUE(tfs()->ApplyBatch(cid(), OneOp(create)).ok());

  ASSERT_TRUE(tfs()->NotifyOpen(cid(), *pooled).ok());
  MetaOp unlink;
  unlink.type = MetaOpType::kUnlink;
  unlink.authority = fs()->pxfs_root().lock_id();
  unlink.dir = fs()->pxfs_root();
  unlink.name = "held";
  ASSERT_TRUE(tfs()->ApplyBatch(cid(), OneOp(unlink)).ok());

  // Still accessible while open (paper §6.1).
  auto file = MFile::Open(fs()->read_context(), *pooled);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->link_count(), 0u);
  // Last close reclaims it.
  ASSERT_TRUE(tfs()->NotifyClosed(cid(), *pooled).ok());
  EXPECT_EQ(MFile::Open(fs()->read_context(), *pooled).code(),
            ErrorCode::kCorrupted);
}

TEST_F(TfsTest, RenameCycleRejected) {
  LockRootXH();
  // Build /a/b, then try to move /a under /a/b.
  auto a = fs()->TakePooled(ObjType::kCollection);
  auto b = fs()->TakePooled(ObjType::kCollection);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  MetaOp mk_a;
  mk_a.type = MetaOpType::kCreateDir;
  mk_a.authority = fs()->pxfs_root().lock_id();
  mk_a.dir = fs()->pxfs_root();
  mk_a.name = "a";
  mk_a.obj = *a;
  MetaOp mk_b = mk_a;
  mk_b.dir = *a;
  mk_b.name = "b";
  mk_b.obj = *b;
  ASSERT_TRUE(tfs()->ApplyBatch(cid(), EncodeBatch({mk_a, mk_b})).ok());

  MetaOp rename;
  rename.type = MetaOpType::kRename;
  rename.authority = fs()->pxfs_root().lock_id();
  rename.dir = fs()->pxfs_root();
  rename.name = "a";
  rename.dir2 = *b;
  rename.name2 = "a_inside_b";
  EXPECT_EQ(tfs()->ApplyBatch(cid(), OneOp(rename)).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(TfsTest, RmdirOfNonEmptyDirectoryRejected) {
  LockRootXH();
  auto dir = fs()->TakePooled(ObjType::kCollection);
  auto file = fs()->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(file.ok());
  MetaOp mkdir;
  mkdir.type = MetaOpType::kCreateDir;
  mkdir.authority = fs()->pxfs_root().lock_id();
  mkdir.dir = fs()->pxfs_root();
  mkdir.name = "full";
  mkdir.obj = *dir;
  MetaOp touch;
  touch.type = MetaOpType::kCreateFile;
  touch.authority = fs()->pxfs_root().lock_id();
  touch.dir = *dir;
  touch.name = "occupant";
  touch.obj = *file;
  ASSERT_TRUE(tfs()->ApplyBatch(cid(), EncodeBatch({mkdir, touch})).ok());

  MetaOp rmdir;
  rmdir.type = MetaOpType::kUnlink;
  rmdir.authority = fs()->pxfs_root().lock_id();
  rmdir.dir = fs()->pxfs_root();
  rmdir.name = "full";
  EXPECT_EQ(tfs()->ApplyBatch(cid(), OneOp(rmdir)).code(),
            ErrorCode::kNotEmpty);
}

TEST_F(TfsTest, IntraBatchCreateThenRemoveValidatesSequentially) {
  LockRootXH();
  auto dir = fs()->TakePooled(ObjType::kCollection);
  auto file = fs()->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(file.ok());
  MetaOp mkdir;
  mkdir.type = MetaOpType::kCreateDir;
  mkdir.authority = fs()->pxfs_root().lock_id();
  mkdir.dir = fs()->pxfs_root();
  mkdir.name = "tmpdir";
  mkdir.obj = *dir;
  MetaOp touch;
  touch.type = MetaOpType::kCreateFile;
  touch.authority = fs()->pxfs_root().lock_id();
  touch.dir = *dir;
  touch.name = "f";
  touch.obj = *file;
  MetaOp rmdir;  // must be rejected: dir is non-empty *within the batch*
  rmdir.type = MetaOpType::kUnlink;
  rmdir.authority = fs()->pxfs_root().lock_id();
  rmdir.dir = fs()->pxfs_root();
  rmdir.name = "tmpdir";
  EXPECT_EQ(
      tfs()->ApplyBatch(cid(), EncodeBatch({mkdir, touch, rmdir})).code(),
      ErrorCode::kNotEmpty);
}

TEST_F(TfsTest, AttachExtentValidatesPoolAndAllocation) {
  LockRootXH();
  auto file = fs()->TakePooled(ObjType::kMFile);
  auto extent = fs()->TakePooled(ObjType::kExtent);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(extent.ok());
  MetaOp create;
  create.type = MetaOpType::kCreateFile;
  create.authority = fs()->pxfs_root().lock_id();
  create.dir = fs()->pxfs_root();
  create.name = "data";
  create.obj = *file;
  MetaOp attach;
  attach.type = MetaOpType::kAttachExtent;
  attach.authority = fs()->pxfs_root().lock_id();
  attach.obj = *file;
  attach.a = 0;
  attach.b = extent->offset();
  ASSERT_TRUE(tfs()->ApplyBatch(cid(), EncodeBatch({create, attach})).ok());

  // A second attach of a never-pooled extent is rejected.
  MetaOp forged = attach;
  forged.a = 1;
  forged.b = sys_->partition_offset() + (8 << 20);
  EXPECT_EQ(tfs()->ApplyBatch(cid(), OneOp(forged)).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(TfsTest, ServiceReadWritePath) {
  LockRootXH();
  auto file = fs()->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(file.ok());
  MetaOp create;
  create.type = MetaOpType::kCreateFile;
  create.authority = fs()->pxfs_root().lock_id();
  create.dir = fs()->pxfs_root();
  create.name = "writeonly";
  create.obj = *file;
  ASSERT_TRUE(tfs()->ApplyBatch(cid(), OneOp(create)).ok());

  const std::string data = "through the service";
  ASSERT_TRUE(fs()->ServiceWrite(*file, 100,
                                 std::span<const char>(data.data(),
                                                       data.size()))
                  .ok());
  std::string buf(data.size(), '\0');
  auto n = fs()->ServiceRead(*file, 100,
                             std::span<char>(buf.data(), buf.size()));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(buf, data);
}

TEST_F(TfsTest, LapsedLeaseRenewedByBatchRpc) {
  // A lapsed-but-unreclaimed lease: the locks are still registered to this
  // client (no conflicting acquire has force-dropped them, so no other
  // client ever observed them free), meaning the batch RPC itself is proof
  // of liveness — it renews the lease like every other client RPC and the
  // ops apply. This is the fix for the webproxy lost-creates flake: a
  // renewal stall must not silently discard acknowledged metadata.
  LockRootXH();
  auto pooled = fs()->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(pooled.ok());
  sys_->lock_service()->ExpireLeaseForTesting(cid());
  MetaOp op;
  op.type = MetaOpType::kCreateFile;
  op.authority = fs()->pxfs_root().lock_id();
  op.dir = fs()->pxfs_root();
  op.name = "just-in-time";
  op.obj = *pooled;
  ASSERT_TRUE(tfs()->ApplyBatch(cid(), OneOp(op)).ok());
  EXPECT_TRUE(sys_->lock_service()->LeaseValid(cid()));
  auto dir = Collection::Open(fs()->read_context(), fs()->pxfs_root());
  ASSERT_TRUE(dir.ok());
  EXPECT_TRUE(dir->Lookup("just-in-time").ok());
}

TEST_F(TfsTest, DroppedLocksRejectBatch) {
  // Once the lapsed client's locks have actually been force-dropped by a
  // conflicting acquire, a late batch must be rejected: another client may
  // already have observed state that contradicts it. The renew-on-RPC above
  // must NOT resurrect dropped authority.
  LockRootXH();
  auto pooled = fs()->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(pooled.ok());
  sys_->lock_service()->ExpireLeaseForTesting(cid());

  auto client2 = sys_->NewClient();
  ASSERT_TRUE(client2.ok());
  ASSERT_TRUE((*client2)
                  ->fs()
                  ->clerk()
                  ->Acquire(fs()->pxfs_root().lock_id(),
                            LockMode::kExclusiveHier)
                  .ok());
  (*client2)->fs()->clerk()->Release(fs()->pxfs_root().lock_id());

  MetaOp op;
  op.type = MetaOpType::kCreateFile;
  op.authority = fs()->pxfs_root().lock_id();
  op.dir = fs()->pxfs_root();
  op.name = "too-late";
  op.obj = *pooled;
  EXPECT_FALSE(tfs()->ApplyBatch(cid(), OneOp(op)).ok());
}

// A client that disconnects holding every pool type, with unshipped ops that
// consumed some of its objects, leaves nothing behind: its pooled objects
// are freed and their pool-map entries cleared.
TEST_F(TfsTest, DisconnectBeforeShippingReclaimsEveryPool) {
  BuddyAllocator* alloc = sys_->volume()->allocator();
  const uint64_t free_before = alloc->pages_free();
  const uint64_t pooled_before = PooledObjects();
  const int64_t gauge_before = PoolObjectsGauge();
  LibFs::Options lazy;
  lazy.flush_interval_ms = 0;  // no flusher: nothing ships unless asked
  auto client = sys_->NewClient(lazy);
  ASSERT_TRUE(client.ok());
  {
    Pxfs pxfs((*client)->fs());
    ASSERT_TRUE(pxfs.Mkdir("/d").ok());
    auto fd = pxfs.Open("/d/f", kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.ok());
    const std::string data(3 * kScmPageSize, 'x');
    ASSERT_TRUE(
        pxfs.Write(*fd, std::span<const char>(data.data(), data.size()))
            .ok());
  }
  EXPECT_GT((*client)->fs()->pending_ops(), 0u);
  EXPECT_GT(PooledObjects(), pooled_before);
  EXPECT_GT(PoolObjectsGauge(), gauge_before);

  // Tear down like a client whose process died: no ship, then the
  // service-side disconnect.
  const uint64_t id = (*client)->id();
  (*client)->AbandonForCrashTest();
  ASSERT_TRUE(tfs()->ClientDisconnected(id).ok());
  sys_->lock_service()->UnregisterClient(id);
  client->reset();
  EXPECT_EQ(alloc->pages_free(), free_before);
  EXPECT_EQ(PooledObjects(), pooled_before);
  EXPECT_EQ(PoolObjectsGauge(), gauge_before);
}

TEST_F(TfsTest, EncodedOpSizeIsTheMinimum) {
  WireBuffer buf;
  MetaOp().Encode(&buf);
  EXPECT_EQ(buf.size(), kMinOpBytes);
  MetaOp run;
  run.type = MetaOpType::kAttachExtent;
  run.a = 7;
  run.b = 1 << 20;
  run.pages = 32;
  WireBuffer one;
  run.Encode(&one);
  WireReader reader(one.data());
  auto decoded = MetaOp::Decode(&reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->pages, 32u);
  EXPECT_EQ(decoded->b, 1u << 20);
}

// One multi-page write logs one attach for the whole run, and the per-type
// counters and tfs.attach.pages say so.
TEST_F(TfsTest, MultiPageWriteAppliesOneAttachPerRun) {
  LibFs::Options lazy;
  lazy.flush_interval_ms = 0;
  auto client = sys_->NewClient(lazy);
  ASSERT_TRUE(client.ok());
  Pxfs pxfs((*client)->fs());
  const uint64_t attaches = CounterValue("tfs.ops.applied.attach_extent");
  const uint64_t pages = CounterValue("tfs.attach.pages");
  const uint64_t creates = CounterValue("tfs.ops.applied.create_file");
  const uint64_t sizes = CounterValue("tfs.ops.applied.set_size");
  auto fd = pxfs.Open("/run", kOpenCreate | kOpenWrite | kOpenTrunc);
  ASSERT_TRUE(fd.ok());
  const std::string data(5 * kScmPageSize, 'p');
  ASSERT_TRUE(
      pxfs.Write(*fd, std::span<const char>(data.data(), data.size())).ok());
  ASSERT_TRUE(pxfs.Close(*fd).ok());
  ASSERT_TRUE(pxfs.SyncAll().ok());
  EXPECT_EQ(CounterValue("tfs.ops.applied.attach_extent") - attaches, 1u);
  EXPECT_EQ(CounterValue("tfs.attach.pages") - pages, 5u);
  EXPECT_EQ(CounterValue("tfs.ops.applied.create_file") - creates, 1u);
  EXPECT_EQ(CounterValue("tfs.ops.applied.set_size") - sizes, 1u);
  EXPECT_EQ(CounterValue("tfs.ops.applied.truncate"), 0u);
}

// Every page of a run must be in the client's pool.
TEST_F(TfsTest, AttachRunValidatesEveryPage) {
  LockRootXH();
  auto file = fs()->TakePooled(ObjType::kMFile);
  auto first = fs()->TakeExtentRun(4);
  auto second = fs()->TakeExtentRun(4);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->pages, 4u);
  ASSERT_EQ(second->offset, first->offset + 4 * kScmPageSize);
  MetaOp create;
  create.type = MetaOpType::kCreateFile;
  create.authority = fs()->pxfs_root().lock_id();
  create.dir = fs()->pxfs_root();
  create.name = "runs";
  create.obj = *file;
  ASSERT_TRUE(tfs()->ApplyBatch(cid(), OneOp(create)).ok());

  MetaOp attach;
  attach.type = MetaOpType::kAttachExtent;
  attach.authority = fs()->pxfs_root().lock_id();
  attach.obj = *file;
  attach.a = 0;
  attach.b = second->offset;
  attach.pages = 0;
  EXPECT_EQ(tfs()->ApplyBatch(cid(), OneOp(attach)).code(),
            ErrorCode::kInvalidArgument);
  attach.pages = 4;
  ASSERT_TRUE(tfs()->ApplyBatch(cid(), OneOp(attach)).ok());
  // The first run plus one consumed page of the second: rejected whole.
  attach.a = 4;
  attach.b = first->offset;
  attach.pages = 5;
  EXPECT_EQ(tfs()->ApplyBatch(cid(), OneOp(attach)).code(),
            ErrorCode::kPermissionDenied);
  attach.pages = 4;
  ASSERT_TRUE(tfs()->ApplyBatch(cid(), OneOp(attach)).ok());
  auto mfile = MFile::Open(fs()->read_context(), *file);
  ASSERT_TRUE(mfile.ok());
  for (uint64_t p = 0; p < 8; ++p) {
    auto extent = mfile->ExtentForPage(p);
    ASSERT_TRUE(extent.ok()) << p;
    EXPECT_EQ(*extent, (p < 4 ? second->offset : first->offset) +
                           (p % 4) * kScmPageSize);
  }
}

// Untrusted run bounds: past the largest file, or wrapping around.
TEST_F(TfsTest, AttachRunRejectsOutOfRangeRuns) {
  LockRootXH();
  auto file = fs()->TakePooled(ObjType::kMFile);
  auto run = fs()->TakeExtentRun(1);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(run.ok());
  MetaOp create;
  create.type = MetaOpType::kCreateFile;
  create.authority = fs()->pxfs_root().lock_id();
  create.dir = fs()->pxfs_root();
  create.name = "bounds";
  create.obj = *file;
  ASSERT_TRUE(tfs()->ApplyBatch(cid(), OneOp(create)).ok());
  MetaOp attach;
  attach.type = MetaOpType::kAttachExtent;
  attach.authority = fs()->pxfs_root().lock_id();
  attach.obj = *file;
  attach.b = run->offset;
  const uint64_t max_pages = (1ull << 46) / kScmPageSize;
  for (const auto& [first, pages] :
       std::vector<std::pair<uint64_t, uint64_t>>{
           {0, max_pages + 1}, {max_pages, 1}, {~0ull, 2}, {1, ~0ull}}) {
    attach.a = first;
    attach.pages = pages;
    EXPECT_EQ(tfs()->ApplyBatch(cid(), OneOp(attach)).code(),
              ErrorCode::kInvalidArgument)
        << first << " " << pages;
  }
  // The largest in-range run still has to be pooled page by page.
  attach.a = 0;
  attach.pages = max_pages;
  EXPECT_EQ(tfs()->ApplyBatch(cid(), OneOp(attach)).code(),
            ErrorCode::kPermissionDenied);
  attach.pages = 1;
  EXPECT_TRUE(tfs()->ApplyBatch(cid(), OneOp(attach)).ok());
}

// An extent fill larger than the free space fails and takes nothing.
TEST(TfsSmallVolumeTest, OversizedExtentFillLeavesAllocatorUnchanged) {
  AerieSystem::Options options;
  options.region_bytes = 8ull << 20;
  options.volume.log_bytes = 1ull << 20;
  auto sys = AerieSystem::Create(options);
  ASSERT_TRUE(sys.ok());
  BuddyAllocator* alloc = (*sys)->volume()->allocator();
  auto allocated = [alloc] {
    std::vector<bool> bits;
    for (uint64_t p = 0; p < alloc->pages_total(); ++p) {
      bits.push_back(alloc->IsAllocated(alloc->data_start() + p * kScmPageSize));
    }
    return bits;
  };
  const uint64_t free_before = alloc->pages_free();
  const std::vector<bool> bits_before = allocated();
  auto fill = (*sys)->tfs()->PoolFill(
      7, ObjType::kExtent, static_cast<uint32_t>(free_before + 1), 0);
  EXPECT_EQ(fill.status().code(), ErrorCode::kOutOfSpace);
  EXPECT_EQ(alloc->pages_free(), free_before);
  EXPECT_EQ(allocated(), bits_before);
  // A fill of exactly the free space succeeds.
  auto all = (*sys)->tfs()->PoolFill(
      7, ObjType::kExtent, static_cast<uint32_t>(free_before), 0);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->size(), free_before);
  EXPECT_EQ(alloc->pages_free(), 0u);
}

}  // namespace
}  // namespace aerie
