// Crash-recovery tests (paper §5.3.6): the WAL must finish committed-but-
// unapplied batches; orphans and stale pools must be reclaimed; unshipped
// client batches must vanish without hurting integrity.
#include <gtest/gtest.h>

#include <string>

#include "src/libfs/system.h"
#include "src/pxfs/pxfs.h"
#include "src/tfs/fsck.h"

namespace aerie {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/aerie_recovery_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".img";
    ::unlink(path_.c_str());
  }
  void TearDown() override { ::unlink(path_.c_str()); }

  std::unique_ptr<AerieSystem> Boot(bool fresh) {
    AerieSystem::Options options;
    options.region_bytes = 128ull << 20;
    options.region_path = path_;
    options.fresh = fresh;
    auto sys = AerieSystem::Create(options);
    EXPECT_TRUE(sys.ok()) << sys.status().ToString();
    return std::move(*sys);
  }

  std::string path_;
};

TEST_F(RecoveryTest, CommittedButUnappliedBatchReplays) {
  {
    auto sys = Boot(/*fresh=*/true);
    auto client = sys->NewClient();
    ASSERT_TRUE(client.ok());
    LibFs* fs = (*client)->fs();
    ASSERT_TRUE(fs->clerk()
                    ->Acquire(fs->pxfs_root().lock_id(),
                              LockMode::kExclusiveHier)
                    .ok());
    fs->clerk()->Release(fs->pxfs_root().lock_id());
    auto pooled = fs->TakePooled(ObjType::kMFile);
    ASSERT_TRUE(pooled.ok());

    MetaOp op;
    op.type = MetaOpType::kCreateFile;
    op.authority = fs->pxfs_root().lock_id();
    op.dir = fs->pxfs_root();
    op.name = "replayed.txt";
    op.obj = *pooled;

    // Crash between WAL commit and in-place apply.
    sys->tfs()->set_crash_after_log_commit(true);
    EXPECT_EQ(sys->tfs()->ApplyBatch((*client)->id(), EncodeBatch({op}))
                  .code(),
              ErrorCode::kUnavailable);
    (*client)->AbandonForCrashTest();
    // The file is NOT in the directory yet (apply never ran)...
    auto dir = Collection::Open(fs->read_context(), fs->pxfs_root());
    ASSERT_TRUE(dir.ok());
    EXPECT_EQ(dir->Lookup("replayed.txt").code(), ErrorCode::kNotFound);
  }
  {
    // ...but recovery replays the committed record.
    auto sys = Boot(/*fresh=*/false);
    OsdContext ctx = sys->volume()->context();
    auto dir = Collection::Open(ctx, sys->tfs()->GetRoots().pxfs_root);
    ASSERT_TRUE(dir.ok());
    auto found = dir->Lookup("replayed.txt");
    ASSERT_TRUE(found.ok());
    auto file = MFile::Open(ctx, Oid(*found));
    ASSERT_TRUE(file.ok());
    EXPECT_EQ(file->link_count(), 1u);
  }
}

TEST_F(RecoveryTest, AppliedStateSurvivesCleanRestart) {
  {
    auto sys = Boot(/*fresh=*/true);
    auto client = sys->NewClient();
    ASSERT_TRUE(client.ok());
    Pxfs pxfs((*client)->fs());
    ASSERT_TRUE(pxfs.Mkdir("/docs").ok());
    auto fd = pxfs.Open("/docs/note.txt", kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.ok());
    const std::string data = "survives restarts";
    ASSERT_TRUE(
        pxfs.Write(*fd, std::span<const char>(data.data(), data.size()))
            .ok());
    ASSERT_TRUE(pxfs.Close(*fd).ok());
    ASSERT_TRUE(pxfs.SyncAll().ok());
  }
  {
    auto sys = Boot(/*fresh=*/false);
    auto client = sys->NewClient();
    ASSERT_TRUE(client.ok());
    Pxfs pxfs((*client)->fs());
    auto fd = pxfs.Open("/docs/note.txt", kOpenRead);
    ASSERT_TRUE(fd.ok());
    char buf[64] = {};
    auto n = pxfs.Read(*fd, std::span<char>(buf, sizeof(buf)));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(std::string_view(buf, *n), "survives restarts");
    ASSERT_TRUE(pxfs.Close(*fd).ok());
  }
}

TEST_F(RecoveryTest, UnshippedClientBatchIsDiscarded) {
  {
    auto sys = Boot(/*fresh=*/true);
    LibFs::Options no_flusher;
    no_flusher.flush_interval_ms = 0;  // the batch must stay unshipped
    auto client = sys->NewClient(no_flusher);
    ASSERT_TRUE(client.ok());
    Pxfs pxfs((*client)->fs());
    ASSERT_TRUE(pxfs.Create("/lost.txt").ok());
    // Client "crashes" before syncing: batched create never ships.
    EXPECT_GT((*client)->fs()->pending_ops(), 0u);
    (*client)->AbandonForCrashTest();
  }
  {
    auto sys = Boot(/*fresh=*/false);
    auto client = sys->NewClient();
    ASSERT_TRUE(client.ok());
    Pxfs pxfs((*client)->fs());
    EXPECT_EQ(pxfs.Stat("/lost.txt").code(), ErrorCode::kNotFound);
  }
}

TEST_F(RecoveryTest, StalePoolsReclaimedOnRecovery) {
  uint64_t free_after_bootstrap = 0;
  {
    auto sys = Boot(/*fresh=*/true);
    free_after_bootstrap = sys->volume()->allocator()->pages_free();
    auto client = sys->NewClient();
    ASSERT_TRUE(client.ok());
    // Fill pools, then crash without consuming them.
    ASSERT_TRUE((*client)->fs()->TakePooled(ObjType::kMFile).ok());
    ASSERT_TRUE((*client)->fs()->TakePooled(ObjType::kExtent).ok());
    EXPECT_LT(sys->volume()->allocator()->pages_free(),
              free_after_bootstrap);
    (*client)->AbandonForCrashTest();
  }
  {
    auto sys = Boot(/*fresh=*/false);
    // All pre-allocated pool objects were returned.
    EXPECT_EQ(sys->volume()->allocator()->pages_free(),
              free_after_bootstrap);
  }
}

// A client that crashes holding every pool type, with unshipped ops that
// consumed some of its objects, leaks nothing across the restart.
TEST_F(RecoveryTest, CrashBeforeShippingReclaimsEveryPool) {
  uint64_t free_after_bootstrap = 0;
  {
    auto sys = Boot(/*fresh=*/true);
    free_after_bootstrap = sys->volume()->allocator()->pages_free();
    LibFs::Options lazy;
    lazy.flush_interval_ms = 0;  // no flusher: nothing ships unless asked
    auto client = sys->NewClient(lazy);
    ASSERT_TRUE(client.ok());
    Pxfs pxfs((*client)->fs());
    ASSERT_TRUE(pxfs.Mkdir("/d").ok());
    auto fd = pxfs.Open("/d/f", kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.ok());
    const std::string data(3 * kScmPageSize, 'x');
    ASSERT_TRUE(
        pxfs.Write(*fd, std::span<const char>(data.data(), data.size()))
            .ok());
    EXPECT_GT((*client)->fs()->pending_ops(), 0u);
    (*client)->AbandonForCrashTest();
  }
  {
    auto sys = Boot(/*fresh=*/false);
    EXPECT_EQ(sys->volume()->allocator()->pages_free(), free_after_bootstrap);
    auto report = RunFsck(sys->volume());
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->ok()) << report->Summary();
    EXPECT_EQ(report->pool_objects, 0u);
  }
}

TEST_F(RecoveryTest, OrphanedOpenFilesReclaimedOnRecovery) {
  {
    auto sys = Boot(/*fresh=*/true);
    auto client = sys->NewClient();
    ASSERT_TRUE(client.ok());
    Pxfs pxfs((*client)->fs());
    ASSERT_TRUE(pxfs.Create("/orphan.txt").ok());
    auto fd = pxfs.Open("/orphan.txt", kOpenWrite);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(pxfs.Unlink("/orphan.txt").ok());
    ASSERT_TRUE(pxfs.SyncAll().ok());
    // Client crashes with the unlinked file still open.
    (*client)->AbandonForCrashTest();
  }
  {
    auto sys = Boot(/*fresh=*/false);
    // The orphan table is empty after recovery.
    auto client = sys->NewClient();
    ASSERT_TRUE(client.ok());
    Pxfs pxfs((*client)->fs());
    EXPECT_EQ(pxfs.Stat("/orphan.txt").code(), ErrorCode::kNotFound);
  }
}

TEST_F(RecoveryTest, DoubleRecoveryIsIdempotent) {
  {
    auto sys = Boot(/*fresh=*/true);
    auto client = sys->NewClient();
    ASSERT_TRUE(client.ok());
    LibFs* fs = (*client)->fs();
    ASSERT_TRUE(fs->clerk()
                    ->Acquire(fs->pxfs_root().lock_id(),
                              LockMode::kExclusiveHier)
                    .ok());
    fs->clerk()->Release(fs->pxfs_root().lock_id());
    auto pooled = fs->TakePooled(ObjType::kMFile);
    ASSERT_TRUE(pooled.ok());
    MetaOp op;
    op.type = MetaOpType::kCreateFile;
    op.authority = fs->pxfs_root().lock_id();
    op.dir = fs->pxfs_root();
    op.name = "idem.txt";
    op.obj = *pooled;
    sys->tfs()->set_crash_after_log_commit(true);
    (void)sys->tfs()->ApplyBatch((*client)->id(), EncodeBatch({op}));
    (*client)->AbandonForCrashTest();
  }
  for (int boot = 0; boot < 2; ++boot) {
    auto sys = Boot(/*fresh=*/false);
    OsdContext ctx = sys->volume()->context();
    auto dir = Collection::Open(ctx, sys->tfs()->GetRoots().pxfs_root);
    ASSERT_TRUE(dir.ok());
    EXPECT_TRUE(dir->Lookup("idem.txt").ok()) << "boot " << boot;
    uint64_t count = 0;
    (void)dir->Scan([&](std::string_view, uint64_t) {
      count++;
      return true;
    });
    EXPECT_EQ(count, 1u);
  }
}

}  // namespace
}  // namespace aerie
