// Tests for the volume integrity checker.
#include <gtest/gtest.h>

#include <string>

#include "src/libfs/system.h"
#include "src/pxfs/pxfs.h"
#include "src/flatfs/flatfs.h"
#include "src/tfs/fsck.h"

namespace aerie {
namespace {

class FsckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AerieSystem::Options options;
    options.region_bytes = 256ull << 20;
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

  std::unique_ptr<AerieSystem> sys_;
  std::unique_ptr<AerieSystem::Client> client_;
};

TEST_F(FsckTest, FreshVolumeIsClean) {
  auto report = RunFsck(sys_->volume());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->directories, 1u);  // just the root
}

TEST_F(FsckTest, PopulatedVolumeIsClean) {
  Pxfs pxfs(client_->fs());
  ASSERT_TRUE(pxfs.Mkdir("/a").ok());
  ASSERT_TRUE(pxfs.Mkdir("/a/b").ok());
  for (int i = 0; i < 20; ++i) {
    const std::string path = "/a/b/f" + std::to_string(i);
    auto fd = pxfs.Open(path, kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.ok());
    const std::string data(3000, 'x');
    ASSERT_TRUE(
        pxfs.Write(*fd, std::span<const char>(data.data(), data.size()))
            .ok());
    ASSERT_TRUE(pxfs.Close(*fd).ok());
  }
  ASSERT_TRUE(pxfs.Link("/a/b/f0", "/a/alias").ok());
  FlatFs flat(client_->fs());
  for (int i = 0; i < 10; ++i) {
    const std::string value = "value";
    ASSERT_TRUE(flat.Put("k" + std::to_string(i),
                         std::span<const char>(value.data(), value.size()))
                    .ok());
  }
  ASSERT_TRUE(pxfs.SyncAll().ok());

  auto report = RunFsck(sys_->volume());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->directories, 3u);  // /, /a, /a/b
  EXPECT_EQ(report->files, 20u);       // 20 objects (one hard-linked twice)
  EXPECT_EQ(report->flat_files, 10u);
}

TEST_F(FsckTest, DetectsBadLinkCount) {
  Pxfs pxfs(client_->fs());
  ASSERT_TRUE(pxfs.Create("/victim").ok());
  ASSERT_TRUE(pxfs.SyncAll().ok());

  // Corrupt the link count behind the TFS's back.
  auto dir = Collection::Open(sys_->volume()->context(),
                              sys_->tfs()->GetRoots().pxfs_root);
  ASSERT_TRUE(dir.ok());
  auto oid = dir->Lookup("victim");
  ASSERT_TRUE(oid.ok());
  auto file = MFile::Open(sys_->volume()->context(), Oid(*oid));
  ASSERT_TRUE(file.ok());
  file->SetLinkCount(7);

  auto report = RunFsck(sys_->volume());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_GE(report->errors, 1u);
}

TEST_F(FsckTest, DetectsDanglingDirectoryEntry) {
  Pxfs pxfs(client_->fs());
  ASSERT_TRUE(pxfs.Create("/dangle").ok());
  ASSERT_TRUE(pxfs.SyncAll().ok());

  // Destroy the file's storage without removing the directory entry.
  auto dir = Collection::Open(sys_->volume()->context(),
                              sys_->tfs()->GetRoots().pxfs_root);
  ASSERT_TRUE(dir.ok());
  auto oid = dir->Lookup("dangle");
  ASSERT_TRUE(oid.ok());
  auto file = MFile::Open(sys_->volume()->context(), Oid(*oid));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Destroy().ok());

  auto report = RunFsck(sys_->volume());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST_F(FsckTest, CountsOrphansAndPools) {
  Pxfs pxfs(client_->fs());
  ASSERT_TRUE(pxfs.Create("/will_orphan").ok());
  auto fd = pxfs.Open("/will_orphan", kOpenRead);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(pxfs.Unlink("/will_orphan").ok());
  ASSERT_TRUE(pxfs.SyncAll().ok());
  // fd still open: the file sits in the orphan table.
  auto report = RunFsck(sys_->volume());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->orphans, 1u);
  EXPECT_GT(report->pool_objects, 0u);  // the client's unconsumed pool
  ASSERT_TRUE(pxfs.Close(*fd).ok());
}

// Writes `pages` pages to a new file at `path` and returns its oid.
Oid WriteFilePages(Pxfs* pxfs, const std::string& path, int pages) {
  auto fd = pxfs->Open(path, kOpenCreate | kOpenWrite);
  EXPECT_TRUE(fd.ok());
  const std::string data(pages * 4096, 'd');
  EXPECT_TRUE(
      pxfs->Write(*fd, std::span<const char>(data.data(), data.size())).ok());
  EXPECT_TRUE(pxfs->Close(*fd).ok());
  EXPECT_TRUE(pxfs->SyncAll().ok());
  auto st = pxfs->Stat(path);
  EXPECT_TRUE(st.ok());
  return st.ok() ? st->oid : Oid();
}

bool HasMessage(const FsckReport& report, const std::string& needle) {
  for (const std::string& m : report.messages) {
    if (m.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST_F(FsckTest, DetectsDataPageMappedByTwoFiles) {
  Pxfs pxfs(client_->fs());
  const Oid owner = WriteFilePages(&pxfs, "/owner", 2);
  OsdContext ctx = sys_->volume()->context();
  auto owner_file = MFile::Open(ctx, owner);
  ASSERT_TRUE(owner_file.ok());
  auto shared = owner_file->ExtentForPage(1);
  ASSERT_TRUE(shared.ok());

  // Hand-build a second file mapping the owner's page, and link it.
  auto thief = MFile::Create(ctx, 0);
  ASSERT_TRUE(thief.ok());
  ASSERT_TRUE(thief->AttachRun(0, *shared, 1).ok());
  ASSERT_TRUE(thief->SetSize(4096).ok());
  thief->SetLinkCount(1);
  auto root = Collection::Open(ctx, client_->fs()->pxfs_root());
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(root->Insert("thief", thief->oid().raw()).ok());

  auto report = RunFsck(sys_->volume());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_TRUE(HasMessage(*report, "page mapped by two files"))
      << report->Summary();
}

TEST_F(FsckTest, DetectsMappedPageNotAllocated) {
  Pxfs pxfs(client_->fs());
  const Oid oid = WriteFilePages(&pxfs, "/leaky", 3);
  auto file = MFile::Open(sys_->volume()->context(), oid);
  ASSERT_TRUE(file.ok());
  auto extent = file->ExtentForPage(2);
  ASSERT_TRUE(extent.ok());
  // Clear the page's bitmap bit while the file still maps it.
  ASSERT_TRUE(sys_->volume()->allocator()->Free(*extent, 0).ok());

  auto report = RunFsck(sys_->volume());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_TRUE(HasMessage(*report, "mapped page not marked allocated"))
      << report->Summary();
}

}  // namespace
}  // namespace aerie
