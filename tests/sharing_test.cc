// Cross-client sharing tests: the "life of a shared file" from paper §4.3,
// lock revocation forcing batch shipment, cache coherence between clients,
// sequential sharing through both interfaces.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/flatfs/flatfs.h"
#include "src/libfs/system.h"
#include "src/pxfs/pxfs.h"

namespace aerie {
namespace {

class SharingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AerieSystem::Options options;
    options.region_bytes = 256ull << 20;
    auto sys = AerieSystem::Create(options);
    ASSERT_TRUE(sys.ok());
    sys_ = std::move(*sys);
    auto c1 = sys_->NewClient();
    auto c2 = sys_->NewClient();
    ASSERT_TRUE(c1.ok());
    ASSERT_TRUE(c2.ok());
    client1_ = std::move(*c1);
    client2_ = std::move(*c2);
    pxfs1_ = std::make_unique<Pxfs>(client1_->fs());
    pxfs2_ = std::make_unique<Pxfs>(client2_->fs());
  }

  void TearDown() override {
    pxfs1_.reset();
    pxfs2_.reset();
    client1_.reset();
    client2_.reset();
    sys_.reset();
  }

  static void WriteVia(Pxfs* fs, const std::string& path,
                       const std::string& data) {
    auto fd = fs->Open(path, kOpenCreate | kOpenWrite | kOpenTrunc);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    ASSERT_TRUE(
        fs->Write(*fd, std::span<const char>(data.data(), data.size())).ok());
    ASSERT_TRUE(fs->Close(*fd).ok());
  }

  static std::string ReadVia(Pxfs* fs, const std::string& path) {
    auto fd = fs->Open(path, kOpenRead);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    if (!fd.ok()) {
      return "";
    }
    std::string buf(1 << 20, '\0');
    auto n = fs->Read(*fd, std::span<char>(buf.data(), buf.size()));
    EXPECT_TRUE(n.ok());
    buf.resize(n.ok() ? *n : 0);
    EXPECT_TRUE(fs->Close(*fd).ok());
    return buf;
  }

  std::unique_ptr<AerieSystem> sys_;
  std::unique_ptr<AerieSystem::Client> client1_;
  std::unique_ptr<AerieSystem::Client> client2_;
  std::unique_ptr<Pxfs> pxfs1_;
  std::unique_ptr<Pxfs> pxfs2_;
};

TEST_F(SharingTest, LifeOfASharedFile) {
  // Paper §4.3: client 1 creates a file and writes data; client 2 opens,
  // reads, and finally deletes it. Lock revocation ships client 1's
  // batched metadata automatically — no explicit sync.
  WriteVia(pxfs1_.get(), "/shared.txt", "written by client one");

  // Client 2's open forces the lock service to revoke client 1's locks,
  // which ships the outstanding batch (create + attach + size).
  EXPECT_EQ(ReadVia(pxfs2_.get(), "/shared.txt"), "written by client one");

  ASSERT_TRUE(pxfs2_->Unlink("/shared.txt").ok());
  ASSERT_TRUE(pxfs2_->SyncAll().ok());
  EXPECT_EQ(pxfs2_->Stat("/shared.txt").code(), ErrorCode::kNotFound);
  EXPECT_EQ(pxfs1_->Open("/shared.txt", kOpenRead).code(),
            ErrorCode::kNotFound);
}

TEST_F(SharingTest, SequentialPingPong) {
  // Alternating writers: each handoff goes through revocation + batch ship.
  for (int round = 0; round < 5; ++round) {
    const std::string payload = "round " + std::to_string(round);
    Pxfs* writer = (round % 2 == 0) ? pxfs1_.get() : pxfs2_.get();
    Pxfs* reader = (round % 2 == 0) ? pxfs2_.get() : pxfs1_.get();
    WriteVia(writer, "/pingpong", payload);
    EXPECT_EQ(ReadVia(reader, "/pingpong"), payload) << round;
  }
}

TEST_F(SharingTest, NameCacheFlushedOnRevocation) {
  WriteVia(pxfs1_.get(), "/cached.txt", "v1");
  // Client 1 warms its name cache.
  ASSERT_TRUE(pxfs1_->Stat("/cached.txt").ok());
  const uint64_t hits = pxfs1_->name_cache_hits();
  ASSERT_TRUE(pxfs1_->Stat("/cached.txt").ok());
  EXPECT_GT(pxfs1_->name_cache_hits(), hits);

  // Client 2 renames the file; client 1's cache must not serve stale paths.
  ASSERT_TRUE(pxfs2_->Rename("/cached.txt", "/renamed.txt").ok());
  ASSERT_TRUE(pxfs2_->SyncAll().ok());
  pxfs2_->libfs()->clerk()->ReleaseAllGlobals();
  EXPECT_EQ(pxfs1_->Stat("/cached.txt").code(), ErrorCode::kNotFound);
  EXPECT_EQ(ReadVia(pxfs1_.get(), "/renamed.txt"), "v1");
}

// Client 1's mapped file lets it open without the clerk until client 2
// writes the file: the revocation moves client 1's epoch, so its next open
// goes through the clerk and reads client 2's bytes.
TEST_F(SharingTest, MapAuthorizedOpenSeesAnotherClientsWrite) {
  WriteVia(pxfs1_.get(), "/mapped.txt", "from client one");
  EXPECT_EQ(ReadVia(pxfs1_.get(), "/mapped.txt"), "from client one");
  LockClerk* clerk1 = pxfs1_->libfs()->clerk();
  uint64_t grants = clerk1->local_grants();
  EXPECT_EQ(ReadVia(pxfs1_.get(), "/mapped.txt"), "from client one");
  ASSERT_EQ(clerk1->local_grants(), grants);

  WriteVia(pxfs2_.get(), "/mapped.txt", "client two wrote this");
  grants = clerk1->local_grants();
  EXPECT_EQ(ReadVia(pxfs1_.get(), "/mapped.txt"), "client two wrote this");
  EXPECT_GT(clerk1->local_grants(), grants);
}

// Client 2 renames a directory above client 1's cwd. The revocation makes
// client 1 forget its cwd's path, so a relative unlink there still drops
// the name client 1 cached under the new path.
TEST_F(SharingTest, RelativeUnlinkAfterAnotherClientMovesTheCwd) {
  ASSERT_TRUE(pxfs1_->Mkdir("/p").ok());
  ASSERT_TRUE(pxfs1_->Mkdir("/p/c").ok());
  WriteVia(pxfs1_.get(), "/p/c/f", "x");
  ASSERT_TRUE(pxfs1_->SetCwd("/p/c").ok());
  ASSERT_TRUE(pxfs2_->Rename("/p", "/q").ok());
  ASSERT_TRUE(pxfs2_->SyncAll().ok());
  pxfs2_->libfs()->clerk()->ReleaseAllGlobals();
  ASSERT_TRUE(pxfs1_->Stat("/q/c/f").ok());
  EXPECT_EQ(pxfs1_->cwd(), "");
  ASSERT_TRUE(pxfs1_->Unlink("f").ok());
  EXPECT_EQ(pxfs1_->Stat("/q/c/f").code(), ErrorCode::kNotFound);
  EXPECT_EQ(pxfs1_->Open("/q/c/f", kOpenRead).code(), ErrorCode::kNotFound);
}

TEST_F(SharingTest, DirectoriesSharedAcrossClients) {
  ASSERT_TRUE(pxfs1_->Mkdir("/proj").ok());
  WriteVia(pxfs1_.get(), "/proj/one", "1");
  WriteVia(pxfs2_.get(), "/proj/two", "2");
  auto entries = pxfs1_->ReadDir("/proj");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
}

TEST_F(SharingTest, UnlinkWhileOtherClientHasFileOpen) {
  WriteVia(pxfs1_.get(), "/contested", "keep me readable");
  ASSERT_TRUE(pxfs1_->SyncAll().ok());

  auto fd = pxfs1_->Open("/contested", kOpenRead);
  ASSERT_TRUE(fd.ok());

  // Client 2 unlinks; client 1's revoked-lock path notifies the TFS that
  // the file is open, so storage reclaim is deferred (paper §6.1).
  ASSERT_TRUE(pxfs2_->Unlink("/contested").ok());
  ASSERT_TRUE(pxfs2_->SyncAll().ok());
  EXPECT_EQ(pxfs2_->Stat("/contested").code(), ErrorCode::kNotFound);

  char buf[64] = {};
  auto n = pxfs1_->Read(*fd, std::span<char>(buf, sizeof(buf)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string_view(buf, *n), "keep me readable");
  EXPECT_TRUE(pxfs1_->Close(*fd).ok());
}

TEST_F(SharingTest, FlatFsSharedBetweenClients) {
  FlatFs flat1(client1_->fs());
  FlatFs flat2(client2_->fs());
  const std::string v = "cross-client value";
  ASSERT_TRUE(flat1.Put("x", std::span<const char>(v.data(), v.size())).ok());
  // Client 2's bucket-lock acquisition revokes client 1's and ships.
  auto got = flat2.Get("x");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v);
  ASSERT_TRUE(flat2.Erase("x").ok());
  ASSERT_TRUE(flat2.Sync().ok());
  EXPECT_EQ(flat1.Get("x").code(), ErrorCode::kNotFound);
}

// Client 2 replaces a value client 1 reads the pinned way: the put revokes
// client 1's bucket lock, so client 1's next get takes the locked way and
// sees the new value, and the get after it is pinned again.
TEST_F(SharingTest, FlatFsReplacementByAnotherClientIsSeen) {
  FlatFs flat1(client1_->fs());
  FlatFs flat2(client2_->fs());
  LibFs* fs1 = client1_->fs();
  const std::string v1 = "first version";
  const std::string v2 = "second, longer version";
  ASSERT_TRUE(flat1.Put("k", std::span<const char>(v1.data(), v1.size())).ok());
  uint64_t direct = fs1->direct_read_bytes();
  EXPECT_EQ(*flat1.Get("k"), v1);
  EXPECT_EQ(fs1->direct_read_bytes(), direct + v1.size());

  ASSERT_TRUE(flat2.Put("k", std::span<const char>(v2.data(), v2.size())).ok());
  direct = fs1->direct_read_bytes();
  EXPECT_EQ(*flat1.Get("k"), v2);
  EXPECT_EQ(fs1->direct_read_bytes(), direct);
  EXPECT_EQ(*flat1.Get("k"), v2);
  EXPECT_EQ(fs1->direct_read_bytes(), direct + v2.size());
}

TEST_F(SharingTest, CrossInterfaceSharing) {
  // FlatFS put, PXFS sees the object in the flat collection via raw access;
  // both share the TFS and volume (paper §6.2).
  FlatFs flat1(client1_->fs());
  const std::string v = "interface agnostic";
  ASSERT_TRUE(
      flat1.Put("both", std::span<const char>(v.data(), v.size())).ok());
  ASSERT_TRUE(flat1.Sync().ok());
  client1_->fs()->clerk()->ReleaseAllGlobals();

  auto coll = Collection::Open(client2_->fs()->read_context(),
                               client2_->fs()->flat_root());
  ASSERT_TRUE(coll.ok());
  auto oid = coll->Lookup("both");
  ASSERT_TRUE(oid.ok());
  auto file = MFile::Open(client2_->fs()->read_context(), Oid(*oid));
  ASSERT_TRUE(file.ok());
  std::string buf(file->size(), '\0');
  EXPECT_EQ(MFile::ReadDirect(client2_->fs()->region(),
                              file->SnapshotExtents(0, 1), 0,
                              std::span<char>(buf)),
            v.size());
  EXPECT_EQ(buf, v);
}

TEST_F(SharingTest, FailedClientLocksExpireAndWorkContinues) {
  WriteVia(pxfs1_.get(), "/abandoned", "left behind");
  // Client 1 "hangs": stop renewing its lease, never release locks.
  client1_->fs()->clerk()->StopRenewalForTesting();
  sys_->lock_service()->ExpireLeaseForTesting(client1_->id());
  client1_->fs()->AbandonForCrashTest();

  // Client 2 can take over; client 1's unshipped updates are discarded.
  WriteVia(pxfs2_.get(), "/fresh", "new owner");
  EXPECT_EQ(ReadVia(pxfs2_.get(), "/fresh"), "new owner");
  EXPECT_EQ(pxfs2_->Stat("/abandoned").code(), ErrorCode::kNotFound);
}

}  // namespace
}  // namespace aerie
