// POSIX-semantics tests for PXFS: hard links and membership counts,
// unlink-while-open variants, overwrite-rename victims, path edge cases,
// multi-threaded clients.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/libfs/system.h"
#include "src/pxfs/pxfs.h"

namespace aerie {
namespace {

class PxfsPosixTest : public ::testing::Test {
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
    pxfs_ = std::make_unique<Pxfs>(client_->fs());
  }

  void TearDown() override {
    pxfs_.reset();
    client_.reset();
    sys_.reset();
  }

  void WriteFile(const std::string& path, const std::string& data) {
    auto fd = pxfs_->Open(path, kOpenCreate | kOpenWrite | kOpenTrunc);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    ASSERT_TRUE(
        pxfs_->Write(*fd, std::span<const char>(data.data(), data.size()))
            .ok());
    ASSERT_TRUE(pxfs_->Close(*fd).ok());
  }

  static std::string ReadAllVia(Pxfs* fs, const std::string& path) {
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

  std::string ReadAll(const std::string& path) {
    auto fd = pxfs_->Open(path, kOpenRead);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    std::string buf(1 << 20, '\0');
    auto n = pxfs_->Read(*fd, std::span<char>(buf.data(), buf.size()));
    EXPECT_TRUE(n.ok());
    buf.resize(*n);
    EXPECT_TRUE(pxfs_->Close(*fd).ok());
    return buf;
  }

  std::unique_ptr<AerieSystem> sys_;
  std::unique_ptr<AerieSystem::Client> client_;
  std::unique_ptr<Pxfs> pxfs_;
};

TEST_F(PxfsPosixTest, HardLinkSharesDataAndCountsMembers) {
  WriteFile("/orig", "shared bytes");
  ASSERT_TRUE(pxfs_->Link("/orig", "/alias").ok());
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  EXPECT_EQ(ReadAll("/alias"), "shared bytes");
  auto st = pxfs_->Stat("/orig");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->link_count, 2u);
  EXPECT_EQ(pxfs_->Stat("/alias")->oid, st->oid);

  // Writes through one name are visible through the other.
  WriteFile("/alias", "updated");
  EXPECT_EQ(ReadAll("/orig"), "updated");
}

TEST_F(PxfsPosixTest, UnlinkOneLinkKeepsData) {
  WriteFile("/a_name", "two names");
  ASSERT_TRUE(pxfs_->Link("/a_name", "/b_name").ok());
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  ASSERT_TRUE(pxfs_->Unlink("/a_name").ok());
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  EXPECT_EQ(ReadAll("/b_name"), "two names");
  EXPECT_EQ(pxfs_->Stat("/b_name")->link_count, 1u);
  // Removing the last link frees it.
  ASSERT_TRUE(pxfs_->Unlink("/b_name").ok());
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  EXPECT_EQ(pxfs_->Stat("/b_name").code(), ErrorCode::kNotFound);
}

TEST_F(PxfsPosixTest, LinkRejectsDirectoriesAndDuplicates) {
  ASSERT_TRUE(pxfs_->Mkdir("/d").ok());
  EXPECT_EQ(pxfs_->Link("/d", "/d2").code(), ErrorCode::kIsDirectory);
  WriteFile("/f", "x");
  WriteFile("/g", "y");
  EXPECT_EQ(pxfs_->Link("/f", "/g").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(pxfs_->Link("/missing", "/h").code(), ErrorCode::kNotFound);
}

TEST_F(PxfsPosixTest, WriteThroughOpenFdAfterUnlink) {
  WriteFile("/wz", "before");
  auto fd = pxfs_->Open("/wz", kOpenRead | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(pxfs_->Unlink("/wz").ok());
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  // Writing through the surviving descriptor still works.
  const char data[] = "after!";
  EXPECT_TRUE(pxfs_->Pwrite(*fd, 0, std::span<const char>(data, 6)).ok());
  char buf[8] = {};
  EXPECT_EQ(*pxfs_->Pread(*fd, 0, std::span<char>(buf, 6)), 6u);
  EXPECT_EQ(std::string_view(buf, 6), "after!");
  EXPECT_TRUE(pxfs_->Close(*fd).ok());
}

TEST_F(PxfsPosixTest, PathNormalization) {
  ASSERT_TRUE(pxfs_->Mkdir("/n").ok());
  WriteFile("/n/f", "norm");
  EXPECT_EQ(ReadAll("//n///f"), "norm");
  EXPECT_EQ(ReadAll("/n/./f"), "norm");
  EXPECT_TRUE(pxfs_->Stat("/n/").ok());
  EXPECT_EQ(pxfs_->Stat("/n/../f").code(), ErrorCode::kInvalidArgument);
}

TEST_F(PxfsPosixTest, RootIsStatableButNotRemovable) {
  auto st = pxfs_->Stat("/");
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->is_dir);
  EXPECT_EQ(pxfs_->Unlink("/").code(), ErrorCode::kIsDirectory);
}

TEST_F(PxfsPosixTest, TwoFdsOnSameFileShareData) {
  WriteFile("/shared", "0000000000");
  auto fd1 = pxfs_->Open("/shared", kOpenRead | kOpenWrite);
  auto fd2 = pxfs_->Open("/shared", kOpenRead);
  ASSERT_TRUE(fd1.ok());
  ASSERT_TRUE(fd2.ok());
  const char patch[] = "AB";
  ASSERT_TRUE(pxfs_->Pwrite(*fd1, 2, std::span<const char>(patch, 2)).ok());
  char buf[16] = {};
  EXPECT_EQ(*pxfs_->Pread(*fd2, 0, std::span<char>(buf, 10)), 10u);
  EXPECT_EQ(std::string_view(buf, 10), "00AB000000");
  EXPECT_TRUE(pxfs_->Close(*fd1).ok());
  EXPECT_TRUE(pxfs_->Close(*fd2).ok());
}

TEST_F(PxfsPosixTest, ConcurrentCreatesInOneDirectory) {
  ASSERT_TRUE(pxfs_->Mkdir("/conc").ok());
  constexpr int kThreads = 4;
  constexpr int kFilesEach = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kFilesEach; ++i) {
        const std::string path =
            "/conc/t" + std::to_string(t) + "_" + std::to_string(i);
        auto fd = pxfs_->Open(path, kOpenCreate | kOpenWrite);
        if (!fd.ok()) {
          failures++;
          continue;
        }
        const std::string data = path;
        if (!pxfs_->Write(*fd, std::span<const char>(data.data(),
                                                     data.size()))
                 .ok()) {
          failures++;
        }
        if (!pxfs_->Close(*fd).ok()) {
          failures++;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  auto entries = pxfs_->ReadDir("/conc");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(kThreads * kFilesEach));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kFilesEach; ++i) {
      const std::string path =
          "/conc/t" + std::to_string(t) + "_" + std::to_string(i);
      EXPECT_EQ(ReadAll(path), path);
    }
  }
}

TEST_F(PxfsPosixTest, ConcurrentReadersOnOneFile) {
  const std::string data(64 << 10, 'r');
  WriteFile("/hot", data);
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        if (ReadAll("/hot") != data) {
          failures++;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(PxfsPosixTest, DeepHierarchyResolution) {
  std::string path;
  for (int depth = 0; depth < 16; ++depth) {
    path += "/d" + std::to_string(depth);
    ASSERT_TRUE(pxfs_->Mkdir(path).ok()) << path;
  }
  WriteFile(path + "/leaf", "deep");
  EXPECT_EQ(ReadAll(path + "/leaf"), "deep");
  auto entries = pxfs_->ReadDir("/d0");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "d1");
}

TEST_F(PxfsPosixTest, RenameOntoItselfIsNoOp) {
  WriteFile("/self", "x");
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  // POSIX: renaming a file onto itself succeeds and changes nothing.
  EXPECT_TRUE(pxfs_->Rename("/self", "/self").ok());
  EXPECT_TRUE(pxfs_->SyncAll().ok());
  EXPECT_EQ(ReadAll("/self"), "x");
}

TEST_F(PxfsPosixTest, TruncateDownThenUpZeroFills) {
  WriteFile("/zf", std::string(6000, 'q'));
  ASSERT_TRUE(pxfs_->Truncate("/zf", 1000).ok());
  ASSERT_TRUE(pxfs_->Truncate("/zf", 6000).ok());
  const std::string content = ReadAll("/zf");
  ASSERT_EQ(content.size(), 6000u);
  EXPECT_EQ(content.substr(0, 1000), std::string(1000, 'q'));
  // POSIX: the re-extended region reads as zeros, not stale bytes.
  EXPECT_EQ(content.substr(1000), std::string(5000, '\0'));
  // The same holds after the batch ships and applies server-side.
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  EXPECT_EQ(ReadAll("/zf").substr(1000), std::string(5000, '\0'));
}

TEST_F(PxfsPosixTest, WriteOnlyFilesGoThroughTheService) {
  // Paper §5.3.3: memory protection cannot express write-only, so reads are
  // denied and writes are routed through the trusted service.
  Pxfs::Options options;
  options.enforce_memory_protection = true;
  Pxfs fs(client_->fs(), options);
  ASSERT_TRUE(fs.Create("/wonly").ok());
  ASSERT_TRUE(fs.Chmod("/wonly", MakeAcl(0, kAclRightWrite)).ok());

  auto fd = fs.Open("/wonly", kOpenRead | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  const std::string data = "dropped into the mailbox";
  // Write succeeds (FS permission allows it) via the service path.
  EXPECT_TRUE(
      fs.Write(*fd, std::span<const char>(data.data(), data.size())).ok());
  // Read is denied: write-only at the FS level.
  char buf[64];
  EXPECT_EQ(fs.Pread(*fd, 0, std::span<char>(buf, sizeof(buf))).code(),
            ErrorCode::kPermissionDenied);
  ASSERT_TRUE(fs.Close(*fd).ok());

  // Restoring read/write lets the owner read what the service stored.
  ASSERT_TRUE(
      fs.Chmod("/wonly", MakeAcl(0, kAclRightRead | kAclRightWrite)).ok());
  EXPECT_EQ(ReadAllVia(&fs, "/wonly"), data);
}

TEST_F(PxfsPosixTest, ServiceWriteAfterBatchedTruncateKeepsItsData) {
  // The service writes the mFile at once, so a truncate still in the batch
  // must apply before it, not free the page it wrote.
  Pxfs::Options options;
  options.enforce_memory_protection = true;
  Pxfs fs(client_->fs(), options);
  ASSERT_TRUE(fs.Create("/wtrunc").ok());
  ASSERT_TRUE(fs.Chmod("/wtrunc", MakeAcl(0, kAclRightWrite)).ok());
  auto fd = fs.Open("/wtrunc", kOpenWrite);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs.Ftruncate(*fd, 0).ok());
  const std::string data = "abc";
  ASSERT_TRUE(
      fs.Pwrite(*fd, 0, std::span<const char>(data.data(), data.size()))
          .ok());
  ASSERT_TRUE(fs.Close(*fd).ok());
  ASSERT_TRUE(fs.SyncAll().ok());
  ASSERT_TRUE(
      fs.Chmod("/wtrunc", MakeAcl(0, kAclRightRead | kAclRightWrite)).ok());
  EXPECT_EQ(ReadAllVia(&fs, "/wtrunc"), data);
}

TEST_F(PxfsPosixTest, WritesPastTheSizeReadZerosInTheGap) {
  // A shrink leaves the old bytes of the last page past the new size; a
  // write past the size, locked or through the service, must read zeros
  // between the size and its offset.
  Pxfs::Options options;
  options.enforce_memory_protection = true;
  Pxfs fs(client_->fs(), options);
  const std::string old_bytes(kScmPageSize, 'x');
  const std::string data = "def";
  for (const bool service : {false, true}) {
    const std::string path = service ? "/gap_service" : "/gap_locked";
    SCOPED_TRACE(path);
    auto fd = fs.Open(path, kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(fs.Write(*fd, std::span<const char>(old_bytes.data(),
                                                    old_bytes.size()))
                    .ok());
    ASSERT_TRUE(fs.Ftruncate(*fd, 3).ok());
    if (service) {
      ASSERT_TRUE(fs.Chmod(path, MakeAcl(0, kAclRightWrite)).ok());
    }
    ASSERT_TRUE(
        fs.Pwrite(*fd, 10, std::span<const char>(data.data(), data.size()))
            .ok());
    ASSERT_TRUE(fs.Close(*fd).ok());
    if (service) {
      ASSERT_TRUE(
          fs.Chmod(path, MakeAcl(0, kAclRightRead | kAclRightWrite)).ok());
    }
    EXPECT_EQ(ReadAllVia(&fs, path), "xxx" + std::string(7, '\0') + data);
  }
}

TEST_F(PxfsPosixTest, ReadOnlyAclBlocksWrites) {
  Pxfs::Options options;
  options.enforce_memory_protection = true;
  Pxfs fs(client_->fs(), options);
  ASSERT_TRUE(fs.Create("/ronly").ok());
  {
    auto fd = fs.Open("/ronly", kOpenWrite);
    ASSERT_TRUE(fd.ok());
    const std::string data = "frozen";
    ASSERT_TRUE(
        fs.Write(*fd, std::span<const char>(data.data(), data.size())).ok());
    ASSERT_TRUE(fs.Close(*fd).ok());
  }
  ASSERT_TRUE(fs.Chmod("/ronly", MakeAcl(0, kAclRightRead)).ok());
  auto fd = fs.Open("/ronly", kOpenRead | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  const char more[] = "thaw";
  EXPECT_EQ(fs.Pwrite(*fd, 0, std::span<const char>(more, 4)).code(),
            ErrorCode::kPermissionDenied);
  char buf[16] = {};
  EXPECT_EQ(*fs.Pread(*fd, 0, std::span<char>(buf, 6)), 6u);
  EXPECT_EQ(std::string_view(buf, 6), "frozen");
  ASSERT_TRUE(fs.Close(*fd).ok());
}

}  // namespace
}  // namespace aerie
