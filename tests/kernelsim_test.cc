// Tests for the kernel-FS simulator: RAM disk, journal, ExtSimFs (both
// personalities), RamFS backend, and the instrumented VFS.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/kernelsim/extsim.h"
#include "src/kernelsim/ramfs.h"
#include "src/kernelsim/vfs.h"

namespace aerie {
namespace {

std::span<const char> Bytes(const std::string& s) {
  return std::span<const char>(s.data(), s.size());
}

TEST(RamDiskTest, WriteReadAndAccounting) {
  auto disk = RamDisk::Create(256);
  ASSERT_TRUE(disk.ok());
  const std::string data = "block payload";
  ASSERT_TRUE((*disk)->Write(3, 100, Bytes(data)).ok());
  EXPECT_EQ(std::memcmp((*disk)->BlockPtr(3) + 100, data.data(),
                        data.size()),
            0);
  EXPECT_EQ((*disk)->blocks_written(), 1u);
  EXPECT_EQ((*disk)->Write(256, 0, Bytes(data)).code(),
            ErrorCode::kIoError);
  EXPECT_EQ((*disk)->Write(0, 4090, Bytes(data)).code(),
            ErrorCode::kIoError);
}

TEST(RamDiskTest, WriteLatencyCharged) {
  auto disk = RamDisk::Create(16);
  ASSERT_TRUE(disk.ok());
  (*disk)->set_write_ns(20000);  // 20us per line
  std::string block(4096, 'x');
  Stopwatch sw;
  ASSERT_TRUE((*disk)->Write(0, 0, Bytes(block)).ok());
  EXPECT_GE(sw.ElapsedNanos(), 64 * 20000u);
}

TEST(JournalTest, CommitWritesDescriptorImagesCommitAndCheckpoints) {
  auto disk = RamDisk::Create(256);
  ASSERT_TRUE(disk.ok());
  Journal journal(disk->get(), 100, 50);
  Journal::Tx tx = journal.Begin();
  const std::string a = "metadata-a";
  const std::string b = "metadata-b";
  tx.Write(5, 0, Bytes(a));
  tx.Write(7, 64, Bytes(b));
  auto blocks = journal.Commit(&tx);
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(*blocks, 4u);  // descriptor + 2 images + commit
  // Checkpointed in place.
  EXPECT_EQ(std::memcmp((*disk)->BlockPtr(5), a.data(), a.size()), 0);
  EXPECT_EQ(std::memcmp((*disk)->BlockPtr(7) + 64, b.data(), b.size()), 0);
  EXPECT_EQ(journal.commits(), 1u);
}

TEST(JournalTest, EmptyTxIsFree) {
  auto disk = RamDisk::Create(64);
  ASSERT_TRUE(disk.ok());
  Journal journal(disk->get(), 32, 16);
  Journal::Tx tx = journal.Begin();
  auto blocks = journal.Commit(&tx);
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(*blocks, 0u);
  EXPECT_EQ(journal.commits(), 0u);
}

TEST(JournalTest, WrapsAroundWithoutFailing) {
  auto disk = RamDisk::Create(128);
  ASSERT_TRUE(disk.ok());
  Journal journal(disk->get(), 64, 8);
  for (int i = 0; i < 20; ++i) {
    Journal::Tx tx = journal.Begin();
    const std::string payload = "round" + std::to_string(i);
    tx.Write(5, 0, Bytes(payload));
    ASSERT_TRUE(journal.Commit(&tx).ok()) << i;
  }
  EXPECT_EQ(journal.commits(), 20u);
}

class ExtSimTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    auto disk = RamDisk::Create(32768);  // 128MB
    ASSERT_TRUE(disk.ok());
    disk_ = std::move(*disk);
    ExtSimFs::Options options;
    options.use_extents = GetParam();
    auto fs = ExtSimFs::Format(disk_.get(), options);
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(*fs);
  }

  std::unique_ptr<RamDisk> disk_;
  std::unique_ptr<ExtSimFs> fs_;
};

TEST_P(ExtSimTest, CreateLookupRoundTrip) {
  auto ino = fs_->Create(fs_->root_ino(), "hello", false);
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(*fs_->Lookup(fs_->root_ino(), "hello"), *ino);
  EXPECT_EQ(fs_->Lookup(fs_->root_ino(), "missing").code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(fs_->Create(fs_->root_ino(), "hello", false).code(),
            ErrorCode::kAlreadyExists);
}

TEST_P(ExtSimTest, WriteReadAcrossBlocks) {
  auto ino = fs_->Create(fs_->root_ino(), "data", false);
  ASSERT_TRUE(ino.ok());
  std::string data(100 << 10, '\0');  // 100KB: exercises indirect/extents
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>('a' + (i % 26));
  }
  EXPECT_EQ(*fs_->Write(*ino, 0, Bytes(data)), data.size());
  std::string buf(data.size(), '\0');
  EXPECT_EQ(*fs_->Read(*ino, 0, std::span<char>(buf.data(), buf.size())),
            data.size());
  EXPECT_EQ(buf, data);
  EXPECT_EQ(fs_->GetAttr(*ino)->size, data.size());
}

TEST_P(ExtSimTest, MetadataOpsCommitJournalTransactions) {
  const uint64_t commits_before = fs_->journal()->commits();
  ASSERT_TRUE(fs_->Create(fs_->root_ino(), "journaled", false).ok());
  EXPECT_GT(fs_->journal()->commits(), commits_before);
  ASSERT_TRUE(fs_->Unlink(fs_->root_ino(), "journaled").ok());
  EXPECT_GT(fs_->journal()->commits(), commits_before + 1);
}

TEST_P(ExtSimTest, OverwriteWithoutAllocationSkipsJournal) {
  auto ino = fs_->Create(fs_->root_ino(), "steady", false);
  ASSERT_TRUE(ino.ok());
  std::string data(4096, 'x');
  ASSERT_TRUE(fs_->Write(*ino, 0, Bytes(data)).ok());
  const uint64_t commits_before = fs_->journal()->commits();
  // Same-range overwrite: no block allocation, no size change -> no
  // metadata transaction (ordered mode journals metadata only).
  ASSERT_TRUE(fs_->Write(*ino, 0, Bytes(data)).ok());
  EXPECT_EQ(fs_->journal()->commits(), commits_before);
}

TEST_P(ExtSimTest, UnlinkFreesBlocks) {
  // Prime the root directory's dirent block so it doesn't skew accounting.
  ASSERT_TRUE(fs_->Create(fs_->root_ino(), "primer", false).ok());
  ASSERT_TRUE(fs_->Unlink(fs_->root_ino(), "primer").ok());
  const uint64_t free_before = fs_->blocks_free();
  auto ino = fs_->Create(fs_->root_ino(), "bulky", false);
  ASSERT_TRUE(ino.ok());
  std::string data(64 << 10, 'b');
  ASSERT_TRUE(fs_->Write(*ino, 0, Bytes(data)).ok());
  EXPECT_LT(fs_->blocks_free(), free_before);
  ASSERT_TRUE(fs_->Unlink(fs_->root_ino(), "bulky").ok());
  EXPECT_EQ(fs_->blocks_free(), free_before);
}

TEST_P(ExtSimTest, DirectoriesNestAndListAndRefuseNonEmptyRemoval) {
  auto dir = fs_->Create(fs_->root_ino(), "sub", true);
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(fs_->Create(*dir, "inner1", false).ok());
  ASSERT_TRUE(fs_->Create(*dir, "inner2", false).ok());
  std::set<std::string> names;
  ASSERT_TRUE(fs_->ReadDirNames(*dir, [&](std::string_view name, InodeNum) {
                  names.insert(std::string(name));
                  return true;
                })
                  .ok());
  EXPECT_EQ(names, (std::set<std::string>{"inner1", "inner2"}));
  EXPECT_EQ(fs_->Unlink(fs_->root_ino(), "sub").code(),
            ErrorCode::kNotEmpty);
  ASSERT_TRUE(fs_->Unlink(*dir, "inner1").ok());
  ASSERT_TRUE(fs_->Unlink(*dir, "inner2").ok());
  EXPECT_TRUE(fs_->Unlink(fs_->root_ino(), "sub").ok());
}

TEST_P(ExtSimTest, RenameWithinAndAcrossDirs) {
  auto dir = fs_->Create(fs_->root_ino(), "d", true);
  auto file = fs_->Create(fs_->root_ino(), "f", false);
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(file.ok());
  std::string data = "move me";
  ASSERT_TRUE(fs_->Write(*file, 0, Bytes(data)).ok());
  ASSERT_TRUE(fs_->Rename(fs_->root_ino(), "f", *dir, "g").ok());
  EXPECT_EQ(fs_->Lookup(fs_->root_ino(), "f").code(), ErrorCode::kNotFound);
  auto moved = fs_->Lookup(*dir, "g");
  ASSERT_TRUE(moved.ok());
  std::string buf(data.size(), '\0');
  EXPECT_EQ(*fs_->Read(*moved, 0, std::span<char>(buf.data(), buf.size())),
            data.size());
  EXPECT_EQ(buf, data);
}

TEST_P(ExtSimTest, ManyFilesInOneDirectory) {
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        fs_->Create(fs_->root_ino(), "file" + std::to_string(i), false)
            .ok())
        << i;
  }
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(
        fs_->Lookup(fs_->root_ino(), "file" + std::to_string(i)).ok())
        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Mapping, ExtSimTest, ::testing::Bool(),
                         [](const auto& param_info) {
                           return param_info.param ? "extents" : "indirect";
                         });

class VfsTest : public ::testing::Test {
 protected:
  VfsTest() {
    KernelVfs::Options options;
    options.syscall_entry_ns = 0;  // keep unit tests fast
    backend_ = std::make_unique<RamFsBackend>();
    vfs_ = std::make_unique<KernelVfs>(backend_.get(), options);
  }
  std::unique_ptr<RamFsBackend> backend_;
  std::unique_ptr<KernelVfs> vfs_;
};

TEST_F(VfsTest, CreateWriteReadThroughSyscalls) {
  ASSERT_TRUE(vfs_->Mkdir("/dir").ok());
  auto fd = vfs_->Open("/dir/file", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  const std::string data = "vfs data";
  EXPECT_EQ(*vfs_->Write(*fd, Bytes(data)), data.size());
  ASSERT_TRUE(vfs_->Close(*fd).ok());

  auto rfd = vfs_->Open("/dir/file", kOpenRead);
  ASSERT_TRUE(rfd.ok());
  std::string buf(32, '\0');
  auto n = vfs_->Read(*rfd, std::span<char>(buf.data(), buf.size()));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string_view(buf.data(), *n), data);
  ASSERT_TRUE(vfs_->Close(*rfd).ok());
}

TEST_F(VfsTest, DcacheWarmsAndDropCachesEmpties) {
  ASSERT_TRUE(vfs_->Mkdir("/a").ok());
  ASSERT_TRUE(vfs_->Create("/a/f").ok());
  ASSERT_TRUE(vfs_->Stat("/a/f").ok());
  EXPECT_GT(vfs_->dcache_size(), 0u);
  EXPECT_GT(vfs_->icache_size(), 0u);
  vfs_->DropCaches();
  EXPECT_EQ(vfs_->dcache_size(), 0u);
  EXPECT_EQ(vfs_->icache_size(), 0u);
  // Still resolvable after the drop (cold path repopulates).
  EXPECT_TRUE(vfs_->Stat("/a/f").ok());
}

TEST_F(VfsTest, StatsAttributeTimeToCategories) {
  KernelVfs::Options options;
  options.syscall_entry_ns = 1000;
  KernelVfs vfs(backend_.get(), options);
  ASSERT_TRUE(vfs.Mkdir("/x").ok());
  ASSERT_TRUE(vfs.Create("/x/y").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(vfs.Stat("/x/y").ok());
  }
  EXPECT_GT(vfs.stats().Get(VfsCat::kEntry), 10 * 1000u);
  EXPECT_GT(vfs.stats().Get(VfsCat::kNaming), 0u);
  EXPECT_GT(vfs.stats().Get(VfsCat::kSync), 0u);
  EXPECT_GT(vfs.stats().Get(VfsCat::kMemObjects), 0u);
  EXPECT_GT(vfs.stats().ops.load(), 10u);
}

TEST_F(VfsTest, UnlinkedWhileOpenErrorsMatchPosixShape) {
  ASSERT_TRUE(vfs_->Create("/gone").ok());
  ASSERT_TRUE(vfs_->Unlink("/gone").ok());
  EXPECT_EQ(vfs_->Open("/gone", kOpenRead).code(), ErrorCode::kNotFound);
  EXPECT_EQ(vfs_->Unlink("/gone").code(), ErrorCode::kNotFound);
}

TEST_F(VfsTest, RenameUpdatesNamespaceAndCaches) {
  ASSERT_TRUE(vfs_->Create("/old").ok());
  ASSERT_TRUE(vfs_->Rename("/old", "/new").ok());
  EXPECT_EQ(vfs_->Stat("/old").code(), ErrorCode::kNotFound);
  EXPECT_TRUE(vfs_->Stat("/new").ok());
}

TEST_F(VfsTest, BadFdsRejected) {
  char buf[4];
  EXPECT_EQ(vfs_->Read(42, std::span<char>(buf, 4)).code(),
            ErrorCode::kBadHandle);
  EXPECT_EQ(vfs_->Close(42).code(), ErrorCode::kBadHandle);
}

TEST(VfsOnExtTest, FullStackSmoke) {
  auto disk = RamDisk::Create(16384);
  ASSERT_TRUE(disk.ok());
  auto backend = ExtSimFs::Format(disk->get(), ExtSimFs::Options{});
  ASSERT_TRUE(backend.ok());
  KernelVfs::Options options;
  options.syscall_entry_ns = 0;
  KernelVfs vfs(backend->get(), options);
  ASSERT_TRUE(vfs.Mkdir("/data").ok());
  for (int i = 0; i < 50; ++i) {
    const std::string path = "/data/f" + std::to_string(i);
    auto fd = vfs.Open(path, kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.ok());
    const std::string payload = path;
    ASSERT_TRUE(vfs.Write(*fd, Bytes(payload)).ok());
    ASSERT_TRUE(vfs.Close(*fd).ok());
  }
  for (int i = 0; i < 50; ++i) {
    const std::string path = "/data/f" + std::to_string(i);
    auto fd = vfs.Open(path, kOpenRead);
    ASSERT_TRUE(fd.ok());
    std::string buf(64, '\0');
    auto n = vfs.Read(*fd, std::span<char>(buf.data(), buf.size()));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(std::string_view(buf.data(), *n), path);
    ASSERT_TRUE(vfs.Close(*fd).ok());
  }
}

}  // namespace
}  // namespace aerie
