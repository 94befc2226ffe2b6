// PXFS functional tests: open/read/write/close, directories, resolution,
// fds, name cache behaviour.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/libfs/system.h"
#include "src/pxfs/pxfs.h"
#include "src/tfs/fsck.h"

namespace aerie {

// Reads the name cache's sizes and lowers its bound.
class PxfsTestPeer {
 public:
  static size_t Names(Pxfs& fs) {
    std::lock_guard lock(fs.cache_mu_);
    return fs.name_cache_.size();
  }
  static size_t Chains(Pxfs& fs) {
    std::lock_guard lock(fs.cache_mu_);
    return fs.name_chains_.size();
  }
  // Where the chain stored for `parent` keeps its locks, or null.
  static const LockId* ChainBuffer(Pxfs& fs, Oid parent) {
    std::lock_guard lock(fs.cache_mu_);
    auto it = fs.name_chains_.find(parent.raw());
    return it == fs.name_chains_.end() ? nullptr : it->second.data();
  }
  static void SetNameCacheMax(Pxfs& fs, size_t max) {
    std::lock_guard lock(fs.cache_mu_);
    fs.name_cache_max_ = max;
  }
};

namespace {

class PxfsTest : public ::testing::Test {
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

  void WriteFile(const std::string& path, const std::string& data) {
    auto fd = pxfs_->Open(path, kOpenCreate | kOpenWrite | kOpenTrunc);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    auto n =
        pxfs_->Write(*fd, std::span<const char>(data.data(), data.size()));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(*n, data.size());
    ASSERT_TRUE(pxfs_->Close(*fd).ok());
  }

  std::unique_ptr<AerieSystem> sys_;
  std::unique_ptr<AerieSystem::Client> client_;
  std::unique_ptr<Pxfs> pxfs_;
};

TEST_F(PxfsTest, CreateWriteReadRoundTrip) {
  WriteFile("/hello.txt", "hello aerie");
  EXPECT_EQ(ReadAll("/hello.txt"), "hello aerie");
}

TEST_F(PxfsTest, OpenMissingFileFails) {
  EXPECT_EQ(pxfs_->Open("/missing", kOpenRead).code(), ErrorCode::kNotFound);
}

TEST_F(PxfsTest, OpenFlagsValidated) {
  EXPECT_EQ(pxfs_->Open("/x", 0).code(), ErrorCode::kInvalidArgument);
  // Relative paths resolve from the cwd (the root by default).
  EXPECT_EQ(pxfs_->Open("missing/path", kOpenRead).code(),
            ErrorCode::kNotFound);
}

TEST_F(PxfsTest, RelativePathsResolveFromCwd) {
  ASSERT_TRUE(pxfs_->Mkdir("/rel").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/rel/sub").ok());
  WriteFile("/rel/sub/file.txt", "relative data");
  ASSERT_TRUE(pxfs_->SetCwd("/rel").ok());
  EXPECT_EQ(pxfs_->cwd(), "/rel");
  EXPECT_EQ(ReadAll("sub/file.txt"), "relative data");
  // Relative resolution bypasses the name cache (paper §6.1).
  const uint64_t hits = pxfs_->name_cache_hits();
  const uint64_t misses = pxfs_->name_cache_misses();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pxfs_->Stat("sub/file.txt").ok());
  }
  EXPECT_EQ(pxfs_->name_cache_hits(), hits);
  EXPECT_EQ(pxfs_->name_cache_misses(), misses);
  // Creating through a relative path lands under the cwd.
  ASSERT_TRUE(pxfs_->Create("created_here").ok());
  EXPECT_TRUE(pxfs_->Stat("/rel/created_here").ok());
  // cwd must be a directory.
  EXPECT_EQ(pxfs_->SetCwd("/rel/sub/file.txt").code(),
            ErrorCode::kNotDirectory);
  EXPECT_EQ(pxfs_->SetCwd("/nope").code(), ErrorCode::kNotFound);
}

TEST_F(PxfsTest, WriteRequiresWriteFlag) {
  WriteFile("/ro.txt", "data");
  auto fd = pxfs_->Open("/ro.txt", kOpenRead);
  ASSERT_TRUE(fd.ok());
  const char more[] = "more";
  EXPECT_EQ(pxfs_->Write(*fd, std::span<const char>(more, 4)).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_TRUE(pxfs_->Close(*fd).ok());
}

TEST_F(PxfsTest, MkdirAndNestedCreate) {
  ASSERT_TRUE(pxfs_->Mkdir("/a").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/a/b").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/a/b/c").ok());
  WriteFile("/a/b/c/deep.txt", "nested");
  EXPECT_EQ(ReadAll("/a/b/c/deep.txt"), "nested");
  EXPECT_EQ(pxfs_->Mkdir("/a").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(pxfs_->Mkdir("/no/such/parent").code(), ErrorCode::kNotFound);
}

TEST_F(PxfsTest, StatReportsSizeAndType) {
  ASSERT_TRUE(pxfs_->Mkdir("/dir").ok());
  WriteFile("/dir/file", std::string(5000, 'z'));
  auto fst = pxfs_->Stat("/dir/file");
  ASSERT_TRUE(fst.ok());
  EXPECT_FALSE(fst->is_dir);
  EXPECT_EQ(fst->size, 5000u);
  EXPECT_EQ(fst->link_count, 1u);
  auto dst = pxfs_->Stat("/dir");
  ASSERT_TRUE(dst.ok());
  EXPECT_TRUE(dst->is_dir);
  auto rst = pxfs_->Stat("/");
  ASSERT_TRUE(rst.ok());
  EXPECT_TRUE(rst->is_dir);
}

TEST_F(PxfsTest, ReadDirMergesPendingAndApplied) {
  ASSERT_TRUE(pxfs_->Mkdir("/list").ok());
  WriteFile("/list/applied", "x");
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  ASSERT_TRUE(pxfs_->Create("/list/pending").ok());  // batched, unshipped
  auto entries = pxfs_->ReadDir("/list");
  ASSERT_TRUE(entries.ok());
  std::set<std::string> names;
  for (const auto& e : *entries) {
    names.insert(e.name);
  }
  EXPECT_EQ(names, (std::set<std::string>{"applied", "pending"}));
}

TEST_F(PxfsTest, UnlinkRemovesFile) {
  WriteFile("/gone.txt", "bye");
  ASSERT_TRUE(pxfs_->Unlink("/gone.txt").ok());
  EXPECT_EQ(pxfs_->Stat("/gone.txt").code(), ErrorCode::kNotFound);
  EXPECT_EQ(pxfs_->Open("/gone.txt", kOpenRead).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(pxfs_->Unlink("/gone.txt").code(), ErrorCode::kNotFound);
  // Name is reusable immediately.
  WriteFile("/gone.txt", "back");
  EXPECT_EQ(ReadAll("/gone.txt"), "back");
}

TEST_F(PxfsTest, UnlinkedOpenFileStaysReadable) {
  WriteFile("/zombie.txt", "still here");
  auto fd = pxfs_->Open("/zombie.txt", kOpenRead);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(pxfs_->Unlink("/zombie.txt").ok());
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  EXPECT_EQ(pxfs_->Stat("/zombie.txt").code(), ErrorCode::kNotFound);
  // POSIX: data remains accessible through the open descriptor (§6.1).
  char buf[32] = {};
  auto n = pxfs_->Read(*fd, std::span<char>(buf, sizeof(buf)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string_view(buf, *n), "still here");
  EXPECT_TRUE(pxfs_->Close(*fd).ok());
}

TEST_F(PxfsTest, RmdirOnlyWhenEmpty) {
  ASSERT_TRUE(pxfs_->Mkdir("/d").ok());
  WriteFile("/d/f", "x");
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  EXPECT_EQ(pxfs_->Rmdir("/d").code(), ErrorCode::kNotEmpty);
  ASSERT_TRUE(pxfs_->Unlink("/d/f").ok());
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  EXPECT_TRUE(pxfs_->Rmdir("/d").ok());
  EXPECT_EQ(pxfs_->Stat("/d").code(), ErrorCode::kNotFound);
}

TEST_F(PxfsTest, RenameFileSameDirectory) {
  WriteFile("/old", "content");
  ASSERT_TRUE(pxfs_->Rename("/old", "/new").ok());
  EXPECT_EQ(pxfs_->Stat("/old").code(), ErrorCode::kNotFound);
  EXPECT_EQ(ReadAll("/new"), "content");
}

TEST_F(PxfsTest, RenameAcrossDirectoriesWithOverwrite) {
  ASSERT_TRUE(pxfs_->Mkdir("/src").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/dst").ok());
  WriteFile("/src/f", "moving");
  WriteFile("/dst/f", "victim");
  ASSERT_TRUE(pxfs_->Rename("/src/f", "/dst/f").ok());
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  EXPECT_EQ(pxfs_->Stat("/src/f").code(), ErrorCode::kNotFound);
  EXPECT_EQ(ReadAll("/dst/f"), "moving");
}

TEST_F(PxfsTest, RenameDirectoryMovesSubtree) {
  ASSERT_TRUE(pxfs_->Mkdir("/top").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/top/sub").ok());
  WriteFile("/top/sub/leaf", "subtree data");
  ASSERT_TRUE(pxfs_->Rename("/top", "/moved").ok());
  EXPECT_EQ(ReadAll("/moved/sub/leaf"), "subtree data");
  EXPECT_EQ(pxfs_->Stat("/top").code(), ErrorCode::kNotFound);
}

TEST_F(PxfsTest, SeekAndPartialReads) {
  WriteFile("/seek.txt", "0123456789");
  auto fd = pxfs_->Open("/seek.txt", kOpenRead);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(pxfs_->Seek(*fd, 4).ok());
  char buf[4] = {};
  EXPECT_EQ(*pxfs_->Read(*fd, std::span<char>(buf, 3)), 3u);
  EXPECT_EQ(std::string_view(buf, 3), "456");
  // Sequential position advanced.
  EXPECT_EQ(*pxfs_->Read(*fd, std::span<char>(buf, 3)), 3u);
  EXPECT_EQ(std::string_view(buf, 3), "789");
  // EOF.
  EXPECT_EQ(*pxfs_->Read(*fd, std::span<char>(buf, 3)), 0u);
  EXPECT_TRUE(pxfs_->Close(*fd).ok());
}

TEST_F(PxfsTest, PreadPwriteDoNotMoveOffset) {
  WriteFile("/pp.txt", "aaaaaaaaaa");
  auto fd = pxfs_->Open("/pp.txt", kOpenRead | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  const char patch[] = "XY";
  EXPECT_EQ(*pxfs_->Pwrite(*fd, 3, std::span<const char>(patch, 2)), 2u);
  char buf[16] = {};
  EXPECT_EQ(*pxfs_->Pread(*fd, 0, std::span<char>(buf, 10)), 10u);
  EXPECT_EQ(std::string_view(buf, 10), "aaaXYaaaaa");
  // Sequential offset still at zero.
  EXPECT_EQ(*pxfs_->Read(*fd, std::span<char>(buf, 3)), 3u);
  EXPECT_EQ(std::string_view(buf, 3), "aaa");
  EXPECT_TRUE(pxfs_->Close(*fd).ok());
}

TEST_F(PxfsTest, AppendModeWritesAtEnd) {
  WriteFile("/log.txt", "line1\n");
  auto fd = pxfs_->Open("/log.txt", kOpenWrite | kOpenAppend);
  ASSERT_TRUE(fd.ok());
  const char line[] = "line2\n";
  EXPECT_TRUE(pxfs_->Write(*fd, std::span<const char>(line, 6)).ok());
  EXPECT_TRUE(pxfs_->Close(*fd).ok());
  EXPECT_EQ(ReadAll("/log.txt"), "line1\nline2\n");
}

TEST_F(PxfsTest, TruncateShrinksAndZeroExtends) {
  WriteFile("/t.txt", std::string(10000, 'q'));
  ASSERT_TRUE(pxfs_->Truncate("/t.txt", 100).ok());
  EXPECT_EQ(pxfs_->Stat("/t.txt")->size, 100u);
  EXPECT_EQ(ReadAll("/t.txt"), std::string(100, 'q'));
  ASSERT_TRUE(pxfs_->Truncate("/t.txt", 200).ok());
  const std::string grown = ReadAll("/t.txt");
  ASSERT_EQ(grown.size(), 200u);
  EXPECT_EQ(grown.substr(0, 100), std::string(100, 'q'));
}

TEST_F(PxfsTest, LargeMultiPageFile) {
  std::string big(300 << 10, '\0');  // 300KB: spans many extents
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i % 26));
  }
  WriteFile("/big.bin", big);
  EXPECT_EQ(ReadAll("/big.bin"), big);
  EXPECT_EQ(pxfs_->Stat("/big.bin")->size, big.size());
}

TEST_F(PxfsTest, SparseFileReadsZeros) {
  auto fd = pxfs_->Open("/sparse", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  const char tail[] = "end";
  EXPECT_TRUE(pxfs_->Pwrite(*fd, 100000, std::span<const char>(tail, 3)).ok());
  EXPECT_TRUE(pxfs_->Close(*fd).ok());
  const std::string content = ReadAll("/sparse");
  ASSERT_EQ(content.size(), 100003u);
  EXPECT_EQ(content[0], '\0');
  EXPECT_EQ(content.substr(100000), "end");
}

TEST_F(PxfsTest, NameCacheHitsOnRepeatedResolution) {
  ASSERT_TRUE(pxfs_->Mkdir("/c1").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/c1/c2").ok());
  WriteFile("/c1/c2/f", "x");
  (void)pxfs_->Stat("/c1/c2/f");
  const uint64_t hits_before = pxfs_->name_cache_hits();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pxfs_->Stat("/c1/c2/f").ok());
  }
  EXPECT_GE(pxfs_->name_cache_hits(), hits_before + 10);
}

TEST_F(PxfsTest, LongPathNameCacheHits) {
  // Longer than the bytes a name-cache slot keeps in place, so the key is
  // stored on the heap; a sibling shares the key's first bytes.
  const std::string dir = "/a-directory-name-longer-than-the-slot";
  const std::string path = dir + "/file-with-a-long-name";
  const std::string sibling = dir + "/file-with-a-long-name-too";
  ASSERT_GT(path.size(), SlotKey::kInline);
  ASSERT_TRUE(pxfs_->Mkdir(dir).ok());
  ASSERT_TRUE(pxfs_->Create(path).ok());
  ASSERT_TRUE(pxfs_->Mkdir(sibling).ok());
  pxfs_->FlushNameCache();

  auto first = pxfs_->Stat(path);
  ASSERT_TRUE(first.ok());
  const uint64_t hits = pxfs_->name_cache_hits();
  auto second = pxfs_->Stat(path);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(pxfs_->name_cache_hits(), hits + 1);
  EXPECT_EQ(second->oid, first->oid);
  EXPECT_FALSE(second->is_dir);
  auto other = pxfs_->Stat(sibling);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other->is_dir);
  EXPECT_NE(other->oid, first->oid);
}

// A walk that misses only at its leaf caches its directory prefixes, never
// the leaf; those inserts keep the bound all the same.
TEST_F(PxfsTest, PrefixInsertsKeepTheNameCacheBound) {
  constexpr size_t kMax = 8;
  PxfsTestPeer::SetNameCacheMax(*pxfs_, kMax);
  for (int i = 0; i < 12; ++i) {
    const std::string dir = "/p" + std::to_string(i);
    ASSERT_TRUE(pxfs_->Mkdir(dir).ok());
    ASSERT_TRUE(pxfs_->Mkdir(dir + "/q").ok());
  }
  pxfs_->FlushNameCache();
  for (int i = 0; i < 12; ++i) {
    const std::string dir = "/p" + std::to_string(i) + "/q";
    EXPECT_FALSE(pxfs_->Stat(dir + "/missing").ok());
    EXPECT_LE(PxfsTestPeer::Names(*pxfs_), kMax) << dir;
    EXPECT_LE(PxfsTestPeer::Chains(*pxfs_), kMax) << dir;
  }
  EXPECT_GT(PxfsTestPeer::Names(*pxfs_), 0u);
  for (int i = 0; i < 12; ++i) {
    auto st = pxfs_->Stat("/p" + std::to_string(i) + "/q");
    ASSERT_TRUE(st.ok());
    EXPECT_TRUE(st->is_dir);
  }
}

// A second walk through cached prefixes finds each entry identical and
// leaves it, and the chain stored for its parent, where they are.
TEST_F(PxfsTest, RepeatedWalkLeavesCachedPrefixesAlone) {
  ASSERT_TRUE(pxfs_->Mkdir("/w1").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/w1/w2").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/w1/w2/w3").ok());
  auto w2 = pxfs_->Stat("/w1/w2");
  auto w3 = pxfs_->Stat("/w1/w2/w3");
  ASSERT_TRUE(w2.ok() && w3.ok());
  pxfs_->FlushNameCache();

  EXPECT_FALSE(pxfs_->Stat("/w1/w2/w3/missing").ok());
  const size_t names = PxfsTestPeer::Names(*pxfs_);
  const size_t chains = PxfsTestPeer::Chains(*pxfs_);
  EXPECT_EQ(names, 3u);   // /w1, /w1/w2, /w1/w2/w3
  EXPECT_EQ(chains, 3u);  // their parents: root, /w1, /w1/w2
  const LockId* under_w2 = PxfsTestPeer::ChainBuffer(*pxfs_, w2->oid);
  ASSERT_NE(under_w2, nullptr);
  EXPECT_EQ(PxfsTestPeer::ChainBuffer(*pxfs_, w3->oid), nullptr);

  const uint64_t misses = pxfs_->name_cache_misses();
  EXPECT_FALSE(pxfs_->Stat("/w1/w2/w3/missing").ok());
  EXPECT_EQ(pxfs_->name_cache_misses(), misses + 1);  // it walked again
  EXPECT_EQ(PxfsTestPeer::Names(*pxfs_), names);
  EXPECT_EQ(PxfsTestPeer::Chains(*pxfs_), chains);
  EXPECT_EQ(PxfsTestPeer::ChainBuffer(*pxfs_, w2->oid), under_w2);
}

TEST_F(PxfsTest, NameCacheDisabledNeverHits) {
  Pxfs::Options options;
  options.name_cache = false;
  Pxfs nnc(client_->fs(), options);
  ASSERT_TRUE(nnc.Mkdir("/nnc").ok());
  ASSERT_TRUE(nnc.Create("/nnc/f").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(nnc.Stat("/nnc/f").ok());
  }
  EXPECT_EQ(nnc.name_cache_hits(), 0u);
}

// Every spelling of a path resolves through one probe of the canonical key.
TEST_F(PxfsTest, NameCacheProbesOncePerResolution) {
  ASSERT_TRUE(pxfs_->Mkdir("/a").ok());
  ASSERT_TRUE(pxfs_->Create("/a/b").ok());
  pxfs_->FlushNameCache();
  const uint64_t misses = pxfs_->name_cache_misses();
  auto cold = pxfs_->Stat("/a/b");
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(pxfs_->name_cache_misses(), misses + 1);
  for (const char* spelling : {"/a/b", "/a//b", "/a/./b", "/a/b/"}) {
    const uint64_t hits = pxfs_->name_cache_hits();
    auto st = pxfs_->Stat(spelling);
    ASSERT_TRUE(st.ok()) << spelling;
    EXPECT_EQ(st->oid.raw(), cold->oid.raw()) << spelling;
    EXPECT_EQ(pxfs_->name_cache_hits(), hits + 1) << spelling;
  }
  EXPECT_EQ(pxfs_->name_cache_misses(), misses + 1);
}

// Unlink and rename drop the canonical cache entry, whatever the spelling
// of the path they were given.
TEST_F(PxfsTest, UnlinkByRelativePathDropsCachedName) {
  ASSERT_TRUE(pxfs_->Mkdir("/r").ok());
  WriteFile("/r/f", "x");
  ASSERT_TRUE(pxfs_->Stat("/r/f").ok());
  ASSERT_TRUE(pxfs_->SetCwd("/r/").ok());
  EXPECT_EQ(pxfs_->cwd(), "/r");
  ASSERT_TRUE(pxfs_->Unlink("f").ok());
  EXPECT_EQ(pxfs_->Stat("/r/f").code(), ErrorCode::kNotFound);
  EXPECT_EQ(pxfs_->Open("/r/f", kOpenRead).code(), ErrorCode::kNotFound);
}

TEST_F(PxfsTest, UnlinkByNonCanonicalPathDropsCachedName) {
  ASSERT_TRUE(pxfs_->Mkdir("/u").ok());
  WriteFile("/u/f", "x");
  ASSERT_TRUE(pxfs_->Stat("/u/f").ok());
  ASSERT_TRUE(pxfs_->Unlink("/u//f").ok());
  EXPECT_EQ(pxfs_->Stat("/u/f").code(), ErrorCode::kNotFound);
  EXPECT_EQ(pxfs_->Open("/u/f", kOpenRead).code(), ErrorCode::kNotFound);
}

TEST_F(PxfsTest, RenameByNonCanonicalPathDropsCachedName) {
  ASSERT_TRUE(pxfs_->Mkdir("/m").ok());
  WriteFile("/m/a", "moved");
  ASSERT_TRUE(pxfs_->Stat("/m/a").ok());
  ASSERT_TRUE(pxfs_->Rename("/m/./a", "/m/b").ok());
  EXPECT_EQ(pxfs_->Stat("/m/a").code(), ErrorCode::kNotFound);
  EXPECT_EQ(pxfs_->Open("/m/a", kOpenRead).code(), ErrorCode::kNotFound);
  EXPECT_EQ(ReadAll("/m/b"), "moved");
}

// Renaming a directory above the cwd moves the cwd, so its path is
// forgotten: relative unlinks and renames then drop every cached name
// instead of the cwd's old spelling.
TEST_F(PxfsTest, RelativeOpsUnderMovedCwdDropCachedNames) {
  ASSERT_TRUE(pxfs_->Mkdir("/p").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/p/c").ok());
  WriteFile("/p/c/f", "x");
  WriteFile("/p/c/g", "y");
  ASSERT_TRUE(pxfs_->SetCwd("/p/c").ok());
  ASSERT_TRUE(pxfs_->Rename("/p", "/q").ok());
  EXPECT_EQ(pxfs_->cwd(), "");
  ASSERT_TRUE(pxfs_->Stat("/q/c/f").ok());  // caches the new names
  ASSERT_TRUE(pxfs_->Stat("/q/c/g").ok());
  ASSERT_TRUE(pxfs_->Unlink("f").ok());
  EXPECT_EQ(pxfs_->Stat("/q/c/f").code(), ErrorCode::kNotFound);
  EXPECT_EQ(pxfs_->Open("/q/c/f", kOpenRead).code(), ErrorCode::kNotFound);
  ASSERT_TRUE(pxfs_->Rename("g", "h").ok());
  EXPECT_EQ(pxfs_->Stat("/q/c/g").code(), ErrorCode::kNotFound);
  EXPECT_EQ(ReadAll("/q/c/h"), "y");
  ASSERT_TRUE(pxfs_->SetCwd("/q/c").ok());
  EXPECT_EQ(pxfs_->cwd(), "/q/c");
  ASSERT_TRUE(pxfs_->SetCwd("/").ok());
  ASSERT_TRUE(pxfs_->Rename("/q", "/p").ok());
  EXPECT_EQ(pxfs_->cwd(), "/");
}

TEST_F(PxfsTest, CwdIsStoredCanonical) {
  ASSERT_TRUE(pxfs_->Mkdir("/c").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/c/sub").ok());
  ASSERT_TRUE(pxfs_->SetCwd("//c/./").ok());
  EXPECT_EQ(pxfs_->cwd(), "/c");
  ASSERT_TRUE(pxfs_->SetCwd("sub").ok());
  EXPECT_EQ(pxfs_->cwd(), "/c/sub");
  ASSERT_TRUE(pxfs_->SetCwd("/").ok());
  EXPECT_EQ(pxfs_->cwd(), "/");
}

TEST_F(PxfsTest, BadFdRejected) {
  char buf[4];
  EXPECT_EQ(pxfs_->Read(99, std::span<char>(buf, 4)).code(),
            ErrorCode::kBadHandle);
  EXPECT_EQ(pxfs_->Close(99).code(), ErrorCode::kBadHandle);
  EXPECT_EQ(pxfs_->Close(-1).code(), ErrorCode::kBadHandle);
  auto fd = pxfs_->Open("/fdtest", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(pxfs_->Close(*fd).ok());
  EXPECT_EQ(pxfs_->Close(*fd).code(), ErrorCode::kBadHandle);  // double close
}

TEST_F(PxfsTest, FdsAreRecycled) {
  auto fd1 = pxfs_->Open("/r1", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd1.ok());
  ASSERT_TRUE(pxfs_->Close(*fd1).ok());
  auto fd2 = pxfs_->Open("/r2", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd2.ok());
  EXPECT_EQ(*fd2, *fd1);
  ASSERT_TRUE(pxfs_->Close(*fd2).ok());
}

TEST_F(PxfsTest, OpenDirectoryAsFileFails) {
  ASSERT_TRUE(pxfs_->Mkdir("/adir").ok());
  EXPECT_EQ(pxfs_->Open("/adir", kOpenRead).code(), ErrorCode::kIsDirectory);
  EXPECT_EQ(pxfs_->Unlink("/adir").code(), ErrorCode::kIsDirectory);
  WriteFile("/afile", "x");
  EXPECT_EQ(pxfs_->Rmdir("/afile").code(), ErrorCode::kNotDirectory);
  EXPECT_EQ(pxfs_->ReadDir("/afile").code(), ErrorCode::kNotDirectory);
}

TEST_F(PxfsTest, PathThroughFileFails) {
  WriteFile("/file", "x");
  EXPECT_EQ(pxfs_->Stat("/file/below").code(), ErrorCode::kNotDirectory);
}

TEST_F(PxfsTest, ChmodUpdatesAcl) {
  WriteFile("/perm", "x");
  ASSERT_TRUE(pxfs_->Chmod("/perm", MakeAcl(42, kAclRightRead)).ok());
  auto st = pxfs_->Stat("/perm");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->acl, MakeAcl(42, kAclRightRead));
}

// Pooled mFiles reuse the OIDs of destroyed files. A file created without
// O_TRUNC must not inherit a dead file's pending size or extents (its
// writes would land in pages that now belong to other objects).
TEST_F(PxfsTest, RecycledOidsNeverInheritStaleShadows) {
  const std::string data(8 << 10, 'r');
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 1500; ++i) {
      const std::string path = "/r" + std::to_string(i);
      auto fd = pxfs_->Open(path, kOpenCreate | kOpenWrite);
      ASSERT_TRUE(fd.ok()) << round << "/" << i << ": "
                           << fd.status().ToString();
      auto n =
          pxfs_->Write(*fd, std::span<const char>(data.data(), data.size()));
      ASSERT_TRUE(n.ok()) << round << "/" << i << ": "
                          << n.status().ToString();
      ASSERT_TRUE(pxfs_->Close(*fd).ok());
      ASSERT_EQ(ReadAll(path), data) << round << "/" << i;
      ASSERT_TRUE(pxfs_->Unlink(path).ok()) << round << "/" << i;
    }
    ASSERT_TRUE(pxfs_->SyncAll().ok());
  }
  auto report = RunFsck(sys_->volume());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// A client that ships only on SyncAll, so its writes stay pending.
class PxfsPendingTest : public PxfsTest {
 protected:
  void SetUp() override {
    PxfsTest::SetUp();
    LibFs::Options options;
    options.flush_interval_ms = 0;
    auto client = sys_->NewClient(options);
    ASSERT_TRUE(client.ok());
    pending_client_ = std::move(*client);
    pending_ = std::make_unique<Pxfs>(pending_client_->fs());
  }
  void TearDown() override {
    pending_.reset();
    pending_client_.reset();
    PxfsTest::TearDown();
  }

  std::unique_ptr<AerieSystem::Client> pending_client_;
  std::unique_ptr<Pxfs> pending_;
};

TEST_F(PxfsPendingTest, HardLinkedFileKeepsPendingStateUntilShipped) {
  const std::string data(3 * 4096 + 100, 'h');
  auto fd = pending_->Open("/orig", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(
      pending_->Write(*fd, std::span<const char>(data.data(), data.size()))
          .ok());
  ASSERT_TRUE(pending_->Close(*fd).ok());
  ASSERT_TRUE(pending_->Link("/orig", "/alias").ok());
  ASSERT_TRUE(pending_->Unlink("/orig").ok());
  EXPECT_GT(pending_client_->fs()->pending_ops(), 0u);
  for (int shipped = 0; shipped < 2; ++shipped) {
    auto st = pending_->Stat("/alias");
    ASSERT_TRUE(st.ok()) << shipped;
    EXPECT_EQ(st->size, data.size()) << shipped;
    auto rfd = pending_->Open("/alias", kOpenRead);
    ASSERT_TRUE(rfd.ok()) << shipped;
    std::string buf(data.size() + 10, '\0');
    auto n = pending_->Read(*rfd, std::span<char>(buf.data(), buf.size()));
    ASSERT_TRUE(n.ok()) << shipped;
    buf.resize(*n);
    EXPECT_EQ(buf, data) << shipped;
    ASSERT_TRUE(pending_->Close(*rfd).ok());
    ASSERT_TRUE(pending_->SyncAll().ok());
  }
}

TEST_F(PxfsPendingTest, UnlinkedOpenFileKeepsPendingStateUntilShipped) {
  const std::string data(2 * 4096 + 7, 'u');
  auto fd = pending_->Open("/doomed", kOpenCreate | kOpenWrite | kOpenRead);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(
      pending_->Write(*fd, std::span<const char>(data.data(), data.size()))
          .ok());
  ASSERT_TRUE(pending_->Unlink("/doomed").ok());
  EXPECT_GT(pending_client_->fs()->pending_ops(), 0u);
  for (int shipped = 0; shipped < 2; ++shipped) {
    auto st = pending_->Fstat(*fd);
    ASSERT_TRUE(st.ok()) << shipped;
    EXPECT_EQ(st->size, data.size()) << shipped;
    std::string buf(data.size() + 10, '\0');
    auto n = pending_->Pread(*fd, 0, std::span<char>(buf.data(), buf.size()));
    ASSERT_TRUE(n.ok()) << shipped;
    buf.resize(*n);
    EXPECT_EQ(buf, data) << shipped;
    ASSERT_TRUE(pending_->SyncAll().ok());
  }
  ASSERT_TRUE(pending_->Close(*fd).ok());
}

// A newborn pooled mFile is empty: O_TRUNC on the Open that creates it logs
// only the create.
TEST_F(PxfsPendingTest, TruncOnCreateLogsNoTruncate) {
  LibFs* fs = pending_client_->fs();
  const uint64_t before = fs->ops_logged();
  auto fd = pending_->Open("/fresh", kOpenCreate | kOpenWrite | kOpenTrunc);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fs->ops_logged() - before, 1u);
  ASSERT_TRUE(pending_->Close(*fd).ok());
  // O_TRUNC on an existing file still truncates it.
  const std::string data = "old contents";
  fd = pending_->Open("/fresh", kOpenWrite);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(
      pending_->Write(*fd, std::span<const char>(data.data(), data.size()))
          .ok());
  ASSERT_TRUE(pending_->Close(*fd).ok());
  const uint64_t mid = fs->ops_logged();
  fd = pending_->Open("/fresh", kOpenWrite | kOpenTrunc);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fs->ops_logged() - mid, 1u);
  ASSERT_TRUE(pending_->Close(*fd).ok());
  auto st = pending_->Stat("/fresh");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 0u);
}

}  // namespace
}  // namespace aerie
