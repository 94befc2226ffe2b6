// Zero-RPC direct data path (DESIGN.md §10). Three layers:
//
//  * DirectPathTest.*: functional coverage — warmed reads and aligned
//    in-place overwrites run against the cached extent map (counters
//    advance, results match the locked path), appends/extends fall back,
//    revocation by a second client bumps the direct epoch and forces the
//    locked path, an open of a file mapped under the current epoch skips
//    the clerk (but O_TRUNC, a write open of a read map, and a client
//    without the direct path do not), a concurrent reader never observes
//    a torn page, files past the map cap work through call-sized maps, an
//    extend's stored map shares the chunks it does not touch, data calls
//    racing a Close of their fd never touch a freed fd entry, and the map
//    cache keeps more than 4,096 small maps, stays within its slot budget,
//    and gives a referenced map a second chance (also while readers race
//    evictions and a truncate).
//  * DirectPathCrashTest.CleanSweep*: the crash simulator enumerates states
//    across a direct overwrite and across a revoke-triggered batch ship on a
//    shared directory; every image must recover consistently.
//  * DirectPathCrashTest.Detects*: mutation mode — suppressing the data
//    write's registered BFlush site must be caught by a commit-marker
//    content oracle (acknowledged overwrites or extends whose bytes never
//    left the WC buffers).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/open_flags.h"
#include "src/flatfs/flatfs.h"
#include "src/libfs/system.h"
#include "src/osd/mfile.h"
#include "src/pxfs/pxfs.h"
#include "src/scm/crash_sim.h"
#include "src/tfs/fsck.h"

namespace aerie {
namespace {

constexpr uint64_t kPage = 4096;

LibFs::Options EagerClientOptions() {
  LibFs::Options options;
  options.eager_ship = true;
  options.flush_interval_ms = 0;
  options.pool_refill = 64;
  return options;
}

std::span<const char> Bytes(const std::string& s) {
  return std::span<const char>(s.data(), s.size());
}

// --- Functional -----------------------------------------------------------

class DirectPathTest : public ::testing::Test {
 protected:
  void SetUp() override { Remount(64ull << 20); }

  // A fresh system of `region_bytes` with one client and /d.
  void Remount(uint64_t region_bytes) {
    fs_.reset();
    client_.reset();
    sys_.reset();
    AerieSystem::Options options;
    options.region_bytes = region_bytes;
    auto sys = AerieSystem::Create(options);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    sys_ = std::move(*sys);
    auto client = sys_->NewClient(EagerClientOptions());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(*client);
    fs_ = std::make_unique<Pxfs>(client_->fs());
    ASSERT_TRUE(fs_->Mkdir("/d").ok());
  }

  // Creates `path` with `pages` pages of `fill` through the locked path.
  void MakeFile(const std::string& path, int pages, char fill) {
    auto fd = fs_->Open(path, kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    const std::string data(pages * kPage, fill);
    auto n = fs_->Write(*fd, Bytes(data));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_EQ(*n, data.size());
    ASSERT_TRUE(fs_->Close(*fd).ok());
  }

  LibFs* libfs() { return client_->fs(); }

  std::unique_ptr<AerieSystem> sys_;
  std::unique_ptr<AerieSystem::Client> client_;
  std::unique_ptr<Pxfs> fs_;
};

TEST_F(DirectPathTest, WarmedReadsServeFromCachedMap) {
  MakeFile("/d/r", 2, 'a');
  auto fd = fs_->Open("/d/r", kOpenRead);
  ASSERT_TRUE(fd.ok());
  std::string buf(2 * kPage, '\0');

  // First read takes the locked path and warms the map.
  auto n = fs_->Pread(*fd, 0, std::span<char>(buf.data(), buf.size()));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, buf.size());
  const uint64_t before = libfs()->direct_read_bytes();

  n = fs_->Pread(*fd, 0, std::span<char>(buf.data(), buf.size()));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, buf.size());
  EXPECT_EQ(buf, std::string(2 * kPage, 'a'));
  EXPECT_EQ(libfs()->direct_read_bytes(), before + buf.size());

  // Partial read from an interior offset through the same map.
  std::string tail(kPage, '\0');
  n = fs_->Pread(*fd, kPage, std::span<char>(tail.data(), tail.size()));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, kPage);
  EXPECT_EQ(tail, std::string(kPage, 'a'));
  EXPECT_EQ(libfs()->direct_read_bytes(), before + buf.size() + kPage);
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

TEST_F(DirectPathTest, InPlaceOverwritesGoDirectAndStayReadable) {
  MakeFile("/d/w", 2, 'a');
  auto fd = fs_->Open("/d/w", kOpenRead | kOpenWrite);
  ASSERT_TRUE(fd.ok());

  // First overwrite is in place but uncached: locked path, warms a writable
  // map.
  const std::string first(kPage, 'b');
  auto n = fs_->Pwrite(*fd, 0, Bytes(first));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, kPage);
  const uint64_t before = libfs()->direct_write_bytes();

  const std::string second(kPage, 'c');
  n = fs_->Pwrite(*fd, kPage, Bytes(second));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, kPage);
  EXPECT_EQ(libfs()->direct_write_bytes(), before + kPage);

  // Readable through both the direct and the locked path.
  std::string buf(2 * kPage, '\0');
  n = fs_->Pread(*fd, 0, std::span<char>(buf.data(), buf.size()));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(buf.substr(0, kPage), first);
  EXPECT_EQ(buf.substr(kPage), second);
  ASSERT_TRUE(fs_->Close(*fd).ok());

  auto fd2 = fs_->Open("/d/w", kOpenRead);
  ASSERT_TRUE(fd2.ok());
  std::fill(buf.begin(), buf.end(), '\0');
  n = fs_->Pread(*fd2, 0, std::span<char>(buf.data(), buf.size()));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(buf.substr(kPage), second);
  ASSERT_TRUE(fs_->Close(*fd2).ok());
}

TEST_F(DirectPathTest, ExtendsAndAppendsFallBackToLockedPath) {
  MakeFile("/d/x", 1, 'a');
  auto fd = fs_->Open("/d/x", kOpenRead | kOpenWrite);
  ASSERT_TRUE(fd.ok());

  // Warm a writable map with an in-place overwrite.
  const std::string page(kPage, 'b');
  ASSERT_TRUE(fs_->Pwrite(*fd, 0, Bytes(page)).ok());
  const uint64_t direct_before = libfs()->direct_write_bytes();

  // Extending past EOF must not run direct: it needs an extent allocation
  // and a logged SetSize.
  auto n = fs_->Pwrite(*fd, kPage, Bytes(page));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, kPage);
  EXPECT_EQ(libfs()->direct_write_bytes(), direct_before);

  auto st = fs_->Fstat(*fd);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 2 * kPage);
  ASSERT_TRUE(fs_->Close(*fd).ok());

  // O_APPEND writes always take the locked path.
  auto afd = fs_->Open("/d/x", kOpenWrite | kOpenAppend);
  ASSERT_TRUE(afd.ok());
  ASSERT_TRUE(fs_->Write(*afd, Bytes(page)).ok());
  EXPECT_EQ(libfs()->direct_write_bytes(), direct_before);
  ASSERT_TRUE(fs_->Close(*afd).ok());
}

TEST_F(DirectPathTest, OptionsCanDisableTheDirectPath) {
  LibFs::Options options = EagerClientOptions();
  options.direct_data = false;
  auto client = sys_->NewClient(options);
  ASSERT_TRUE(client.ok());
  LibFs* libfs = (*client)->fs();
  Pxfs plain(libfs);
  ASSERT_TRUE(plain.Mkdir("/nd").ok());
  auto fd = plain.Open("/nd/f", kOpenCreate | kOpenRead | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  const std::string page(kPage, 'z');
  ASSERT_TRUE(plain.Write(*fd, Bytes(page)).ok());
  std::string buf(kPage, '\0');
  ASSERT_TRUE(plain.Pread(*fd, 0, std::span<char>(buf.data(), kPage)).ok());
  ASSERT_TRUE(plain.Pread(*fd, 0, std::span<char>(buf.data(), kPage)).ok());
  ASSERT_TRUE(plain.Pwrite(*fd, 0, Bytes(page)).ok());
  ASSERT_TRUE(plain.Pwrite(*fd, 0, Bytes(page)).ok());
  ASSERT_TRUE(plain.Close(*fd).ok());

  // The same switch turns FlatFS gets to the locked way: a put, a get that
  // finds the put's entry, and one that reads the shipped collection.
  FlatFs flat(libfs);
  ASSERT_TRUE(flat.Put("nd", Bytes(page)).ok());
  auto got = flat.Get("nd");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, page);
  ASSERT_TRUE(flat.Sync().ok());
  libfs->clerk()->ReleaseAllGlobals();
  got = flat.Get("nd");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, page);
  got = flat.Get("nd");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, page);

  EXPECT_EQ(libfs->direct_read_bytes(), 0u);
  EXPECT_EQ(libfs->direct_write_bytes(), 0u);
}

TEST_F(DirectPathTest, RevocationBumpsEpochAndForcesLockedPath) {
  MakeFile("/d/s", 1, 'A');
  auto fd = fs_->Open("/d/s", kOpenRead);
  ASSERT_TRUE(fd.ok());
  std::string buf(kPage, '\0');
  // Warm and confirm the map is live.
  ASSERT_TRUE(fs_->Pread(*fd, 0, std::span<char>(buf.data(), kPage)).ok());
  const uint64_t before = libfs()->direct_read_bytes();
  ASSERT_TRUE(fs_->Pread(*fd, 0, std::span<char>(buf.data(), kPage)).ok());
  ASSERT_EQ(libfs()->direct_read_bytes(), before + kPage);

  LockClerk* clerk = client_->fs()->clerk();
  const uint64_t epoch = clerk->direct_epoch();

  // A second client takes the file lock for write: our cached authority is
  // revoked, which must bump the direct epoch before the grant moves.
  auto client2 = sys_->NewClient(EagerClientOptions());
  ASSERT_TRUE(client2.ok());
  Pxfs fs2((*client2)->fs());
  auto fd2 = fs2.Open("/d/s", kOpenWrite);
  ASSERT_TRUE(fd2.ok()) << fd2.status().ToString();
  const std::string page(kPage, 'B');
  ASSERT_TRUE(fs2.Pwrite(*fd2, 0, Bytes(page)).ok());
  ASSERT_TRUE(fs2.Close(*fd2).ok());

  EXPECT_GT(clerk->direct_epoch(), epoch);
  // A pin attempt against the pre-revoke epoch must be refused and counted.
  const uint64_t fallbacks = clerk->direct_fallbacks();
  EXPECT_FALSE(clerk->TryEnterDirect(epoch));
  EXPECT_EQ(clerk->direct_fallbacks(), fallbacks + 1);

  // Our next read re-acquires and must see the other client's bytes.
  ASSERT_TRUE(fs_->Pread(*fd, 0, std::span<char>(buf.data(), kPage)).ok());
  EXPECT_EQ(buf, page);
  // ... and the map re-warms under the new epoch.
  const uint64_t direct = libfs()->direct_read_bytes();
  ASSERT_TRUE(fs_->Pread(*fd, 0, std::span<char>(buf.data(), kPage)).ok());
  EXPECT_EQ(libfs()->direct_read_bytes(), direct + kPage);
  EXPECT_EQ(buf, page);
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

// --- Map-authorized open ---------------------------------------------------

// Opens `path` with `flags`, reads it whole, closes it.
std::string OpenReadClose(Pxfs* fs, const std::string& path, int flags) {
  auto fd = fs->Open(path, flags);
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  if (!fd.ok()) {
    return "";
  }
  std::string buf(4 * kPage, '\0');
  auto n = fs->Pread(*fd, 0, std::span<char>(buf.data(), buf.size()));
  EXPECT_TRUE(n.ok()) << n.status().ToString();
  buf.resize(n.ok() ? *n : 0);
  EXPECT_TRUE(fs->Close(*fd).ok());
  return buf;
}

TEST_F(DirectPathTest, OpenOfMappedFileSkipsTheClerk) {
  MakeFile("/d/o", 2, 'o');
  ASSERT_EQ(OpenReadClose(fs_.get(), "/d/o", kOpenRead),
            std::string(2 * kPage, 'o'));
  LockClerk* clerk = libfs()->clerk();
  const uint64_t grants = clerk->local_grants();
  const uint64_t direct = libfs()->direct_read_bytes();
  EXPECT_EQ(OpenReadClose(fs_.get(), "/d/o", kOpenRead),
            std::string(2 * kPage, 'o'));
  EXPECT_EQ(OpenReadClose(fs_.get(), "/d/o", kOpenRead | kOpenWrite),
            std::string(2 * kPage, 'o'));
  EXPECT_EQ(clerk->local_grants(), grants);
  EXPECT_EQ(libfs()->direct_read_bytes(), direct + 4 * kPage);
}

TEST_F(DirectPathTest, TruncatingOpenOfMappedFileTruncates) {
  MakeFile("/d/t", 2, 't');
  ASSERT_EQ(OpenReadClose(fs_.get(), "/d/t", kOpenRead),
            std::string(2 * kPage, 't'));
  LockClerk* clerk = libfs()->clerk();
  const uint64_t grants = clerk->local_grants();
  auto fd = fs_->Open("/d/t", kOpenWrite | kOpenTrunc);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  EXPECT_GT(clerk->local_grants(), grants);
  ASSERT_TRUE(fs_->Close(*fd).ok());
  auto st = fs_->Stat("/d/t");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 0u);
  EXPECT_EQ(OpenReadClose(fs_.get(), "/d/t", kOpenRead), "");
}

TEST_F(DirectPathTest, WriteOpenOfReadMappedFileGoesThroughTheClerk) {
  MakeFile("/d/w", 1, 'w');
  // Drop the writable map the create left, then map the file for reading.
  libfs()->clerk()->ReleaseAllGlobals();
  ASSERT_EQ(OpenReadClose(fs_.get(), "/d/w", kOpenRead),
            std::string(kPage, 'w'));
  auto st = fs_->Stat("/d/w");
  ASSERT_TRUE(st.ok());
  auto map = libfs()->LookupDirect(st->oid);
  ASSERT_NE(map, nullptr);
  ASSERT_FALSE(map->writable);

  LockClerk* clerk = libfs()->clerk();
  uint64_t grants = clerk->local_grants();
  auto fd = fs_->Open("/d/w", kOpenRead);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(clerk->local_grants(), grants);
  ASSERT_TRUE(fs_->Close(*fd).ok());
  fd = fs_->Open("/d/w", kOpenWrite);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  EXPECT_GT(clerk->local_grants(), grants);
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

TEST_F(DirectPathTest, EveryOpenGoesThroughTheClerkWithoutDirectData) {
  LibFs::Options options = EagerClientOptions();
  options.direct_data = false;
  auto client = sys_->NewClient(options);
  ASSERT_TRUE(client.ok());
  LockClerk* clerk = (*client)->fs()->clerk();
  Pxfs plain((*client)->fs());
  ASSERT_TRUE(plain.Mkdir("/nd").ok());
  auto fd = plain.Open("/nd/f", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(plain.Write(*fd, Bytes(std::string(kPage, 'n'))).ok());
  ASSERT_TRUE(plain.Close(*fd).ok());
  // The first open caches the name; each open then takes the file lock.
  ASSERT_EQ(OpenReadClose(&plain, "/nd/f", kOpenRead), std::string(kPage, 'n'));
  for (int i = 0; i < 3; ++i) {
    const uint64_t grants = clerk->local_grants();
    auto rfd = plain.Open("/nd/f", kOpenRead);
    ASSERT_TRUE(rfd.ok());
    EXPECT_EQ(clerk->local_grants(), grants + 1) << i;
    ASSERT_TRUE(plain.Close(*rfd).ok());
  }
}

// A reader hammering the direct path while another client overwrites the
// same page must never observe a torn page: direct access is epoch-pinned,
// and the writer's grant cannot complete until in-flight pins retire.
TEST_F(DirectPathTest, ConcurrentWriterNeverTearsDirectReads) {
  MakeFile("/d/t", 1, 'A');
  auto fd = fs_->Open("/d/t", kOpenRead);
  ASSERT_TRUE(fd.ok());
  std::string warm(kPage, '\0');
  ASSERT_TRUE(fs_->Pread(*fd, 0, std::span<char>(warm.data(), kPage)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    std::string buf(kPage, '\0');
    while (!stop.load()) {
      auto n = fs_->Pread(*fd, 0, std::span<char>(buf.data(), kPage));
      if (!n.ok() || *n != kPage) {
        torn.fetch_add(1);
        break;
      }
      const char c = buf[0];
      if ((c != 'A' && c != 'B') ||
          buf != std::string(kPage, c)) {
        torn.fetch_add(1);
        break;
      }
    }
  });

  auto client2 = sys_->NewClient(EagerClientOptions());
  ASSERT_TRUE(client2.ok());
  Pxfs fs2((*client2)->fs());
  auto fd2 = fs2.Open("/d/t", kOpenWrite);
  ASSERT_TRUE(fd2.ok());
  for (int i = 0; i < 60; ++i) {
    const std::string page(kPage, (i % 2) ? 'A' : 'B');
    ASSERT_TRUE(fs2.Pwrite(*fd2, 0, Bytes(page)).ok());
  }
  ASSERT_TRUE(fs2.Close(*fd2).ok());
  stop.store(true);
  reader.join();
  EXPECT_EQ(torn.load(), 0);
}

TEST_F(DirectPathTest, FlatFsGetsGoDirectAndStayCoherent) {
  FlatFs flat(client_->fs());
  const std::string v1(1024, 'p');
  ASSERT_TRUE(flat.Put("k", Bytes(v1)).ok());

  // Put caches the value location eagerly: the very first get is direct.
  const uint64_t before = libfs()->direct_read_bytes();
  auto got = flat.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v1);
  EXPECT_EQ(libfs()->direct_read_bytes(), before + v1.size());

  // Replacement points the key at a new file; the stale location must not
  // be served.
  const std::string v2(2048, 'q');
  ASSERT_TRUE(flat.Put("k", Bytes(v2)).ok());
  got = flat.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v2);

  ASSERT_TRUE(flat.Erase("k").ok());
  EXPECT_EQ(flat.Get("k").status().code(), ErrorCode::kNotFound);
}

// One thread recycles an fd number (Close hands it back, the next Open
// reuses it) while another issues data calls on that number. Every call
// must either work on whichever file is open there or report kBadHandle;
// none may touch the freed entry.
TEST_F(DirectPathTest, FdReuseRacesWithDataCalls) {
  MakeFile("/d/fa", 2, 'a');
  MakeFile("/d/fb", 2, 'b');
  auto opened = fs_->Open("/d/fa", kOpenRead | kOpenWrite);
  ASSERT_TRUE(opened.ok());
  const int fd = *opened;

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<int> reopens{0};
  std::thread churn([&] {
    for (int i = 0; !stop.load(); ++i) {
      const bool closed = fs_->Close(fd).ok();
      auto again =
          fs_->Open(i % 2 ? "/d/fa" : "/d/fb", kOpenRead | kOpenWrite);
      if (!closed || !again.ok() || *again != fd) {
        bad.fetch_add(1);
        break;
      }
      reopens.fetch_add(1);
    }
  });

  auto acceptable = [](const Status& st) {
    return st.ok() || st.code() == ErrorCode::kBadHandle;
  };
  // Run until both sides have done plenty of work; the split between calls
  // that find the fd open and ones that find it closed varies run to run.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::string buf(kPage, '\0');
  int served = 0;
  while ((served < 500 || reopens.load() < 500) && bad.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    auto n = fs_->Pread(fd, 0, std::span<char>(buf.data(), kPage));
    served += n.ok() ? 1 : 0;
    if (!acceptable(n.status()) ||
        !acceptable(fs_->Ftruncate(fd, 2 * kPage)) ||
        !acceptable(fs_->Fstat(fd).status())) {
      bad.fetch_add(1);
    }
  }
  stop.store(true);
  churn.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(served, 0);
  EXPECT_GT(reopens.load(), 0);
  ASSERT_TRUE(fs_->Close(fd).ok());
}

// A file spanning more than the map cap (kDirectMaxPages) is never cached,
// so no call goes pinned: a call that edits nothing maps just the pages it
// touches, and an edit works on a whole-file map that holds only the pages
// the file has.
TEST_F(DirectPathTest, SparseFileBeyondMapCapUsesCallSizedMaps) {
  constexpr uint64_t kFar = 1ull << 30;
  auto fd = fs_->Open("/d/sparse", kOpenCreate | kOpenRead | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  const std::string page(kPage, 's');
  auto n = fs_->Pwrite(*fd, kFar, Bytes(page));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, kPage);
  auto st = fs_->Fstat(*fd);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, kFar + kPage);

  const uint64_t direct_before = libfs()->direct_read_bytes();
  std::string buf(kPage, '\0');
  for (int pass = 0; pass < 2; ++pass) {
    n = fs_->Pread(*fd, kFar, std::span<char>(buf.data(), kPage));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, kPage);
    EXPECT_EQ(buf, page);
    // A hole before the page reads as zeros.
    n = fs_->Pread(*fd, kFar / 2, std::span<char>(buf.data(), kPage));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, kPage);
    EXPECT_EQ(buf, std::string(kPage, '\0'));
  }
  EXPECT_EQ(libfs()->direct_read_bytes(), direct_before);

  // Truncating below the page drops it, before and after the batch applies.
  const uint64_t cut = kFar - 100;
  ASSERT_TRUE(fs_->Ftruncate(*fd, cut).ok());
  for (int pass = 0; pass < 2; ++pass) {
    st = fs_->Fstat(*fd);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->size, cut);
    n = fs_->Pread(*fd, kFar, std::span<char>(buf.data(), kPage));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 0u);
    n = fs_->Pread(*fd, cut - kPage, std::span<char>(buf.data(), kPage));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, kPage);
    EXPECT_EQ(buf, std::string(kPage, '\0'));
    ASSERT_TRUE(fs_->SyncAll().ok());
  }
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

// Maps cost memory for the pages a file has, not for the offsets it spans:
// a write and truncates at offsets of tens of TiB edit whole-file maps of a
// sparse file, before and after the batch applies.
TEST_F(DirectPathTest, MultiTebibyteOffsetsMapOnlyTheirPages) {
  constexpr uint64_t kFar = 1ull << 45;
  constexpr uint64_t kCut = 1ull << 40;
  constexpr uint64_t kGrown = 1ull << 44;
  auto fd = fs_->Open("/d/vast", kOpenCreate | kOpenRead | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  auto n = fs_->Pwrite(*fd, kFar, Bytes("x"));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  std::string buf(kPage, '\0');
  for (int pass = 0; pass < 2; ++pass) {
    auto st = fs_->Fstat(*fd);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->size, kFar + 1);
    n = fs_->Pread(*fd, kFar, std::span<char>(buf.data(), kPage));
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, 1u);
    EXPECT_EQ(buf[0], 'x');
    n = fs_->Pread(*fd, kFar / 2, std::span<char>(buf.data(), kPage));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(buf, std::string(kPage, '\0'));
    ASSERT_TRUE(fs_->SyncAll().ok());
  }

  // Shrink below the page, grow again, and write inside the grown range.
  ASSERT_TRUE(fs_->Ftruncate(*fd, kCut).ok());
  ASSERT_TRUE(fs_->Ftruncate(*fd, kGrown).ok());
  n = fs_->Pwrite(*fd, kCut + kPage, Bytes("y"));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  for (int pass = 0; pass < 2; ++pass) {
    auto st = fs_->Fstat(*fd);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->size, kGrown);
    n = fs_->Pread(*fd, kFar, std::span<char>(buf.data(), kPage));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 0u);
    n = fs_->Pread(*fd, kCut + kPage, std::span<char>(buf.data(), 2));
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, 2u);
    EXPECT_EQ(buf.substr(0, 2), std::string("y\0", 2));
    n = fs_->Pread(*fd, kGrown - kPage, std::span<char>(buf.data(), kPage));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, kPage);
    EXPECT_EQ(buf, std::string(kPage, '\0'));
    ASSERT_TRUE(fs_->SyncAll().ok());
  }
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

TEST_F(DirectPathTest, ExtendsShareUntouchedMapChunks) {
  // A locked extend stores an edited copy of the cached map. The copy shares
  // the chunks the write does not touch, and the map it replaced (which a
  // pinned reader may still hold) stays as it was.
  constexpr uint64_t kChunk = MFile::DirectExtentMap::kChunkPages;
  auto fd = fs_->Open("/d/big", kOpenCreate | kOpenRead | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  const std::string head((kChunk - 1) * kPage, 'a');
  ASSERT_TRUE(fs_->Pwrite(*fd, 0, Bytes(head)).ok());
  auto st = fs_->Fstat(*fd);
  ASSERT_TRUE(st.ok());
  const Oid oid = st->oid;
  auto before = libfs()->LookupDirect(oid);
  ASSERT_NE(before, nullptr);
  ASSERT_NE(before->map.chunk(0), nullptr);
  EXPECT_EQ(before->map.chunk(kChunk), nullptr);

  // Two pages across the first chunk boundary.
  const std::string mid(2 * kPage, 'b');
  ASSERT_TRUE(fs_->Pwrite(*fd, (kChunk - 1) * kPage, Bytes(mid)).ok());
  auto after = libfs()->LookupDirect(oid);
  ASSERT_NE(after, nullptr);
  ASSERT_NE(after->map.chunk(kChunk), nullptr);
  EXPECT_NE(after->map.chunk(0), before->map.chunk(0));
  EXPECT_EQ(before->map.size, head.size());
  EXPECT_EQ(before->map.end_page, kChunk - 1);
  ASSERT_EQ(before->map.chunk(0)->size(), kChunk - 1);
  for (uint64_t p = 0; p < kChunk - 1; ++p) {
    ASSERT_EQ(before->map.extent(p), after->map.extent(p)) << p;
  }

  // One page inside the second chunk, past a one-page hole, leaves the
  // first chunk shared.
  const std::string tail(kPage, 'c');
  ASSERT_TRUE(fs_->Pwrite(*fd, (kChunk + 2) * kPage, Bytes(tail)).ok());
  auto extended = libfs()->LookupDirect(oid);
  ASSERT_NE(extended, nullptr);
  EXPECT_EQ(extended->map.chunk(0), after->map.chunk(0));
  EXPECT_NE(extended->map.chunk(kChunk), after->map.chunk(kChunk));

  // Filling the hole edits a copy of the second chunk, not the chunk the
  // replaced map still reads.
  const std::string fill(kPage, 'd');
  ASSERT_TRUE(fs_->Pwrite(*fd, (kChunk + 1) * kPage, Bytes(fill)).ok());
  auto filled = libfs()->LookupDirect(oid);
  ASSERT_NE(filled, nullptr);
  EXPECT_EQ(extended->map.extent(kChunk + 1), 0u);
  EXPECT_NE(filled->map.extent(kChunk + 1), 0u);
  EXPECT_EQ(filled->map.chunk(0), extended->map.chunk(0));

  const std::string want = head + mid + fill + tail;
  std::string buf(want.size() + kPage, '\0');
  for (int pass = 0; pass < 2; ++pass) {
    // Through the stored copy, then through a map rebuilt under the lock.
    auto n = fs_->Pread(*fd, 0, std::span<char>(buf.data(), buf.size()));
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, want.size());
    EXPECT_EQ(buf.substr(0, want.size()), want);
    libfs()->InvalidateDirect(oid);
  }
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

// --- Extent-map cache bound ------------------------------------------------

// More files than the cache once held maps (4,096) all stay cached: the
// cache is bounded by the slots its maps hold, and one-page files are cheap.
TEST_F(DirectPathTest, CacheKeepsMapsPastFourThousandFiles) {
  constexpr int kFiles = 4200;
  Remount(256ull << 20);
  ASSERT_FALSE(HasFailure());
  for (int i = 0; i < kFiles; ++i) {
    MakeFile("/d/m" + std::to_string(i), 1, static_cast<char>('a' + i % 26));
    ASSERT_FALSE(HasFailure()) << i;
  }
  EXPECT_GE(libfs()->direct_cache_maps(), static_cast<uint64_t>(kFiles));
  EXPECT_EQ(libfs()->direct_cache_evictions(), 0u);

  auto st = fs_->Stat("/d/m0");
  ASSERT_TRUE(st.ok());
  EXPECT_NE(libfs()->LookupDirect(st->oid), nullptr);
  auto fd = fs_->Open("/d/m0", kOpenRead);
  ASSERT_TRUE(fd.ok());
  const uint64_t direct = libfs()->direct_read_bytes();
  std::string buf(kPage, '\0');
  auto n = fs_->Pread(*fd, 0, std::span<char>(buf.data(), kPage));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, kPage);
  EXPECT_EQ(buf, std::string(kPage, 'a'));
  EXPECT_EQ(libfs()->direct_read_bytes(), direct + kPage);
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

// Sparse files whose one data page sits just under 200 MB: each cached map
// is charged ~51k slots, so about 20 of them fill the budget.
constexpr int kSparseFiles = 24;
constexpr uint64_t kSparseBytes = 200ull << 20;
constexpr uint64_t kSparseTail = kSparseBytes - kPage;
static_assert(kSparseFiles * (kSparseBytes / kPage + LibFs::kDirectEntrySlots) >
              LibFs::kDirectCacheSlots);

std::string SparsePath(int i) { return "/d/s" + std::to_string(i); }
char SparseTag(int i) { return static_cast<char>('A' + i); }

void MakeSparseSet(Pxfs* fs) {
  for (int i = 0; i < kSparseFiles; ++i) {
    auto fd = fs->Open(SparsePath(i), kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    const std::string page(kPage, SparseTag(i));
    auto n = fs->Pwrite(*fd, kSparseTail, Bytes(page));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_TRUE(fs->Close(*fd).ok());
  }
}

// Reads sparse file i's data page through `fd`.
void ExpectSparseTail(Pxfs* fs, int fd, int i) {
  std::string buf(kPage, '\0');
  auto n = fs->Pread(fd, kSparseTail, std::span<char>(buf.data(), kPage));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_EQ(*n, kPage);
  EXPECT_EQ(buf, std::string(kPage, SparseTag(i))) << i;
}

// Reads sparse file i's data page and a hole page through `fd`.
void ExpectSparseReads(Pxfs* fs, int fd, int i) {
  ExpectSparseTail(fs, fd, i);
  std::string buf(kPage, '\0');
  auto n = fs->Pread(fd, kSparseBytes / 2, std::span<char>(buf.data(), kPage));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_EQ(*n, kPage);
  EXPECT_EQ(buf, std::string(kPage, '\0')) << i;
}

TEST_F(DirectPathTest, CacheStaysWithinBudgetAndKeepsAReferencedMap) {
  MakeSparseSet(fs_.get());
  ASSERT_FALSE(HasFailure());
  EXPECT_LE(libfs()->direct_cache_slots(), LibFs::kDirectCacheSlots);
  std::vector<int> fds;
  for (int i = 0; i < kSparseFiles; ++i) {
    auto fd = fs_->Open(SparsePath(i), kOpenRead);
    ASSERT_TRUE(fd.ok());
    fds.push_back(*fd);
  }
  libfs()->ClearDirectCache();
  const uint64_t evictions = libfs()->direct_cache_evictions();
  auto hot = fs_->Stat(SparsePath(0));
  ASSERT_TRUE(hot.ok());

  ExpectSparseReads(fs_.get(), fds[0], 0);  // stores the hot file's map
  // Cycle through the other files until the hand has gone round the cache
  // (at most ~20 maps) several times: 2 * kSparseFiles evictions.
  for (int k = 0;
       libfs()->direct_cache_evictions() - evictions < 2 * kSparseFiles;
       ++k) {
    ASSERT_LT(k, 50 * kSparseFiles);
    // One read stores file i's map when it is not cached.
    const int i = 1 + k % (kSparseFiles - 1);
    ExpectSparseTail(fs_.get(), fds[i], i);
    ASSERT_LE(libfs()->direct_cache_slots(), LibFs::kDirectCacheSlots);
    // The hot file, re-read after every one, keeps its map: each read goes
    // direct.
    const uint64_t direct = libfs()->direct_read_bytes();
    ExpectSparseReads(fs_.get(), fds[0], 0);
    ASSERT_EQ(libfs()->direct_read_bytes(), direct + 2 * kPage) << k;
  }
  EXPECT_GT(libfs()->direct_cache_evictions(), evictions);
  EXPECT_NE(libfs()->LookupDirect(hot->oid), nullptr);
  EXPECT_LT(libfs()->direct_cache_maps(), static_cast<uint64_t>(kSparseFiles));

  // Files whose maps were evicted read right through rebuilt maps.
  for (int i = 0; i < kSparseFiles; ++i) {
    ExpectSparseReads(fs_.get(), fds[i], i);
    EXPECT_LE(libfs()->direct_cache_slots(), LibFs::kDirectCacheSlots);
  }
  for (int fd : fds) {
    ASSERT_TRUE(fs_->Close(fd).ok());
  }
}

// Readers cycle through a sparse set larger than the budget (so stores
// evict while lookups set referenced bits) while another thread truncates
// and re-extends one of the files.
TEST_F(DirectPathTest, ReadersRaceCacheEvictionAndTruncate) {
  MakeSparseSet(fs_.get());
  ASSERT_FALSE(HasFailure());
  constexpr int kReaders = 4;
  constexpr int kRounds = 3;
  constexpr int kChurned = 0;
  std::atomic<int> readers_left{kReaders};
  std::atomic<int> bad{0};
  // Readers go on past kRounds until the file has been churned as often,
  // so the two overlap however fast the reads are.
  std::atomic<int> churns{0};
  std::atomic<bool> churn_done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::string buf(kPage, '\0');
      for (int round = 0;
           round < kRounds || (churns.load() < kRounds && !churn_done.load());
           ++round) {
        for (int k = 0; k < kSparseFiles; ++k) {
          const int i = (k + r * kSparseFiles / kReaders) % kSparseFiles;
          auto fd = fs_->Open(SparsePath(i), kOpenRead);
          if (!fd.ok()) {
            bad.fetch_add(1);
            continue;
          }
          auto n =
              fs_->Pread(*fd, kSparseTail, std::span<char>(buf.data(), kPage));
          // The churned file may be cut short, or its page not yet back.
          const bool tagged =
              n.ok() && *n == kPage && buf == std::string(kPage, SparseTag(i));
          const bool churned =
              i == kChurned && n.ok() &&
              (*n == 0 || (*n == kPage && buf == std::string(kPage, '\0')));
          const bool good = tagged || churned;
          if (!good || !fs_->Close(*fd).ok()) {
            bad.fetch_add(1);
          }
        }
      }
      readers_left.fetch_sub(1);
    });
  }
  Status churn_status;
  std::thread churn([&] {
    auto fd = fs_->Open(SparsePath(kChurned), kOpenRead | kOpenWrite);
    if (!fd.ok()) {
      churn_status = fd.status();
      churn_done.store(true);
      return;
    }
    const std::string page(kPage, SparseTag(kChurned));
    while (churn_status.ok() && readers_left.load() > 0) {
      churn_status = fs_->Ftruncate(*fd, kPage);
      if (churn_status.ok()) {
        churn_status = fs_->Pwrite(*fd, kSparseTail, Bytes(page)).status();
      }
      ++churns;
    }
    churn_done.store(true);
    if (churn_status.ok()) {
      churn_status = fs_->Close(*fd);
    }
  });
  for (std::thread& t : readers) {
    t.join();
  }
  churn.join();
  EXPECT_TRUE(churn_status.ok()) << churn_status.ToString();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(churns.load(), kRounds);
  EXPECT_LE(libfs()->direct_cache_slots(), LibFs::kDirectCacheSlots);
  EXPECT_GT(libfs()->direct_cache_evictions(), 0u);
}

// --- Crash simulation -----------------------------------------------------

constexpr uint64_t kCrashRegionBytes = 8ull << 20;

AerieSystem::Options SmallSystemOptions() {
  AerieSystem::Options options;
  options.region_bytes = kCrashRegionBytes;
  options.volume.log_bytes = 1ull << 20;
  // Enumerating hundreds of crash images makes every fence wall-clock slow:
  // a revoke-forced drain that ships a batch under the simulator can take
  // longer than the default 2s lease/wait budgets, so a loaded machine
  // either lapses the draining client's lease ("lease expired") or times
  // out the conflicting acquire ("lock wait timed out") — timing accidents,
  // not crash-consistency facts. Lease-lapse behaviour has its own
  // deterministic suite (lease_renewal_test); here both budgets outlive
  // any plausible sweep.
  options.lock.lease_ms = 10 * 60 * 1000;
  options.lock.wait_timeout_ms = 10 * 60 * 1000;
  return options;
}

std::string UniqueImagePath(const char* tag) {
  return ::testing::TempDir() + "/aerie_direct_crash_" + tag + ".img";
}

std::string PayloadFor(const std::string& path) { return "payload " + path; }

struct CrashRig {
  std::unique_ptr<AerieSystem> sys;
  std::unique_ptr<AerieSystem::Client> client;
  std::unique_ptr<Pxfs> fs;
  std::vector<std::string> durable;
};

CrashRig BootPrimedRig(const LibFs::Options& copts) {
  CrashRig t;
  auto sys = AerieSystem::Create(SmallSystemOptions());
  EXPECT_TRUE(sys.ok()) << sys.status().ToString();
  t.sys = std::move(*sys);
  auto client = t.sys->NewClient(copts);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  t.client = std::move(*client);
  t.fs = std::make_unique<Pxfs>(t.client->fs());
  EXPECT_TRUE(t.fs->Mkdir("/w").ok());
  t.durable.push_back("/w");
  return t;
}

// Reboot + recovery + fsck + acknowledged paths present with intact payload
// (same oracle as crash_sim_test's SystemChecker).
CrashSimulator::Checker RebootChecker(const std::vector<std::string>* durable) {
  return [durable](const std::string& image_path) -> Status {
    AerieSystem::Options options = SmallSystemOptions();
    options.region_path = image_path;
    options.fresh = false;
    auto sys = AerieSystem::Create(options);
    if (!sys.ok()) {
      return Status(ErrorCode::kCorrupted,
                    "reboot/recovery failed: " + sys.status().ToString());
    }
    auto report = RunFsck((*sys)->volume());
    if (!report.ok()) {
      return report.status();
    }
    if (!report->ok()) {
      return Status(ErrorCode::kCorrupted, "fsck: " + report->Summary());
    }
    auto client = (*sys)->NewClient();
    if (!client.ok()) {
      return client.status();
    }
    Pxfs fs((*client)->fs());
    for (const auto& path : *durable) {
      auto st = fs.Stat(path);
      if (!st.ok()) {
        return Status(ErrorCode::kCorrupted,
                      "acknowledged path missing: " + path);
      }
      if (st->is_dir) {
        continue;
      }
      const std::string want = PayloadFor(path);
      auto fd = fs.Open(path, kOpenRead);
      if (!fd.ok()) {
        return fd.status();
      }
      char buf[128] = {};
      auto n = fs.Read(*fd, std::span<char>(buf, sizeof(buf)));
      Status close = fs.Close(*fd);
      if (!n.ok()) {
        return n.status();
      }
      if (!close.ok()) {
        return close;
      }
      if (std::string_view(buf, *n) != want) {
        return Status(ErrorCode::kCorrupted,
                      "acknowledged content damaged: " + path);
      }
    }
    return OkStatus();
  };
}

// Shared flow for the direct-overwrite sweeps: prime a file, warm a writable
// map, attach the simulator (optionally suppressing a site), run an
// acknowledged direct overwrite, and enumerate at an explicit post-ack
// point. The oracle reads the page bytes straight out of the crash image at
// the extent's region offset: once the overwrite has been acknowledged, an
// image whose page is not entirely the new fill proves the flush protocol
// lost acknowledged bytes.
void RunDirectOverwriteSweep(const char* tag, const char* suppress_site,
                             bool expect_detect) {
  CrashRig t = BootPrimedRig(EagerClientOptions());
  ASSERT_TRUE(t.fs->Create("/w/f").ok());
  auto fd = t.fs->Open("/w/f", kOpenRead | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  const std::string base(kPage, 'A');
  ASSERT_TRUE(t.fs->Pwrite(*fd, 0, Bytes(base)).ok());

  // Warm the writable map and prove the direct path is live before the
  // simulator attaches (the mutation must exercise WriteDirect).
  ASSERT_TRUE(t.fs->Pwrite(*fd, 0, Bytes(std::string(kPage, 'C'))).ok());
  const uint64_t direct_before = t.client->fs()->direct_write_bytes();
  ASSERT_TRUE(t.fs->Pwrite(*fd, 0, Bytes(std::string(kPage, 'D'))).ok());
  ASSERT_GT(t.client->fs()->direct_write_bytes(), direct_before)
      << "overwrite did not take the direct path; nothing to mutate";

  // Locate the page in the region so the oracle can read it raw.
  auto st = t.fs->Stat("/w/f");
  ASSERT_TRUE(st.ok());
  auto mfile = MFile::Open(t.client->fs()->read_context(), st->oid);
  ASSERT_TRUE(mfile.ok());
  auto extent = mfile->ExtentForPage(0);
  ASSERT_TRUE(extent.ok());
  const uint64_t page_off = *extent;

  auto acked = std::make_shared<std::atomic<bool>>(false);
  auto checker = [acked, page_off](const std::string& image_path) -> Status {
    if (!acked->load()) {
      return OkStatus();  // pre-ack tearing is legal: the app has no claim
    }
    std::ifstream in(image_path, std::ios::binary);
    if (!in) {
      return Status(ErrorCode::kIoError, "cannot open crash image");
    }
    in.seekg(static_cast<std::streamoff>(page_off));
    std::string page(kPage, '\0');
    in.read(page.data(), static_cast<std::streamsize>(kPage));
    if (!in) {
      return Status(ErrorCode::kIoError, "short read from crash image");
    }
    if (page != std::string(kPage, 'B')) {
      return Status(ErrorCode::kCorrupted,
                    "acknowledged direct overwrite lost");
    }
    return OkStatus();
  };

  CrashSimOptions options;
  options.seed = 777;
  options.max_images = 300;
  options.random_draws_per_point = 3;
  options.stop_on_failure = expect_detect;
  options.image_path = UniqueImagePath(tag);
  options = CrashSimOptions::FromEnv(options);

  CrashSimulator sim(t.sys->scm_region(), options, checker);
  if (suppress_site != nullptr) {
    const int site = RegisterPersistSite(suppress_site);
    ASSERT_GE(site, 0);
    sim.SuppressSite(site);
  }

  auto n = t.fs->Pwrite(*fd, 0, Bytes(std::string(kPage, 'B')));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, kPage);
  // The overwrite is acknowledged; from here on the page must be all-'B' in
  // every enumerated image.
  acked->store(true);
  t.sys->scm_region()->CrashPoint("test.direct_write.acked");

  if (expect_detect) {
    EXPECT_FALSE(sim.ok())
        << "suppressing " << suppress_site
        << " was not detected by any enumerated crash state\n"
        << sim.Report();
    std::fprintf(stderr, "detected %s:\n%s\n", suppress_site,
                 sim.Report().c_str());
  } else {
    EXPECT_TRUE(sim.ok()) << sim.Report();
    EXPECT_GT(sim.images_checked(), 0u);
  }
  ASSERT_TRUE(t.fs->Close(*fd).ok());
  ::unlink(options.image_path.c_str());
}

// With the BFlush in place, every enumerated state post-ack carries the
// acknowledged bytes.
TEST(DirectPathCrashTest, CleanSweepDirectOverwriteIsDurableOnAck) {
  RunDirectOverwriteSweep("clean", nullptr, /*expect_detect=*/false);
}

// Without it, the streamed page can sit in WC buffers while the app treats
// the write as done — the oracle must catch at least one such image.
TEST(DirectPathCrashTest, DetectsSuppressedDirectWriteBFlush) {
  RunDirectOverwriteSweep("mut_bflush", "libfs.direct.write.bflush",
                          /*expect_detect=*/true);
}

// Locked-way writes end in the same copy loop and seal their data at the
// same registered site. A lazy client extends a file by one page (a pooled
// extent plus a logged attach and set-size), the write is acknowledged,
// then Sync ships the batch. From the ack on, every enumerated image must
// hold the new page at the extent the write filled.
void RunLockedExtendSweep(const char* tag, const char* suppress_site,
                          bool expect_detect) {
  LibFs::Options lazy;
  lazy.flush_interval_ms = 0;  // the attach stays buffered until Sync
  lazy.pool_refill = 64;
  CrashRig t = BootPrimedRig(lazy);
  ASSERT_TRUE(t.fs->Create("/w/e").ok());
  auto fd = t.fs->Open("/w/e", kOpenRead | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(t.fs->Pwrite(*fd, 0, Bytes(std::string(kPage, 'A'))).ok());
  ASSERT_TRUE(t.fs->SyncAll().ok());
  auto st = t.fs->Stat("/w/e");
  ASSERT_TRUE(st.ok());

  // Region offset of the new page; 0 until the extend is acknowledged.
  auto page_off = std::make_shared<std::atomic<uint64_t>>(0);
  auto checker = [page_off](const std::string& image_path) -> Status {
    const uint64_t off = page_off->load();
    if (off == 0) {
      return OkStatus();  // pre-ack tearing is legal: the app has no claim
    }
    std::ifstream in(image_path, std::ios::binary);
    if (!in) {
      return Status(ErrorCode::kIoError, "cannot open crash image");
    }
    in.seekg(static_cast<std::streamoff>(off));
    std::string page(kPage, '\0');
    in.read(page.data(), static_cast<std::streamsize>(kPage));
    if (!in) {
      return Status(ErrorCode::kIoError, "short read from crash image");
    }
    if (page != std::string(kPage, 'B')) {
      return Status(ErrorCode::kCorrupted, "acknowledged extend lost");
    }
    return OkStatus();
  };

  CrashSimOptions options;
  options.seed = 779;
  options.max_images = 300;
  options.random_draws_per_point = 3;
  options.stop_on_failure = expect_detect;
  options.image_path = UniqueImagePath(tag);
  options = CrashSimOptions::FromEnv(options);

  CrashSimulator sim(t.sys->scm_region(), options, checker);
  if (suppress_site != nullptr) {
    const int site = RegisterPersistSite(suppress_site);
    ASSERT_GE(site, 0);
    sim.SuppressSite(site);
  }

  const uint64_t direct_before = t.client->fs()->direct_write_bytes();
  auto n = t.fs->Pwrite(*fd, kPage, Bytes(std::string(kPage, 'B')));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, kPage);
  ASSERT_EQ(t.client->fs()->direct_write_bytes(), direct_before)
      << "the extend must take the locked way";
  // The locked way stored the map it extended; its page 1 is the new
  // extent.
  auto map = t.client->fs()->LookupDirect(st->oid);
  ASSERT_NE(map, nullptr);
  ASSERT_GE(map->map.end_page, 2u);
  ASSERT_NE(map->map.extent(1), 0u);
  page_off->store(map->map.extent(1));
  t.sys->scm_region()->CrashPoint("test.locked_extend.acked");
  ASSERT_TRUE(t.fs->SyncAll().ok());
  t.sys->scm_region()->CrashPoint("test.locked_extend.synced");

  if (expect_detect) {
    EXPECT_FALSE(sim.ok())
        << "suppressing " << suppress_site
        << " was not detected by any enumerated crash state\n"
        << sim.Report();
  } else {
    EXPECT_TRUE(sim.ok()) << sim.Report();
    EXPECT_GT(sim.images_checked(), 0u);
  }
  ASSERT_TRUE(t.fs->Close(*fd).ok());
  ::unlink(options.image_path.c_str());
}

TEST(DirectPathCrashTest, CleanSweepLockedExtendIsDurableOnAck) {
  RunLockedExtendSweep("extend_clean", nullptr, /*expect_detect=*/false);
}

TEST(DirectPathCrashTest, DetectsSuppressedBFlushOnLockedExtend) {
  RunLockedExtendSweep("extend_mut_bflush", "libfs.direct.write.bflush",
                       /*expect_detect=*/true);
}

// Crash states enumerated while a revoke forces a lazy client to ship its
// batch (the drain path the direct epoch piggybacks on) must all recover:
// the ship itself is the txlog protocol, and acknowledged paths appear in
// `durable` only after the forced apply completes.
TEST(DirectPathCrashTest, CleanSweepCrashDuringRevokeShip) {
  LibFs::Options lazy;
  lazy.flush_interval_ms = 0;  // buffer until shipped by revoke or sync
  lazy.pool_refill = 64;
  CrashRig t = BootPrimedRig(lazy);
  // Ship the priming ops (the /w mkdir) so the simulator's budget is spent
  // on the revoke-forced drain, and so /w is applied before `durable`
  // promises it.
  ASSERT_TRUE(t.fs->SyncAll().ok());

  // Buffered (acknowledged-to-app but unshipped) creates under /w.
  ASSERT_TRUE(t.fs->Create("/w/s").ok());
  auto fd = t.fs->Open("/w/s", kOpenWrite);
  ASSERT_TRUE(fd.ok());
  const std::string payload = PayloadFor("/w/s");
  ASSERT_TRUE(t.fs->Write(*fd, Bytes(payload)).ok());
  ASSERT_TRUE(t.fs->Close(*fd).ok());

  CrashSimOptions options;
  options.seed = 778;
  options.max_images = 300;
  options.random_draws_per_point = 3;
  options.stop_on_failure = false;
  options.image_path = UniqueImagePath("revoke");
  options = CrashSimOptions::FromEnv(options);
  CrashSimulator sim(t.sys->scm_region(), options, RebootChecker(&t.durable));

  // A second client creating in /w revokes the first client's directory
  // lock mid-enumeration: the drain ships the buffered batch (txlog commit
  // crash points), then the second client's own eager create applies.
  auto client2 = t.sys->NewClient(EagerClientOptions());
  ASSERT_TRUE(client2.ok());
  Pxfs fs2((*client2)->fs());
  auto fd2 = fs2.Open("/w/b", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd2.ok()) << fd2.status().ToString();
  const std::string payload2 = PayloadFor("/w/b");
  ASSERT_TRUE(fs2.Write(*fd2, Bytes(payload2)).ok());
  ASSERT_TRUE(fs2.Close(*fd2).ok());
  // Both clients' ops are applied now; later images must contain them.
  t.durable.push_back("/w/s");
  t.durable.push_back("/w/b");
  t.sys->scm_region()->CrashPoint("test.revoke_ship.acked");

  // The first client reads back through the post-revoke path.
  auto fd3 = t.fs->Open("/w/b", kOpenRead);
  ASSERT_TRUE(fd3.ok()) << fd3.status().ToString();
  char buf[128] = {};
  auto n = t.fs->Read(*fd3, std::span<char>(buf, sizeof(buf)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string_view(buf, *n), payload2);
  ASSERT_TRUE(t.fs->Close(*fd3).ok());

  EXPECT_TRUE(sim.ok()) << sim.Report();
  EXPECT_GT(sim.images_checked(), 0u);
  ::unlink(options.image_path.c_str());
}

}  // namespace
}  // namespace aerie
