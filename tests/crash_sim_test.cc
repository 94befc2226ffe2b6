// Cache-line crash-state enumeration tests (ISSUE: persistence-ordering
// crash checker). Three layers:
//
//  * CrashSimTest.CleanSweep*: the full system runs a create/write workload
//    under the simulator; every enumerated crash image must reboot, recover,
//    pass fsck, and contain every acknowledged op (prefix semantics).
//  * CrashSimTest.RedoLog*: the redo log alone under the simulator, covering
//    the torn-truncate window, Rollback after a partial append, and the
//    kOutOfSpace apply+truncate boundary.
//  * CrashSimTest.RunWriteTruncateUnlinkSweep: multi-page run writes,
//    truncates into the runs and unlinks; every image must recover with the
//    acknowledged frees done (pages free again) and every file intact.
//  * CrashSimTest.PoolFill*: pool fills straight through the TFS; every
//    image taken after a fill was acknowledged must recover with that fill's
//    objects freed (no client survives a restart).
//  * CrashMutationTest.*: suppress one registered flush site (txlog commit
//    and truncate, pool-map mark and retire, the mFile run-attach leaf
//    flush, the batched free's bitmap and slot clears) and require the checker to
//    report corruption — mutation testing of the checker itself (a checker
//    that cannot see injected bugs proves nothing by passing).
//
// The sweep honors AERIE_CRASH_SAMPLES / AERIE_CRASH_SEED (nightly CI knobs)
// via CrashSimOptions::FromEnv. A failure prints (seed, point, draw); replay
// it with CrashSimOptions::replay_point / replay_draw (see README).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/libfs/system.h"
#include "src/osd/collection.h"
#include "src/pxfs/pxfs.h"
#include "src/scm/crash_sim.h"
#include "src/tfs/fsck.h"
#include "src/tfs/pool_map.h"
#include "src/txlog/redo_log.h"

namespace aerie {
namespace {

// --- Full-system harness --------------------------------------------------

constexpr uint64_t kRegionBytes = 8ull << 20;

AerieSystem::Options SmallSystemOptions() {
  AerieSystem::Options options;
  options.region_bytes = kRegionBytes;
  options.volume.log_bytes = 1ull << 20;
  return options;
}

LibFs::Options EagerClientOptions() {
  LibFs::Options options;
  options.eager_ship = true;      // every op round-trips before returning
  options.flush_interval_ms = 0;  // no background flusher thread
  options.pool_refill = 64;
  return options;
}

// Paths with varying name lengths so record sizes differ batch to batch —
// a stale commit pointer then lands mid-record instead of on a boundary.
std::vector<std::string> MakePaths(int n) {
  std::vector<std::string> paths;
  for (int i = 0; i < n; ++i) {
    std::string name(1 + (i * 7) % 23, static_cast<char>('a' + i % 26));
    paths.push_back("/w/" + std::to_string(i) + "_" + name);
  }
  return paths;
}

std::string PayloadFor(const std::string& path) { return "payload " + path; }

// Reboots an independent AerieSystem on the crash image, requires recovery +
// fsck to succeed and every acknowledged op to be present and intact.
// `durable` is captured by pointer: the workload appends each path after its
// ops are acknowledged, and the single eager-ship client is blocked inside
// the shipping RPC whenever the simulator (and thus this checker) runs.
CrashSimulator::Checker SystemChecker(const std::vector<std::string>* durable) {
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

struct SystemUnderTest {
  std::unique_ptr<AerieSystem> sys;
  std::unique_ptr<AerieSystem::Client> client;
  std::unique_ptr<Pxfs> fs;
  std::vector<std::string> durable;
};

// Boots a fresh system and primes it (client pools granted, /w created)
// so a simulator attached afterwards spends its image budget on the
// create/write protocol rather than on connection bootstrap.
SystemUnderTest BootPrimedSystem() {
  SystemUnderTest t;
  auto sys = AerieSystem::Create(SmallSystemOptions());
  EXPECT_TRUE(sys.ok()) << sys.status().ToString();
  t.sys = std::move(*sys);
  auto client = t.sys->NewClient(EagerClientOptions());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  t.client = std::move(*client);
  t.fs = std::make_unique<Pxfs>(t.client->fs());
  EXPECT_TRUE(t.fs->Mkdir("/w").ok());
  t.durable.push_back("/w");
  // Trigger the initial pool refill before the simulator attaches.
  EXPECT_TRUE(t.fs->Create("/w/prime").ok());
  const std::string data = PayloadFor("/w/prime");
  auto fd = t.fs->Open("/w/prime", kOpenWrite);
  EXPECT_TRUE(fd.ok());
  EXPECT_TRUE(t.fs->Write(*fd, std::span<const char>(data.data(),
                                                     data.size()))
                  .ok());
  EXPECT_TRUE(t.fs->Close(*fd).ok());
  t.durable.push_back("/w/prime");
  return t;
}

// Create + write + close each path, recording it as durable once all its
// ops have been acknowledged by the TFS.
void RunWorkload(SystemUnderTest* t, const std::vector<std::string>& paths) {
  for (const auto& path : paths) {
    auto fd = t->fs->Open(path, kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.ok()) << path << ": " << fd.status().ToString();
    const std::string data = PayloadFor(path);
    ASSERT_TRUE(
        t->fs->Write(*fd, std::span<const char>(data.data(), data.size()))
            .ok())
        << path;
    ASSERT_TRUE(t->fs->Close(*fd).ok()) << path;
    t->durable.push_back(path);
  }
}

std::string UniqueImagePath(const char* tag) {
  return ::testing::TempDir() + "/aerie_crash_" + tag + ".img";
}

// --- Registry -------------------------------------------------------------

TEST(CrashSimTest, PersistSiteRegistryAssignsStableIds) {
  auto& reg = PersistSiteRegistry::Instance();
  const int a = reg.Register("test.site.alpha");
  const int b = reg.Register("test.site.beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, reg.Register("test.site.alpha"));  // idempotent by name
  EXPECT_EQ(a, reg.Find("test.site.alpha"));
  EXPECT_EQ(reg.Name(a), "test.site.alpha");
  EXPECT_EQ(reg.Find("test.site.never.registered"), -1);
  EXPECT_EQ(reg.Name(-1), "");
}

// --- Clean sweep ----------------------------------------------------------

// The acceptance sweep: 500 crash images over the create/write protocol,
// every one of which must recover to a consistent, prefix-correct volume.
TEST(CrashSimTest, CleanSweepRecoversEveryEnumeratedState) {
  SystemUnderTest t = BootPrimedSystem();

  CrashSimOptions options;
  options.seed = 20260807;
  options.max_images = 500;
  options.random_draws_per_point = 2;
  options.stop_on_failure = false;  // report every inconsistent state
  options.image_path = UniqueImagePath("sweep");
  options = CrashSimOptions::FromEnv(options);

  {
    CrashSimulator sim(t.sys->scm_region(), options,
                       SystemChecker(&t.durable));
    RunWorkload(&t, MakePaths(10));
    EXPECT_TRUE(sim.ok()) << sim.Report();
    // The workload yields ~125 interest points; a reduced AERIE_CRASH_SAMPLES
    // budget caps the image count instead.
    EXPECT_GE(sim.images_checked(),
              std::min<uint64_t>(50, static_cast<uint64_t>(options.max_images)))
        << sim.Report();
    std::fprintf(stderr, "%s\n", sim.Report().c_str());
  }
  // The primary system never saw a crash; it must still be healthy.
  ASSERT_TRUE(t.fs->SyncAll().ok());
  auto report = RunFsck(t.sys->volume());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  ::unlink(options.image_path.c_str());
}

// --- Extent runs ----------------------------------------------------------

// Expected state of the run workload's files: each path's acceptable
// contents. Two entries while an op on the path is in flight (the crash may
// land before or after its commit); kAbsent stands for "no such file".
constexpr const char* kAbsent = "(absent)";
using RunExpectations = std::map<std::string, std::vector<std::string>>;

std::string RunPayload(int i, size_t bytes) {
  std::string data(bytes, '\0');
  for (size_t k = 0; k < bytes; ++k) {
    data[k] = static_cast<char>('a' + (i * 7 + k / 4096) % 26);
  }
  return data;
}

// Reboots on the image, requires recovery and fsck to succeed, every page an
// acknowledged truncate or unlink freed to be free again, and every file to
// hold one of its acceptable contents. `freed` and `expect` are captured by
// pointer like SystemChecker's `durable`.
CrashSimulator::Checker RunChecker(const std::vector<uint64_t>* freed,
                                   const RunExpectations* expect) {
  return [freed, expect](const std::string& image_path) -> Status {
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
    // Before any client takes pool objects: nothing reallocates meanwhile.
    for (uint64_t page : *freed) {
      if ((*sys)->volume()->allocator()->IsAllocated(page)) {
        return Status(ErrorCode::kCorrupted,
                      "page freed by an acknowledged op is still allocated");
      }
    }
    auto client = (*sys)->NewClient();
    if (!client.ok()) {
      return client.status();
    }
    Pxfs fs((*client)->fs());
    for (const auto& [path, accepted] : *expect) {
      std::string found = kAbsent;
      if (auto fd = fs.Open(path, kOpenRead); fd.ok()) {
        std::string buf(8 * 4096, '\0');
        auto n = fs.Read(*fd, std::span<char>(buf.data(), buf.size()));
        AERIE_RETURN_IF_ERROR(fs.Close(*fd));
        AERIE_RETURN_IF_ERROR(n.status());
        found = buf.substr(0, *n);
      }
      if (std::find(accepted.begin(), accepted.end(), found) ==
          accepted.end()) {
        return Status(ErrorCode::kCorrupted,
                      "unexpected state after recovery: " + path);
      }
    }
    return OkStatus();
  };
}

// Writes a five-and-a-bit-page run to each file, truncates each into its
// run, then unlinks every other one. A path's expectations gain the op's
// outcome before the op and drop the old state once it is acknowledged;
// the pages an acknowledged op freed join `freed`. All allocation happens
// in the first phase, so no freed page is legitimately reused.
void RunRunWorkload(SystemUnderTest* t, int files,
                    std::vector<uint64_t>* freed, RunExpectations* expect) {
  const size_t full = 5 * 4096 + 100;
  const size_t kept = 4096 + 1000;
  auto path_of = [](int i) { return "/w/run" + std::to_string(i); };
  auto begin = [expect](const std::string& path, std::string next) {
    (*expect)[path].push_back(std::move(next));
  };
  auto acked = [expect](const std::string& path) {
    auto& accepted = (*expect)[path];
    accepted.erase(accepted.begin());
  };
  auto oid_of = [t](const std::string& path) {
    auto st = t->fs->Stat(path);
    EXPECT_TRUE(st.ok()) << path;
    return st.ok() ? st->oid : Oid();
  };
  OsdContext ctx = t->client->fs()->read_context();
  for (int i = 0; i < files; ++i) {
    const std::string path = path_of(i);
    const std::string data = RunPayload(i, full);
    // The create, then the write's attach and size, commit one by one.
    (*expect)[path] = {kAbsent, "", data};
    auto fd = t->fs->Open(path, kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.ok()) << path;
    ASSERT_TRUE(
        t->fs->Write(*fd, std::span<const char>(data.data(), data.size()))
            .ok());
    ASSERT_TRUE(t->fs->Close(*fd).ok());
    (*expect)[path] = {data};
  }
  for (int i = 0; i < files; ++i) {
    const std::string path = path_of(i);
    auto file = MFile::Open(ctx, oid_of(path));
    ASSERT_TRUE(file.ok());
    std::vector<uint64_t> pages;
    for (uint64_t p = 2; p < 6; ++p) {
      auto extent = file->ExtentForPage(p);
      ASSERT_TRUE(extent.ok());
      pages.push_back(*extent);
    }
    begin(path, RunPayload(i, full).substr(0, kept));
    ASSERT_TRUE(t->fs->Truncate(path, kept).ok());
    acked(path);
    freed->insert(freed->end(), pages.begin(), pages.end());
  }
  for (int i = 0; i < files; i += 2) {
    const std::string path = path_of(i);
    auto file = MFile::Open(ctx, oid_of(path));
    ASSERT_TRUE(file.ok());
    const std::vector<uint64_t> pages = file->StoragePages();
    begin(path, kAbsent);
    ASSERT_TRUE(t->fs->Unlink(path).ok());
    acked(path);
    freed->insert(freed->end(), pages.begin(), pages.end());
  }
}

// Multi-page run writes, truncates into the runs, and unlinks: every image
// recovers with acknowledged frees done and every file in a valid state.
TEST(CrashSimTest, RunWriteTruncateUnlinkSweep) {
  SystemUnderTest t = BootPrimedSystem();
  CrashSimOptions options;
  options.seed = 20261017;
  options.max_images = 500;
  options.random_draws_per_point = 2;
  options.stop_on_failure = false;
  options.image_path = UniqueImagePath("runs");
  options = CrashSimOptions::FromEnv(options);
  std::vector<uint64_t> freed;
  RunExpectations expect;
  {
    CrashSimulator sim(t.sys->scm_region(), options,
                       RunChecker(&freed, &expect));
    RunRunWorkload(&t, 3, &freed, &expect);
    EXPECT_TRUE(sim.ok()) << sim.Report();
    EXPECT_GT(sim.images_checked(), 0u);
    std::fprintf(stderr, "%s\n", sim.Report().c_str());
  }
  ASSERT_TRUE(t.fs->SyncAll().ok());
  auto report = RunFsck(t.sys->volume());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  ::unlink(options.image_path.c_str());
}

// Stamps every extent page pooled to a client, and so in no file yet, with
// stale bytes, as a page some other file freed holds on real SCM. The
// simulator, attached afterwards, takes them as persistent, so an image that
// drops a store to such a page shows the stale bytes.
void StampPooledExtents(SystemUnderTest* t) {
  const OsdContext ctx = t->client->fs()->read_context();
  auto sys = Collection::Open(ctx, t->sys->volume()->root_oid());
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  auto map_oid = sys->Lookup("pool_map");
  ASSERT_TRUE(map_oid.ok()) << map_oid.status().ToString();
  auto map = PoolMap::Open(ctx, Oid(*map_oid));
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  int stamped = 0;
  map->ForEach([&](Oid oid) {
    if (oid.type() == ObjType::kExtent) {
      std::memset(ctx.region->PtrAt(oid.offset()), 0x5a, kScmPageSize);
      stamped++;
    }
  });
  ASSERT_GT(stamped, 3);
}

// A write at offset 100 into a new file fills a page it covers only in
// part: every image that holds the write reads its first 100 bytes as zeros,
// never as the stale bytes of the pooled page.
TEST(CrashSimTest, PwriteIntoNewFileReadsZerosBeforeTheWrite) {
  SystemUnderTest t = BootPrimedSystem();
  StampPooledExtents(&t);
  CrashSimOptions options;
  options.seed = 20261019;
  options.max_images = 300;
  options.random_draws_per_point = 2;
  options.stop_on_failure = false;
  options.image_path = UniqueImagePath("pwrite_gap");
  options = CrashSimOptions::FromEnv(options);
  const std::string path = "/w/gap";
  const std::string payload = RunPayload(1, 2 * 4096);
  const std::string data = std::string(100, '\0') + payload;
  const std::vector<uint64_t> freed;
  RunExpectations expect;
  {
    CrashSimulator sim(t.sys->scm_region(), options,
                       RunChecker(&freed, &expect));
    expect[path] = {kAbsent, "", data};
    auto fd = t.fs->Open(path, kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    ASSERT_TRUE(
        t.fs->Pwrite(*fd, 100,
                     std::span<const char>(payload.data(), payload.size()))
            .ok());
    ASSERT_TRUE(t.fs->Close(*fd).ok());
    expect[path] = {data};
    EXPECT_TRUE(sim.ok()) << sim.Report();
    EXPECT_GT(sim.images_checked(), 0u);
    std::fprintf(stderr, "%s\n", sim.Report().c_str());
  }
  ::unlink(options.image_path.c_str());
}

// A write past a file's size, inside its last page, leaves a gap between the
// old size and the write. The first write leaves the rest of its page as
// the stamped pool page held it, so every image that holds the second write
// must read the gap as zeros, never as those stale bytes.
TEST(CrashSimTest, PwritePastTheSizeReadsZerosInTheGap) {
  SystemUnderTest t = BootPrimedSystem();
  StampPooledExtents(&t);
  CrashSimOptions options;
  options.seed = 20261020;
  options.max_images = 300;
  options.random_draws_per_point = 2;
  options.stop_on_failure = false;
  options.image_path = UniqueImagePath("tail_gap");
  options = CrashSimOptions::FromEnv(options);
  const std::string path = "/w/tail_gap";
  const std::string first = RunPayload(2, 100);
  const std::string second = RunPayload(3, 100);
  const std::string grown = first + std::string(100, '\0') + second;
  const std::vector<uint64_t> freed;
  RunExpectations expect;
  {
    CrashSimulator sim(t.sys->scm_region(), options,
                       RunChecker(&freed, &expect));
    expect[path] = {kAbsent, "", first};
    auto fd = t.fs->Open(path, kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    ASSERT_TRUE(
        t.fs->Pwrite(*fd, 0, std::span<const char>(first.data(), 100)).ok());
    ASSERT_TRUE(t.fs->SyncAll().ok());
    expect[path] = {first, grown};
    ASSERT_TRUE(
        t.fs->Pwrite(*fd, 200, std::span<const char>(second.data(), 100))
            .ok());
    ASSERT_TRUE(t.fs->SyncAll().ok());
    expect[path] = {grown};
    ASSERT_TRUE(t.fs->Close(*fd).ok());
    EXPECT_TRUE(sim.ok()) << sim.Report();
    EXPECT_GT(sim.images_checked(), 0u);
    std::fprintf(stderr, "%s\n", sim.Report().c_str());
  }
  ::unlink(options.image_path.c_str());
}

// --- Pool map -------------------------------------------------------------

// Reboots on the image and requires recovery to have freed every object of
// every acknowledged fill and cleared the pool map. `acked` grows as fills
// return; the simulator calls this checker from inside the next fill.
CrashSimulator::Checker PoolReclaimChecker(const std::vector<Oid>* acked) {
  return [acked](const std::string& image_path) -> Status {
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
    if (!report->ok() || report->pool_objects != 0) {
      return Status(ErrorCode::kCorrupted, "fsck: " + report->Summary());
    }
    for (Oid oid : *acked) {
      if ((*sys)->volume()->allocator()->IsAllocated(oid.offset())) {
        return Status(ErrorCode::kCorrupted,
                      "acknowledged pool object still allocated");
      }
    }
    return OkStatus();
  };
}

// One fill of each pool type (single-extent mFiles too), then one more so
// the last acknowledged type is also checked by later images.
void RunPoolFills(AerieSystem* sys, std::vector<Oid>* acked) {
  constexpr uint64_t kClient = 7;
  const std::pair<ObjType, uint64_t> fills[] = {
      {ObjType::kMFile, 0},
      {ObjType::kCollection, 0},
      {ObjType::kExtent, 0},
      {ObjType::kMFile, 2 * kScmPageSize},
      {ObjType::kMFile, 0}};
  for (const auto& [type, capacity] : fills) {
    auto oids = sys->tfs()->PoolFill(kClient, type, 4, capacity);
    ASSERT_TRUE(oids.ok()) << oids.status().ToString();
    acked->insert(acked->end(), oids->begin(), oids->end());
  }
}

CrashSimOptions PoolFillOptions(const char* tag) {
  CrashSimOptions options;
  options.seed = 20261017;
  options.max_images = 600;
  options.random_draws_per_point = 2;
  options.image_path = UniqueImagePath(tag);
  return options;
}

TEST(CrashSimTest, PoolFillSweepFreesEveryAcknowledgedFill) {
  auto sys = AerieSystem::Create(SmallSystemOptions());
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  CrashSimOptions options = PoolFillOptions("pool_fill");
  options.stop_on_failure = false;
  options = CrashSimOptions::FromEnv(options);
  std::vector<Oid> acked;
  {
    CrashSimulator sim((*sys)->scm_region(), options,
                       PoolReclaimChecker(&acked));
    RunPoolFills(sys->get(), &acked);
    EXPECT_TRUE(sim.ok()) << sim.Report();
    EXPECT_GT(sim.images_checked(), 0u);
    std::fprintf(stderr, "%s\n", sim.Report().c_str());
  }
  ::unlink(options.image_path.c_str());
}

// --- Determinism / replay -------------------------------------------------

// Image hashes keyed by enumeration order; used to prove (seed, point, draw)
// replays the exact image bytes.
CrashSimulator::Checker HashingChecker(std::vector<uint64_t>* hashes) {
  return [hashes](const std::string& image_path) -> Status {
    FILE* f = std::fopen(image_path.c_str(), "rb");
    if (f == nullptr) {
      return Status(ErrorCode::kIoError, "image open failed");
    }
    std::string bytes;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.append(buf, n);
    }
    std::fclose(f);
    hashes->push_back(HashBytes(bytes.data(), bytes.size()));
    return OkStatus();
  };
}

// A small deterministic redo-log workload used by the determinism and
// edge-case tests: records with type-derived payloads on a tiny region.
std::string RecordPayload(uint32_t type) {
  return std::string(1 + type % 29, static_cast<char>('A' + type % 26));
}

TEST(CrashSimTest, SeedPointDrawReplaysTheExactImage) {
  const std::string image = UniqueImagePath("replay");
  CrashSimOptions base;
  base.seed = 77;
  base.random_draws_per_point = 3;
  base.max_images = 200;
  base.image_path = image;

  auto run = [&](const CrashSimOptions& options,
                 std::vector<uint64_t>* hashes) {
    auto region = ScmRegion::CreateAnonymous(64 << 10);
    ASSERT_TRUE(region.ok());
    auto log = RedoLog::Format(region->get(), 0, 4096);
    ASSERT_TRUE(log.ok());
    CrashSimulator sim(region->get(), options, HashingChecker(hashes));
    for (uint32_t type = 0; type < 6; ++type) {
      const std::string payload = RecordPayload(type);
      ASSERT_TRUE(log->Append(type, {payload.data(), payload.size()}).ok());
      ASSERT_TRUE(log->Commit().ok());
    }
    log->Truncate();
    EXPECT_TRUE(sim.ok()) << sim.Report();
  };

  std::vector<uint64_t> first, second;
  run(base, &first);
  run(base, &second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same seed, same workload, different images";

  // Replay one (point, draw) pair; with stride 1 and an ample budget the
  // enumeration order is point * draws_per_point + draw.
  const int draws_per_point = 2 + base.random_draws_per_point;
  const int64_t point = static_cast<int64_t>(first.size()) /
                        draws_per_point / 2;  // some mid-workload point
  const int draw = draws_per_point - 1;       // a seeded random draw
  CrashSimOptions replay = base;
  replay.replay_point = point;
  replay.replay_draw = draw;
  std::vector<uint64_t> replayed;
  run(replay, &replayed);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], first[static_cast<size_t>(point) * draws_per_point +
                               draw]);
  ::unlink(image.c_str());
}

// --- Redo-log edge cases under the simulator ------------------------------

// Shared oracle: reopen the image, replay, and require every record to be
// intact (payload matches its type) with strictly increasing types and none
// drawn from `forbidden` (rolled-back appends must never replay).
CrashSimulator::Checker RedoLogChecker(std::vector<uint32_t> forbidden) {
  return [forbidden](const std::string& image_path) -> Status {
    auto region = ScmRegion::OpenFileBacked(image_path, 64 << 10);
    if (!region.ok()) {
      return region.status();
    }
    auto log = RedoLog::Open(region->get(), 0);
    if (!log.ok()) {
      return log.status();
    }
    int64_t last_type = -1;
    return log->Replay([&](uint32_t type,
                           std::span<const char> payload) -> Status {
      for (uint32_t bad : forbidden) {
        if (type == bad) {
          return Status(ErrorCode::kCorrupted,
                        "rolled-back record replayed: type " +
                            std::to_string(type));
        }
      }
      if (static_cast<int64_t>(type) <= last_type) {
        return Status(ErrorCode::kCorrupted, "record order corrupted");
      }
      last_type = type;
      const std::string want = RecordPayload(type);
      if (std::string_view(payload.data(), payload.size()) != want) {
        return Status(ErrorCode::kCorrupted,
                      "record payload corrupted: type " +
                          std::to_string(type));
      }
      return OkStatus();
    });
  };
}

struct RawLogFixture {
  std::unique_ptr<ScmRegion> region;
  std::optional<RedoLog> log;
};

RawLogFixture MakeRawLog(uint64_t log_bytes = 4096) {
  RawLogFixture f;
  auto region = ScmRegion::CreateAnonymous(64 << 10);
  EXPECT_TRUE(region.ok());
  f.region = std::move(*region);
  auto log = RedoLog::Format(f.region.get(), 0, log_bytes);
  EXPECT_TRUE(log.ok());
  f.log.emplace(std::move(*log));
  return f;
}

// Truncate publishes head=0 while stale record bytes still follow; the next
// batch then streams fresh bytes over them. No enumerated state may replay
// a mix of the two generations.
TEST(CrashSimTest, RedoLogTornTruncateWindowIsSafe) {
  RawLogFixture f = MakeRawLog();
  CrashSimOptions options;
  options.seed = 31;
  options.random_draws_per_point = 3;
  options.max_images = 400;
  options.stop_on_failure = false;
  options.image_path = UniqueImagePath("torn_truncate");
  CrashSimulator sim(f.region.get(), options, RedoLogChecker({}));

  uint32_t type = 0;
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 2; ++i, ++type) {
      const std::string payload = RecordPayload(type);
      ASSERT_TRUE(
          f.log->Append(type, {payload.data(), payload.size()}).ok());
    }
    ASSERT_TRUE(f.log->Commit().ok());
    f.log->Truncate();
  }
  EXPECT_TRUE(sim.ok()) << sim.Report();
  EXPECT_GT(sim.images_checked(), 0u);
  ::unlink(options.image_path.c_str());
}

// A record appended but rolled back (failed batch) must never replay, even
// though its bytes may linger in the record area across any crash state.
TEST(CrashSimTest, RedoLogRollbackAfterPartialAppendNeverReplays) {
  RawLogFixture f = MakeRawLog();
  constexpr uint32_t kAbandoned = 7;
  CrashSimOptions options;
  options.seed = 32;
  options.random_draws_per_point = 3;
  options.max_images = 400;
  options.stop_on_failure = false;
  options.image_path = UniqueImagePath("rollback");
  CrashSimulator sim(f.region.get(), options, RedoLogChecker({kAbandoned}));

  std::string payload = RecordPayload(3);
  ASSERT_TRUE(f.log->Append(3, {payload.data(), payload.size()}).ok());
  ASSERT_TRUE(f.log->Commit().ok());
  // A batch that fails mid-append: its record is abandoned via Rollback.
  payload = RecordPayload(kAbandoned);
  ASSERT_TRUE(
      f.log->Append(kAbandoned, {payload.data(), payload.size()}).ok());
  f.log->Rollback();
  // The retry appends different (shorter) records over the abandoned bytes.
  payload = RecordPayload(8);
  ASSERT_TRUE(f.log->Append(8, {payload.data(), payload.size()}).ok());
  ASSERT_TRUE(f.log->Commit().ok());
  EXPECT_TRUE(sim.ok()) << sim.Report();
  ::unlink(options.image_path.c_str());
}

// The service's kOutOfSpace path: Rollback the failed append, checkpoint
// (Truncate), and retry. Every crash state across the boundary must replay
// cleanly.
TEST(CrashSimTest, RedoLogOutOfSpaceTruncateBoundaryIsSafe) {
  RawLogFixture f = MakeRawLog(/*log_bytes=*/512);
  CrashSimOptions options;
  options.seed = 33;
  options.random_draws_per_point = 3;
  options.max_images = 500;
  options.stop_on_failure = false;
  options.image_path = UniqueImagePath("oos");
  CrashSimulator sim(f.region.get(), options, RedoLogChecker({}));

  int truncations = 0;
  for (uint32_t type = 0; type < 72; ++type) {
    const std::string payload = RecordPayload(type);
    Status st = f.log->Append(type, {payload.data(), payload.size()});
    if (st.code() == ErrorCode::kOutOfSpace) {
      // Mirror TrustedFsService::ApplyBatch: drop the partial append,
      // checkpoint the applied records, retry once.
      f.log->Rollback();
      f.log->Truncate();
      truncations++;
      st = f.log->Append(type, {payload.data(), payload.size()});
    }
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(f.log->Commit().ok());
  }
  ASSERT_GT(truncations, 2) << "log too large to exercise the boundary";
  EXPECT_TRUE(sim.ok()) << sim.Report();
  ::unlink(options.image_path.c_str());
}

// --- Mutation mode --------------------------------------------------------

// Suppresses one registered persistence site in the txlog commit path and
// requires the checker to catch the resulting ordering bug.
void RunMutation(const char* site_name, const char* tag, int files) {
  SystemUnderTest t = BootPrimedSystem();
  // Registering here is idempotent with the call-site registration (the
  // registry dedups by name), so the id is available even before the first
  // commit executes.
  const int site = RegisterPersistSite(site_name);
  ASSERT_GE(site, 0);

  CrashSimOptions options;
  options.seed = 4242;
  options.max_images = 600;
  options.random_draws_per_point = 3;
  options.stop_on_failure = true;  // first corrupt image proves detection
  options.image_path = UniqueImagePath(tag);

  CrashSimulator sim(t.sys->scm_region(), options, SystemChecker(&t.durable));
  sim.SuppressSite(site);
  RunWorkload(&t, MakePaths(files));
  EXPECT_FALSE(sim.ok())
      << "suppressing " << site_name
      << " was not detected by any of the enumerated crash states\n"
      << sim.Report();
  std::fprintf(stderr, "detected %s:\n%s\n", site_name,
               sim.Report().c_str());
  ::unlink(options.image_path.c_str());
}

// Without the pre-publish BFlush the commit pointer can cover record bytes
// that never left the WC buffers.
TEST(CrashMutationTest, DetectsSuppressedCommitBFlush) {
  RunMutation("txlog.commit.bflush", "mut_bflush", 4);
}

// Without the commit-pointer flush a crash mid-apply has no committed
// record to replay: the in-place apply is torn with no redo.
TEST(CrashMutationTest, DetectsSuppressedCommitPublishFlush) {
  RunMutation("txlog.commit.publish.flush", "mut_publish", 4);
}

// Without the truncate flush the stale (larger) head survives a checkpoint
// and covers a mix of fresh and stale record bytes on the next batch.
TEST(CrashMutationTest, DetectsSuppressedTruncatePublishFlush) {
  RunMutation("txlog.truncate.publish.flush", "mut_truncate", 8);
}

// Without the retire flush a consumed object's entry can stay marked after
// the checkpoint drops the record whose replay would clear it: recovery then
// frees a linked file, which fsck reports.
TEST(CrashMutationTest, DetectsSuppressedPoolRetireFlush) {
  RunMutation("tfs.pool.retire.flush", "mut_retire", 4);
}

// Without the mark flush an acknowledged fill can be missing from the pool
// map after a crash, so recovery leaks its objects.
TEST(CrashMutationTest, DetectsSuppressedPoolMarkFlush) {
  auto sys = AerieSystem::Create(SmallSystemOptions());
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  const int site = RegisterPersistSite("tfs.pool.mark.flush");
  CrashSimOptions options = PoolFillOptions("mut_mark");
  options.stop_on_failure = true;
  std::vector<Oid> acked;
  CrashSimulator sim((*sys)->scm_region(), options,
                     PoolReclaimChecker(&acked));
  sim.SuppressSite(site);
  RunPoolFills(sys->get(), &acked);
  EXPECT_FALSE(sim.ok())
      << "suppressing tfs.pool.mark.flush was not detected\n"
      << sim.Report();
  std::fprintf(stderr, "detected tfs.pool.mark.flush:\n%s\n",
               sim.Report().c_str());
  ::unlink(options.image_path.c_str());
}

// Without the run-attach leaf flush the slots of an acknowledged write are
// lost once the checkpoint drops the attach record: the file reads holes.
TEST(CrashMutationTest, DetectsSuppressedAttachLeafFlush) {
  RunMutation("osd.mfile.attach.flush", "mut_attach", 4);
}

// Suppresses one persist site of the batched free and runs the extent-run
// workload, whose checker must notice.
void RunFreeMutation(const char* site_name, const char* tag) {
  SystemUnderTest t = BootPrimedSystem();
  const int site = RegisterPersistSite(site_name);
  ASSERT_GE(site, 0);
  CrashSimOptions options;
  options.seed = 4242;
  options.max_images = 600;
  options.random_draws_per_point = 3;
  options.stop_on_failure = true;
  options.image_path = UniqueImagePath(tag);
  std::vector<uint64_t> freed;
  RunExpectations expect;
  CrashSimulator sim(t.sys->scm_region(), options,
                     RunChecker(&freed, &expect));
  sim.SuppressSite(site);
  RunRunWorkload(&t, 3, &freed, &expect);
  EXPECT_FALSE(sim.ok()) << "suppressing " << site_name
                         << " was not detected\n"
                         << sim.Report();
  std::fprintf(stderr, "detected %s:\n%s\n", site_name,
               sim.Report().c_str());
  ::unlink(options.image_path.c_str());
}

// Without the bitmap-clear flush, pages an acknowledged truncate or unlink
// freed come back allocated after a crash: leaked.
TEST(CrashMutationTest, DetectsSuppressedBitmapClearFlush) {
  RunFreeMutation("osd.buddy.clear.flush", "mut_bitmap_clear");
}

// Without the slot-clear flush, a truncated file still maps pages whose
// bits were cleared: fsck sees a mapped page that is not allocated.
TEST(CrashMutationTest, DetectsSuppressedSlotClearFlush) {
  RunFreeMutation("osd.mfile.clear.flush", "mut_slot_clear");
}

}  // namespace
}  // namespace aerie
