// Randomized crash-point property test (paper §5.3.6): crash the system at
// random WAL-commit boundaries while a workload runs, reboot, recover, and
// require (a) a structurally sound volume (fsck clean) and (b) prefix
// semantics — every op acknowledged as applied is present; unshipped
// batched ops are absent without damage.
#include <gtest/gtest.h>

#include <string>

#include "src/common/rand.h"
#include "src/libfs/system.h"
#include "src/pxfs/pxfs.h"
#include "src/scm/crash_sim.h"
#include "src/tfs/fsck.h"

namespace aerie {
namespace {

class CrashRandomTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/aerie_crashrand_" +
            std::to_string(GetParam()) + ".img";
    ::unlink(path_.c_str());
  }
  void TearDown() override { ::unlink(path_.c_str()); }

  std::unique_ptr<AerieSystem> Boot(bool fresh) {
    AerieSystem::Options options;
    options.region_bytes = 256ull << 20;
    options.region_path = path_;
    options.fresh = fresh;
    auto sys = AerieSystem::Create(options);
    EXPECT_TRUE(sys.ok()) << sys.status().ToString();
    return std::move(*sys);
  }

  std::string path_;
};

TEST_P(CrashRandomTest, RecoveryIsSoundAtRandomCrashPoints) {
  Rng rng(GetParam());

  // Phase 1: run a create/write/unlink workload with eager shipping, then
  // "crash" after a randomly chosen number of batches by flipping the
  // crash-after-WAL-commit switch (the injected crash leaves a committed
  // but unapplied record, the hardest state).
  std::vector<std::string> acknowledged;  // ops the TFS confirmed applied
  {
    auto sys = Boot(/*fresh=*/true);
    auto client = sys->NewClient(LibFs::Options{.eager_ship = true});
    ASSERT_TRUE(client.ok());
    Pxfs fs((*client)->fs());
    ASSERT_TRUE(fs.Mkdir("/w").ok());
    acknowledged.push_back("/w");

    const int crash_after = 5 + static_cast<int>(rng.Uniform(40));
    int completed = 0;
    for (int i = 0; i < 60; ++i) {
      if (completed == crash_after) {
        sys->tfs()->set_crash_after_log_commit(true);
      }
      const std::string path = "/w/f" + std::to_string(i);
      auto fd = fs.Open(path, kOpenCreate | kOpenWrite);
      if (!fd.ok()) {
        break;  // the injected crash fired
      }
      const std::string data = "payload " + std::to_string(i);
      bool ok = fs.Write(*fd, std::span<const char>(data.data(),
                                                    data.size()))
                    .ok();
      ok = fs.Close(*fd).ok() && ok;
      if (!ok) {
        break;
      }
      // Eager shipping means the op already round-tripped; if the crash
      // switch was armed, the *next* batch dies mid-pipeline.
      if (!sys->tfs()
               ->GetRoots()
               .pxfs_root.IsNull()) {  // always true; keeps structure clear
        completed++;
      }
      if (completed <= crash_after) {
        acknowledged.push_back(path);
      }
    }
    (*client)->AbandonForCrashTest();
  }

  // Phase 2: reboot + recover; fsck must be clean.
  {
    auto sys = Boot(/*fresh=*/false);
    auto report = RunFsck(sys->volume());
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->ok()) << report->Summary();

    // Every acknowledged op's file must exist with intact content.
    auto client = sys->NewClient();
    ASSERT_TRUE(client.ok());
    Pxfs fs((*client)->fs());
    for (size_t i = 1; i < acknowledged.size(); ++i) {
      auto st = fs.Stat(acknowledged[i]);
      // The final acknowledged op may coincide with the crash point; accept
      // present-or-absent for the last one, require presence otherwise.
      if (i + 1 < acknowledged.size()) {
        EXPECT_TRUE(st.ok()) << acknowledged[i];
      }
      if (st.ok()) {
        auto fd = fs.Open(acknowledged[i], kOpenRead);
        ASSERT_TRUE(fd.ok());
        char buf[64] = {};
        auto n = fs.Read(*fd, std::span<char>(buf, sizeof(buf)));
        ASSERT_TRUE(n.ok());
        EXPECT_TRUE(std::string_view(buf, *n).starts_with("payload "))
            << acknowledged[i];
        ASSERT_TRUE(fs.Close(*fd).ok());
      }
    }
    // The volume keeps working after recovery.
    ASSERT_TRUE(fs.Create("/w/after_recovery").ok());
    ASSERT_TRUE(fs.SyncAll().ok());
    auto report2 = RunFsck(sys->volume());
    ASSERT_TRUE(report2.ok());
    EXPECT_TRUE(report2->ok()) << report2->Summary();
  }
}

// Line-granularity variant: instead of crashing at WAL-commit boundaries
// (which the DRAM-backed region persists in full), enumerate cache-line
// crash images with CrashSimulator — catching missing flushes and
// misordered fences that the whole-region crash above cannot see.
TEST_P(CrashRandomTest, LineGranularityCrashStatesRecoverCleanly) {
  AerieSystem::Options options;
  options.region_bytes = 8ull << 20;
  options.volume.log_bytes = 1ull << 20;
  auto sys = AerieSystem::Create(options);
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();

  LibFs::Options copts;
  copts.eager_ship = true;
  copts.flush_interval_ms = 0;
  copts.pool_refill = 64;
  auto client = (*sys)->NewClient(copts);
  ASSERT_TRUE(client.ok());
  Pxfs fs((*client)->fs());
  std::vector<std::string> durable;
  // Prime pools and the working dir before the simulator attaches so the
  // image budget is spent on the create/write protocol.
  ASSERT_TRUE(fs.Mkdir("/w").ok());
  durable.push_back("/w");
  ASSERT_TRUE(fs.Create("/w/prime").ok());
  durable.push_back("/w/prime");

  CrashSimOptions sopts;
  sopts.seed = GetParam();
  sopts.max_images = 100;
  sopts.random_draws_per_point = 2;
  sopts.stop_on_failure = false;
  sopts.image_path = path_;  // fixture temp file doubles as the image
  auto checker = [&](const std::string& image) -> Status {
    AerieSystem::Options ropts = options;
    ropts.region_path = image;
    ropts.fresh = false;
    auto rsys = AerieSystem::Create(ropts);
    if (!rsys.ok()) {
      return Status(ErrorCode::kCorrupted,
                    "reboot failed: " + rsys.status().ToString());
    }
    auto report = RunFsck((*rsys)->volume());
    if (!report.ok()) {
      return report.status();
    }
    if (!report->ok()) {
      return Status(ErrorCode::kCorrupted, "fsck: " + report->Summary());
    }
    auto rclient = (*rsys)->NewClient();
    if (!rclient.ok()) {
      return rclient.status();
    }
    Pxfs rfs((*rclient)->fs());
    for (const auto& p : durable) {
      if (!rfs.Stat(p).ok()) {
        return Status(ErrorCode::kCorrupted, "acknowledged path lost: " + p);
      }
    }
    return OkStatus();
  };

  Rng rng(GetParam());
  {
    CrashSimulator sim((*sys)->scm_region(), sopts, checker);
    for (int i = 0; i < 6; ++i) {
      const std::string path =
          "/w/f" + std::to_string(i) +
          std::string(1 + rng.Uniform(20), static_cast<char>('a' + i));
      auto fd = fs.Open(path, kOpenCreate | kOpenWrite);
      ASSERT_TRUE(fd.ok()) << fd.status().ToString();
      const std::string data = "payload " + std::to_string(i);
      ASSERT_TRUE(
          fs.Write(*fd, std::span<const char>(data.data(), data.size()))
              .ok());
      ASSERT_TRUE(fs.Close(*fd).ok());
      durable.push_back(path);
    }
    EXPECT_TRUE(sim.ok()) << sim.Report();
    EXPECT_GT(sim.images_checked(), 0u);
  }
  ASSERT_TRUE(fs.SyncAll().ok());
  auto report = RunFsck((*sys)->volume());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRandomTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace aerie
