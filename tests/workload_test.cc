// Tests for the workload layer: the same op stream must succeed on every
// system under test, the FileBench profiles must run end to end, and a
// single-threaded run's sampled per-layer CPU must account for the process's
// CPU.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <string>

#include "src/common/clock.h"
#include "src/obs/obs.h"
#include "src/obs/profiler.h"
#include "src/workload/filebench.h"
#include "src/workload/microbench.h"
#include "src/workload/sut.h"

namespace aerie {
namespace {

SystemUnderTest::Options SmallOptions() {
  SystemUnderTest::Options options;
  options.region_bytes = 512ull << 20;
  options.disk_blocks = 64ull << 10;  // 256MB
  options.rpc_delay_ns = 0;
  options.syscall_entry_ns = 0;
  return options;
}

class SutEquivalenceTest : public ::testing::TestWithParam<SutKind> {};

TEST_P(SutEquivalenceTest, CommonOpStreamBehavesIdentically) {
  auto sut = SystemUnderTest::Create(GetParam(), SmallOptions());
  ASSERT_TRUE(sut.ok()) << static_cast<int>(GetParam());
  FsInterface* fs = (*sut)->fs();

  ASSERT_TRUE(fs->Mkdir("/w").ok());
  ASSERT_TRUE(fs->Mkdir("/w/sub").ok());

  // create + write + read back
  auto fd = fs->Open("/w/sub/file", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  const std::string data(10000, 'd');
  EXPECT_EQ(*fs->Write(*fd, std::span<const char>(data.data(), data.size())),
            data.size());
  ASSERT_TRUE(fs->Close(*fd).ok());
  EXPECT_EQ(*fs->StatSize("/w/sub/file"), data.size());

  auto rfd = fs->Open("/w/sub/file", kOpenRead);
  ASSERT_TRUE(rfd.ok());
  std::string buf(data.size(), '\0');
  EXPECT_EQ(*fs->Read(*rfd, std::span<char>(buf.data(), buf.size())),
            data.size());
  EXPECT_EQ(buf, data);
  ASSERT_TRUE(fs->Close(*rfd).ok());

  // pwrite/pread
  auto pfd = fs->Open("/w/sub/file", kOpenRead | kOpenWrite);
  ASSERT_TRUE(pfd.ok());
  const char patch[] = "PATCH";
  EXPECT_EQ(*fs->Pwrite(*pfd, 5000, std::span<const char>(patch, 5)), 5u);
  char small[5];
  EXPECT_EQ(*fs->Pread(*pfd, 5000, std::span<char>(small, 5)), 5u);
  EXPECT_EQ(std::string_view(small, 5), "PATCH");
  ASSERT_TRUE(fs->Close(*pfd).ok());

  // rename + unlink
  ASSERT_TRUE(fs->Rename("/w/sub/file", "/w/renamed").ok());
  EXPECT_EQ(fs->StatSize("/w/sub/file").code(), ErrorCode::kNotFound);
  EXPECT_EQ(*fs->StatSize("/w/renamed"), data.size());
  ASSERT_TRUE(fs->Unlink("/w/renamed").ok());
  EXPECT_EQ(fs->StatSize("/w/renamed").code(), ErrorCode::kNotFound);
  ASSERT_TRUE(fs->Sync().ok());
}

INSTANTIATE_TEST_SUITE_P(AllSystems, SutEquivalenceTest,
                         ::testing::Values(SutKind::kPxfs, SutKind::kPxfsNnc,
                                           SutKind::kRamFs, SutKind::kExt3,
                                           SutKind::kExt4),
                         [](const auto& param_info) {
                           std::string name(SutKindName(param_info.param));
                           for (char& ch : name) {
                             if (ch == '-') {
                               ch = '_';
                             }
                           }
                           return name;
                         });

class FilebenchSmokeTest
    : public ::testing::TestWithParam<std::pair<SutKind, FilebenchKind>> {};

TEST_P(FilebenchSmokeTest, PrepareAndIterate) {
  auto [sut_kind, profile_kind] = GetParam();
  auto sut = SystemUnderTest::Create(sut_kind, SmallOptions());
  ASSERT_TRUE(sut.ok());
  FilebenchProfile profile = FilebenchProfile::Paper(profile_kind, 0.02);
  profile.mean_file_size = 8 << 10;  // keep the smoke test quick
  FilebenchRunner runner((*sut)->fs(), profile, "/bench", 42);
  ASSERT_TRUE(runner.Prepare().ok());
  Histogram ops;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(runner.RunIteration(&ops).ok()) << i;
  }
  EXPECT_GT(ops.count(), 100u);
  EXPECT_GT(ops.Mean(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, FilebenchSmokeTest,
    ::testing::Values(
        std::make_pair(SutKind::kPxfs, FilebenchKind::kFileserver),
        std::make_pair(SutKind::kPxfs, FilebenchKind::kWebserver),
        std::make_pair(SutKind::kPxfs, FilebenchKind::kWebproxy),
        std::make_pair(SutKind::kExt3, FilebenchKind::kFileserver),
        std::make_pair(SutKind::kExt4, FilebenchKind::kWebproxy),
        std::make_pair(SutKind::kRamFs, FilebenchKind::kWebserver)),
    [](const auto& param_info) {
      return std::string(SutKindName(param_info.param.first)) + "_" +
             std::string(FilebenchKindName(param_info.param.second));
    });

TEST(FlatWebproxyTest, RunsOnFlatFs) {
  auto sut = SystemUnderTest::Create(SutKind::kFlatFs, SmallOptions());
  ASSERT_TRUE(sut.ok());
  FilebenchProfile profile =
      FilebenchProfile::Paper(FilebenchKind::kWebproxy, 0.1);
  profile.mean_file_size = 8 << 10;
  FlatWebproxyRunner runner((*sut)->flat(), profile, "wp", 7);
  ASSERT_TRUE(runner.Prepare().ok());
  Histogram ops;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(runner.RunIteration(&ops).ok()) << i;
  }
  EXPECT_GT(ops.count(), 100u);
}

TEST(MicrobenchTest, AllMicrobenchesRunOnPxfsAndExt4) {
  for (SutKind kind : {SutKind::kPxfs, SutKind::kExt4}) {
    auto sut = SystemUnderTest::Create(kind, SmallOptions());
    ASSERT_TRUE(sut.ok());
    FsInterface* fs = (*sut)->fs();
    ASSERT_TRUE(fs->Mkdir("/micro").ok());
    MicrobenchConfig config = MicrobenchConfig::Scaled(0.01);

    auto seq_read = BenchSeqRead(fs, "/micro", config);
    ASSERT_TRUE(seq_read.ok()) << seq_read.status().ToString();
    EXPECT_GT(seq_read->count(), 0u);
    auto seq_write = BenchSeqWrite(fs, "/micro", config);
    ASSERT_TRUE(seq_write.ok());
    auto rand_read = BenchRandRead(fs, "/micro", config, 1);
    ASSERT_TRUE(rand_read.ok());
    auto rand_write = BenchRandWrite(fs, "/micro", config, 2);
    ASSERT_TRUE(rand_write.ok());
    auto open = BenchOpen(fs, "/micro", config);
    ASSERT_TRUE(open.ok());
    auto create = BenchCreate(fs, "/micro", config);
    ASSERT_TRUE(create.ok());
    auto del = BenchDelete(fs, "/micro", config);
    ASSERT_TRUE(del.ok());
    auto append = BenchAppend(fs, "/micro", config);
    ASSERT_TRUE(append.ok());
    EXPECT_EQ(create->count(), config.nfiles);
    EXPECT_EQ(del->count(), config.nfiles);
  }
}

TEST(SutTest, MultipleAerieClientsShareOneNamespace) {
  auto sut = SystemUnderTest::Create(SutKind::kPxfs, SmallOptions());
  ASSERT_TRUE(sut.ok());
  auto client2 = (*sut)->NewClientFs();
  ASSERT_TRUE(client2.ok());
  ASSERT_TRUE((*sut)->fs()->Mkdir("/shareddir").ok());
  ASSERT_TRUE((*sut)->fs()->Create("/shareddir/from1").ok());
  ASSERT_TRUE((*sut)->fs()->Sync().ok());
  ASSERT_TRUE((*client2)->Create("/shareddir/from2").ok());
  ASSERT_TRUE((*client2)->Sync().ok());
  EXPECT_TRUE((*client2)->StatSize("/shareddir/from1").ok());
}

TEST(SutTest, WriteLatencyKnobSlowsPersistence) {
  auto sut = SystemUnderTest::Create(SutKind::kPxfs, SmallOptions());
  ASSERT_TRUE(sut.ok());
  FsInterface* fs = (*sut)->fs();
  ASSERT_TRUE(fs->Mkdir("/lat").ok());
  const std::string data(64 << 10, 'l');

  auto write_one = [&](const char* path) {
    Stopwatch sw;
    auto fd = fs->Open(path, kOpenCreate | kOpenWrite);
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE(
        fs->Write(*fd, std::span<const char>(data.data(), data.size()))
            .ok());
    EXPECT_TRUE(fs->Close(*fd).ok());
    return sw.ElapsedNanos();
  };
  (void)write_one("/lat/warmup");  // pool fill etc. happen here
  const uint64_t fast = write_one("/lat/fast");
  (*sut)->SetWriteLatency(2000);
  const uint64_t slow = write_one("/lat/slow");
  EXPECT_GT(slow, fast * 2);
}

uint64_t ProcessCpuNanos() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) *
             1000000000ull +
         static_cast<uint64_t>(usage.ru_utime.tv_usec +
                               usage.ru_stime.tv_usec) *
             1000ull;
}

// One thread runs the Table 1 microbenchmarks on ext4 under the real
// sampler, with setup outside the measured window, as a bench record sees
// it. The layers' summed cpu_ns must be most of getrusage's process CPU over
// the window (93-96% on a 4-CPU x86-64 host; down to 89.97% once in 24 runs
// with twice as many runnable processes as CPUs, hence the 80% floor) and
// can never exceed it; no layer's CPU plus waits can exceed the window's
// wall time. Crediting a fixed period per sample instead of the thread's
// measured CPU read about a quarter of it.
TEST(AttributionTest, SingleThreadedLayersHoldProcessCpu) {
  auto sut = SystemUnderTest::Create(SutKind::kExt4, SmallOptions());
  ASSERT_TRUE(sut.ok());
  FsInterface* fs = (*sut)->fs();
  ASSERT_TRUE(fs->Mkdir("/micro").ok());
  const MicrobenchConfig config = MicrobenchConfig::Scaled(0.05);
  const obs::Mode mode = obs::CurrentMode();
  obs::SetMode(obs::Mode::kCounters);
  ASSERT_TRUE(obs::prof::Start());
  obs::ResetAll();
  const uint64_t cpu_start = ProcessCpuNanos();
  const uint64_t wall_start = NowNanos();
  for (int rep = 0; rep < 3; ++rep) {
    ASSERT_TRUE(BenchSeqWrite(fs, "/micro", config).ok());
    ASSERT_TRUE(BenchSeqRead(fs, "/micro", config).ok());
    ASSERT_TRUE(BenchRandRead(fs, "/micro", config, 17).ok());
    ASSERT_TRUE(BenchRandWrite(fs, "/micro", config, 18).ok());
    ASSERT_TRUE(BenchOpen(fs, "/micro", config).ok());
    ASSERT_TRUE(BenchCreate(fs, "/micro", config).ok());
    ASSERT_TRUE(BenchDelete(fs, "/micro", config).ok());
    ASSERT_TRUE(BenchAppend(fs, "/micro", config).ok());
  }
  obs::prof::Stop();
  const uint64_t cpu = ProcessCpuNanos() - cpu_start;
  const uint64_t wall = NowNanos() - wall_start;
  uint64_t layer_cpu = 0;
  for (const obs::LayerRow& row :
       obs::LayerRows(obs::Registry::Instance().Collect())) {
    layer_cpu += row.cpu_ns;
    EXPECT_LE(row.cpu_ns + row.lock_wait_ns + row.rpc_wait_ns +
                  row.other_wait_ns,
              wall)
        << row.layer;
  }
  EXPECT_GE(layer_cpu, cpu / 10 * 8) << "process cpu_ns " << cpu;
  EXPECT_LE(layer_cpu, cpu);
  obs::prof::Reset();
  obs::SetMode(mode);
  obs::ResetAll();
}

}  // namespace
}  // namespace aerie
