// Table 1: latency of common file-system operations (paper §7.2.1).
//
//   Sequential/random read/write with 4KB buffers, open, create, delete,
//   append — on PXFS, RamFS, ext3, ext4.
//
// AERIE_BENCH_SCALE scales the 1GB file / 1024-file populations.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/obs.h"
#include "src/workload/microbench.h"

namespace {

struct PaperRow {
  const char* name;
  double pxfs, ramfs, ext3, ext4;
};

// Paper Table 1 (microseconds), for side-by-side comparison.
constexpr PaperRow kPaper[] = {
    {"Sequential read", 0.65, 0.58, 0.65, 0.57},
    {"Sequential write", 1.2, 1.2, 1.5, 1.2},
    {"Random read", 1.2, 1.1, 4.2, 4.2},
    {"Random write", 1.1, 1.4, 3.1, 2.5},
    {"Open", 1.2, 1.3, 1.6, 1.6},
    {"Create", 5.5, 3.0, 65.6, 81.2},
    {"Delete", 3.6, 2.3, 10.5, 17.4},
    {"Append", 3.4, 1.1, 5.6, 3.5},
};

}  // namespace

int main() {
  using namespace aerie;
  using namespace aerie::bench;

  const double scale = Scale();
  MicrobenchConfig config = MicrobenchConfig::Scaled(scale);
  std::printf("# Table 1: latency of common file system operations (us)\n");
  std::printf("# file=%.0fMB random=%.0fMB nfiles=%llu (paper: 1GB/100MB/"
              "1024)\n\n",
              static_cast<double>(config.file_bytes) / (1 << 20),
              static_cast<double>(config.random_bytes) / (1 << 20),
              static_cast<unsigned long long>(config.nfiles));

  obs::BenchReport report = MakeReport("table1_microbench");
  report.SetConfig("file_mb",
                   static_cast<double>(config.file_bytes) / (1 << 20));
  report.SetConfig("nfiles", static_cast<double>(config.nfiles));
  const uint64_t seed = Seed();

  const SutKind kinds[] = {SutKind::kPxfs, SutKind::kRamFs, SutKind::kExt3,
                           SutKind::kExt4};
  constexpr const char* kOpSlugs[8] = {"seq_read", "seq_write", "rand_read",
                                       "rand_write", "open", "create",
                                       "delete", "append"};
  // results[op][system] = mean us
  std::vector<std::vector<double>> results(8,
                                           std::vector<double>(4, 0.0));

  for (int s = 0; s < 4; ++s) {
    auto sut = SystemUnderTest::Create(kinds[s], DefaultSutOptions());
    BENCH_CHECK_OK(sut);
    FsInterface* fs = (*sut)->fs();
    BENCH_CHECK_STATUS(fs->Mkdir("/micro"));

    auto record = [&](int row, Result<Histogram> hist) {
      BENCH_CHECK_OK(hist);
      results[static_cast<size_t>(row)][static_cast<size_t>(s)] =
          MeanUs(*hist);
      report.AddLatency(std::string((*sut)->name()) + "." +
                            kOpSlugs[static_cast<size_t>(row)],
                        *hist);
    };
    record(0, BenchSeqRead(fs, "/micro", config));
    record(1, BenchSeqWrite(fs, "/micro", config));
    record(2, BenchRandRead(fs, "/micro", config, seed + 17));
    record(3, BenchRandWrite(fs, "/micro", config, seed + 18));
    record(4, BenchOpen(fs, "/micro", config));
    record(5, BenchCreate(fs, "/micro", config));
    record(6, BenchDelete(fs, "/micro", config));
    record(7, BenchAppend(fs, "/micro", config));
    std::fprintf(stderr, "measured %s\n",
                 std::string((*sut)->name()).c_str());
  }

  std::printf("%-18s | %8s %8s %8s %8s | paper: PXFS RamFS ext3 ext4\n",
              "Benchmark", "PXFS", "RamFS", "ext3", "ext4");
  for (int row = 0; row < 8; ++row) {
    std::printf("%-18s |", kPaper[row].name);
    for (int s = 0; s < 4; ++s) {
      std::printf(" %8.2f",
                  results[static_cast<size_t>(row)][static_cast<size_t>(s)]);
    }
    std::printf(" | %6.2f %6.2f %6.2f %6.2f\n", kPaper[row].pxfs,
                kPaper[row].ramfs, kPaper[row].ext3, kPaper[row].ext4);
  }

  std::printf("\n== Per-layer breakdown of the measured runs ==\n%s",
              obs::LayerBreakdownText().c_str());
  std::printf("\nOBS_JSON %s\n", obs::DumpJson().c_str());
  FinishReport(report);
  return 0;
}
