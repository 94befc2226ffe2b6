// Ablation: hierarchical vs explicit directory locks (paper §5.3.4).
//
// With hierarchical (XH) directory locks the clerk grants descendant file
// locks locally, so metadata-heavy single-client workloads avoid per-file
// lock RPCs entirely. With explicit (X) locks every file lock is a service
// acquisition. Reports throughput and the clerk's global-acquire counts.
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace aerie;
  using namespace aerie::bench;

  const double scale = Scale();
  const double seconds = Seconds();
  std::printf("# Ablation: hierarchical vs explicit directory locks "
              "(Fileserver on PXFS)\n");
  std::printf("# scale=%.3f, %gs per point\n\n", scale, seconds);
  std::printf("%-14s %12s %16s %16s\n", "dir locks", "iter/s",
              "global-acquires", "local-grants");

  obs::BenchReport report = MakeReport("ablation_lock_modes");

  for (const bool hierarchical : {true, false}) {
    auto sut = SystemUnderTest::Create(SutKind::kPxfs, DefaultSutOptions());
    BENCH_CHECK_OK(sut);
    auto client = (*sut)->aerie()->NewClient(LibFs::Options{});
    BENCH_CHECK_OK(client);
    Pxfs::Options pxfs_options;
    pxfs_options.hierarchical_dir_locks = hierarchical;
    Pxfs pxfs((*client)->fs(), pxfs_options);
    PxfsAdapter adapter(&pxfs);

    FilebenchRunner runner(
        &adapter,
        FilebenchProfile::Paper(FilebenchKind::kFileserver, scale),
        "/bench", Seed() + 77);
    BENCH_CHECK_STATUS(runner.Prepare());
    LockClerk* clerk = (*client)->fs()->clerk();
    const uint64_t acquires_before = clerk->global_acquires();
    const uint64_t locals_before = clerk->local_grants();
    Histogram ops;
    auto tput = runner.RunForSeconds(seconds, &ops);
    BENCH_CHECK_OK(tput);
    std::printf("%-14s %12.1f %16llu %16llu\n",
                hierarchical ? "hierarchical" : "explicit", *tput,
                static_cast<unsigned long long>(clerk->global_acquires() -
                                                acquires_before),
                static_cast<unsigned long long>(clerk->local_grants() -
                                                locals_before));
    report.AddMetric(std::string("fileserver.") +
                         (hierarchical ? "hierarchical" : "explicit"),
                     *tput, ops);
  }

  FinishReport(report);
  return 0;
}
