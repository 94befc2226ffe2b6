// Ablation: the PXFS path-name cache (paper §7.3.1: name caching improved
// performance by up to 44% for Fileserver, 121% for Webserver, 190% for
// Webproxy).
//
// Runs each workload on PXFS with the cache enabled and disabled (PXFS-NNC)
// and reports throughput, speedup, and cache hit rates.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"

int main() {
  using namespace aerie;
  using namespace aerie::bench;

  const double scale = Scale();
  const double seconds = Seconds();
  std::printf("# Ablation: path-name cache (PXFS vs PXFS-NNC)\n");
  std::printf("# scale=%.3f, %gs per point; paper speedups: FS +44%%, "
              "WS +121%%, WP +190%%\n\n",
              scale, seconds);
  std::printf("%-11s %12s %12s %9s %10s\n", "workload", "PXFS it/s",
              "NNC it/s", "speedup", "hit-rate");

  obs::BenchReport report = MakeReport("ablation_name_cache");

  const FilebenchKind profiles[] = {FilebenchKind::kFileserver,
                                    FilebenchKind::kWebserver,
                                    FilebenchKind::kWebproxy};
  for (FilebenchKind kind : profiles) {
    const std::string workload(FilebenchKindName(kind));
    double tput[2] = {0, 0};
    double hit_rate = 0;
    for (int cached = 1; cached >= 0; --cached) {
      auto sut = SystemUnderTest::Create(
          cached ? SutKind::kPxfs : SutKind::kPxfsNnc, DefaultSutOptions());
      BENCH_CHECK_OK(sut);
      FilebenchRunner runner((*sut)->fs(),
                             FilebenchProfile::Paper(kind, scale), "/bench",
                             Seed() + 33);
      BENCH_CHECK_STATUS(runner.Prepare());
      Histogram ops;
      auto result = runner.RunForSeconds(seconds, &ops);
      BENCH_CHECK_OK(result);
      tput[cached] = *result;
      report.AddMetric(workload + (cached ? ".pxfs" : ".pxfs_nnc"), *result,
                       ops);
      if (cached) {
        const uint64_t hits = (*sut)->pxfs()->name_cache_hits();
        const uint64_t misses = (*sut)->pxfs()->name_cache_misses();
        hit_rate = hits + misses > 0
                       ? 100.0 * static_cast<double>(hits) /
                             static_cast<double>(hits + misses)
                       : 0;
      }
    }
    std::printf("%-11s %12.1f %12.1f %8.1f%% %9.1f%%\n", workload.c_str(),
                tput[1], tput[0], 100.0 * (tput[1] / tput[0] - 1.0),
                hit_rate);
    report.AddValue(workload + ".hit_rate", hit_rate, "percent");
  }

  FinishReport(report);
  return 0;
}
