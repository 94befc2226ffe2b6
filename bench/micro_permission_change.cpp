// Permission-change microbenchmark (paper §7.2.1, text):
//
//   "Changing protection takes 3.3us per page that has been referenced,
//    most of which is TLB shootdown time."
//
// Measures scm_mprotect_extent for extents of growing size, with all pages
// referenced (soft-faulted into a process context), both with the soft page
// table alone and with real mprotect() doing genuine page-table + TLB work.
// Each point is the median of five rounds, after one untimed warm-up round.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/scm/manager.h"

int main() {
  using namespace aerie;
  using namespace aerie::bench;

  std::printf("# Permission change cost per referenced page\n");
  std::printf("# paper: 3.3us/page (TLB shootdown dominated)\n\n");

  obs::BenchReport report = MakeReport("micro_permission_change");

  for (const bool hard : {false, true}) {
    auto region = ScmRegion::CreateAnonymous(256ull << 20);
    BENCH_CHECK_OK(region);
    ScmManager::Options options;
    options.max_extents = 1 << 14;
    options.hard_protect = hard;
    auto mgr = ScmManager::Format(region->get(), options);
    BENCH_CHECK_OK(mgr);

    ProcessContext ctx({0});
    (*mgr)->RegisterContext(&ctx);

    // One create/touch/mprotect/restore/destroy round of `pages` pages;
    // returns the timed mprotect's microseconds.
    auto round = [&](uint64_t pages) {
      const uint64_t start = (*mgr)->data_start();
      const uint64_t len = pages * kScmPageSize;
      BENCH_CHECK_STATUS((*mgr)->CreateExtent(start, len, MakeAcl(0, 3)));
      // Reference every page so each has a (soft) PTE to shoot down.
      BENCH_CHECK_STATUS((*mgr)->TouchRange(&ctx, start, len, 1));

      Stopwatch sw;
      BENCH_CHECK_STATUS(
          (*mgr)->MprotectExtent(start, MakeAcl(0, kAclRightRead)));
      const double total_us = sw.ElapsedMicros();
      // Restore and destroy for the next round.
      BENCH_CHECK_STATUS((*mgr)->MprotectExtent(start, MakeAcl(0, 3)));
      if (hard) {
        BENCH_CHECK_STATUS(region->get()->HardProtect(start, len, 3));
      }
      BENCH_CHECK_STATUS((*mgr)->DestroyExtent(start));
      return total_us;
    };

    std::printf("## %s\n", hard ? "hard (real mprotect per page)"
                                : "soft (page-table emulation only)");
    std::printf("%10s %14s %16s\n", "pages", "total(us)", "per-page(us)");
    // Untimed warm-up: the first round pays one-time costs (first faults
    // on the manager's tables and the region) that are not per-page work.
    (void)round(1);
    for (uint64_t pages : {1ull, 16ull, 256ull, 4096ull}) {
      // Median of kReps rounds, so one slow round does not set the point.
      constexpr int kReps = 5;
      std::vector<double> samples;
      for (int rep = 0; rep < kReps; ++rep) {
        samples.push_back(round(pages));
      }
      std::nth_element(samples.begin(), samples.begin() + kReps / 2,
                       samples.end());
      const double total_us = samples[kReps / 2];
      std::printf("%10llu %14.2f %16.3f\n",
                  static_cast<unsigned long long>(pages), total_us,
                  total_us / static_cast<double>(pages));
      report.AddValue(std::string("mprotect.") + (hard ? "hard" : "soft") +
                          ".pages" + std::to_string(pages) + ".per_page_us",
                      total_us / static_cast<double>(pages), "us");
    }
    (*mgr)->UnregisterContext(&ctx);
    std::printf("\n");
  }

  FinishReport(report);
  return 0;
}
