// Figure 6: throughput as SCM write latency grows (paper §7.4).
//
// Extra delay (0 / 100 / 1000 / 10000 ns beyond DRAM) is injected at every
// persistence point: per flushed cache line for the Aerie file systems, per
// written block line for the kernel file systems' RAM disk — the paper's
// exact mechanism (software spin delays at write points).
//
// Series: Fileserver and Webproxy on PXFS and ext4, Webproxy on FlatFS.
// Expected shapes: the PXFS/ext4 gap narrows as write latency grows (block
// access amortizes better), and FlatFS's specialization benefit shrinks as
// storage cost dominates software cost.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace {

using namespace aerie;
using namespace aerie::bench;

double MeasureOne(SutKind kind, FilebenchKind profile_kind, uint64_t delay_ns,
                  double scale, double seconds) {
  // Prepare the fileset at DRAM speed, then inject the latency for the
  // measured phase only (pre-populating gigabytes at 10us/line would take
  // hours and measures nothing).
  auto sut = SystemUnderTest::Create(kind, DefaultSutOptions());
  BENCH_CHECK_OK(sut);
  FilebenchProfile profile = FilebenchProfile::Paper(profile_kind, scale);
  const uint64_t seed = Seed() + 9;
  Histogram ops;
  uint64_t iterations = 0;
  double elapsed = 0;
  if (kind == SutKind::kFlatFs) {
    FlatWebproxyRunner runner((*sut)->flat(), profile, "wp", seed);
    BENCH_CHECK_STATUS(runner.Prepare());
    (*sut)->SetWriteLatency(delay_ns);
    Stopwatch sw;
    while (sw.ElapsedSeconds() < seconds) {
      BENCH_CHECK_STATUS(runner.RunIteration(&ops));
      iterations++;
    }
    elapsed = sw.ElapsedSeconds();
  } else {
    FilebenchRunner runner((*sut)->fs(), profile, "/bench", seed);
    BENCH_CHECK_STATUS(runner.Prepare());
    (*sut)->SetWriteLatency(delay_ns);
    Stopwatch sw;
    while (sw.ElapsedSeconds() < seconds) {
      BENCH_CHECK_STATUS(runner.RunIteration(&ops));
      iterations++;
    }
    elapsed = sw.ElapsedSeconds();
  }
  return static_cast<double>(iterations) / elapsed;
}

}  // namespace

int main() {
  const double scale = Scale();
  const double seconds = Seconds();
  std::printf("# Figure 6: throughput (iterations/s) vs extra SCM write "
              "latency\n");
  std::printf("# scale=%.3f, %gs per point; delays injected per persisted "
              "cache line\n\n",
              scale, seconds);

  struct Series {
    const char* name;
    SutKind kind;
    FilebenchKind profile;
  };
  const Series series[] = {
      {"Fileserver-PXFS", SutKind::kPxfs, FilebenchKind::kFileserver},
      {"Fileserver-ext4", SutKind::kExt4, FilebenchKind::kFileserver},
      {"Webproxy-PXFS", SutKind::kPxfs, FilebenchKind::kWebproxy},
      {"Webproxy-ext4", SutKind::kExt4, FilebenchKind::kWebproxy},
      {"Webproxy-FlatFS", SutKind::kFlatFs, FilebenchKind::kWebproxy},
  };
  const uint64_t delays[] = {0, 100, 1000, 10000};

  obs::BenchReport report = MakeReport("fig6_write_latency");

  std::printf("%-17s |", "series");
  for (uint64_t d : delays) {
    std::printf(" %8lluns", static_cast<unsigned long long>(d));
  }
  std::printf("\n");
  for (const Series& s : series) {
    std::printf("%-17s |", s.name);
    std::fflush(stdout);
    for (uint64_t d : delays) {
      const double tput = MeasureOne(s.kind, s.profile, d, scale, seconds);
      std::printf(" %10.1f", tput);
      std::fflush(stdout);
      report.AddThroughput(std::string(s.name) + ".d" + std::to_string(d),
                           tput);
    }
    std::printf("\n");
  }

  FinishReport(report);
  return 0;
}
