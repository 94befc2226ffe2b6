// Shared plumbing for the per-table/per-figure benchmark binaries.
//
// Environment knobs (all optional):
//   AERIE_BENCH_SCALE    — fileset scale relative to the paper's (default
//                          0.05; 1.0 reproduces the paper's sizes)
//   AERIE_BENCH_SECONDS  — measurement window per data point (default 2)
//   AERIE_BENCH_THREADS  — max threads for scaling sweeps (default 4)
//   AERIE_BENCH_SEED     — base RNG seed; every runner derives its seed
//                          from this so a sweep is reproducible (default 42)
//   AERIE_BENCH_JSON     — when set, the binary writes its BenchReport
//                          record (schema-versioned JSON) to this path
//   AERIE_GIT_SHA        — stamped into the record by the driver
//
// Every binary prints a Markdown-ish table mirroring the paper's artifact,
// plus the paper's numbers alongside where useful (EXPERIMENTS.md records
// both), and emits one obs::BenchReport record for the trajectory harness
// (tools/run_benches.sh aggregates them into BENCH_<date>.json).
#ifndef AERIE_BENCH_BENCH_UTIL_H_
#define AERIE_BENCH_BENCH_UTIL_H_

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/common/histogram.h"
#include "src/obs/bench_report.h"
#include "src/obs/obs.h"
#include "src/obs/profiler.h"
#include "src/workload/filebench.h"
#include "src/workload/sut.h"

namespace aerie {
namespace bench {

inline double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

inline double Scale() { return EnvDouble("AERIE_BENCH_SCALE", 0.05); }
inline double Seconds() { return EnvDouble("AERIE_BENCH_SECONDS", 2.0); }
inline int MaxThreads() {
  return static_cast<int>(EnvDouble("AERIE_BENCH_THREADS", 4));
}
// CPUs this process may run on (its affinity mask), which is what bounds
// thread and client scaling; 0 if the mask cannot be read.
inline int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 0;
  }
  return CPU_COUNT(&set);
}
// Base seed every bench derives its per-runner seeds from (seed + fixed
// offset), so one AERIE_BENCH_SEED value pins the whole sweep.
inline uint64_t Seed() {
  return static_cast<uint64_t>(EnvDouble("AERIE_BENCH_SEED", 42));
}

inline SystemUnderTest::Options DefaultSutOptions() {
  SystemUnderTest::Options options;
  options.region_bytes = 2ull << 30;
  options.disk_blocks = 512ull << 10;
  return options;
}

// Fails fast with a readable message: a benchmark that cannot set up its
// system has nothing meaningful to print.
#define BENCH_CHECK_OK(expr)                                          \
  do {                                                                \
    const auto& _st = (expr);                                         \
    if (!_st.ok()) {                                                  \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__, __LINE__,   \
                   _st.status().ToString().c_str());                  \
      std::exit(1);                                                   \
    }                                                                 \
  } while (0)

#define BENCH_CHECK_STATUS(expr)                                      \
  do {                                                                \
    ::aerie::Status _st = (expr);                                     \
    if (!_st.ok()) {                                                  \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__, __LINE__,   \
                   _st.ToString().c_str());                           \
      std::exit(1);                                                   \
    }                                                                 \
  } while (0)

inline double MeanUs(const Histogram& hist) { return hist.Mean() / 1e3; }
inline double P95Us(const Histogram& hist) {
  return static_cast<double>(hist.Percentile(95)) / 1e3;
}

// One BenchReport pre-stamped with the shared environment knobs; benches
// add their own config keys and metric rows on top.
inline obs::BenchReport MakeReport(const char* bench) {
  obs::BenchReport report(bench);
  report.SetConfig("scale", Scale());
  report.SetConfig("seconds", Seconds());
  report.SetConfig("threads", static_cast<double>(MaxThreads()));
  report.SetConfig("seed", static_cast<double>(Seed()));
  return report;
}

// Finishes a record: snapshot the measured run's attribution into it, write
// it to $AERIE_BENCH_JSON (if set) and surface the path on stdout so sweep
// logs show where each record landed. When the sampling profiler is live
// (AERIE_PROF), also flush its folded-stack / profile-JSON artifacts
// ($AERIE_PROF_FOLDED / $AERIE_PROF_JSON) and print the top self-CPU frames
// so a bench run doubles as a profile run.
inline void FinishReport(obs::BenchReport& report) {
  report.CaptureAttribution();
  const std::string path = report.WriteIfConfigured();
  if (!path.empty()) {
    std::printf("BENCH_JSON_FILE %s\n", path.c_str());
  }
  if (obs::prof::IsRunning()) {
    obs::prof::WriteProfileFilesIfConfigured();
    const std::string top = obs::prof::TopText(10);
    if (!top.empty()) {
      std::fputs(top.c_str(), stdout);
    }
  }
}

}  // namespace bench
}  // namespace aerie

#endif  // AERIE_BENCH_BENCH_UTIL_H_
