// Tests for the sampling profiler (src/obs/profiler.{h,cc}) and the
// off-CPU wait plane:
//   * handler async-signal-safety under a real SIGPROF storm with
//     concurrent span traffic (the TSan job runs this via
//     tools/check_tsan.sh, which is the actual safety oracle),
//   * real CPU credit: a spin inside one span under the real timer is
//     credited the thread's measured CPU time, whatever rate the timer
//     achieves,
//   * no stale credit: after Stop/Start or Reset a thread's first sample
//     only re-baselines its CPU clock,
//   * ring overflow accounting in manual mode (exact, no timer),
//   * folded-stack export determinism with a synthetic span workload,
//   * counters-mode attribution through the layer tag (sample rings, span
//     cpu_ns and the layer tables without span-mode timing),
//   * off-CPU lock-wait attribution for a deliberately contended lock, in
//     span mode and in counters mode,
//   * composition of SIGPROF + SIGUSR1 sigdump + the CHECK-failure
//     post-mortem dump firing concurrently (ISSUE satellite: the three
//     signal consumers must coexist).
#include "src/obs/profiler.h"

#include <gtest/gtest.h>
#include <signal.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/lock/lock_service.h"
#include "src/obs/obs.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"

namespace aerie {
namespace obs {
namespace {

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prof::Stop();
    prof::Reset();
    SetMode(Mode::kSpans);
    ResetAll();
  }
  void TearDown() override {
    prof::Stop();
    prof::Reset();
    SetMode(Mode::kCounters);
    ResetAll();
  }
};

// Burn CPU inside spans on several threads while a real ITIMER_PROF timer
// fires at high rate. The assertion here is only "samples arrived and the
// process is intact"; the signal-safety claim is checked by running this
// binary under TSan (tools/check_tsan.sh) where a lock, allocation, or
// unsynchronized write in the handler becomes a hard report.
TEST_F(ProfilerTest, HandlerSurvivesSignalStormUnderSpanLoad) {
  prof::Options opt;
  opt.hz = 2000;
  ASSERT_TRUE(prof::Start(opt));

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        AERIE_SPAN("proftest", "burn");
        volatile uint64_t acc = 0;
        for (int i = 0; i < 50000; ++i) {
          acc = acc + static_cast<uint64_t>(i) * i;
        }
      }
    });
  }
  // ITIMER_PROF counts process CPU time: 4 spinning threads accumulate it
  // fast, so a short wall-clock window yields hundreds of samples.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) {
    w.join();
  }
  prof::Stop();

  const prof::ProfileStats stats = prof::GetStats();
  EXPECT_GT(stats.samples, 0u);
  // Worker threads register rings at span begin, so samples should fold
  // under the bench span rather than all landing in no_ring.
  const std::string folded = prof::FoldedStacks();
  EXPECT_NE(folded.find("proftest;proftest.burn;"), std::string::npos)
      << folded;
}

uint64_t ThreadCpuNanos() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// One thread spins ~300 ms of its own CPU inside one span under the real
// timer. Each sample carries the thread CPU time since the previous one,
// so the span's credit is the thread's CPU minus at most the tail after
// the last sample — not samples x nominal period, which reads low when
// the kernel delivers SIGPROF slower than requested.
TEST_F(ProfilerTest, SpinInOneSpanIsCreditedThreadCpu) {
  SetMode(Mode::kCounters);
  ASSERT_TRUE(prof::Start());

  SpanStat& span = Registry::Instance().GetSpan("profspin.burn");
  uint64_t thread_cpu_ns = 0;
  // A fresh thread: its ring is registered at the span's entry, so its
  // first sample's CPU delta starts there.
  std::thread t([&thread_cpu_ns] {
    const uint64_t start = ThreadCpuNanos();
    {
      AERIE_SPAN("profspin", "burn");
      volatile uint64_t acc = 0;
      while (ThreadCpuNanos() - start < 300'000'000ull) {
        for (int i = 0; i < 10000; ++i) {
          acc = acc + static_cast<uint64_t>(i) * i;
        }
      }
    }
    thread_cpu_ns = ThreadCpuNanos() - start;
  });
  t.join();
  prof::Stop();

  EXPECT_GT(prof::GetStats().samples, 0u);
  EXPECT_LE(span.cpu_ns(), thread_cpu_ns);
  EXPECT_GE(static_cast<double>(span.cpu_ns()),
            0.9 * static_cast<double>(thread_cpu_ns))
      << "credited " << span.cpu_ns() << " ns of " << thread_cpu_ns
      << " ns thread CPU over " << prof::GetStats().samples << " samples";
}

// Manual mode: a fresh thread gets a 64-slot ring; pushing 100 samples
// must accept exactly 64, reject exactly 36, and count the rejects in
// ProfileStats::dropped. After a drain the ring accepts samples again.
TEST_F(ProfilerTest, RingOverflowIsCountedExactly) {
  prof::Options opt;
  opt.manual = true;
  opt.ring_slots = 64;
  ASSERT_TRUE(prof::Start(opt));
  const uint64_t base_dropped = prof::GetStats().dropped;

  SpanStat& span = Registry::Instance().GetSpan("proftest.overflow");
  int accepted = 0;
  int rejected = 0;
  // A fresh thread, so its ring is created with this Start's ring_slots
  // (the main thread may hold a larger ring from an earlier test).
  std::thread t([&] {
    const uintptr_t frames[2] = {0x1000, 0x2000};
    for (int i = 0; i < 100; ++i) {
      if (prof::InjectSampleForTesting(&span, 1'000, frames, 2)) {
        ++accepted;
      } else {
        ++rejected;
      }
    }
    prof::DrainNow();
    // Post-drain the ring has room again.
    EXPECT_TRUE(prof::InjectSampleForTesting(&span, 1'000, frames, 2));
  });
  t.join();

  EXPECT_EQ(accepted, 64);
  EXPECT_EQ(rejected, 36);
  EXPECT_EQ(prof::GetStats().dropped - base_dropped, 36u);
  prof::DrainNow();
  EXPECT_GE(prof::GetStats().samples, 65u);
}

// Synthetic samples with fake frame addresses (dladdr cannot resolve them,
// so they symbolize to deterministic hex): identical stacks must aggregate
// into one folded line weighted by their summed CPU, frames must come out
// root-first, spanless samples fold under (none);(no_span), and the export
// must be byte-identical when nothing new is drained.
TEST_F(ProfilerTest, FoldedStacksAreDeterministic) {
  prof::Options opt;
  opt.manual = true;
  ASSERT_TRUE(prof::Start(opt));

  SpanStat& alpha = Registry::Instance().GetSpan("layera.alpha");
  SpanStat& beta = Registry::Instance().GetSpan("layerb.beta");
  std::thread t([&] {
    const uintptr_t stack1[3] = {0x30, 0x20, 0x10};  // leaf-first capture
    const uintptr_t stack2[2] = {0x21, 0x11};
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(prof::InjectSampleForTesting(&alpha, 1'000'000, stack1, 3));
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(prof::InjectSampleForTesting(&beta, 200'000, stack2, 2));
    }
    ASSERT_TRUE(prof::InjectSampleForTesting(nullptr, 50'000, stack2, 2));
  });
  t.join();
  prof::DrainNow();

  const std::string folded = prof::FoldedStacks();
  EXPECT_EQ(folded, prof::FoldedStacks());  // stable across exports
  EXPECT_NE(folded.find("layera;layera.alpha;0x10;0x20;0x30 5000000\n"),
            std::string::npos)
      << folded;
  EXPECT_NE(folded.find("layerb;layerb.beta;0x11;0x21 600000\n"),
            std::string::npos)
      << folded;
  EXPECT_NE(folded.find("(none);(no_span);0x11;0x21 50000\n"),
            std::string::npos)
      << folded;

  // Each drained sample credits the CPU time it carries to its span.
  EXPECT_EQ(alpha.cpu_ns(), 5'000'000u);
  EXPECT_EQ(beta.cpu_ns(), 600'000u);

  // The JSON view carries the same per-stack CPU and ranks the leaf of
  // the hottest stack first.
  const std::string json = prof::ProfileJson();
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"samples\":9,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cpu_ns\":5000000,"
                      "\"frames\":[\"0x10\",\"0x20\",\"0x30\"]"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"top\":[{\"frame\":\"0x30\","
                      "\"self_cpu_us\":5000.0}"),
            std::string::npos)
      << json;
  // TopText ranks by credited CPU too: 5 ms of the 5.65 ms profiled.
  const std::string top = prof::TopText(5);
  const std::string first_row = top.substr(top.find('\n') + 1);
  EXPECT_EQ(first_row.substr(0, first_row.find('\n')),
            "1          5.00  88.5%  0x30")
      << top;
}

// Counters mode does not time spans, but a span still tags its thread: a
// sample taken inside it is credited to the span's cpu_ns, folds under the
// span's layer, and appears in the layer tables, where a layer's wait
// share is its waits over cpu + waits.
TEST_F(ProfilerTest, CountersModeSampleIsCreditedToSpan) {
  SetMode(Mode::kCounters);
  prof::Options opt;
  opt.manual = true;
  ASSERT_TRUE(prof::Start(opt));

  SpanStat& span = Registry::Instance().GetSpan("profcounters.op");
  std::thread t([] {
    AERIE_SPAN("profcounters", "op");
    const uintptr_t frames[2] = {0x51, 0x41};
    ASSERT_TRUE(prof::InjectSampleForTesting(CurrentSpanTag(), 3'000'000,
                                             frames, 2));
    AddWaitNsToCurrentSpan(WaitKind::kLock, 1'000'000);
  });
  t.join();
  prof::DrainNow();

  EXPECT_EQ(span.cpu_ns(), 3'000'000u);
  EXPECT_EQ(span.Snapshot().count(), 0u);
  EXPECT_EQ(span.Snapshot().sum(), 0u);
  EXPECT_NE(prof::FoldedStacks().find(
                "profcounters;profcounters.op;0x41;0x51 3000000\n"),
            std::string::npos)
      << prof::FoldedStacks();

  const std::string json = DumpJson();
  EXPECT_NE(json.find("\"profcounters\":{\"spans\":0,\"total_ns\":0,"
                      "\"cpu_ns\":3000000,\"lock_wait_ns\":1000000,"),
            std::string::npos)
      << json;

  const std::string table = LayerBreakdownText();
  const auto line_of = [&table](const std::string& prefix) {
    const size_t at = table.find("\n" + prefix);
    return at == std::string::npos
               ? std::string()
               : table.substr(at + 1, table.find('\n', at + 1) - at - 1);
  };
  const std::string line = line_of("profcounters ");
  EXPECT_NE(line.find(" 3.00 "), std::string::npos) << table;
  EXPECT_NE(line.find(" 1.00 "), std::string::npos) << table;
  EXPECT_NE(line.find(" 25.0%"), std::string::npos) << table;
  // The (sum) row totals sampled CPU; this is the only sampled layer.
  EXPECT_NE(line_of("(sum) ").find(" 3.00"), std::string::npos) << table;
}

// A thread whose spans only ever run in counters mode gets its sample ring
// at its outermost span: a real SIGPROF raised inside the span (raise()
// returns after the handler ran) is captured under the span's tag instead
// of being counted as no_ring.
TEST_F(ProfilerTest, CountersModeSpanRegistersSampleRing) {
  SetMode(Mode::kCounters);
  prof::Options opt;
  opt.manual = true;
  ASSERT_TRUE(prof::Start(opt));

  SpanStat& span = Registry::Instance().GetSpan("profring.op");
  std::thread t([] {
    AERIE_SPAN("profring", "op");
    raise(SIGPROF);
  });
  t.join();
  prof::DrainNow();

  const prof::ProfileStats stats = prof::GetStats();
  EXPECT_EQ(stats.no_ring, 0u);
  EXPECT_EQ(stats.samples, 1u);
  // The sample carries the thread's CPU since its ring was registered.
  EXPECT_GT(span.cpu_ns(), 0u);
  EXPECT_NE(prof::FoldedStacks().find("profring;profring.op;"),
            std::string::npos)
      << prof::FoldedStacks();
}

// A thread that registered its ring in one profiling session and burns
// CPU while the profiler is stopped (or before a Reset) must not credit
// that CPU to the span live at its first sample afterwards: that sample
// only re-baselines the thread's CPU clock. The sample after it credits
// CPU again.
void BurnThreadCpu(uint64_t ns) {
  const uint64_t start = ThreadCpuNanos();
  volatile uint64_t acc = 0;
  while (ThreadCpuNanos() - start < ns) {
    for (int i = 0; i < 10000; ++i) {
      acc = acc + static_cast<uint64_t>(i) * i;
    }
  }
}

// Runs `between` on the main thread after a worker has registered its
// ring and then burned 50 ms of CPU, and returns the CPU credited to
// "profstale.op" by the worker's first and second samples after it.
std::pair<uint64_t, uint64_t> CreditAfter(
    const std::function<void()>& between) {
  prof::Options opt;
  opt.manual = true;
  EXPECT_TRUE(prof::Start(opt));
  SpanStat& span = Registry::Instance().GetSpan("profstale.op");
  std::atomic<int> phase{0};
  std::thread t([&phase] {
    prof::RegisterCurrentThread();
    BurnThreadCpu(50'000'000);
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    AERIE_SPAN("profstale", "op");
    raise(SIGPROF);
    phase.store(3);
    while (phase.load() != 4) {
      std::this_thread::yield();
    }
    raise(SIGPROF);
  });
  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  between();
  phase.store(2);
  while (phase.load() != 3) {
    std::this_thread::yield();
  }
  prof::DrainNow();
  const uint64_t first = span.cpu_ns();
  phase.store(4);
  t.join();
  prof::DrainNow();
  return {first, span.cpu_ns() - first};
}

TEST_F(ProfilerTest, FirstSampleAfterRestartCreditsNoStoppedCpu) {
  const auto [first, second] = CreditAfter([] {
    prof::Stop();
    prof::Options opt;
    opt.manual = true;
    ASSERT_TRUE(prof::Start(opt));
  });
  EXPECT_EQ(first, 0u);
  EXPECT_GT(second, 0u);
  EXPECT_LT(second, 50'000'000u);
}

TEST_F(ProfilerTest, FirstSampleAfterResetCreditsNoEarlierCpu) {
  const auto [first, second] = CreditAfter([] { ResetAll(); });
  EXPECT_EQ(first, 0u);
  EXPECT_GT(second, 0u);
  EXPECT_LT(second, 50'000'000u);
}

class NullSink : public RevocationSink {
 public:
  void OnRevoke(LockId, LockMode) override {}
};

// Runs its test once per obs mode that keeps the layer tag: span mode, and
// counters mode, where bench records take their waits from.
class ProfilerModeTest : public ProfilerTest,
                         public ::testing::WithParamInterface<Mode> {
 protected:
  void SetUp() override {
    ProfilerTest::SetUp();
    SetMode(GetParam());
  }
};

// A deliberately contended lock: client 2 blocks in
// LockService::Acquire(wait=true) while client 1 holds the lock
// exclusively for ~20ms. The blocked span must accumulate lock_wait_ns,
// the lock.wait.latency_us histogram must record the wait, and the
// lock.waiters gauge must return to zero.
TEST_P(ProfilerModeTest, ContendedLockAttributesOffCpuWait) {
  LockService service;
  NullSink sink1, sink2;
  service.RegisterClient(1, &sink1);
  service.RegisterClient(2, &sink2);
  ASSERT_TRUE(service.Acquire(1, 100, LockMode::kExclusive, false).ok());

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(service.Release(1, 100).ok());
  });

  // The wait lands on the INNERMOST span at the blocking site —
  // lockservice.acquire, opened by Acquire itself — not on this outer
  // caller span (ScopedWait re-reads the TLS span at destruction).
  SpanStat& outer = Registry::Instance().GetSpan("proftest.blocked_acquire");
  SpanStat& acquire_span =
      Registry::Instance().GetSpan("lockservice.acquire");
  {
    ScopedSpan scope(&outer);
    EXPECT_TRUE(service.Acquire(2, 100, LockMode::kExclusive, true).ok());
  }
  releaser.join();

  // The acquire blocked ~20ms; allow generous slack for slow machines but
  // require a clearly nonzero attribution.
  EXPECT_GE(acquire_span.lock_wait_ns(), 5u * 1000 * 1000);
  EXPECT_EQ(acquire_span.rpc_wait_ns(), 0u);
  EXPECT_EQ(outer.lock_wait_ns(), 0u);

  const Histogram wait_hist =
      Registry::Instance().GetHistogram("lock.wait.latency_us").Snapshot();
  ASSERT_GE(wait_hist.count(), 1u);
  EXPECT_GE(wait_hist.max(), 5u * 1000);  // microseconds

  EXPECT_EQ(Registry::Instance().GetGauge("lock.waiters").value(), 0);
  EXPECT_TRUE(service.Release(2, 100).ok());
}

INSTANTIATE_TEST_SUITE_P(Modes, ProfilerModeTest,
                         ::testing::Values(Mode::kSpans, Mode::kCounters),
                         [](const ::testing::TestParamInfo<Mode>& mode) {
                           return mode.param == Mode::kSpans ? "spans"
                                                             : "counters";
                         });

// ScopedWait in counters-only mode: no span to attribute to, but the
// total_ns accumulator (what lock.wait.latency_us is built from) must
// still measure.
TEST_F(ProfilerTest, ScopedWaitAccumulatesWithoutSpans) {
  SetMode(Mode::kCounters);
  uint64_t total_ns = 0;
  {
    ScopedWait wait(WaitKind::kOther, &total_ns);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(total_ns, 1u * 1000 * 1000);
}

// The three signal consumers — SIGPROF sampling, the SIGUSR1 sigdump, and
// the CHECK-failure post-mortem dump — must coexist: firing all three
// concurrently may not crash, deadlock, or uninstall each other. Requires
// AERIE_OBS_SIGDUMP=1 in the environment (ctest sets it); skipped
// otherwise because raising SIGUSR1 without a handler kills the process.
TEST_F(ProfilerTest, SignalHandlersCompose) {
  detail::StartProcessTelemetryOnce();
  struct sigaction usr1 {};
  ASSERT_EQ(sigaction(SIGUSR1, nullptr, &usr1), 0);
  if (usr1.sa_handler == SIG_DFL || usr1.sa_handler == SIG_IGN) {
    GTEST_SKIP() << "AERIE_OBS_SIGDUMP not enabled at process attach";
  }

  prof::Options opt;
  opt.hz = 2000;
  ASSERT_TRUE(prof::Start(opt));

  std::atomic<bool> stop{false};
  std::vector<std::thread> burners;
  for (int t = 0; t < 3; ++t) {
    burners.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        AERIE_SPAN("proftest", "compose");
        volatile uint64_t acc = 0;
        for (int i = 0; i < 50000; ++i) {
          acc = acc + static_cast<uint64_t>(i) * i;
        }
      }
    });
  }
  // Fire the sigdump and the post-mortem dump repeatedly while SIGPROF is
  // hammering the same threads. The tick processes the pending sigdump the
  // way the ticker thread would.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(raise(SIGUSR1), 0);
    ProcessTelemetryTickForTesting();
    DumpPostMortem();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& b : burners) {
    b.join();
  }
  prof::Stop();

  EXPECT_GT(prof::GetStats().samples, 0u);
  // Neither consumer knocked out the other's handler.
  struct sigaction prof_sa {};
  ASSERT_EQ(sigaction(SIGPROF, nullptr, &prof_sa), 0);
  EXPECT_NE(prof_sa.sa_handler, SIG_DFL);
  ASSERT_EQ(sigaction(SIGUSR1, nullptr, &usr1), 0);
  EXPECT_NE(usr1.sa_handler, SIG_DFL);
}

}  // namespace
}  // namespace obs
}  // namespace aerie
