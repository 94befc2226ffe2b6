// Tests for the sampling profiler (src/obs/profiler.{h,cc}) and the
// off-CPU wait plane:
//   * handler async-signal-safety under a real SIGPROF storm with
//     concurrent span traffic (the TSan job runs this via
//     tools/check_tsan.sh, which is the actual safety oracle),
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

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
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
      if (prof::InjectSampleForTesting(&span, frames, 2)) {
        ++accepted;
      } else {
        ++rejected;
      }
    }
    prof::DrainNow();
    // Post-drain the ring has room again.
    EXPECT_TRUE(prof::InjectSampleForTesting(&span, frames, 2));
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
// into one folded line, frames must come out root-first, spanless samples
// fold under (none);(no_span), and the export must be byte-identical when
// nothing new is drained.
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
      ASSERT_TRUE(prof::InjectSampleForTesting(&alpha, stack1, 3));
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(prof::InjectSampleForTesting(&beta, stack2, 2));
    }
    ASSERT_TRUE(prof::InjectSampleForTesting(nullptr, stack2, 2));
  });
  t.join();
  prof::DrainNow();

  const std::string folded = prof::FoldedStacks();
  EXPECT_EQ(folded, prof::FoldedStacks());  // stable across exports
  EXPECT_NE(folded.find("layera;layera.alpha;0x10;0x20;0x30 5\n"),
            std::string::npos)
      << folded;
  EXPECT_NE(folded.find("layerb;layerb.beta;0x11;0x21 3\n"),
            std::string::npos)
      << folded;
  EXPECT_NE(folded.find("(none);(no_span);0x11;0x21 1\n"), std::string::npos)
      << folded;

  // Each drained sample credits one period of CPU to its span.
  const prof::ProfileStats stats = prof::GetStats();
  EXPECT_EQ(alpha.cpu_ns(), 5 * stats.period_ns);
  EXPECT_EQ(beta.cpu_ns(), 3 * stats.period_ns);

  // The JSON view agrees with the folded view on totals and ranks the
  // leaf of the hottest stack first.
  const std::string json = prof::ProfileJson();
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"frames\":[\"0x10\",\"0x20\",\"0x30\"]"),
            std::string::npos)
      << json;
  EXPECT_NE(prof::TopText(5).find("0x30"), std::string::npos);
}

// Counters mode does not time spans, but a span still tags its thread: a
// sample taken inside it is credited to the span's cpu_ns, folds under the
// span's layer, and appears in the layer tables although self time is 0.
TEST_F(ProfilerTest, CountersModeSampleIsCreditedToSpan) {
  SetMode(Mode::kCounters);
  prof::Options opt;
  opt.manual = true;
  ASSERT_TRUE(prof::Start(opt));

  SpanStat& span = Registry::Instance().GetSpan("profcounters.op");
  std::thread t([] {
    AERIE_SPAN("profcounters", "op");
    const uintptr_t frames[2] = {0x51, 0x41};
    ASSERT_TRUE(prof::InjectSampleForTesting(CurrentSpanTag(), frames, 2));
  });
  t.join();
  prof::DrainNow();

  const uint64_t period = prof::GetStats().period_ns;
  EXPECT_EQ(span.cpu_ns(), period);
  EXPECT_EQ(span.count(), 0u);
  EXPECT_EQ(span.self_ns(), 0u);
  EXPECT_NE(prof::FoldedStacks().find(
                "profcounters;profcounters.op;0x41;0x51 1\n"),
            std::string::npos)
      << prof::FoldedStacks();

  char row[192];
  std::snprintf(row, sizeof(row),
                "\"profcounters\":{\"spans\":0,\"self_ns\":0,\"total_ns\":0,"
                "\"cpu_ns\":%llu,",
                static_cast<unsigned long long>(period));
  const std::string json = DumpJson();
  EXPECT_NE(json.find(row), std::string::npos) << json;

  const std::string table = LayerBreakdownText();
  const size_t at = table.find("\nprofcounters ");
  ASSERT_NE(at, std::string::npos) << table;
  const std::string line = table.substr(at + 1, table.find('\n', at + 1) - at);
  char cpu_ms[32];
  std::snprintf(cpu_ms, sizeof(cpu_ms), " %.2f ",
                static_cast<double>(period) / 1e6);
  EXPECT_NE(line.find(cpu_ms), std::string::npos) << line;
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
  EXPECT_EQ(span.cpu_ns(), stats.period_ns);
  EXPECT_NE(prof::FoldedStacks().find("profring;profring.op;"),
            std::string::npos)
      << prof::FoldedStacks();
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
