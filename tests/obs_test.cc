// Tests for the observability layer: registry, counters, gauges,
// histograms, trace spans, mode gating and exporters.
#include "src/obs/obs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/obs/bench_report.h"
#include "src/obs/profiler.h"

namespace aerie {
namespace obs {
namespace {

// Every test starts from counters mode with zeroed metrics; the registry is
// process-global, so tests share interned metrics but never their values.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMode(Mode::kCounters);
    ResetAll();
  }
  void TearDown() override {
    SetMode(Mode::kCounters);
    ResetAll();
  }
};

TEST_F(ObsTest, CounterBasics) {
  Counter& c = Registry::Instance().GetCounter("test.counter.basic");
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(c.load(), 42u);  // atomic-compatible alias
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, InterningReturnsSameMetric) {
  Counter& a = Registry::Instance().GetCounter("test.counter.interned");
  Counter& b = Registry::Instance().GetCounter("test.counter.interned");
  EXPECT_EQ(&a, &b);
  SpanStat& s1 = Registry::Instance().GetSpan("test.span.interned");
  SpanStat& s2 = Registry::Instance().GetSpan("test.span.interned");
  EXPECT_EQ(&s1, &s2);
}

TEST_F(ObsTest, GaugeSetAddSub) {
  Gauge& g = Registry::Instance().GetGauge("test.gauge.basic");
  g.Set(10);
  g.Add(5);
  g.Sub(3);
  EXPECT_EQ(g.value(), 12);
}

TEST_F(ObsTest, ConcurrentCounterIncrements) {
  Counter& c = Registry::Instance().GetCounter("test.counter.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsTest, ConcurrentHistogramRecords) {
  LatencyHistogram& h =
      Registry::Instance().GetHistogram("test.hist.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t * 1000 + (i % 100)));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(h.Snapshot().count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsTest, OffModeRecordsNothing) {
  Counter& c = Registry::Instance().GetCounter("test.counter.off");
  Gauge& g = Registry::Instance().GetGauge("test.gauge.off");
  LatencyHistogram& h = Registry::Instance().GetHistogram("test.hist.off");
  SpanStat& s = Registry::Instance().GetSpan("test.span.off");

  SetMode(Mode::kOff);
  c.Add(7);
  g.Set(7);
  h.Record(7);
  {
    ScopedSpan span(SpansOn() ? &s : nullptr);
    SpinDelayNanos(100);
  }
  { AERIE_SPAN("test", "off_macro"); }
  AERIE_COUNT("test.counter.off_macro");
  SetMode(Mode::kCounters);

  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.Snapshot().count(), 0u);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(Registry::Instance().GetSpan("test.off_macro").count(), 0u);
  EXPECT_EQ(Registry::Instance()
                .GetCounter("test.counter.off_macro")
                .value(),
            0u);
}

TEST_F(ObsTest, CountersModeDoesNotRecordSpans) {
  SpanStat& s = Registry::Instance().GetSpan("test.span.counters_mode");
  ASSERT_EQ(CurrentMode(), Mode::kCounters);
  { AERIE_SPAN("test", "span.counters_mode"); }
  EXPECT_EQ(s.count(), 0u);
}

// The layer tag follows the span nesting in counters mode (no timing), and
// a span restores the tag it found even if the mode changes while it is
// open — the perfbench harness flips modes between slices mid-run.
TEST_F(ObsTest, LayerTagFollowsSpansInCountersMode) {
  SpanStat& outer = Registry::Instance().GetSpan("test.tag.outer");
  SpanStat& inner = Registry::Instance().GetSpan("test.tag.inner");
  ASSERT_EQ(CurrentSpanTag(), nullptr);
  {
    ScopedSpan a(&outer);
    EXPECT_EQ(CurrentSpanTag(), &outer);
    {
      ScopedSpan b(&inner);
      EXPECT_EQ(CurrentSpanTag(), &inner);
    }
    EXPECT_EQ(CurrentSpanTag(), &outer);
  }
  EXPECT_EQ(CurrentSpanTag(), nullptr);
  EXPECT_EQ(outer.count(), 0u);
  EXPECT_EQ(inner.count(), 0u);
}

TEST_F(ObsTest, ModeSwitchInsideSpanRestoresTag) {
  SpanStat& outer = Registry::Instance().GetSpan("test.tag.switch_outer");
  SpanStat& inner = Registry::Instance().GetSpan("test.tag.switch_inner");
  {
    ScopedSpan a(&outer);  // tag only
    SetMode(Mode::kSpans);
    {
      ScopedSpan b(&inner);  // timed
      EXPECT_EQ(CurrentSpanTag(), &inner);
    }
    EXPECT_EQ(CurrentSpanTag(), &outer);
  }
  EXPECT_EQ(CurrentSpanTag(), nullptr);
  EXPECT_EQ(TlsCurrentSpan(), nullptr);
  EXPECT_EQ(outer.count(), 0u);  // entered untimed, stays untimed
  EXPECT_EQ(inner.count(), 1u);
}

TEST_F(ObsTest, SpanRecordsInSpanMode) {
  SetMode(Mode::kSpans);
  SpanStat& s = Registry::Instance().GetSpan("test.span.basic");
  {
    ScopedSpan span(&s);
    SpinDelayNanos(20'000);
  }
  EXPECT_EQ(s.count(), 1u);
  EXPECT_GE(s.total_ns(), 20'000u);
  EXPECT_EQ(s.total_ns(), s.self_ns());  // no children
  EXPECT_EQ(s.SelfSnapshot().count(), 1u);
}

TEST_F(ObsTest, SpanNestingAttributesSelfTime) {
  SetMode(Mode::kSpans);
  SpanStat& parent = Registry::Instance().GetSpan("test.span.parent");
  SpanStat& child = Registry::Instance().GetSpan("test.span.child");
  {
    ScopedSpan outer(&parent);
    SpinDelayNanos(30'000);
    {
      ScopedSpan inner(&child);
      SpinDelayNanos(30'000);
    }
    SpinDelayNanos(30'000);
  }
  EXPECT_EQ(parent.count(), 1u);
  EXPECT_EQ(child.count(), 1u);
  // The child's wall time is subtracted from the parent's self time, and
  // the arithmetic is exact: parent self + child total == parent total.
  EXPECT_EQ(parent.self_ns() + child.total_ns(), parent.total_ns());
  EXPECT_GE(child.total_ns(), 30'000u);
  EXPECT_GE(parent.self_ns(), 60'000u);
  EXPECT_LT(parent.self_ns(), parent.total_ns());
}

TEST_F(ObsTest, SpanChainSurvivesThreeLevels) {
  SetMode(Mode::kSpans);
  SpanStat& a = Registry::Instance().GetSpan("test.span3.a");
  SpanStat& b = Registry::Instance().GetSpan("test.span3.b");
  SpanStat& c = Registry::Instance().GetSpan("test.span3.c");
  {
    ScopedSpan sa(&a);
    SpinDelayNanos(5'000);
    {
      ScopedSpan sb(&b);
      SpinDelayNanos(5'000);
      {
        ScopedSpan sc(&c);
        SpinDelayNanos(5'000);
      }
    }
  }
  EXPECT_EQ(b.self_ns() + c.total_ns(), b.total_ns());
  EXPECT_EQ(a.self_ns() + b.total_ns(), a.total_ns());
}

TEST_F(ObsTest, SpansAreThreadLocal) {
  SetMode(Mode::kSpans);
  SpanStat& parent = Registry::Instance().GetSpan("test.span.tls_parent");
  SpanStat& other = Registry::Instance().GetSpan("test.span.tls_other");
  {
    ScopedSpan outer(&parent);
    // A span on another thread must NOT become our child.
    std::thread t([&other] {
      ScopedSpan inner(&other);
      SpinDelayNanos(50'000);
    });
    t.join();
  }
  EXPECT_EQ(parent.count(), 1u);
  EXPECT_EQ(other.count(), 1u);
  // other ran on its own thread: parent's self time equals its total.
  EXPECT_EQ(parent.self_ns(), parent.total_ns());
}

TEST_F(ObsTest, InstanceMetricsAggregateByName) {
  const uint64_t base =
      [] {
        for (const auto& snap : Registry::Instance().Collect()) {
          if (snap.name == "test.instance.shared") {
            return snap.counter;
          }
        }
        return uint64_t{0};
      }();
  Counter a("test.instance.shared");
  Counter b("test.instance.shared");
  ScopedRegistration reg;
  reg.AddAll(a, b);
  a.Add(3);
  b.Add(4);
  bool found = false;
  for (const auto& snap : Registry::Instance().Collect()) {
    if (snap.name == "test.instance.shared") {
      EXPECT_EQ(snap.counter, base + 7);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, UnregisteredInstanceDisappears) {
  const size_t before = Registry::Instance().MetricCountForTesting();
  {
    Counter c("test.instance.transient");
    ScopedRegistration reg;
    reg.Add(&c);
    EXPECT_EQ(Registry::Instance().MetricCountForTesting(), before + 1);
  }
  EXPECT_EQ(Registry::Instance().MetricCountForTesting(), before);
}

TEST_F(ObsTest, RegistryIterationStableUnderConcurrentMutation) {
  std::atomic<bool> stop{false};
  // Readers snapshot the registry while writers register/unregister
  // instance metrics and intern new names.
  std::thread reader([&stop] {
    while (!stop.load()) {
      auto snaps = Registry::Instance().Collect();
      // Snapshot must be sorted and free of duplicate names.
      for (size_t i = 1; i < snaps.size(); ++i) {
        ASSERT_LT(snaps[i - 1].name, snaps[i].name);
      }
      (void)DumpText();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([w, &stop] {
      int round = 0;
      while (!stop.load()) {
        Counter c("test.churn.instance" + std::to_string(w));
        ScopedRegistration reg;
        reg.Add(&c);
        c.Add(1);
        Registry::Instance()
            .GetCounter("test.churn.interned" + std::to_string(w) + "." +
                        std::to_string(round % 8))
            .Add(1);
        round++;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  reader.join();
  for (auto& t : writers) {
    t.join();
  }
}

TEST_F(ObsTest, KindClashYieldsFallbackMetric) {
  Registry::Instance().GetCounter("test.clash.name");
  // Asking for the same name as a different kind must not crash or corrupt
  // the counter; it returns a distinct fallback metric.
  Gauge& g = Registry::Instance().GetGauge("test.clash.name");
  g.Set(5);
  EXPECT_EQ(Registry::Instance().GetCounter("test.clash.name").value(), 0u);
}

TEST_F(ObsTest, ParseModeSpellings) {
  EXPECT_EQ(ParseMode("off"), Mode::kOff);
  EXPECT_EQ(ParseMode("0"), Mode::kOff);
  EXPECT_EQ(ParseMode("none"), Mode::kOff);
  EXPECT_EQ(ParseMode("counters"), Mode::kCounters);
  EXPECT_EQ(ParseMode("1"), Mode::kCounters);
  EXPECT_EQ(ParseMode("spans"), Mode::kSpans);
  EXPECT_EQ(ParseMode("2"), Mode::kSpans);
  EXPECT_EQ(ParseMode("all"), Mode::kSpans);
  EXPECT_EQ(ParseMode("garbage"), Mode::kCounters);
}

TEST_F(ObsTest, DumpJsonContainsMetricsAndLayers) {
  SetMode(Mode::kSpans);
  Registry::Instance().GetCounter("test.json.counter").Add(3);
  {
    AERIE_SPAN("testlayer", "op");
    SpinDelayNanos(1'000);
  }
  const std::string json = DumpJson();
  // Downstream parsers key on an explicit schema version, leading the dump.
  EXPECT_EQ(json.rfind("{\"schema_version\":1,", 0), 0u);
  EXPECT_NE(json.find("\"test.json.counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"testlayer.op\""), std::string::npos);
  EXPECT_NE(json.find("\"layers\""), std::string::npos);
  EXPECT_NE(json.find("\"testlayer\""), std::string::npos);

  const std::string text = DumpText();
  EXPECT_NE(text.find("test.json.counter"), std::string::npos);

  const std::string table = LayerBreakdownText();
  EXPECT_NE(table.find("testlayer"), std::string::npos);
}

// The record's attribution comes from the measured run in counters mode:
// one sampled period and one lock wait charged through the layer tag.
TEST_F(ObsTest, BenchReportJsonShape) {
  prof::Options opt;
  opt.manual = true;
  ASSERT_TRUE(prof::Start(opt));
  {
    AERIE_SPAN("benchlayer", "hot_op");
    const uintptr_t frames[1] = {0x10};
    ASSERT_TRUE(prof::InjectSampleForTesting(CurrentSpanTag(), frames, 1));
    AddWaitNsToCurrentSpan(WaitKind::kLock, 3'000);
  }
  BenchReport report("unit_test_bench");
  report.SetConfig("scale", 0.5);
  report.SetConfig("mode", std::string("quick"));
  Histogram h;
  h.Record(1000);
  h.Record(3000);
  report.AddLatency("pxfs.op", h);
  report.AddThroughput("pxfs.iters", 1234.5);
  report.AddValue("vfs.stat.avg_us", 3.25, "us");
  report.CaptureAttribution();
  const double cpu_us =
      static_cast<double>(prof::GetStats().period_ns) / 1e3;
  prof::Stop();
  prof::Reset();

  const std::string json = report.ToJson();
  EXPECT_EQ(json.rfind("{\"schema_version\":2,", 0), 0u);
  EXPECT_NE(json.find("\"bench\":\"unit_test_bench\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\":"), std::string::npos);
  EXPECT_NE(json.find("\"scale\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"quick\""), std::string::npos);
  // Latency metrics derive ops_per_sec from the mean (2us -> 500k/s).
  EXPECT_NE(json.find("\"name\":\"pxfs.op\",\"ops_per_sec\":500000"),
            std::string::npos);
  EXPECT_NE(json.find("\"latency_ns\":{\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pxfs.iters\",\"ops_per_sec\":1234.5"),
            std::string::npos);
  EXPECT_NE(json.find("\"value\":3.25,\"unit\":\"us\""), std::string::npos);
  // The sample and the wait surface as the layer's row, and the sampled
  // span as a ranked hot-span row.
  char row[160];
  std::snprintf(row, sizeof(row),
                "{\"layer\":\"benchlayer\",\"cpu_us\":%.12g,"
                "\"lock_wait_us\":3,\"rpc_wait_us\":0,\"other_wait_us\":0}",
                cpu_us);
  EXPECT_NE(json.find(row), std::string::npos) << json;
  std::snprintf(row, sizeof(row),
                "{\"name\":\"benchlayer.hot_op\",\"cpu_us\":%.12g}", cpu_us);
  EXPECT_NE(json.find(row), std::string::npos) << json;
}

// A layer whose spans only waited (no call timed, no sample taken) still
// gets a row, so a record shows where a run blocked.
TEST_F(ObsTest, LayerRowsKeepWaitOnlyLayers) {
  {
    AERIE_SPAN("waitonly", "blocked");
    AddWaitNsToCurrentSpan(WaitKind::kRpc, 7'000);
  }
  const auto rows = LayerRows(Registry::Instance().Collect());
  const auto it = std::find_if(rows.begin(), rows.end(), [](const LayerRow& r) {
    return r.layer == "waitonly";
  });
  ASSERT_NE(it, rows.end());
  EXPECT_EQ(it->spans, 0u);
  EXPECT_EQ(it->cpu_ns, 0u);
  EXPECT_EQ(it->rpc_wait_ns, 7'000u);
}

TEST_F(ObsTest, RpcMethodStatsUseRegisteredNames) {
  SetRpcMethodName(0xbeef, "test.method");
  RpcMethodStats& stats = RpcMethodStatsFor(0xbeef);
  stats.calls.Add(1);
  stats.bytes_out.Add(100);
  EXPECT_EQ(
      Registry::Instance().GetCounter("rpc.test.method.calls").value(), 1u);
  // Same method id resolves to the same stats block.
  EXPECT_EQ(&RpcMethodStatsFor(0xbeef), &stats);
  // Unnamed methods render in hex.
  RpcMethodStats& anon = RpcMethodStatsFor(0x7a7a);
  anon.calls.Add(2);
  EXPECT_EQ(Registry::Instance().GetCounter("rpc.m7a7a.calls").value(), 2u);
}

TEST_F(ObsTest, ResetAllZeroesEverything) {
  SetMode(Mode::kSpans);
  Counter& c = Registry::Instance().GetCounter("test.reset.counter");
  SpanStat& s = Registry::Instance().GetSpan("test.reset.span");
  c.Add(9);
  {
    ScopedSpan span(&s);
    SpinDelayNanos(100);
  }
  ResetAll();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.total_ns(), 0u);
  EXPECT_EQ(s.SelfSnapshot().count(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace aerie
