// Tests for the live telemetry plane (src/obs/telemetry.h): seqlock
// publish/snapshot under concurrency, dead-pid segment GC, rolling-window
// histogram rotation, and cross-process metric merging.
//
// The storm test is the TSan target (tools/check_tsan.sh builds the whole
// tree with -fsanitize=thread): a writer thread hammers a counter and a
// histogram while a publisher thread republished the segment and a reader
// thread snapshots it, asserting every accepted snapshot is internally
// consistent and counter values never move backwards.
#include "src/obs/telemetry.h"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/obs.h"

namespace aerie {
namespace obs {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_mode_ = CurrentMode();
    SetMode(Mode::kCounters);
    dir_ = ::testing::TempDir() + "telemetry_test_" +
           std::to_string(::getpid());
    std::filesystem::create_directories(dir_);
    Registry::Instance().ResetAll();
  }

  void TearDown() override {
    std::filesystem::remove_all(dir_);
    SetMode(prev_mode_);
    SetWindowEpochNanosForTesting(0);
  }

  std::string dir_;
  Mode prev_mode_ = Mode::kCounters;
};

TEST_F(TelemetryTest, PublishAndReadRoundTrip) {
  Counter& c = Registry::Instance().GetCounter("telemetry.test.roundtrip");
  c.Add(41);
  LatencyHistogram& h =
      Registry::Instance().GetHistogram("telemetry.test.lat");
  h.Record(1000);
  h.Record(2000);

  TelemetryPublisher::Options opt;
  opt.dir = dir_;
  opt.process_name = "roundtrip_test";
  auto pub = TelemetryPublisher::Create(opt);
  ASSERT_NE(pub, nullptr);
  c.Add(1);
  pub->PublishNow();

  TelemetrySnapshot snap;
  ASSERT_TRUE(ReadTelemetrySegment(pub->path(), &snap));
  EXPECT_EQ(snap.pid, static_cast<uint64_t>(::getpid()));
  EXPECT_EQ(snap.process_name, "roundtrip_test");
  EXPECT_GE(snap.publish_count, 2u);

  bool saw_counter = false;
  bool saw_hist = false;
  for (const TelemetryMetric& m : snap.metrics) {
    if (m.name == "telemetry.test.roundtrip") {
      saw_counter = true;
      EXPECT_EQ(m.kind, Metric::Kind::kCounter);
      EXPECT_EQ(m.counter, 42u);
    }
    if (m.name == "telemetry.test.lat") {
      saw_hist = true;
      EXPECT_EQ(m.kind, Metric::Kind::kHistogram);
      EXPECT_TRUE(m.has_hist);
      EXPECT_EQ(m.cumulative.count(), 2u);
      EXPECT_EQ(m.cumulative.sum(), 3000u);
      EXPECT_EQ(m.cumulative.min(), 1000u);
      EXPECT_EQ(m.cumulative.max(), 2000u);
      // Both samples are fresh, so the rolling window still holds them.
      EXPECT_EQ(m.window.count(), 2u);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);
}

TEST_F(TelemetryTest, SegmentUnlinkedOnDestruction) {
  std::string path;
  {
    TelemetryPublisher::Options opt;
    opt.dir = dir_;
    auto pub = TelemetryPublisher::Create(opt);
    ASSERT_NE(pub, nullptr);
    path = pub->path();
    struct stat sb{};
    EXPECT_EQ(::stat(path.c_str(), &sb), 0);
    EXPECT_EQ(static_cast<uint64_t>(sb.st_size), TelemetrySegmentBytes());
  }
  struct stat sb{};
  EXPECT_NE(::stat(path.c_str(), &sb), 0);
}

TEST_F(TelemetryTest, DeadPidSegmentGarbageCollected) {
  // A fake segment for a pid that cannot exist (beyond pid_max) plus a live
  // one for this process. GC must reap exactly the dead one.
  TelemetryPublisher::Options dead;
  dead.dir = dir_;
  dead.pid = 999999999;  // > kernel.pid_max (max 2^22)
  auto dead_pub = TelemetryPublisher::Create(dead);
  ASSERT_NE(dead_pub, nullptr);
  const std::string dead_path = dead_pub->path();
  // Keep the file on disk but drop the publisher's ownership by re-linking:
  // simplest is to let the publisher live and GC while it exists.

  TelemetryPublisher::Options live;
  live.dir = dir_;
  auto live_pub = TelemetryPublisher::Create(live);
  ASSERT_NE(live_pub, nullptr);

  int gc_count = 0;
  auto snaps = ReadTelemetryDir(dir_, /*gc_dead=*/true, &gc_count);
  EXPECT_EQ(gc_count, 1);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].pid, static_cast<uint64_t>(::getpid()));
  struct stat sb{};
  EXPECT_NE(::stat(dead_path.c_str(), &sb), 0);

  // Without gc_dead, a (re-created) dead segment is read, not reaped.
  dead_pub->PublishNow();  // recreate? segment was unlinked; mapping remains
  snaps = ReadTelemetryDir(dir_, /*gc_dead=*/false, &gc_count);
  EXPECT_EQ(gc_count, 0);
  EXPECT_EQ(snaps.size(), 1u);  // dead segment file is gone; only live left
}

TEST_F(TelemetryTest, MergeAcrossSnapshots) {
  TelemetrySnapshot a;
  TelemetrySnapshot b;
  TelemetryMetric ca;
  ca.name = "x.calls";
  ca.kind = Metric::Kind::kCounter;
  ca.counter = 10;
  TelemetryMetric cb = ca;
  cb.counter = 32;
  a.metrics.push_back(ca);
  b.metrics.push_back(cb);

  TelemetryMetric ha;
  ha.name = "x.lat";
  ha.kind = Metric::Kind::kHistogram;
  ha.cumulative.Record(100);
  ha.window.Record(100);
  TelemetryMetric hb = ha;
  hb.cumulative.Record(300);
  hb.window.Record(300);
  a.metrics.push_back(ha);
  b.metrics.push_back(hb);

  auto merged = MergeTelemetry({a, b});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].name, "x.calls");
  EXPECT_EQ(merged[0].counter, 42u);
  EXPECT_EQ(merged[1].name, "x.lat");
  EXPECT_EQ(merged[1].cumulative.count(), 3u);
  EXPECT_EQ(merged[1].window.count(), 3u);
  EXPECT_EQ(merged[1].cumulative.min(), 100u);
  EXPECT_EQ(merged[1].cumulative.max(), 300u);
}

// The TSan storm: counter increments and histogram records race publishes
// and reads. Accepted snapshots must be internally consistent (the counter
// never moves backwards across accepted reads).
TEST_F(TelemetryTest, ConcurrentPublishSnapshotStorm) {
  Counter& c = Registry::Instance().GetCounter("telemetry.storm.counter");
  LatencyHistogram& h =
      Registry::Instance().GetHistogram("telemetry.storm.lat");

  TelemetryPublisher::Options opt;
  opt.dir = dir_;
  auto pub = TelemetryPublisher::Create(opt);
  ASSERT_NE(pub, nullptr);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      c.Add(1);
      h.Record(100 + (i++ % 1000));
    }
  });
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      pub->PublishNow();
    }
  });

  uint64_t last_counter = 0;
  uint64_t accepted = 0;
  const std::string path = pub->path();
  // At least 500 reads, and on a loaded host more, until a snapshot shows
  // the writer thread's increments (or 10 s pass).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int i = 0; i < 500 || (last_counter == 0 &&
                              std::chrono::steady_clock::now() < deadline);
       ++i) {
    TelemetrySnapshot snap;
    if (!ReadTelemetrySegment(path, &snap)) {
      continue;
    }
    ++accepted;
    for (const TelemetryMetric& m : snap.metrics) {
      if (m.name == "telemetry.storm.counter") {
        EXPECT_GE(m.counter, last_counter)
            << "counter moved backwards across accepted snapshots";
        last_counter = m.counter;
      }
      if (m.name == "telemetry.storm.lat" && m.has_hist) {
        if (m.cumulative.count() != 0) {
          EXPECT_GE(m.cumulative.max(), m.cumulative.min());
          EXPECT_GE(m.cumulative.sum(),
                    m.cumulative.count() * m.cumulative.min());
        }
      }
    }
  }
  stop.store(true);
  writer.join();
  publisher.join();
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(last_counter, 0u);
}

// --- Rolling-window rotation ------------------------------------------------

class WindowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_mode_ = CurrentMode();
    SetMode(Mode::kCounters);
    SetWindowEpochNanosForTesting(kEpochNs);
  }
  void TearDown() override {
    SetWindowEpochNanosForTesting(0);
    SetMode(prev_mode_);
  }

  static constexpr uint64_t kEpochNs = 1000;  // 1us epochs for the test
  Mode prev_mode_ = Mode::kCounters;
};

TEST_F(WindowTest, EmptyWindow) {
  LatencyHistogram h("win.empty");
  EXPECT_EQ(h.WindowSnapshotAt(0).count(), 0u);
  EXPECT_EQ(h.WindowSnapshotAt(123456789).count(), 0u);
  EXPECT_EQ(h.Snapshot().count(), 0u);
}

TEST_F(WindowTest, SingleEpochHoldsSamples) {
  LatencyHistogram h("win.single");
  h.RecordAtForTesting(10, 100);
  h.RecordAtForTesting(20, 900);
  // Same epoch (0..999): both visible from inside the window.
  Histogram w = h.WindowSnapshotAt(999);
  EXPECT_EQ(w.count(), 2u);
  EXPECT_EQ(w.sum(), 30u);
  // Cumulative view always keeps them.
  EXPECT_EQ(h.Snapshot().count(), 2u);
}

TEST_F(WindowTest, OldEpochsLeaveTheWindow) {
  LatencyHistogram h("win.expire");
  h.RecordAtForTesting(10, 500);  // epoch 0
  // From epoch kWindowEpochs-1 the sample is still in the window...
  EXPECT_EQ(
      h.WindowSnapshotAt(static_cast<uint64_t>(kWindowEpochs - 1) * kEpochNs)
          .count(),
      1u);
  // ...one epoch later it has rotated out, without any new record.
  EXPECT_EQ(
      h.WindowSnapshotAt(static_cast<uint64_t>(kWindowEpochs) * kEpochNs)
          .count(),
      0u);
  // The lifetime view is unaffected.
  EXPECT_EQ(h.Snapshot().count(), 1u);
}

TEST_F(WindowTest, RotationRetiresOldestSlotOnReuse) {
  LatencyHistogram h("win.rotate");
  h.RecordAtForTesting(10, 500);  // epoch 0, slot 0
  // kWindowEpochs epochs later the same slot is reused; the old samples
  // must be retired, not merged with the new ones.
  const uint64_t reuse_ns = static_cast<uint64_t>(kWindowEpochs) * kEpochNs;
  h.RecordAtForTesting(70, reuse_ns + 1);  // epoch kWindowEpochs, slot 0
  Histogram w = h.WindowSnapshotAt(reuse_ns + 1);
  EXPECT_EQ(w.count(), 1u);
  EXPECT_EQ(w.sum(), 70u);
  EXPECT_EQ(h.Snapshot().count(), 2u);
}

TEST_F(WindowTest, DistantEpochJumpsDropStaleSlots) {
  LatencyHistogram h("win.jump");
  h.RecordAtForTesting(10, 500);
  // A very distant record (e.g. after an idle stretch) must see none of the
  // stale slots even though their epoch_id % kWindowEpochs would collide.
  const uint64_t far_ns = 1000 * kEpochNs + 500;
  h.RecordAtForTesting(20, far_ns);
  Histogram w = h.WindowSnapshotAt(far_ns);
  EXPECT_EQ(w.count(), 1u);
  EXPECT_EQ(w.sum(), 20u);
}

TEST_F(WindowTest, WindowMergesAcrossEpochsAndShards) {
  LatencyHistogram h("win.merge");
  // Spread records across several in-window epochs.
  for (int e = 0; e < kWindowEpochs; ++e) {
    h.RecordAtForTesting(100, static_cast<uint64_t>(e) * kEpochNs + 1);
  }
  const uint64_t now = static_cast<uint64_t>(kWindowEpochs - 1) * kEpochNs + 2;
  EXPECT_EQ(h.WindowSnapshotAt(now).count(),
            static_cast<uint64_t>(kWindowEpochs));
  // Advancing one epoch drops exactly the oldest.
  EXPECT_EQ(h.WindowSnapshotAt(now + kEpochNs).count(),
            static_cast<uint64_t>(kWindowEpochs - 1));
}

TEST_F(WindowTest, ResetClearsWindow) {
  LatencyHistogram h("win.reset");
  h.RecordAtForTesting(10, 500);
  h.Reset();
  EXPECT_EQ(h.WindowSnapshotAt(600).count(), 0u);
  EXPECT_EQ(h.Snapshot().count(), 0u);
  h.RecordAtForTesting(30, 700);
  EXPECT_EQ(h.WindowSnapshotAt(700).count(), 1u);
}

// --- Write-amplification arithmetic ----------------------------------------

TEST(WriteAmpTest, ComputeFromCounters) {
  std::vector<std::pair<std::string, uint64_t>> counters = {
      {"pxfs.api.logical_write_bytes", 1000},
      {"flatfs.api.logical_write_bytes", 1000},
      {"scm.layer.txlog.lines_flushed", 10},     // 640 physical bytes
      {"scm.layer.txlog.bytes_streamed", 512},
      {"scm.layer.txlog.fences", 3},
      {"scm.layer.osd.lines_flushed", 50},       // 3200 physical bytes
      {"scm.flush.lines", 60},                   // unrelated: not per-layer
  };
  const WriteAmpReport amp = ComputeWriteAmp(counters);
  EXPECT_EQ(amp.logical_bytes, 2000u);
  EXPECT_EQ(amp.physical_bytes, 60u * kWriteAmpLineBytes);
  EXPECT_DOUBLE_EQ(amp.amplification, 3840.0 / 2000.0);
  ASSERT_EQ(amp.layers.size(), 2u);
  EXPECT_EQ(amp.layers[0].layer, "osd");
  EXPECT_EQ(amp.layers[0].physical_bytes, 3200u);
  EXPECT_EQ(amp.layers[1].layer, "txlog");
  EXPECT_EQ(amp.layers[1].physical_bytes, 640u);
  EXPECT_EQ(amp.layers[1].streamed_bytes, 512u);
  EXPECT_EQ(amp.layers[1].fences, 3u);
  EXPECT_DOUBLE_EQ(amp.layers[1].amplification, 640.0 / 2000.0);
}

TEST(WriteAmpTest, ZeroLogicalBytesYieldsZeroAmplification) {
  const WriteAmpReport amp =
      ComputeWriteAmp({{"scm.layer.osd.lines_flushed", 4}});
  EXPECT_EQ(amp.logical_bytes, 0u);
  EXPECT_EQ(amp.physical_bytes, 4u * kWriteAmpLineBytes);
  EXPECT_EQ(amp.amplification, 0.0);
  ASSERT_EQ(amp.layers.size(), 1u);
  EXPECT_EQ(amp.layers[0].amplification, 0.0);
}

}  // namespace
}  // namespace obs
}  // namespace aerie
