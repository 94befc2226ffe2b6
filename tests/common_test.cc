// Unit tests for src/common: Status/Result, hashing, RNG, histogram,
// OpenTable.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/open_table.h"
#include "src/common/rand.h"
#include "src/common/status.h"

namespace aerie {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kOk);
  EXPECT_EQ(st.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st(ErrorCode::kNotFound, "no such file");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kNotFound);
  EXPECT_EQ(st.ToString(), "not-found: no such file");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status(ErrorCode::kBusy, "later"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kBusy);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return Status(ErrorCode::kInvalidArgument, "odd");
  }
  return x / 2;
}

Result<int> Quarter(int x) {
  AERIE_ASSIGN_OR_RETURN(int h, Half(x));
  AERIE_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_EQ(Quarter(6).code(), ErrorCode::kInvalidArgument);
}

TEST(HashTest, DeterministicAndSpread) {
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  // Sequential keys should land in many distinct buckets.
  std::set<uint64_t> buckets;
  for (int i = 0; i < 1000; ++i) {
    buckets.insert(HashString("file" + std::to_string(i)) % 128);
  }
  EXPECT_GT(buckets.size(), 100u);
}

TEST(HashTest, Mix64IsBijectiveish) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) {
    seen.insert(Mix64(i));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

// A test slot whose hash is chosen by the test, so probe runs, collisions
// and wraparound can be laid out exactly. The value lives on the heap to
// catch a move that copies or loses it.
struct TestSlot {
  TestSlot() = default;
  TestSlot(uint64_t k, uint64_t h) : key(k), home(h),
      value(std::make_unique<std::string>(std::to_string(k))) {}
  bool empty() const { return value == nullptr; }
  uint64_t hash() const { return home; }
  uint64_t key = 0;
  uint64_t home = 0;
  std::unique_ptr<std::string> value;
};

using TestTable = OpenTable<TestSlot>;

size_t FindKey(const TestTable& table, uint64_t key, uint64_t home) {
  return table.Find(home,
                    [key](const TestSlot& slot) { return slot.key == key; });
}

// Every key in [0, n) with its home is findable and holds its value.
void ExpectAll(const TestTable& table, const std::vector<uint64_t>& keys,
               uint64_t (*home)(uint64_t)) {
  for (uint64_t key : keys) {
    const size_t i = FindKey(table, key, home(key));
    ASSERT_NE(i, TestTable::kNone) << key;
    EXPECT_EQ(*table.at(i).value, std::to_string(key));
  }
}

TEST(OpenTableTest, EmptyTableFindsNothing) {
  TestTable table;
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(FindKey(table, 1, 1), TestTable::kNone);
}

TEST(OpenTableTest, BackwardShiftEraseAcrossTheEnd) {
  TestTable table;
  table.Insert(TestSlot(100, 0));  // first insert allocates 16 slots
  ASSERT_EQ(table.capacity(), 16u);
  table.Erase(FindKey(table, 100, 0));
  // A run that starts at 14 and wraps: keys 1..4 all have home 14, key 5
  // has home 0 and sits behind them at 2.
  for (uint64_t key = 1; key <= 4; ++key) {
    table.Insert(TestSlot(key, 14));
  }
  EXPECT_EQ(table.Insert(TestSlot(5, 0)), 2u);
  EXPECT_EQ(FindKey(table, 1, 14), 14u);
  EXPECT_EQ(FindKey(table, 3, 14), 0u);
  // Erasing key 2 (slot 15) pulls keys 3 and 4 back across the end and key
  // 5 back to its home.
  table.Erase(FindKey(table, 2, 14));
  EXPECT_EQ(FindKey(table, 3, 14), 15u);
  EXPECT_EQ(FindKey(table, 4, 14), 0u);
  EXPECT_EQ(FindKey(table, 5, 0), 1u);
  EXPECT_EQ(FindKey(table, 2, 14), TestTable::kNone);
  EXPECT_TRUE(table.at(2).empty());
  // Erasing key 4 (slot 0) moves key 5 to its home; erasing key 1 (slot
  // 14) then moves key 3 to its home and leaves key 5, already home, put.
  table.Erase(FindKey(table, 4, 14));
  EXPECT_EQ(FindKey(table, 5, 0), 0u);
  table.Erase(FindKey(table, 1, 14));
  EXPECT_EQ(FindKey(table, 3, 14), 14u);
  EXPECT_EQ(FindKey(table, 5, 0), 0u);
  EXPECT_TRUE(table.at(15).empty());
  EXPECT_EQ(table.size(), 2u);
  ExpectAll(table, {3}, [](uint64_t) -> uint64_t { return 14; });
  ExpectAll(table, {5}, [](uint64_t) -> uint64_t { return 0; });
}

TEST(OpenTableTest, GrowKeepsEveryEntryAndTheLoadUnderThreeQuarters) {
  TestTable table;
  std::vector<uint64_t> keys;
  auto home = [](uint64_t key) { return Mix64(key); };
  for (uint64_t key = 0; key < 5000; ++key) {
    table.Insert(TestSlot(key, home(key)));
    keys.push_back(key);
    ASSERT_LE(4 * table.size(), 3 * table.capacity());
  }
  EXPECT_EQ(table.size(), 5000u);
  EXPECT_EQ(table.capacity(), 8192u);
  ExpectAll(table, keys, home);
  EXPECT_EQ(FindKey(table, 5000, home(5000)), TestTable::kNone);
}

TEST(OpenTableTest, EraseDuringASweepMissesNoEntry) {
  // Crowded homes make long runs, and the last ones wrap around the end.
  auto home = [](uint64_t key) { return Mix64(key) % 8 * 8; };
  TestTable table;
  std::vector<uint64_t> kept;
  for (uint64_t key = 0; key < 40; ++key) {
    table.Insert(TestSlot(key, home(key)));
    if (key % 2 == 0) {
      kept.push_back(key);
    }
  }
  ASSERT_EQ(table.capacity(), 64u);
  // A CLOCK-style pass from a mid-table hand: erase odd keys, and after an
  // erase look at the same index again.
  std::set<uint64_t> seen;
  size_t i = 20;
  for (size_t steps = 0; steps < table.capacity();) {
    TestSlot& slot = table.at(i);
    if (!slot.empty()) {
      seen.insert(slot.key);
      if (slot.key % 2 == 1) {
        table.Erase(i);
        continue;
      }
    }
    i = (i + 1) % table.capacity();
    ++steps;
  }
  EXPECT_EQ(seen.size(), 40u);
  EXPECT_EQ(table.size(), kept.size());
  ExpectAll(table, kept, home);
  for (uint64_t key = 1; key < 40; key += 2) {
    EXPECT_EQ(FindKey(table, key, home(key)), TestTable::kNone) << key;
  }
}

TEST(OpenTableTest, ClearDropsEverythingAndTheTableRefills) {
  TestTable table;
  for (uint64_t key = 0; key < 100; ++key) {
    table.Insert(TestSlot(key, key));
  }
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(FindKey(table, 7, 7), TestTable::kNone);
  table.Insert(TestSlot(7, 7));
  ExpectAll(table, {7}, [](uint64_t key) { return key; });
}

// Slots keyed by SlotKey, as the PXFS name cache keys paths.
struct StringSlot {
  bool empty() const { return !occupied; }
  uint64_t hash() const { return HashString(key.view()); }
  bool occupied = false;
  SlotKey key;
};

size_t FindString(const OpenTable<StringSlot>& table, std::string_view key) {
  return table.Find(HashString(key), [key](const StringSlot& slot) {
    return slot.key.view() == key;
  });
}

TEST(OpenTableTest, OverLongKeysGoToTheHeapAndStillMatch) {
  const std::string fits(SlotKey::kInline, 'a');
  const std::string longer = fits + "b";
  EXPECT_FALSE(SlotKey(fits).on_heap());
  EXPECT_TRUE(SlotKey(longer).on_heap());
  EXPECT_EQ(SlotKey(longer).view(), longer);
  EXPECT_TRUE(SlotKey("").view().empty());

  // Growth and backward shifts move heap keys between slots; each key
  // still matches exactly once, and only itself.
  OpenTable<StringSlot> table;
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back("/dir" + std::to_string(i % 7) + "/" +
                   std::string(static_cast<size_t>(i % 50), 'x') +
                   std::to_string(i));
    table.Insert(StringSlot{true, SlotKey(keys.back())});
  }
  for (size_t i = 0; i < keys.size(); i += 3) {
    table.Erase(FindString(table, keys[i]));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    const size_t slot = FindString(table, keys[i]);
    if (i % 3 == 0) {
      EXPECT_EQ(slot, OpenTable<StringSlot>::kNone) << keys[i];
    } else {
      ASSERT_NE(slot, OpenTable<StringSlot>::kNone) << keys[i];
      EXPECT_EQ(table.at(slot).key.view(), keys[i]);
    }
  }
  // A key that shares an over-long key's inline bytes does not match it.
  ASSERT_TRUE(SlotKey(keys[49]).on_heap());
  EXPECT_EQ(FindString(table, keys[49].substr(0, SlotKey::kInline)),
            OpenTable<StringSlot>::kNone);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    const uint64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
  EXPECT_EQ(rng.Uniform(0), 0u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(v * 1000);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 100000u);
  EXPECT_NEAR(h.Mean(), 50500.0, 1.0);
  // Log-bucketed: ~1.6% relative resolution, allow slack.
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 50000, 5000);
  EXPECT_NEAR(static_cast<double>(h.Percentile(95)), 95000, 8000);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Record(10);
  b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000000u);
}

TEST(HistogramTest, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(99), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, MergeMatchesRecordingEverythingIntoOne) {
  // Merging per-thread histograms must equal one histogram that saw all
  // samples: same count, mean, extremes, and every percentile.
  Histogram combined, a, b;
  Rng rng(41);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = 1 + rng.Next() % 1000000;
    combined.Record(v);
    ((i % 2 == 0) ? a : b).Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.Mean(), combined.Mean());
  for (double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(a.Percentile(p), combined.Percentile(p)) << "p=" << p;
  }
}

TEST(HistogramTest, MergeIntoEmptyAndWithEmpty) {
  Histogram empty, filled;
  filled.Record(500);
  filled.Record(700);
  Histogram target;
  target.Merge(filled);  // into empty
  EXPECT_EQ(target.count(), 2u);
  EXPECT_EQ(target.min(), 500u);
  EXPECT_EQ(target.max(), 700u);
  target.Merge(empty);  // with empty: unchanged
  EXPECT_EQ(target.count(), 2u);
  EXPECT_EQ(target.min(), 500u);
  EXPECT_EQ(target.max(), 700u);
}

TEST(HistogramTest, EmptyPercentilesAndJsonAreZero) {
  Histogram h;
  for (double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(h.Percentile(p), 0u) << "p=" << p;
  }
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  // The JSON summary of an empty histogram must be all-zero (the bench
  // schema requires numeric fields, never sentinel garbage from min_'s
  // ~0ULL initializer).
  EXPECT_EQ(h.ToJson(),
            "{\"count\":0,\"min\":0,\"mean\":0.0,\"p50\":0,"
            "\"p95\":0,\"p99\":0,\"max\":0}");
}

TEST(HistogramTest, SingleSamplePercentilesAreExact) {
  // One sample (one occupied bucket): every percentile is that value, not
  // the bucket midpoint (which sits above the value for wide buckets).
  for (uint64_t v : {0ull, 1ull, 4095ull, 1'000'000'007ull}) {
    Histogram h;
    h.Record(v);
    for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
      EXPECT_EQ(h.Percentile(p), v) << "v=" << v << " p=" << p;
    }
  }
}

TEST(HistogramTest, SingleBucketManySamples) {
  // Identical samples: percentile must stay pinned to the common value.
  Histogram h;
  for (int i = 0; i < 1000; ++i) {
    h.Record(77777);
  }
  EXPECT_EQ(h.Percentile(0), 77777u);
  EXPECT_EQ(h.Percentile(50), 77777u);
  EXPECT_EQ(h.Percentile(99.9), 77777u);
  EXPECT_EQ(h.Percentile(100), 77777u);
}

TEST(HistogramTest, TopBucketValuesClampToMax) {
  // Values in the highest major buckets (up to UINT64_MAX) must neither
  // index out of range nor report a percentile above the recorded maximum
  // (the top bucket's midpoint arithmetic runs close to the u64 edge).
  Histogram h;
  h.Record(~0ULL);
  h.Record(~0ULL - 1);
  h.Record(1ULL << 63);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.max(), ~0ULL);
  for (double p : {50.0, 99.0, 100.0}) {
    EXPECT_GE(h.Percentile(p), h.min());
    EXPECT_LE(h.Percentile(p), h.max());
  }
  // Out-of-range p is clamped, not UB.
  EXPECT_EQ(h.Percentile(-5.0), h.min());
  EXPECT_EQ(h.Percentile(250.0), h.max());
}

TEST(HistogramTest, PercentileMonotonicAcrossBucketBoundaries) {
  // Samples straddling power-of-two bucket boundaries (the log-bucket major
  // edges) must still yield a monotone percentile curve clamped to
  // [min, max].
  Histogram h;
  for (uint64_t base : {1023u, 1024u, 1025u, 2047u, 2048u, 2049u, 4095u,
                        4096u, 65535u, 65536u, 65537u}) {
    for (int rep = 0; rep < 7; ++rep) {
      h.Record(base);
    }
  }
  uint64_t prev = 0;
  for (double p = 0.0; p <= 100.0; p += 0.5) {
    const uint64_t v = h.Percentile(p);
    EXPECT_GE(v, prev) << "percentile curve regressed at p=" << p;
    EXPECT_GE(v, h.min());
    EXPECT_LE(v, h.max());
    prev = v;
  }
  EXPECT_EQ(h.Percentile(0), h.min());
  EXPECT_EQ(h.Percentile(100), h.max());
}

TEST(HistogramTest, ToJsonShape) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(v * 1000);
  }
  const std::string json = h.ToJson();
  EXPECT_NE(json.find("\"count\":100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"min\":1000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max\":100000"), std::string::npos) << json;
  for (const char* key : {"\"mean\":", "\"p50\":", "\"p95\":", "\"p99\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << json;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  Histogram empty;
  EXPECT_NE(empty.ToJson().find("\"count\":0"), std::string::npos);
}

}  // namespace
}  // namespace aerie
