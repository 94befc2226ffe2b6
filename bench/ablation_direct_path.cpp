// Ablation: zero-RPC direct data path (DESIGN.md §10).
//
// A/B of the SplitFS-style lease-guarded fast path: warmed sequential 4KB
// reads, aligned in-place 4KB overwrites (PXFS), and cached-value gets
// (FlatFS), each with the pinned way in enabled and disabled via
// LibFs::Options::direct_data, the only switch. Off, every PXFS call takes
// the file lock and maps just the pages it touches, and every FlatFS get
// takes the bucket lock; the CI direct-path lane gates each *.direct_on row
// against its *.direct_off row.
//
// With the path on, warmed reads and overwrites are a userspace memcpy
// guarded by the clerk's direct-access epoch: no lock RPC, no clerk mutex,
// no service involvement — so the record's layer rows should show the rpc
// layer's CPU and rpc waits collapse to noise.
//
// A last point, cache_churn, reads (path on) over a file set whose extent
// maps outgrow the map cache's budget, so its stores evict: it reports the
// share of bytes still read direct and the evictions per 1,000 reads.
#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/flatfs/flatfs.h"
#include "src/pxfs/pxfs.h"

namespace {

using namespace aerie;
using namespace aerie::bench;

constexpr uint64_t kPage = 4096;

struct PxfsRates {
  double read_ops = 0;
  double write_ops = 0;
  uint64_t direct_read_bytes = 0;
  uint64_t direct_write_bytes = 0;
};

PxfsRates MeasurePxfs(bool direct, int pages, double seconds) {
  auto sut = SystemUnderTest::Create(SutKind::kPxfs, DefaultSutOptions());
  BENCH_CHECK_OK(sut);
  LibFs::Options client_options;
  client_options.direct_data = direct;
  auto client = (*sut)->aerie()->NewClient(client_options);
  BENCH_CHECK_OK(client);
  Pxfs fs((*client)->fs());

  BENCH_CHECK_STATUS(fs.Mkdir("/direct"));
  auto fd = fs.Open("/direct/data", kOpenCreate | kOpenRead | kOpenWrite);
  BENCH_CHECK_OK(fd);
  const std::string page(kPage, 'x');
  for (int p = 0; p < pages; ++p) {
    BENCH_CHECK_OK(
        fs.Pwrite(*fd, p * kPage, {page.data(), page.size()}));
  }
  BENCH_CHECK_STATUS(fs.SyncAll());

  PxfsRates rates;
  std::string buf(kPage, '\0');
  // Warm-up pass populates the extent-map cache (first read runs locked).
  for (int p = 0; p < pages; ++p) {
    BENCH_CHECK_OK(fs.Pread(*fd, p * kPage, {buf.data(), buf.size()}));
  }
  {
    Stopwatch sw;
    uint64_t ops = 0;
    while (sw.ElapsedSeconds() < seconds) {
      const uint64_t off = (ops % pages) * kPage;
      BENCH_CHECK_OK(fs.Pread(*fd, off, {buf.data(), buf.size()}));
      ops++;
    }
    rates.read_ops = static_cast<double>(ops) / sw.ElapsedSeconds();
  }
  {
    Stopwatch sw;
    uint64_t ops = 0;
    while (sw.ElapsedSeconds() < seconds) {
      // Stride the pages so consecutive overwrites don't share lines.
      const uint64_t off = ((ops * 7) % pages) * kPage;
      BENCH_CHECK_OK(fs.Pwrite(*fd, off, {page.data(), page.size()}));
      ops++;
    }
    rates.write_ops = static_cast<double>(ops) / sw.ElapsedSeconds();
  }
  rates.direct_read_bytes = (*client)->fs()->direct_read_bytes();
  rates.direct_write_bytes = (*client)->fs()->direct_write_bytes();
  BENCH_CHECK_STATUS(fs.Close(*fd));
  return rates;
}

struct ChurnRates {
  double read_ops = 0;
  double direct_read_ratio = 0;
  double evictions_per_kop = 0;
};

// 1,000 sparse 8 MB files, data in the first and last page: each whole-file
// map is charged ~2,080 slots, about twice the budget in all. 90% of the
// reads pick one of 100 hot files, whose maps take a fifth of the budget;
// the rest pick a cold file. Every read is one 4KB page.
constexpr int kChurnFiles = 1000;
constexpr int kChurnHotFiles = 100;
constexpr uint64_t kChurnFilePages = 2048;
constexpr uint64_t kChurnCharge = kChurnFilePages + LibFs::kDirectEntrySlots;
static_assert(kChurnFiles * kChurnCharge > LibFs::kDirectCacheSlots * 19 / 10);
static_assert(kChurnHotFiles * kChurnCharge < LibFs::kDirectCacheSlots / 4);

ChurnRates MeasureCacheChurn(double seconds) {
  auto sut = SystemUnderTest::Create(SutKind::kPxfs, DefaultSutOptions());
  BENCH_CHECK_OK(sut);
  auto client = (*sut)->aerie()->NewClient(LibFs::Options{});
  BENCH_CHECK_OK(client);
  LibFs* libfs = (*client)->fs();
  Pxfs fs(libfs, Pxfs::Options{});

  BENCH_CHECK_STATUS(fs.Mkdir("/churn"));
  const std::string page(kPage, 'c');
  std::vector<int> fds;
  for (int i = 0; i < kChurnFiles; ++i) {
    auto fd = fs.Open("/churn/f" + std::to_string(i),
                      kOpenCreate | kOpenRead | kOpenWrite);
    BENCH_CHECK_OK(fd);
    BENCH_CHECK_OK(fs.Pwrite(*fd, 0, {page.data(), page.size()}));
    BENCH_CHECK_OK(fs.Pwrite(*fd, (kChurnFilePages - 1) * kPage,
                             {page.data(), page.size()}));
    fds.push_back(*fd);
  }
  BENCH_CHECK_STATUS(fs.SyncAll());

  std::mt19937_64 rng(Seed());
  std::bernoulli_distribution pick_hot(0.9);
  std::uniform_int_distribution<int> hot(0, kChurnHotFiles - 1);
  std::uniform_int_distribution<int> cold(kChurnHotFiles, kChurnFiles - 1);
  std::string buf(kPage, '\0');
  auto read_one = [&](uint64_t op) {
    const int f = pick_hot(rng) ? hot(rng) : cold(rng);
    const uint64_t off = (op & 1) ? (kChurnFilePages - 1) * kPage : 0;
    BENCH_CHECK_OK(fs.Pread(fds[f], off, {buf.data(), buf.size()}));
  };
  // Warm-up: every file once, then as many picks, so the cache is full and
  // the hot maps have been looked up before the clock starts.
  for (int i = 0; i < kChurnFiles; ++i) {
    BENCH_CHECK_OK(fs.Pread(fds[i], 0, {buf.data(), buf.size()}));
  }
  for (uint64_t op = 0; op < kChurnFiles; ++op) {
    read_one(op);
  }

  const uint64_t direct0 = libfs->direct_read_bytes();
  const uint64_t evictions0 = libfs->direct_cache_evictions();
  Stopwatch sw;
  uint64_t ops = 0;
  while (sw.ElapsedSeconds() < seconds) {
    read_one(ops);
    ops++;
  }
  ChurnRates rates;
  rates.read_ops = static_cast<double>(ops) / sw.ElapsedSeconds();
  rates.direct_read_ratio =
      static_cast<double>(libfs->direct_read_bytes() - direct0) /
      static_cast<double>(ops * kPage);
  rates.evictions_per_kop =
      static_cast<double>(libfs->direct_cache_evictions() - evictions0) *
      1000.0 / static_cast<double>(ops);
  for (int fd : fds) {
    BENCH_CHECK_STATUS(fs.Close(fd));
  }
  return rates;
}

double MeasureFlatGet(bool direct, int values, double seconds) {
  auto sut = SystemUnderTest::Create(SutKind::kFlatFs, DefaultSutOptions());
  BENCH_CHECK_OK(sut);
  LibFs::Options client_options;
  client_options.direct_data = direct;
  auto client = (*sut)->aerie()->NewClient(client_options);
  BENCH_CHECK_OK(client);
  FlatFs flat((*client)->fs());

  const std::string value(kPage, 'v');
  for (int i = 0; i < values; ++i) {
    BENCH_CHECK_STATUS(
        flat.Put("obj" + std::to_string(i), {value.data(), value.size()}));
  }
  std::string buf(kPage, '\0');
  // Warm the key table.
  for (int i = 0; i < values; ++i) {
    BENCH_CHECK_OK(
        flat.Get("obj" + std::to_string(i), {buf.data(), buf.size()}));
  }
  Stopwatch sw;
  uint64_t ops = 0;
  while (sw.ElapsedSeconds() < seconds) {
    BENCH_CHECK_OK(flat.Get("obj" + std::to_string(ops % values),
                            {buf.data(), buf.size()}));
    ops++;
  }
  return static_cast<double>(ops) / sw.ElapsedSeconds();
}

}  // namespace

int main() {
  const double scale = Scale();
  const double seconds = Seconds();
  const int pages = std::max(8, static_cast<int>(256 * scale));
  const int values = std::max(16, static_cast<int>(1024 * scale));

  std::printf("# Ablation: zero-RPC direct data path (4KB ops)\n");
  std::printf("# scale=%.3f, %gs per point, file=%d pages, %d flat values\n\n",
              scale, seconds, pages, values);
  std::printf("%-22s %14s %14s\n", "op", "direct off", "direct on");

  obs::BenchReport report = MakeReport("ablation_direct_path");
  report.SetConfig("pages", static_cast<double>(pages));
  report.SetConfig("values", static_cast<double>(values));

  PxfsRates off = MeasurePxfs(false, pages, seconds);
  PxfsRates on = MeasurePxfs(true, pages, seconds);
  std::printf("%-22s %14.1f %14.1f\n", "seq_read ops/s", off.read_ops,
              on.read_ops);
  std::printf("%-22s %14.1f %14.1f\n", "aligned_overwrite ops/s",
              off.write_ops, on.write_ops);
  report.AddThroughput("seq_read.direct_off", off.read_ops);
  report.AddThroughput("seq_read.direct_on", on.read_ops);
  report.AddThroughput("overwrite.direct_off", off.write_ops);
  report.AddThroughput("overwrite.direct_on", on.write_ops);
  report.AddValue("direct_on.read_bytes",
                  static_cast<double>(on.direct_read_bytes), "bytes");
  report.AddValue("direct_on.write_bytes",
                  static_cast<double>(on.direct_write_bytes), "bytes");
  report.AddValue("direct_off.read_bytes",
                  static_cast<double>(off.direct_read_bytes), "bytes");

  const double flat_off = MeasureFlatGet(false, values, seconds);
  const double flat_on = MeasureFlatGet(true, values, seconds);
  std::printf("%-22s %14.1f %14.1f\n", "flat_get ops/s", flat_off, flat_on);
  report.AddThroughput("flat_get.direct_off", flat_off);
  report.AddThroughput("flat_get.direct_on", flat_on);

  const ChurnRates churn = MeasureCacheChurn(seconds);
  std::printf("\n# cache_churn: %d sparse files of %llu pages (~%.1fx the "
              "map budget), 90%% of reads to %d hot files, path on\n",
              kChurnFiles, static_cast<unsigned long long>(kChurnFilePages),
              static_cast<double>(kChurnFiles * kChurnCharge) /
                  static_cast<double>(LibFs::kDirectCacheSlots),
              kChurnHotFiles);
  std::printf("%-22s %14.1f\n", "read ops/s", churn.read_ops);
  std::printf("%-22s %14.3f\n", "direct_read_ratio",
              churn.direct_read_ratio);
  std::printf("%-22s %14.1f\n", "evictions/kop", churn.evictions_per_kop);
  report.AddThroughput("cache_churn", churn.read_ops);
  report.AddValue("cache_churn.direct_read_ratio", churn.direct_read_ratio,
                  "ratio");
  report.AddValue("cache_churn.evictions_per_kop", churn.evictions_per_kop,
                  "1/kop");

  FinishReport(report);
  return 0;
}
