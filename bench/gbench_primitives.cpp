// google-benchmark microbenchmarks for Aerie's substrate primitives:
// collection insert/lookup, mFile read/write paths, lock clerk fast paths,
// persistence primitives, OID encoding, and PXFS's cached open. These
// calibrate the building blocks the table/figure harnesses compose.
//
// A custom reporter captures every run's ns/op into the shared BenchReport
// record (AERIE_BENCH_JSON), whose layer rows attribute the benchmarks' own
// sampled CPU to the osd/scm/clerk spans they exercise.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/hash.h"
#include "src/common/rand.h"
#include "src/libfs/system.h"
#include "src/lock/clerk.h"
#include "src/osd/collection.h"
#include "src/osd/mfile.h"
#include "src/osd/volume.h"
#include "src/pxfs/pxfs.h"

namespace aerie {
namespace {

struct VolumeFixture {
  VolumeFixture() {
    auto r = ScmRegion::CreateAnonymous(512ull << 20);
    region = std::move(*r);
    auto v = Volume::Format(region.get(), 0, region->size());
    volume = std::move(*v);
  }
  std::unique_ptr<ScmRegion> region;
  std::unique_ptr<Volume> volume;
};

VolumeFixture* Fixture() {
  static VolumeFixture* fixture = new VolumeFixture();
  return fixture;
}

void BM_PersistU64(benchmark::State& state) {
  auto* fx = Fixture();
  auto* slot = reinterpret_cast<uint64_t*>(
      fx->region->PtrAt(fx->region->size() - kScmPageSize));
  uint64_t v = 0;
  for (auto _ : state) {
    fx->region->PersistU64(slot, ++v);
  }
}
BENCHMARK(BM_PersistU64);

void BM_StreamWriteBFlush4K(benchmark::State& state) {
  auto* fx = Fixture();
  char* dst = fx->region->PtrAt(fx->region->size() - 2 * kScmPageSize);
  std::string src(4096, 'x');
  for (auto _ : state) {
    fx->region->StreamWrite(dst, src.data(), src.size());
    fx->region->BFlush();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_StreamWriteBFlush4K);

// Run-sized copies: the direct path streams each extent run with one call,
// so a file write of 64 KiB or 1 MiB in one run is one StreamWrite.
void BM_StreamWriteBFlush(benchmark::State& state) {
  auto* fx = Fixture();
  const auto bytes = static_cast<size_t>(state.range(0));
  auto dst = fx->volume->context().alloc->AllocBytes(bytes);
  if (!dst.ok()) {
    state.SkipWithError(dst.status().ToString().c_str());
    return;
  }
  std::string src(bytes, 'x');
  for (auto _ : state) {
    fx->region->StreamWrite(fx->region->PtrAt(*dst), src.data(), src.size());
    fx->region->BFlush();
    benchmark::ClobberMemory();
  }
  (void)fx->volume->context().alloc->FreeBytes(*dst, bytes);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_StreamWriteBFlush)->Arg(64 << 10)->Arg(1 << 20);

void BM_CollectionInsert(benchmark::State& state) {
  auto* fx = Fixture();
  auto coll = Collection::Create(fx->volume->context(), 0);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coll->Insert("key" + std::to_string(i), i).ok());
    i++;
  }
}
BENCHMARK(BM_CollectionInsert);

void BM_CollectionLookup(benchmark::State& state) {
  auto* fx = Fixture();
  auto coll = Collection::Create(fx->volume->context(), 0);
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    (void)coll->Insert("key" + std::to_string(i), static_cast<uint64_t>(i));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        coll->Lookup("key" + std::to_string(i++ % static_cast<uint64_t>(n))));
  }
}
BENCHMARK(BM_CollectionLookup)->Arg(100)->Arg(10000);

// The direct read path over single pages of a 64-page file: one page's
// memcpy per call.
void BM_MFileReadDirect4K(benchmark::State& state) {
  auto* fx = Fixture();
  OsdContext ctx = fx->volume->context();
  auto file = MFile::Create(ctx, 0);
  for (uint64_t p = 0; p < 64; ++p) {
    auto extent = ctx.alloc->Alloc(0);
    (void)file->AttachRun(p, *extent, 1);
  }
  (void)file->SetSize(64 * kScmPageSize);
  const MFile::DirectExtentMap map = file->SnapshotExtents(0, 64);
  std::string buf(4096, '\0');
  uint64_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MFile::ReadDirect(ctx.region, map, (p++ % 64) * kScmPageSize,
                          std::span<char>(buf.data(), buf.size())));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_MFileReadDirect4K);

// The direct read path over one 32-page extent run: one memcpy per call.
void BM_MFileReadDirect32PageRun(benchmark::State& state) {
  constexpr uint64_t kPages = 32;
  auto* fx = Fixture();
  OsdContext ctx = fx->volume->context();
  auto file = MFile::Create(ctx, 0);
  std::vector<uint64_t> run;
  if (!file.ok() ||
      !ctx.alloc->AllocPages(kPages, BuddyAllocator::kMaxOrder, &run).ok() ||
      !file->AttachRun(0, run[0], kPages).ok() ||
      !file->SetSize(kPages * kScmPageSize).ok()) {
    state.SkipWithError("cannot build a 32-page run");
    return;
  }
  const MFile::DirectExtentMap map = file->SnapshotExtents(0, kPages);
  std::string buf(kPages * kScmPageSize, '\0');
  for (auto _ : state) {
    benchmark::DoNotOptimize(MFile::ReadDirect(
        ctx.region, map, 0, std::span<char>(buf.data(), buf.size())));
  }
  (void)file->Destroy();
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() *
                                               kPages * kScmPageSize));
}
BENCHMARK(BM_MFileReadDirect32PageRun);

void BM_OidEncodeDecode(benchmark::State& state) {
  uint64_t offset = 64;
  for (auto _ : state) {
    const Oid oid = Oid::Make(ObjType::kMFile, offset);
    benchmark::DoNotOptimize(oid.offset() + static_cast<uint64_t>(oid.type()));
    offset += 64;
  }
}
BENCHMARK(BM_OidEncodeDecode);

void BM_HashPathComponent(benchmark::State& state) {
  std::string name = "some_file_name_component.txt";
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashString(name));
  }
}
BENCHMARK(BM_HashPathComponent);

// Lock clerk: cached reacquisition (the PXFS hot path after warm-up).
class DirectLockClient : public LockServiceClient {
 public:
  DirectLockClient(LockService* service, uint64_t id)
      : service_(service), id_(id) {}
  Status Acquire(LockId id, LockMode mode, bool wait) override {
    return service_->Acquire(id_, id, mode, wait);
  }
  Status Release(LockId id) override { return service_->Release(id_, id); }
  Status Downgrade(LockId id, LockMode to) override {
    return service_->Downgrade(id_, id, to);
  }
  Status Renew() override { return service_->Renew(id_); }

 private:
  LockService* service_;
  uint64_t id_;
};

void BM_ClerkCachedAcquireRelease(benchmark::State& state) {
  LockService service;
  DirectLockClient stub(&service, 1);
  LockClerk clerk(&stub);
  service.RegisterClient(1, &clerk);
  (void)clerk.Acquire(42, LockMode::kShared);
  clerk.Release(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clerk.Acquire(42, LockMode::kShared).ok());
    clerk.Release(42);
  }
}
BENCHMARK(BM_ClerkCachedAcquireRelease);

void BM_ClerkHierarchicalLocalGrant(benchmark::State& state) {
  LockService service;
  DirectLockClient stub(&service, 1);
  LockClerk clerk(&stub);
  service.RegisterClient(1, &clerk);
  (void)clerk.Acquire(10, LockMode::kExclusiveHier);
  clerk.Release(10);
  const LockId ancestors[] = {10};
  uint64_t child = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        clerk.Acquire(child, LockMode::kExclusive, ancestors).ok());
    clerk.Release(child);
    child = 1000 + (child - 999) % 64;
  }
}
BENCHMARK(BM_ClerkHierarchicalLocalGrant);

// PXFS open + close of files whose name-cache entries and extent maps are
// cached (one read per file before timing), picked in random order from a
// synced set of state.range(0) files, 100 per directory. 200 files keep
// the caches in the CPU's caches; 10,000 spread them over megabytes, as
// the webserver workload does. Paths are 27-31 bytes, three directories
// deep, like webserver's.
void BM_PxfsOpenCloseCached(benchmark::State& state) {
  const uint64_t nfiles = static_cast<uint64_t>(state.range(0));
  auto sys = AerieSystem::Create(AerieSystem::Options{});
  auto client = (*sys)->NewClient();
  Pxfs pxfs((*client)->fs());
  std::vector<std::string> paths;
  const std::string data(4096, 'w');
  char byte = 0;
  for (uint64_t i = 0; i < nfiles; ++i) {
    const uint64_t leaf = i / 100;
    const std::string top = "/webserver/d" + std::to_string(leaf % 20);
    const std::string mid = top + "/d" + std::to_string(100 + leaf);
    const std::string dir = mid + "/d" + std::to_string(1000 + leaf);
    if (i % 100 == 0) {
      (void)pxfs.Mkdir("/webserver");  // AlreadyExists after the first
      (void)pxfs.Mkdir(top);
      (void)pxfs.Mkdir(mid);
      (void)pxfs.Mkdir(dir);
    }
    paths.push_back(dir + "/f" + std::to_string(i));
    const int fd = *pxfs.Open(paths.back(), kOpenCreate | kOpenWrite);
    (void)pxfs.Write(fd, std::span<const char>(data.data(), data.size()));
    (void)pxfs.Close(fd);
  }
  (void)pxfs.SyncAll();
  for (const std::string& path : paths) {
    const int fd = *pxfs.Open(path, kOpenRead);
    (void)pxfs.Read(fd, std::span<char>(&byte, 1));
    (void)pxfs.Close(fd);
  }
  Rng rng(42);
  std::vector<uint32_t> order(1 << 16);
  for (uint32_t& pick : order) {
    pick = static_cast<uint32_t>(rng.Uniform(nfiles));
  }
  const uint64_t hits = pxfs.name_cache_hits();
  size_t next = 0;
  for (auto _ : state) {
    auto fd = pxfs.Open(paths[order[next++ % order.size()]], kOpenRead);
    benchmark::DoNotOptimize(fd.ok());
    (void)pxfs.Close(*fd);
  }
  // 1 when every open hit the name cache.
  state.counters["name_hits_per_open"] = benchmark::Counter(
      static_cast<double>(pxfs.name_cache_hits() - hits),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PxfsOpenCloseCached)->Arg(200)->Arg(10000);

// Console output stays intact; per-iteration runs (not aggregates) are also
// recorded as ns/op values in the machine-readable bench record.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(obs::BenchReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type == Run::RT_Iteration && run.iterations > 0) {
        const double per_iter_ns = run.real_accumulated_time * 1e9 /
                                   static_cast<double>(run.iterations);
        report_->AddValue(run.benchmark_name(), per_iter_ns, "ns/op");
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  obs::BenchReport* report_;
};

}  // namespace
}  // namespace aerie

int main(int argc, char** argv) {
  using namespace aerie::bench;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  aerie::obs::BenchReport report = MakeReport("gbench_primitives");
  aerie::CaptureReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  FinishReport(report);
  return 0;
}
