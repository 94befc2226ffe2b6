// Figure 1: breakdown of time spent in the (simulated) Linux VFS layer.
//
// Paper methodology (§3): 1 million files in a 3-level hierarchy on ext4
// over a RAM disk; cold inode and dentry caches; perf breakdown of stat,
// open(+close), create(+close), rename and unlink into five categories:
// entry function, file descriptors, synchronization, memory objects, naming.
//
// Here the instrumented VFS attributes wall time to the same categories
// directly. AERIE_BENCH_SCALE scales the 1M-file population.
#include <algorithm>
#include <cinttypes>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/kernelsim/extsim.h"
#include "src/kernelsim/vfs.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"

namespace aerie {
namespace {

struct OpRow {
  std::string name;
  double avg_us;
  double pct[5];  // entry, fds, sync, memobj, naming
};

constexpr const char* kCatNames[5] = {"entry", "fds", "sync", "memobj",
                                      "naming"};

// Builds the 3-level hierarchy: width^3 >= nfiles, files at the leaves.
std::vector<std::string> BuildTree(KernelVfs* vfs, uint64_t nfiles) {
  uint64_t width = 1;
  while (width * width * width < nfiles) {
    width++;
  }
  std::vector<std::string> files;
  files.reserve(nfiles);
  uint64_t made = 0;
  for (uint64_t a = 0; a < width && made < nfiles; ++a) {
    const std::string da = "/a" + std::to_string(a);
    BENCH_CHECK_STATUS(vfs->Mkdir(da));
    for (uint64_t b = 0; b < width && made < nfiles; ++b) {
      const std::string db = da + "/b" + std::to_string(b);
      BENCH_CHECK_STATUS(vfs->Mkdir(db));
      for (uint64_t c = 0; c < width && made < nfiles; ++c) {
        const std::string path = db + "/f" + std::to_string(c);
        BENCH_CHECK_STATUS(vfs->Create(path));
        files.push_back(path);
        made++;
      }
    }
  }
  return files;
}

// Per-category snapshot of the registry-backed VfsStats; Measure works on
// before/after deltas so the registry keeps whole-run totals for the final
// obs::DumpText/DumpJson export.
struct VfsSnap {
  uint64_t ns[static_cast<int>(VfsCat::kCount)];

  static VfsSnap Take(const VfsStats& stats) {
    VfsSnap snap;
    for (int c = 0; c < static_cast<int>(VfsCat::kCount); ++c) {
      snap.ns[c] = stats.Get(static_cast<VfsCat>(c));
    }
    return snap;
  }
};

OpRow Measure(KernelVfs* vfs, const std::string& name,
              const std::function<void(const std::string&)>& op,
              const std::vector<std::string>& paths) {
  vfs->DropCaches();  // paper: cold inode and dentry caches
  const VfsSnap before = VfsSnap::Take(vfs->stats());
  const uint64_t start = NowNanos();
  for (const auto& path : paths) {
    op(path);
  }
  const double total_us =
      static_cast<double>(NowNanos() - start) / 1e3;
  OpRow row;
  row.name = name;
  row.avg_us = total_us / static_cast<double>(paths.size());
  const VfsSnap after = VfsSnap::Take(vfs->stats());
  const VfsCat cats[5] = {VfsCat::kEntry, VfsCat::kFds, VfsCat::kSync,
                          VfsCat::kMemObjects, VfsCat::kNaming};
  double vfs_total = 0;
  for (int c = 0; c < static_cast<int>(VfsCat::kBackend); ++c) {
    vfs_total += static_cast<double>(after.ns[c] - before.ns[c]);
  }
  for (int c = 0; c < 5; ++c) {
    const uint64_t delta = after.ns[static_cast<int>(cats[c])] -
                           before.ns[static_cast<int>(cats[c])];
    row.pct[c] =
        vfs_total > 0 ? 100.0 * static_cast<double>(delta) / vfs_total : 0;
  }
  return row;
}

}  // namespace
}  // namespace aerie

int main() {
  using namespace aerie;
  using namespace aerie::bench;

  const double scale = Scale();
  const uint64_t nfiles =
      std::max<uint64_t>(static_cast<uint64_t>(1'000'000 * scale), 1000);
  std::printf("# Figure 1: VFS time breakdown (ext4-sim on RAM disk)\n");
  std::printf("# files=%" PRIu64 " (paper: 1M), 3-level hierarchy, cold "
              "caches per op\n\n",
              nfiles);

  auto disk = RamDisk::Create(1ull << 19);  // 2GB
  BENCH_CHECK_OK(disk);
  ExtSimFs::Options ext_options;
  ext_options.use_extents = true;
  auto backend = ExtSimFs::Format(disk->get(), ext_options);
  BENCH_CHECK_OK(backend);
  KernelVfs vfs(backend->get(), KernelVfs::Options{});

  auto files = BuildTree(&vfs, nfiles);
  // Attribute only the measured ops to the registry (not tree setup).
  obs::ResetAll();

  std::vector<OpRow> rows;
  // stat
  rows.push_back(Measure(
      &vfs, "stat", [&](const std::string& p) { (void)vfs.Stat(p); },
      files));
  // open (includes close, per the paper)
  rows.push_back(Measure(
      &vfs, "open",
      [&](const std::string& p) {
        auto fd = vfs.Open(p, kOpenRead);
        if (fd.ok()) {
          (void)vfs.Close(*fd);
        }
      },
      files));
  // create (fresh names; includes close)
  {
    std::vector<std::string> fresh;
    fresh.reserve(files.size());
    for (size_t i = 0; i < files.size(); ++i) {
      fresh.push_back(files[i] + "_new");
    }
    rows.push_back(Measure(
        &vfs, "create",
        [&](const std::string& p) {
          auto fd = vfs.Open(p, kOpenCreate | kOpenWrite);
          if (fd.ok()) {
            (void)vfs.Close(*fd);
          }
        },
        fresh));
    // rename those fresh files
    rows.push_back(Measure(
        &vfs, "rename",
        [&](const std::string& p) { (void)vfs.Rename(p, p + "_r"); },
        fresh));
    // unlink them
    std::vector<std::string> renamed;
    renamed.reserve(fresh.size());
    for (const auto& p : fresh) {
      renamed.push_back(p + "_r");
    }
    rows.push_back(Measure(
        &vfs, "unlink",
        [&](const std::string& p) { (void)vfs.Unlink(p); }, renamed));
  }

  obs::BenchReport report = MakeReport("fig1_vfs_breakdown");
  report.SetConfig("nfiles", static_cast<double>(nfiles));

  std::printf("%-8s %9s |", "op", "avg(us)");
  for (const char* cat : kCatNames) {
    std::printf(" %7s", cat);
  }
  std::printf("   (%% of VFS time)\n");
  double generic_sum = 0;
  for (const auto& row : rows) {
    std::printf("%-8s %9.2f |", row.name.c_str(), row.avg_us);
    for (double pct : row.pct) {
      std::printf(" %6.1f%%", pct);
    }
    std::printf("\n");
    report.AddValue("vfs." + row.name + ".avg_us", row.avg_us, "us");
    // "generic semantics" = sync + memobj + naming (paper: 87% average).
    generic_sum += row.pct[2] + row.pct[3] + row.pct[4];
  }
  report.AddValue("vfs.generic_semantics_share",
                  generic_sum / static_cast<double>(rows.size()), "percent");
  std::printf("\ngeneric-semantics share (sync+memobj+naming), avg across "
              "ops: %.1f%%  (paper: ~87%%)\n",
              generic_sum / static_cast<double>(rows.size()));
  std::printf("paper avg latencies: stat 1.8us, open 2.4us, create 4.1us, "
              "rename 5.8us, unlink 5.1us\n");

  // Whole-run per-layer view straight from the obs registry (text + JSON).
  std::printf("\n== obs registry (all measured ops) ==\n%s\n",
              obs::DumpText().c_str());
  std::printf("OBS_JSON %s\n", obs::DumpJson().c_str());

  bench::FinishReport(report);
  const std::string trace_path = obs::WriteTraceFileIfConfigured();
  if (!trace_path.empty()) {
    std::printf("TRACE_FILE %s\n", trace_path.c_str());
  }
  return 0;
}
