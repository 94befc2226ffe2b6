// Property-based test: PXFS under a random op stream must agree with an
// in-memory reference model (map of path -> contents), across seeds, with
// periodic syncs, client handoffs, and a final fsck. Each seed runs in two
// map modes: the default (cached whole-file maps, background shipping) and
// windowed (no pinned way, so uncached maps cover only the call's pages,
// and no flusher, so file shadows stay unshipped until a sync or a full
// batch).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "src/common/rand.h"
#include "src/libfs/system.h"
#include "src/pxfs/pxfs.h"
#include "src/tfs/fsck.h"

namespace aerie {
namespace {

// (seed, windowed)
class PxfsPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(PxfsPropertyTest, RandomOpsMatchReferenceModel) {
  const auto [seed, windowed] = GetParam();
  AerieSystem::Options options;
  options.region_bytes = 512ull << 20;
  auto sys = AerieSystem::Create(options);
  ASSERT_TRUE(sys.ok());
  LibFs::Options client_options;
  if (windowed) {
    client_options.direct_data = false;
    client_options.flush_interval_ms = 0;
  }
  auto client = (*sys)->NewClient(client_options);
  ASSERT_TRUE(client.ok());
  Pxfs fs((*client)->fs());

  Rng rng(seed);
  std::map<std::string, std::string> model;  // path -> contents
  const int kDirs = 4;
  for (int d = 0; d < kDirs; ++d) {
    ASSERT_TRUE(fs.Mkdir("/d" + std::to_string(d)).ok());
  }

  auto random_path = [&] {
    return "/d" + std::to_string(rng.Uniform(kDirs)) + "/f" +
           std::to_string(rng.Uniform(30));
  };
  auto read_all = [&](const std::string& path) -> Result<std::string> {
    auto fd = fs.Open(path, kOpenRead);
    if (!fd.ok()) {
      return fd.status();
    }
    std::string buf(64 << 10, '\0');
    auto n = fs.Read(*fd, std::span<char>(buf.data(), buf.size()));
    EXPECT_TRUE(fs.Close(*fd).ok());
    if (!n.ok()) {
      return n.status();
    }
    buf.resize(*n);
    return buf;
  };

  for (int step = 0; step < 1200; ++step) {
    const std::string path = random_path();
    switch (rng.Uniform(8)) {
      case 0:
      case 1: {  // write whole file
        std::string data(1 + rng.Uniform(20000), '\0');
        for (auto& ch : data) {
          ch = static_cast<char>('a' + rng.Uniform(26));
        }
        auto fd = fs.Open(path, kOpenCreate | kOpenWrite | kOpenTrunc);
        ASSERT_TRUE(fd.ok()) << path;
        ASSERT_TRUE(
            fs.Write(*fd, std::span<const char>(data.data(), data.size()))
                .ok());
        ASSERT_TRUE(fs.Close(*fd).ok());
        model[path] = data;
        break;
      }
      case 2: {  // append
        auto it = model.find(path);
        if (it == model.end()) {
          break;
        }
        std::string data(1 + rng.Uniform(4000), 'A');
        auto fd = fs.Open(path, kOpenWrite | kOpenAppend);
        ASSERT_TRUE(fd.ok());
        ASSERT_TRUE(
            fs.Write(*fd, std::span<const char>(data.data(), data.size()))
                .ok());
        ASSERT_TRUE(fs.Close(*fd).ok());
        it->second += data;
        break;
      }
      case 3: {  // read + compare
        auto content = read_all(path);
        auto it = model.find(path);
        if (it == model.end()) {
          EXPECT_EQ(content.code(), ErrorCode::kNotFound) << path;
        } else {
          ASSERT_TRUE(content.ok()) << path;
          EXPECT_EQ(*content, it->second) << path;
        }
        break;
      }
      case 4: {  // unlink
        Status st = fs.Unlink(path);
        if (model.count(path)) {
          EXPECT_TRUE(st.ok()) << path << ": " << st.ToString();
          model.erase(path);
        } else {
          EXPECT_EQ(st.code(), ErrorCode::kNotFound);
        }
        break;
      }
      case 5: {  // rename
        const std::string to = random_path();
        Status st = fs.Rename(path, to);
        if (!model.count(path)) {
          EXPECT_FALSE(st.ok());
        } else if (path == to) {
          EXPECT_TRUE(st.ok());  // POSIX no-op
        } else {
          EXPECT_TRUE(st.ok()) << path << " -> " << to;
          model[to] = model[path];
          model.erase(path);
        }
        break;
      }
      case 6: {  // truncate to random size
        auto it = model.find(path);
        if (it == model.end()) {
          break;
        }
        const uint64_t size = rng.Uniform(it->second.size() + 100);
        ASSERT_TRUE(fs.Truncate(path, size).ok());
        if (size <= it->second.size()) {
          it->second.resize(size);
        } else {
          it->second.resize(size, '\0');
        }
        break;
      }
      case 7: {  // stat + occasional sync
        auto st = fs.Stat(path);
        auto it = model.find(path);
        if (it == model.end()) {
          EXPECT_EQ(st.code(), ErrorCode::kNotFound);
        } else {
          ASSERT_TRUE(st.ok());
          EXPECT_EQ(st->size, it->second.size()) << path;
        }
        if (rng.Chance(1, 10)) {
          ASSERT_TRUE(fs.SyncAll().ok());
        }
        break;
      }
    }
  }

  // Everything the model holds must be readable with identical bytes.
  ASSERT_TRUE(fs.SyncAll().ok());
  for (const auto& [path, contents] : model) {
    auto got = read_all(path);
    ASSERT_TRUE(got.ok()) << path;
    EXPECT_EQ(*got, contents) << path;
  }
  // And the volume must be structurally sound.
  auto report = RunFsck((*sys)->volume());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->files, model.size());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PxfsPropertyTest,
    ::testing::Combine(::testing::Values(101, 202, 303, 404),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<PxfsPropertyTest::ParamType>& param) {
      return std::to_string(std::get<0>(param.param)) +
             (std::get<1>(param.param) ? "_windowed" : "_default");
    });

}  // namespace
}  // namespace aerie
