// FlatFS functional tests: put/get/erase semantics, capacity limits,
// rehash under load, concurrency, the key table's bound, coexistence with
// PXFS on one volume.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/flatfs/flatfs.h"
#include "src/libfs/system.h"
#include "src/pxfs/pxfs.h"

namespace aerie {
namespace {

class FlatFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AerieSystem::Options options;
    options.region_bytes = 256ull << 20;
    auto sys = AerieSystem::Create(options);
    ASSERT_TRUE(sys.ok());
    sys_ = std::move(*sys);
    auto client = sys_->NewClient();
    ASSERT_TRUE(client.ok());
    client_ = std::move(*client);
    FlatFs::Options options_fs;
    options_fs.file_capacity = 16 << 10;
    flat_ = std::make_unique<FlatFs>(client_->fs(), options_fs);
  }

  void TearDown() override {
    flat_.reset();
    client_.reset();
    sys_.reset();
  }

  std::span<const char> Bytes(const std::string& s) {
    return std::span<const char>(s.data(), s.size());
  }

  std::unique_ptr<AerieSystem> sys_;
  std::unique_ptr<AerieSystem::Client> client_;
  std::unique_ptr<FlatFs> flat_;
};

TEST_F(FlatFsTest, PutGetRoundTrip) {
  ASSERT_TRUE(flat_->Put("msg:1", Bytes("first message")).ok());
  auto value = flat_->Get("msg:1");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "first message");
}

TEST_F(FlatFsTest, GetMissingKeyFails) {
  EXPECT_EQ(flat_->Get("absent").code(), ErrorCode::kNotFound);
  auto exists = flat_->Exists("absent");
  ASSERT_TRUE(exists.ok());
  EXPECT_FALSE(*exists);
}

TEST_F(FlatFsTest, PutReplacesValue) {
  ASSERT_TRUE(flat_->Put("k", Bytes("v1")).ok());
  ASSERT_TRUE(flat_->Put("k", Bytes("version two")).ok());
  EXPECT_EQ(*flat_->Get("k"), "version two");
  ASSERT_TRUE(flat_->Sync().ok());
  EXPECT_EQ(*flat_->Get("k"), "version two");
}

TEST_F(FlatFsTest, EraseRemoves) {
  ASSERT_TRUE(flat_->Put("gone", Bytes("bye")).ok());
  ASSERT_TRUE(flat_->Erase("gone").ok());
  EXPECT_EQ(flat_->Get("gone").code(), ErrorCode::kNotFound);
  EXPECT_EQ(flat_->Erase("gone").code(), ErrorCode::kNotFound);
  // Visible after sync too.
  ASSERT_TRUE(flat_->Sync().ok());
  EXPECT_EQ(flat_->Get("gone").code(), ErrorCode::kNotFound);
}

TEST_F(FlatFsTest, CapacityEnforced) {
  const std::string too_big((16 << 10) + 1, 'x');
  EXPECT_EQ(flat_->Put("big", Bytes(too_big)).code(),
            ErrorCode::kOutOfSpace);
  const std::string max_fit(16 << 10, 'x');
  EXPECT_TRUE(flat_->Put("fits", Bytes(max_fit)).ok());
  EXPECT_EQ(flat_->Get("fits")->size(), max_fit.size());
}

TEST_F(FlatFsTest, KeyValidation) {
  EXPECT_EQ(flat_->Put("", Bytes("x")).code(), ErrorCode::kInvalidArgument);
  const std::string long_key(Collection::kMaxKeyLen + 1, 'k');
  EXPECT_EQ(flat_->Put(long_key, Bytes("x")).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(FlatFsTest, BinaryValuesPreserved) {
  std::string binary(256, '\0');
  for (int i = 0; i < 256; ++i) {
    binary[static_cast<size_t>(i)] = static_cast<char>(i);
  }
  ASSERT_TRUE(flat_->Put("bin", Bytes(binary)).ok());
  EXPECT_EQ(*flat_->Get("bin"), binary);
}

TEST_F(FlatFsTest, ManyKeysSurviveRehashes) {
  constexpr int kKeys = 1500;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(
        flat_->Put("key" + std::to_string(i),
                   Bytes("value" + std::to_string(i)))
            .ok())
        << i;
  }
  ASSERT_TRUE(flat_->Sync().ok());
  for (int i = 0; i < kKeys; ++i) {
    auto value = flat_->Get("key" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << i;
    EXPECT_EQ(*value, "value" + std::to_string(i));
  }
}

TEST_F(FlatFsTest, ScanSeesAllLiveKeys) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(flat_->Put("s" + std::to_string(i), Bytes("v")).ok());
  }
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(flat_->Erase("s" + std::to_string(2 * i)).ok());
  }
  std::set<std::string> keys;
  ASSERT_TRUE(flat_->Scan([&](std::string_view key) {
                  keys.insert(std::string(key));
                  return true;
                })
                  .ok());
  EXPECT_EQ(keys.size(), 25u);
  for (const auto& key : keys) {
    EXPECT_EQ(std::stoi(key.substr(1)) % 2, 1) << key;
  }
}

TEST_F(FlatFsTest, GetIntoSmallBufferTruncates) {
  ASSERT_TRUE(flat_->Put("k", Bytes("0123456789")).ok());
  char buf[4];
  auto n = flat_->Get("k", std::span<char>(buf, 4));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4u);
  EXPECT_EQ(std::string_view(buf, 4), "0123");
}

TEST_F(FlatFsTest, ConcurrentPutsDistinctKeys) {
  constexpr int kThreads = 4;
  constexpr int kKeysEach = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kKeysEach; ++i) {
        const std::string key =
            "c" + std::to_string(t) + "_" + std::to_string(i);
        if (!flat_->Put(key, std::span<const char>(key.data(), key.size()))
                 .ok()) {
          failures++;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(flat_->Sync().ok());
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysEach; ++i) {
      const std::string key =
          "c" + std::to_string(t) + "_" + std::to_string(i);
      auto value = flat_->Get(key);
      ASSERT_TRUE(value.ok()) << key;
      EXPECT_EQ(*value, key);
    }
  }
}

// Gets race puts of one key within one client: every get returns one whole
// value (all its bytes carry one version), and no reader sees the versions
// go backwards.
TEST_F(FlatFsTest, ConcurrentGetsAndPutsOnOneKeySeeWholeValues) {
  constexpr uint32_t kVersions = 2000;
  constexpr int kReaders = 3;
  constexpr size_t kLen = 4096;
  auto stamped = [](uint32_t version) {
    std::string value(kLen, '\0');
    for (size_t i = 0; i < kLen; i += sizeof(version)) {
      std::memcpy(value.data() + i, &version, sizeof(version));
    }
    return value;
  };
  ASSERT_TRUE(flat_->Put("hot", Bytes(stamped(0))).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::string buf(kLen, '\0');
      uint32_t last = 0;
      while (!stop.load()) {
        auto n = flat_->Get("hot", std::span<char>(buf.data(), buf.size()));
        uint32_t version = 0;
        std::memcpy(&version, buf.data(), sizeof(version));
        if (!n.ok() || *n != kLen || buf != stamped(version) ||
            version < last) {
          bad.fetch_add(1);
        }
        last = version;
      }
    });
  }
  for (uint32_t v = 1; v < kVersions; ++v) {
    ASSERT_TRUE(flat_->Put("hot", Bytes(stamped(v))).ok()) << v;
    if (v % 250 == 0) {
      ASSERT_TRUE(flat_->Sync().ok());
    }
  }
  stop.store(true);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(*flat_->Get("hot"), stamped(kVersions - 1));
}

// Fresh keys put and erased well past the key table's bound: the table keeps
// only the entries whose ops have not shipped, instead of one entry per key
// ever written.
TEST_F(FlatFsTest, KeyTableStaysBounded) {
  constexpr int kPairs = 2 * FlatFs::kKeysMax + 1000;
  LibFs* fs = client_->fs();
  for (int i = 0; i < kPairs; ++i) {
    const std::string key = "fresh" + std::to_string(i);
    ASSERT_TRUE(flat_->Put(key, Bytes("v")).ok()) << i;
    ASSERT_TRUE(flat_->Erase(key).ok()) << i;
    if (i % 1000 == 999) {
      ASSERT_LE(flat_->key_table_size(),
                FlatFs::kKeysMax + fs->pending_ops())
          << i;
      ASSERT_TRUE(flat_->Sync().ok());
    }
  }
  EXPECT_LE(flat_->key_table_size(), FlatFs::kKeysMax);
  EXPECT_EQ(flat_->Get("fresh0").code(), ErrorCode::kNotFound);
  EXPECT_EQ(flat_->Get("fresh" + std::to_string(kPairs - 1)).code(),
            ErrorCode::kNotFound);
}

TEST_F(FlatFsTest, VisibleToSecondClientAfterSync) {
  ASSERT_TRUE(flat_->Put("shared", Bytes("payload")).ok());
  ASSERT_TRUE(flat_->Sync().ok());
  client_->fs()->clerk()->ReleaseAllGlobals();

  auto client2 = sys_->NewClient();
  ASSERT_TRUE(client2.ok());
  FlatFs flat2((*client2)->fs());
  auto value = flat2.Get("shared");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "payload");
}

TEST_F(FlatFsTest, PxfsSeesFlatNamespaceAsCollection) {
  // Both interfaces share one volume and one TFS (paper §6.2 Discussion).
  ASSERT_TRUE(flat_->Put("dual-view", Bytes("same bytes")).ok());
  ASSERT_TRUE(flat_->Sync().ok());
  auto coll =
      Collection::Open(client_->fs()->read_context(),
                       client_->fs()->flat_root());
  ASSERT_TRUE(coll.ok());
  auto oid = coll->Lookup("dual-view");
  ASSERT_TRUE(oid.ok());
  auto file = MFile::Open(client_->fs()->read_context(), Oid(*oid));
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file->single_extent());
  EXPECT_EQ(file->size(), 10u);
}

}  // namespace
}  // namespace aerie
