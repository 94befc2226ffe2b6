// Concurrency tests for the TFS: parallel batches from independent clients
// in disjoint directories (paper §7.2.3's scaling premise), WAL
// checkpointing under load and with the log full mid-batch, and pool
// isolation between clients.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/libfs/system.h"
#include "src/pxfs/pxfs.h"
#include "src/tfs/fsck.h"

namespace aerie {
namespace {

TEST(TfsConcurrencyTest, ParallelClientsInDisjointDirectories) {
  AerieSystem::Options options;
  options.region_bytes = 1ull << 30;
  auto sys = AerieSystem::Create(options);
  ASSERT_TRUE(sys.ok());

  constexpr int kClients = 4;
  constexpr int kFilesEach = 60;
  struct ClientCtx {
    std::unique_ptr<AerieSystem::Client> client;
    std::unique_ptr<Pxfs> fs;
  };
  std::vector<ClientCtx> clients;
  for (int c = 0; c < kClients; ++c) {
    auto client = (*sys)->NewClient();
    ASSERT_TRUE(client.ok());
    ClientCtx ctx;
    ctx.client = std::move(*client);
    ctx.fs = std::make_unique<Pxfs>(ctx.client->fs());
    ASSERT_TRUE(ctx.fs->Mkdir("/c" + std::to_string(c)).ok());
    clients.push_back(std::move(ctx));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Pxfs* fs = clients[static_cast<size_t>(c)].fs.get();
      const std::string dir = "/c" + std::to_string(c);
      for (int i = 0; i < kFilesEach; ++i) {
        const std::string path = dir + "/f" + std::to_string(i);
        auto fd = fs->Open(path, kOpenCreate | kOpenWrite);
        if (!fd.ok()) {
          failures++;
          continue;
        }
        const std::string data = path + " payload";
        if (!fs->Write(*fd, std::span<const char>(data.data(), data.size()))
                 .ok() ||
            !fs->Close(*fd).ok()) {
          failures++;
        }
        if (i % 7 == 0 && !fs->SyncAll().ok()) {
          failures++;
        }
      }
      if (!fs->SyncAll().ok()) {
        failures++;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // Every client's files exist with intact content; volume is sound.
  for (int c = 0; c < kClients; ++c) {
    Pxfs* fs = clients[static_cast<size_t>(c)].fs.get();
    for (int i = 0; i < kFilesEach; ++i) {
      const std::string path =
          "/c" + std::to_string(c) + "/f" + std::to_string(i);
      auto fd = fs->Open(path, kOpenRead);
      ASSERT_TRUE(fd.ok()) << path;
      std::string buf(256, '\0');
      auto n = fs->Read(*fd, std::span<char>(buf.data(), buf.size()));
      ASSERT_TRUE(n.ok());
      EXPECT_EQ(std::string_view(buf.data(), *n), path + " payload");
      ASSERT_TRUE(fs->Close(*fd).ok());
    }
  }
  auto report = RunFsck((*sys)->volume());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->files,
            static_cast<uint64_t>(kClients * kFilesEach));
}

TEST(TfsConcurrencyTest, WalCheckpointsUnderSustainedLoad) {
  AerieSystem::Options options;
  options.region_bytes = 512ull << 20;
  auto sys = AerieSystem::Create(options);
  ASSERT_TRUE(sys.ok());
  auto client = (*sys)->NewClient(LibFs::Options{.eager_ship = true});
  ASSERT_TRUE(client.ok());
  Pxfs fs((*client)->fs());
  ASSERT_TRUE(fs.Mkdir("/load").ok());

  // Many eager batches: the WAL must checkpoint (truncate) between them
  // rather than accumulate.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(fs.Create("/load/f" + std::to_string(i)).ok()) << i;
  }
  EXPECT_EQ((*sys)->volume()->log()->committed_bytes(), 0u)
      << "WAL did not checkpoint";
  // And the log area is far smaller than the op volume that flowed through.
  EXPECT_GT((*sys)->tfs()->batches_applied(), 400u);
}

// With a small redo log and two clients shipping in parallel, a batch often
// finds the log full while the other batch is still applying. It must wait
// for that batch, checkpoint and carry on: every op the clients logged has
// to land, and SyncAll must not report a full log.
TEST(TfsConcurrencyTest, LogFullDuringOverlappingBatchesLosesNoOps) {
  AerieSystem::Options options;
  options.region_bytes = 256ull << 20;
  options.volume.log_bytes = 64ull << 10;
  auto sys = AerieSystem::Create(options);
  ASSERT_TRUE(sys.ok());

  constexpr int kClients = 2;
  constexpr int kRounds = 8;
  constexpr int kFilesPerRound = 1000;
  std::vector<std::unique_ptr<AerieSystem::Client>> clients;
  std::vector<std::unique_ptr<Pxfs>> fss;
  for (int c = 0; c < kClients; ++c) {
    auto client = (*sys)->NewClient();
    ASSERT_TRUE(client.ok());
    fss.push_back(std::make_unique<Pxfs>((*client)->fs()));
    clients.push_back(std::move(*client));
    ASSERT_TRUE(fss.back()->Mkdir("/c" + std::to_string(c)).ok());
  }

  std::atomic<int> failures{0};
  std::string first_error;
  std::mutex error_mu;
  auto fail = [&](const Status& st) {
    std::lock_guard lock(error_mu);
    if (failures++ == 0) {
      first_error = st.ToString();
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Pxfs* fs = fss[static_cast<size_t>(c)].get();
      const std::string dir = "/c" + std::to_string(c);
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kFilesPerRound; ++i) {
          const std::string path = dir + "/r" + std::to_string(round) + "_" +
                                   std::to_string(i);
          if (Status st = fs->Create(path); !st.ok()) {
            fail(st);
          }
        }
        if (Status st = fs->SyncAll(); !st.ok()) {
          fail(st);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0) << first_error;

  auto report = RunFsck((*sys)->volume());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->files,
            static_cast<uint64_t>(kClients * kRounds * kFilesPerRound));
}

TEST(TfsConcurrencyTest, PoolsAreClientPrivate) {
  AerieSystem::Options options;
  options.region_bytes = 256ull << 20;
  auto sys = AerieSystem::Create(options);
  ASSERT_TRUE(sys.ok());
  auto c1 = (*sys)->NewClient();
  auto c2 = (*sys)->NewClient();
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());

  // Concurrent pool fills never hand out the same object twice.
  std::vector<Oid> a;
  std::vector<Oid> b;
  std::thread t1([&] {
    for (int i = 0; i < 300; ++i) {
      auto oid = (*c1)->fs()->TakePooled(ObjType::kExtent);
      if (oid.ok()) {
        a.push_back(*oid);
      }
    }
  });
  std::thread t2([&] {
    for (int i = 0; i < 300; ++i) {
      auto oid = (*c2)->fs()->TakePooled(ObjType::kExtent);
      if (oid.ok()) {
        b.push_back(*oid);
      }
    }
  });
  t1.join();
  t2.join();
  ASSERT_EQ(a.size(), 300u);
  ASSERT_EQ(b.size(), 300u);
  std::set<uint64_t> seen;
  for (Oid oid : a) {
    EXPECT_TRUE(seen.insert(oid.raw()).second);
  }
  for (Oid oid : b) {
    EXPECT_TRUE(seen.insert(oid.raw()).second);
  }
}

}  // namespace
}  // namespace aerie
