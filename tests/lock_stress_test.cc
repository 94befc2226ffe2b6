// Stress tests for the distributed lock protocol: mutual exclusion must
// hold across clients and threads under heavy contention, revocation and
// caching; hierarchical grants must never leak exclusivity.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/rand.h"
#include "src/lock/clerk.h"
#include "src/lock/lock_service.h"

namespace aerie {
namespace {

// Widens a race window: a short busy loop the compiler may not elide (the
// signal fence is a compiler barrier).
void RaceWindow(int iterations) {
  for (int i = 0; i < iterations; ++i) {
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }
}

class DirectLockClient : public LockServiceClient {
 public:
  DirectLockClient(LockService* service, uint64_t client_id)
      : service_(service), client_id_(client_id) {}
  Status Acquire(LockId id, LockMode mode, bool wait) override {
    return service_->Acquire(client_id_, id, mode, wait);
  }
  Status Release(LockId id) override {
    return service_->Release(client_id_, id);
  }
  Status Downgrade(LockId id, LockMode to) override {
    return service_->Downgrade(client_id_, id, to);
  }
  Status Renew() override { return service_->Renew(client_id_); }

 private:
  LockService* service_;
  uint64_t client_id_;
};

struct Client {
  std::unique_ptr<DirectLockClient> stub;
  std::unique_ptr<LockClerk> clerk;
};

struct Fixture {
  explicit Fixture(int nclients) {
    LockService::Options options;
    options.lease_ms = 60000;
    options.wait_timeout_ms = 10000;
    service = std::make_unique<LockService>(options);
    for (int c = 0; c < nclients; ++c) {
      auto client = std::make_unique<Client>();
      client->stub = std::make_unique<DirectLockClient>(
          service.get(), static_cast<uint64_t>(c + 1));
      LockClerk::Options copts;
      copts.local_wait_timeout_ms = 10000;
      client->clerk =
          std::make_unique<LockClerk>(client->stub.get(), copts);
      service->RegisterClient(static_cast<uint64_t>(c + 1),
                              client->clerk.get());
      clients.push_back(std::move(client));
    }
  }
  std::unique_ptr<LockService> service;
  std::vector<std::unique_ptr<Client>> clients;
};

// Mutual exclusion proof: protected counters see no torn increments.
TEST(LockStressTest, CrossClientMutualExclusion) {
  constexpr int kClients = 3;
  constexpr int kThreadsPerClient = 2;
  constexpr int kLocks = 4;
  constexpr int kItersPerThread = 300;
  Fixture fixture(kClients);

  // One unprotected shared cell per lock; increments are done unlocked
  // inside the critical section, so any exclusion bug shows as a lost
  // update.
  std::vector<uint64_t> cells(kLocks, 0);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    for (int t = 0; t < kThreadsPerClient; ++t) {
      threads.emplace_back([&, c, t] {
        Rng rng(static_cast<uint64_t>(c * 97 + t));
        LockClerk* clerk = fixture.clients[static_cast<size_t>(c)]->clerk.get();
        for (int i = 0; i < kItersPerThread; ++i) {
          const LockId lock = 100 + rng.Uniform(kLocks);
          Status st = clerk->Acquire(lock, LockMode::kExclusive);
          if (!st.ok()) {
            failures++;
            continue;
          }
          const uint64_t seen = cells[lock - 100];
          // A tiny window to let races manifest.
          RaceWindow(50);
          cells[lock - 100] = seen + 1;
          clerk->Release(lock);
        }
      });
    }
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  uint64_t total = 0;
  for (uint64_t cell : cells) {
    total += cell;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kClients * kThreadsPerClient *
                                         kItersPerThread));
}

// Readers under SH ancestors coexist; writers still exclude them.
TEST(LockStressTest, HierarchicalGrantsPreserveExclusion) {
  constexpr int kClients = 2;
  constexpr int kIters = 200;
  Fixture fixture(kClients);
  const LockId kParent = 10;
  const LockId kChild = 1000;

  uint64_t cell = 0;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(static_cast<uint64_t>(c) + 7);
      LockClerk* clerk = fixture.clients[static_cast<size_t>(c)]->clerk.get();
      const LockId ancestors[] = {kParent};
      for (int i = 0; i < kIters; ++i) {
        if (rng.Chance(1, 3)) {
          // Sometimes grab the whole subtree hierarchically.
          Status st = clerk->Acquire(kParent, LockMode::kExclusiveHier);
          if (!st.ok()) {
            failures++;
            continue;
          }
          const uint64_t seen = cell;
          RaceWindow(30);
          cell = seen + 1;
          clerk->Release(kParent);
        } else {
          Status st =
              clerk->Acquire(kChild, LockMode::kExclusive, ancestors);
          if (!st.ok()) {
            failures++;
            continue;
          }
          const uint64_t seen = cell;
          RaceWindow(30);
          cell = seen + 1;
          clerk->Release(kChild);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cell, static_cast<uint64_t>(kClients * kIters));
}

// Many readers, one writer: readers never observe a half-written value.
TEST(LockStressTest, ReadersSeeConsistentSnapshots) {
  Fixture fixture(3);
  const LockId kLock = 55;
  // Writer keeps two cells equal under X; readers verify equality under S.
  volatile uint64_t a = 0;
  volatile uint64_t b = 0;
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::thread writer([&] {
    LockClerk* clerk = fixture.clients[0]->clerk.get();
    for (int i = 0; i < 400; ++i) {
      if (!clerk->Acquire(kLock, LockMode::kExclusive).ok()) {
        continue;
      }
      a = a + 1;
      RaceWindow(40);
      b = b + 1;
      clerk->Release(kLock);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int c = 1; c < 3; ++c) {
    readers.emplace_back([&, c] {
      LockClerk* clerk = fixture.clients[static_cast<size_t>(c)]->clerk.get();
      while (!stop.load()) {
        if (!clerk->Acquire(kLock, LockMode::kShared).ok()) {
          continue;
        }
        if (a != b) {
          violations++;
        }
        clerk->Release(kLock);
      }
    });
  }
  writer.join();
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(violations.load(), 0);
}

}  // namespace
}  // namespace aerie
