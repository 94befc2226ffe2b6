// Lease renewal vs. batched metadata shipping (the ablation_name_cache
// webproxy flake, CHANGES PR 6). A client working entirely out of its lock
// cache performs no lock RPCs, so nothing but the clerk's background renewal
// keeps its lease alive — and that renewal shares the clerk worker with
// revoke drains, so it can stall. The lease then lapses *silently*: expiry
// is lazy (the service only reclaims locks when another client's conflicting
// acquire finds the holder expired), so the client's cached authority was
// never actually handed elsewhere — yet the TFS used to reject the whole
// shipped batch via the LeaseValid check and the flusher discarded it,
// losing acknowledged creates.
//
// The fix is renew-on-RPC in TrustedFsService::ApplyBatch (linearizable for
// a lapsed-but-unreclaimed lease; dropped locks still fail the per-op
// HeldMode checks — see tfs_test's DroppedLocksRejectBatch). These tests pin
// the behavior deterministically and under webproxy-style churn.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/open_flags.h"
#include "src/libfs/system.h"
#include "src/pxfs/pxfs.h"

namespace aerie {
namespace {

std::span<const char> Bytes(const std::string& s) {
  return std::span<const char>(s.data(), s.size());
}

// Deterministic repro of the flake: buffer creates on cached locks, stop
// renewing, let the lease lapse with no competing client, then ship. The
// batch RPC itself must renew the lease and apply cleanly.
TEST(LeaseRenewalTest, BatchRpcRenewsLapsedLease) {
  AerieSystem::Options options;
  options.region_bytes = 64ull << 20;
  options.lock.lease_ms = 50;
  auto sys = AerieSystem::Create(options);
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();

  LibFs::Options copts;
  copts.flush_interval_ms = 0;  // no background flusher: ops buffer to Sync
  auto client = (*sys)->NewClient(copts);
  ASSERT_TRUE(client.ok());
  Pxfs fs((*client)->fs());

  ASSERT_TRUE(fs.Mkdir("/d").ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fs.Create("/d/f" + std::to_string(i)).ok());
  }

  // Simulate the renewal stall: no more renew RPCs, lease lapses while the
  // ops sit in the batch and every lock sits in the clerk cache.
  (*client)->fs()->clerk()->StopRenewalForTesting();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  ASSERT_FALSE((*sys)->lock_service()->LeaseValid((*client)->id()));

  // Pre-fix: the ship was rejected kLockRevoked and silently discarded.
  EXPECT_TRUE(fs.SyncAll().ok());
  EXPECT_EQ((*client)->fs()->batches_ship_failed(), 0u);
  // The RPC restored the lease on its way in.
  EXPECT_TRUE((*sys)->lock_service()->LeaseValid((*client)->id()));

  // Every acknowledged create is visible to a fresh client.
  auto client2 = (*sys)->NewClient();
  ASSERT_TRUE(client2.ok());
  Pxfs fs2((*client2)->fs());
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(fs2.Stat("/d/f" + std::to_string(i)).ok())
        << "/d/f" << i << " lost: batch was discarded after lease lapse";
  }
}

// Webproxy-style churn: leases that lapse between renewals, and a workload
// that — after the first create warms the directory lock — runs entirely on
// cached locks, exactly like the name-cache webproxy bench. No other client
// contends, so the lapsed leases are never reclaimed (expiry is lazy), and
// only op RPCs — pool refills and the batch ships themselves — ever touch
// the service. Every batch therefore ships under a lapsed lease and must
// still apply. The leases are the default length, so they outlive the
// warmup on a loaded host, and each round lapses them explicitly. Two
// clients run the same loop in disjoint directories to add service-side
// interleaving without lock conflicts (conflicts would legitimately fence a
// lapsed client, a different scenario covered by tfs_test's
// DroppedLocksRejectBatch).
TEST(LeaseRenewalTest, ShortLeaseChurnLosesNoAcknowledgedCreates) {
  AerieSystem::Options options;
  options.region_bytes = 64ull << 20;
  auto sys = AerieSystem::Create(options);
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();

  LibFs::Options copts;
  copts.flush_interval_ms = 0;
  copts.clerk.renew_interval_ms = 60'000;  // renewal never fires in-test
  auto a = (*sys)->NewClient(copts);
  auto b = (*sys)->NewClient(copts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Pxfs fa((*a)->fs());
  Pxfs fb((*b)->fs());
  // Establish disjoint cached authority while both leases are live: after
  // the warmup create each client holds its own directory's write lock
  // (plus a shared root intent lock), so no later operation conflicts — a
  // conflict against a lapsed holder would legitimately fence it.
  ASSERT_TRUE(fa.Mkdir("/pa").ok());
  ASSERT_TRUE(fa.Mkdir("/pb").ok());
  std::vector<std::string> paths;
  const std::string payload = "proxy-object";
  auto create = [&](Pxfs& fs, const std::string& path) {
    auto fd = fs.Open(path, kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.ok()) << path << ": " << fd.status().ToString();
    ASSERT_TRUE(fs.Write(*fd, Bytes(payload)).ok()) << path;
    ASSERT_TRUE(fs.Close(*fd).ok()) << path;
    paths.push_back(path);
  };
  create(fa, "/pa/warm");
  create(fb, "/pb/warm");
  ASSERT_TRUE(fa.SyncAll().ok());
  ASSERT_TRUE(fb.SyncAll().ok());

  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 8; ++i) {
      const int seq = round * 8 + i;
      create(fa, "/pa/o" + std::to_string(seq));
      create(fb, "/pb/o" + std::to_string(seq));
    }
    // Lapse both leases with the burst still buffered, then ship: the batch
    // RPC arrives under a lapsed (but unreclaimed) lease every round.
    (*sys)->lock_service()->ExpireLeaseForTesting((*a)->id());
    (*sys)->lock_service()->ExpireLeaseForTesting((*b)->id());
    ASSERT_FALSE((*sys)->lock_service()->LeaseValid((*a)->id()));
    ASSERT_FALSE((*sys)->lock_service()->LeaseValid((*b)->id()));
    ASSERT_TRUE(fa.SyncAll().ok());
    ASSERT_TRUE(fb.SyncAll().ok());
  }
  EXPECT_EQ((*a)->fs()->batches_ship_failed(), 0u);
  EXPECT_EQ((*b)->fs()->batches_ship_failed(), 0u);

  auto reader = (*sys)->NewClient();
  ASSERT_TRUE(reader.ok());
  Pxfs fr((*reader)->fs());
  for (const auto& path : paths) {
    auto st = fr.Stat(path);
    EXPECT_TRUE(st.ok()) << path << " lost under short-lease churn";
    if (st.ok()) {
      EXPECT_EQ(st->size, payload.size()) << path;
    }
  }
}

}  // namespace
}  // namespace aerie
