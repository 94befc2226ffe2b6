// RPC timing wrapper owned by the benchmark.
//
// RecordingTransport forwards every call to an InprocTransport built with the
// system's dispatcher and the modelled round trip, so the stack under test
// sees exactly the transport AerieSystem::NewClient would give it. While the
// shared RpcRecorder is enabled (the traced slices of a --trace 1 run) it
// adds, per method, the call count, the wall time of the whole call and the
// request plus response bytes. Calls made by a foreground (workload) thread
// also feed the foreground RPC-wait total behind rpc.wait_share.
#ifndef PERFBENCH_SRC_RPC_RECORDER_H_
#define PERFBENCH_SRC_RPC_RECORDER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/clock.h"
#include "src/lock/lock_proto.h"
#include "src/rpc/inproc.h"
#include "src/tfs/ops.h"

namespace perfbench {

// The methods reported per layer, in report order. Other methods (mount-time
// get_roots, the service data path) are not recorded.
struct RpcMethod {
  uint32_t id;
  const char* name;
};
inline constexpr std::array<RpcMethod, 8> kRpcMethods = {{
    {aerie::kTfsRpcApplyBatch, "apply_batch"},
    {aerie::kTfsRpcPoolFill, "pool_fill"},
    {aerie::kLockRpcAcquire, "lock.acquire"},
    {aerie::kLockRpcDowngrade, "lock.downgrade"},
    {aerie::kLockRpcRelease, "lock.release"},
    {aerie::kLockRpcRenew, "lock.renew"},
    {aerie::kTfsRpcNotifyOpen, "notify_open"},
    {aerie::kTfsRpcNotifyClosed, "notify_closed"},
}};

// True on threads that run workload clients (set once by each client thread).
inline thread_local bool tls_foreground = false;

class RpcRecorder {
 public:
  struct Totals {
    uint64_t calls = 0;
    uint64_t ns = 0;
    uint64_t bytes = 0;
  };

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(uint32_t method, uint64_t ns, uint64_t bytes) {
    const size_t i = SlotOf(method);
    if (i == kRpcMethods.size()) {
      return;
    }
    Slot& slot = slots_[i];
    slot.calls.fetch_add(1, std::memory_order_relaxed);
    slot.ns.fetch_add(ns, std::memory_order_relaxed);
    slot.bytes.fetch_add(bytes, std::memory_order_relaxed);
    if (tls_foreground) {
      foreground_ns_.fetch_add(ns, std::memory_order_relaxed);
    }
  }

  // Totals for kRpcMethods[i].
  Totals totals(size_t i) const {
    const Slot& slot = slots_[i];
    return {slot.calls.load(std::memory_order_relaxed),
            slot.ns.load(std::memory_order_relaxed),
            slot.bytes.load(std::memory_order_relaxed)};
  }
  uint64_t foreground_ns() const {
    return foreground_ns_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> bytes{0};
  };

  static size_t SlotOf(uint32_t method) {
    for (size_t i = 0; i < kRpcMethods.size(); ++i) {
      if (kRpcMethods[i].id == method) {
        return i;
      }
    }
    return kRpcMethods.size();
  }

  std::atomic<bool> enabled_{false};
  std::array<Slot, kRpcMethods.size()> slots_;
  std::atomic<uint64_t> foreground_ns_{0};
};

class RecordingTransport final : public aerie::Transport {
 public:
  RecordingTransport(const aerie::RpcDispatcher* dispatcher,
                     uint64_t client_id, uint64_t round_trip_ns,
                     RpcRecorder* recorder)
      : inner_(dispatcher, client_id, round_trip_ns), recorder_(recorder) {}

  aerie::Result<std::string> Call(uint32_t method,
                                  std::string_view request) override {
    if (!recorder_->enabled()) {
      return inner_.Call(method, request);
    }
    const uint64_t start = aerie::NowNanos();
    aerie::Result<std::string> result = inner_.Call(method, request);
    const uint64_t reply = result.ok() ? result.value().size() : 0;
    recorder_->Record(method, aerie::NowNanos() - start,
                      request.size() + reply);
    return result;
  }

  uint64_t client_id() const override { return inner_.client_id(); }
  uint64_t calls_made() const override { return inner_.calls_made(); }

 private:
  aerie::InprocTransport inner_;
  RpcRecorder* recorder_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_RPC_RECORDER_H_
