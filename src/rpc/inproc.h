// In-process transport: direct dispatch plus a configurable simulated
// round-trip latency (spin, not sleep, to model a loopback RPC's CPU cost).
#ifndef AERIE_SRC_RPC_INPROC_H_
#define AERIE_SRC_RPC_INPROC_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/clock.h"
#include "src/obs/trace.h"
#include "src/rpc/transport.h"

namespace aerie {

class InprocTransport final : public Transport {
 public:
  InprocTransport(const RpcDispatcher* dispatcher, uint64_t client_id,
                  uint64_t round_trip_ns = 0)
      : dispatcher_(dispatcher),
        client_id_(client_id),
        round_trip_ns_(round_trip_ns) {}

  Result<std::string> Call(uint32_t method, std::string_view request) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    obs::RpcMethodStats* stats = nullptr;
    if (obs::CountersOn()) {
      stats = &obs::RpcMethodStatsFor(method);
      stats->calls.Add(1);
      stats->bytes_out.Add(request.size());
    }
    obs::ScopedSpan span(stats != nullptr ? &stats->span : nullptr);
    // Only the simulated wire halves count as RPC wait for this transport:
    // dispatch runs the handler on the caller thread, which is real local
    // CPU the profiler attributes to the handler's own spans.
    if (round_trip_ns_ != 0) {
      obs::ScopedWait wire(obs::WaitKind::kRpc);
      SpinDelayNanos(round_trip_ns_ / 2);
    }
    Result<std::string> result = [&] {
      // Dispatch runs on the caller thread, so the trace context would flow
      // implicitly — but install a scoped copy anyway, mirroring the socket
      // transport: handler-side context changes must not leak back into the
      // client, and both transports exercise the same propagation contract.
      obs::ScopedTraceContext trace_scope(obs::CurrentTraceContext());
      return dispatcher_->Dispatch(client_id_, method, request);
    }();
    if (round_trip_ns_ != 0) {
      obs::ScopedWait wire(obs::WaitKind::kRpc);
      SpinDelayNanos(round_trip_ns_ / 2);
    }
    if (stats != nullptr && result.ok()) {
      stats->bytes_in.Add(result.value().size());
    }
    return result;
  }

  uint64_t client_id() const override { return client_id_; }
  uint64_t calls_made() const override {
    return calls_.load(std::memory_order_relaxed);
  }

  void set_round_trip_ns(uint64_t ns) { round_trip_ns_ = ns; }

 private:
  const RpcDispatcher* dispatcher_;
  uint64_t client_id_;
  uint64_t round_trip_ns_;
  std::atomic<uint64_t> calls_{0};
};

}  // namespace aerie

#endif  // AERIE_SRC_RPC_INPROC_H_
