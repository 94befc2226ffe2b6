// The Aerie stack under test, assembled through public APIs only.
//
// AerieSystem provides the SCM region, volume, TFS and lock service. Each
// client is wired the way AerieSystem::FinishClient wires one, except that
// its transport is the benchmark's RecordingTransport: LibFs::Mount over that
// transport, then LockService::RegisterClient for revocation upcalls. The
// teardown mirrors AerieSystem::Client::~Client.
#ifndef PERFBENCH_SRC_STACK_H_
#define PERFBENCH_SRC_STACK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/src/rpc_recorder.h"
#include "src/flatfs/flatfs.h"
#include "src/libfs/system.h"
#include "src/pxfs/pxfs.h"

namespace perfbench {

class BenchClient {
 public:
  // Ids start at 1, below AerieSystem's in-process ids (1000 and up).
  static aerie::Result<std::unique_ptr<BenchClient>> Connect(
      aerie::AerieSystem* system, uint64_t client_id, uint64_t round_trip_ns,
      RpcRecorder* recorder, bool flat, uint64_t flat_capacity);
  ~BenchClient();

  BenchClient(const BenchClient&) = delete;
  BenchClient& operator=(const BenchClient&) = delete;

  uint64_t id() const { return transport_->client_id(); }
  aerie::LibFs* fs() { return fs_.get(); }
  aerie::Pxfs* pxfs() { return pxfs_.get(); }
  aerie::FlatFs* flat() { return flat_.get(); }

 private:
  BenchClient() = default;

  aerie::AerieSystem* system_ = nullptr;
  std::unique_ptr<RecordingTransport> transport_;
  std::unique_ptr<aerie::LibFs> fs_;
  std::unique_ptr<aerie::Pxfs> pxfs_;
  std::unique_ptr<aerie::FlatFs> flat_;
};

struct StackConfig {
  uint64_t region_bytes = 0;
  uint64_t scm_write_ns = 0;
  uint64_t rpc_round_trip_ns = 0;
  int clients = 1;
  bool flat = false;
  uint64_t flat_capacity = 0;
};

class BenchStack {
 public:
  static aerie::Result<std::unique_ptr<BenchStack>> Create(
      const StackConfig& config, RpcRecorder* recorder);

  aerie::AerieSystem* system() { return system_.get(); }
  BenchClient* client(size_t i) { return clients_[i].get(); }
  size_t client_count() const { return clients_.size(); }

 private:
  BenchStack() = default;

  std::unique_ptr<aerie::AerieSystem> system_;
  // Declared after system_, so the clients disconnect before it goes away.
  std::vector<std::unique_ptr<BenchClient>> clients_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STACK_H_
