#include "perfbench/src/stack.h"

namespace perfbench {

using aerie::Result;

Result<std::unique_ptr<BenchClient>> BenchClient::Connect(
    aerie::AerieSystem* system, uint64_t client_id, uint64_t round_trip_ns,
    RpcRecorder* recorder, bool flat, uint64_t flat_capacity) {
  auto client = std::unique_ptr<BenchClient>(new BenchClient());
  client->transport_ = std::make_unique<RecordingTransport>(
      system->dispatcher(), client_id, round_trip_ns, recorder);
  auto fs = aerie::LibFs::Mount(client->transport_.get(),
                                system->scm_region(),
                                system->partition_offset(),
                                aerie::LibFs::Options{});
  if (!fs.ok()) {
    return fs.status();
  }
  client->fs_ = std::move(*fs);
  system->lock_service()->RegisterClient(client_id, client->fs_->clerk());
  client->system_ = system;
  if (flat) {
    aerie::FlatFs::Options options;
    options.file_capacity = flat_capacity;
    client->flat_ = std::make_unique<aerie::FlatFs>(client->fs_.get(), options);
  } else {
    client->pxfs_ = std::make_unique<aerie::Pxfs>(client->fs_.get());
  }
  return client;
}

BenchClient::~BenchClient() {
  // Interface layers unhook from libFS first.
  pxfs_.reset();
  flat_.reset();
  if (system_ == nullptr) {
    return;
  }
  (void)fs_->SyncAndReleaseLocks();
  (void)system_->tfs()->ClientDisconnected(id());
  system_->lock_service()->UnregisterClient(id());
  fs_.reset();  // the clerk (revocation sink) dies after unregistration
}

Result<std::unique_ptr<BenchStack>> BenchStack::Create(
    const StackConfig& config, RpcRecorder* recorder) {
  auto stack = std::unique_ptr<BenchStack>(new BenchStack());
  aerie::AerieSystem::Options options;
  options.region_bytes = config.region_bytes;
  options.scm_write_ns = config.scm_write_ns;
  auto system = aerie::AerieSystem::Create(options);
  if (!system.ok()) {
    return system.status();
  }
  stack->system_ = std::move(*system);
  for (int i = 0; i < config.clients; ++i) {
    auto client = BenchClient::Connect(
        stack->system_.get(), static_cast<uint64_t>(i) + 1,
        config.rpc_round_trip_ns, recorder, config.flat, config.flat_capacity);
    if (!client.ok()) {
      return client.status();
    }
    stack->clients_.push_back(std::move(*client));
  }
  return stack;
}

}  // namespace perfbench
