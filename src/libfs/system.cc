#include "src/libfs/system.h"

namespace aerie {

Result<std::unique_ptr<AerieSystem>> AerieSystem::Create(
    const Options& options) {
  auto sys = std::unique_ptr<AerieSystem>(new AerieSystem());
  sys->options_ = options;
  sys->locks_ = std::make_unique<LockService>(options.lock);

  // SCM region (paper: DRAM-emulated SCM, §7.1).
  auto region =
      options.region_path.empty()
          ? ScmRegion::CreateAnonymous(options.region_bytes)
          : ScmRegion::OpenFileBacked(options.region_path,
                                      options.region_bytes);
  if (!region.ok()) {
    return region.status();
  }
  sys->region_ = std::move(*region);
  sys->region_->latency_model().set_write_ns(options.scm_write_ns);

  if (options.fresh) {
    auto manager = ScmManager::Format(sys->region_.get(), options.scm);
    if (!manager.ok()) {
      return manager.status();
    }
    sys->manager_ = std::move(*manager);
    // One partition holding the whole file system (paper: 24GB partition).
    const uint64_t usable =
        sys->region_->size() - sys->manager_->data_start();
    auto part = sys->manager_->AllocatePartition(usable - kScmPageSize,
                                                 MakeAcl(0, 3));
    if (!part.ok()) {
      return part.status();
    }
    sys->partition_offset_ = part->offset;
    auto volume = Volume::Format(sys->region_.get(), part->offset,
                                 part->size, options.volume);
    if (!volume.ok()) {
      return volume.status();
    }
    sys->volume_ = std::move(*volume);
  } else {
    auto manager = ScmManager::Mount(sys->region_.get());
    if (!manager.ok()) {
      return manager.status();
    }
    sys->manager_ = std::move(*manager);
    auto parts = sys->manager_->ListPartitions();
    if (parts.empty()) {
      return Status(ErrorCode::kCorrupted, "no partitions to mount");
    }
    sys->partition_offset_ = parts[0].offset;
    auto volume = Volume::Open(sys->region_.get(), parts[0].offset,
                               /*writable=*/true);
    if (!volume.ok()) {
      return volume.status();
    }
    sys->volume_ = std::move(*volume);
  }

  sys->tfs_ = std::make_unique<TrustedFsService>(
      sys->volume_.get(), sys->locks_.get(), sys->manager_.get());
  if (options.fresh) {
    AERIE_RETURN_IF_ERROR(sys->tfs_->Bootstrap());
  } else {
    AERIE_RETURN_IF_ERROR(sys->tfs_->Recover());
  }

  sys->locks_->RegisterRpc(&sys->dispatcher_);
  sys->tfs_->RegisterRpc(&sys->dispatcher_);

  if (!options.uds_path.empty()) {
    auto server = UdsServer::Start(options.uds_path, &sys->dispatcher_);
    if (!server.ok()) {
      return server.status();
    }
    sys->uds_server_ = std::move(*server);
  }
  return sys;
}

AerieSystem::~AerieSystem() {
  if (uds_server_) {
    uds_server_->Shutdown();
  }
}

Result<std::unique_ptr<AerieSystem::Client>> AerieSystem::FinishClient(
    std::unique_ptr<Transport> transport, const LibFs::Options& options) {
  auto client = std::unique_ptr<Client>(new Client());
  client->system_ = this;
  client->transport_ = std::move(transport);
  auto fs = LibFs::Mount(client->transport_.get(), region_.get(),
                         partition_offset_, options);
  if (!fs.ok()) {
    return fs.status();
  }
  client->fs_ = std::move(*fs);
  // In-address-space sink registration (revocation upcalls, see DESIGN.md).
  locks_->RegisterClient(client->id(), client->fs_->clerk());
  return client;
}

Result<std::unique_ptr<AerieSystem::Client>> AerieSystem::NewClient(
    const LibFs::Options& options) {
  auto transport = std::make_unique<InprocTransport>(
      &dispatcher_, next_inproc_client_.fetch_add(1), options_.rpc_delay_ns);
  return FinishClient(std::move(transport), options);
}

Result<std::unique_ptr<AerieSystem::Client>> AerieSystem::NewUdsClient(
    const LibFs::Options& options) {
  if (!uds_server_) {
    return Status(ErrorCode::kUnavailable, "no UDS server configured");
  }
  auto transport = UdsTransport::Connect(uds_server_->path());
  if (!transport.ok()) {
    return transport.status();
  }
  return FinishClient(std::move(*transport), options);
}

AerieSystem::Client::~Client() {
  if (system_ == nullptr) {
    return;
  }
  // Ship any tail batch while the session is still valid, then tear down.
  if (fs_) {
    (void)fs_->SyncAndReleaseLocks();
  }
  (void)system_->tfs()->ClientDisconnected(id());
  system_->lock_service()->UnregisterClient(id());
  fs_.reset();  // clerk (sink) destroyed after unregistration
}

}  // namespace aerie
