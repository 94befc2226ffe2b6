#include "perfbench/src/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <type_traits>

#include "src/common/clock.h"
#include "src/common/hash.h"
#include "src/common/open_flags.h"

namespace perfbench {

using aerie::ErrorCode;
using aerie::OkStatus;
using aerie::Result;
using aerie::Status;

namespace {

// A client that has failed this often stops issuing calls for the rest of
// the run; the failures stay in its counts.
constexpr uint64_t kMaxFailures = 1000;
constexpr auto kFailureBackoff = std::chrono::milliseconds(1);

// Keeps the last eight bytes seen across consecutive read chunks.
void RollTail(uint64_t* tail, const char* data, uint64_t n) {
  if (n >= sizeof(uint64_t)) {
    std::memcpy(tail, data + n - sizeof(uint64_t), sizeof(uint64_t));
    return;
  }
  char window[sizeof(uint64_t)];
  std::memcpy(window, tail, sizeof(window));
  std::memmove(window, window + n, sizeof(window) - n);
  std::memcpy(window + sizeof(window) - n, data, n);
  std::memcpy(tail, window, sizeof(window));
}

uint64_t ReadU64(const char* data) {
  uint64_t v = 0;
  std::memcpy(&v, data, sizeof(v));
  return v;
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kOpen:
      return "open";
    case OpKind::kCreate:
      return "create";
    case OpKind::kRead:
      return "read";
    case OpKind::kWrite:
      return "write";
    case OpKind::kClose:
      return "close";
    case OpKind::kUnlink:
      return "unlink";
    case OpKind::kStat:
      return "stat";
    case OpKind::kPut:
      return "put";
    case OpKind::kGet:
      return "get";
    case OpKind::kErase:
      return "erase";
  }
  return "?";
}

bool SpecFor(const std::string& name, bool tiny, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  // Client pools pre-allocate up to 1000 objects per type (FlatFS values at
  // full capacity), so even tiny filesets need room beyond their own data.
  s.region_bytes = 512ull << 20;
  if (name == "webserver") {
    s.mix = Mix::kWebserver;
    s.nfiles = tiny ? 200 : 10000;
    s.dir_width = 20;
    s.mean_size = 16 << 10;
    s.max_size = 64 << 10;
    s.log_cap = 1 << 20;
  } else if (name == "webproxy_pcm") {
    s.mix = Mix::kWebproxy;
    s.scm_write_ns = 1000;
    s.nfiles = tiny ? 100 : 1000;
    s.mean_size = 16 << 10;
    s.max_size = 64 << 10;
    s.log_cap = 1 << 20;
  } else if (name == "fileserver_1c" || name == "fileserver_2c") {
    // fileserver_2c (two clients in the disjoint trees /c0 and /c1) is not
    // in BENCHMARK.json: on this code it loses metadata in about half of
    // its runs (perfbench/README.md). It stays runnable to reproduce that.
    s.mix = Mix::kFileserver;
    s.clients = name == "fileserver_2c" ? 2 : 1;
    s.nfiles = tiny ? 50 : 500;
    s.dir_width = 20;
    s.mean_size = 128 << 10;
    s.max_size = 512 << 10;
  } else if (name == "flatfs_webproxy") {
    s.mix = Mix::kFlatWebproxy;
    s.nfiles = tiny ? 100 : 1000;
    s.mean_size = 16 << 10;  // every value is exactly this size
    s.flat_capacity = 64 << 10;
    s.log_cap = s.flat_capacity;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

// --- OpLog -----------------------------------------------------------------

void OpLog::Account(OpKind kind, uint64_t ns, const Status& status) {
  const Mode mode = mode_.load(std::memory_order_relaxed);
  if (!status.ok()) {
    NoteError(std::string(OpKindName(kind)) + ": " + status.ToString());
    if (mode != Mode::kSetup) {
      attempted_++;
      failed_++;
    }
    return;
  }
  if (mode == Mode::kSetup) {
    return;
  }
  attempted_++;
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (mode == Mode::kSample) {
    latency_[static_cast<size_t>(kind)].Record(ns);
  }
}

double LatencyCounts::PercentileUs(
    const std::vector<const LatencyCounts*>& parts, double p) {
  uint64_t total = 0;
  for (const LatencyCounts* part : parts) {
    total += part->total_;
  }
  if (total == 0) {
    return 0;
  }
  const auto rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p * static_cast<double>(total))));
  uint64_t seen = 0;
  for (uint64_t ns = 0; ns < kLinearNs; ++ns) {
    for (const LatencyCounts* part : parts) {
      seen += part->counts_[ns];
    }
    if (seen >= rank) {
      return static_cast<double>(ns) / 1000.0;
    }
  }
  std::vector<uint64_t> slow;
  for (const LatencyCounts* part : parts) {
    slow.insert(slow.end(), part->slow_.begin(), part->slow_.end());
  }
  const auto index = static_cast<ptrdiff_t>(rank - seen - 1);
  std::nth_element(slow.begin(), slow.begin() + index, slow.end());
  return static_cast<double>(slow[static_cast<size_t>(index)]) / 1000.0;
}

void OpLog::AddBytes(uint64_t read, uint64_t written) {
  read_bytes_.fetch_add(read, std::memory_order_relaxed);
  write_bytes_.fetch_add(written, std::memory_order_relaxed);
}

void OpLog::Mismatch(const std::string& what) {
  NoteError("integrity: " + what);
  mismatches_++;
}

void OpLog::NoteError(const std::string& what) {
  if (errors_.size() < kKeptErrors) {
    errors_.push_back(what);
  }
  last_error_ = what;
}

// --- WorkloadClient ----------------------------------------------------------

WorkloadClient::WorkloadClient(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), seed_(seed), rng_(seed) {
  const uint64_t names = 2 * spec_.nfiles;
  files_.resize(names);
  is_live_.assign(names, false);
  position_.resize(names);
  free_.reserve(names);
  live_.reserve(names);
  for (uint32_t name = 0; name < names; ++name) {
    position_[name] = static_cast<int32_t>(name);
    free_.push_back(name);
  }
  const uint64_t buffer = std::max(spec_.io_size, spec_.flat_capacity);
  write_buffer_.resize(buffer);
  for (char& c : write_buffer_) {
    c = static_cast<char>(rng_.Next());
  }
  read_buffer_.assign(buffer, '\0');
}

template <typename Fn>
auto WorkloadClient::Timed(OpKind kind, Fn&& fn) -> decltype(fn()) {
  const uint64_t start = aerie::NowNanos();
  auto result = fn();
  const uint64_t ns = aerie::NowNanos() - start;
  if constexpr (std::is_same_v<decltype(result), Status>) {
    log_.Account(kind, ns, result);
  } else {
    log_.Account(kind, ns, result.status());
  }
  return result;
}

void WorkloadClient::AfterFailure() {
  if (verifying_) {
    return;
  }
  if (log_.failed() + log_.mismatches() >= kMaxFailures) {
    gave_up_ = true;
  }
  std::this_thread::sleep_for(kFailureBackoff);
}

uint64_t WorkloadClient::SampleSize() {
  // FileBench draws gamma-distributed sizes around the mean; an exponential
  // clamped to [1 KB, max] keeps that spirit. The sizes are its quantiles,
  // dealt in a seed-shuffled order and reshuffled after each full deal, so
  // every seed sees the same size mix and only the order varies.
  if (next_size_ == sizes_.size()) {
    if (sizes_.empty()) {
      constexpr int kQuantiles = 1024;
      for (int i = 0; i < kQuantiles; ++i) {
        const double q = (i + 0.5) / kQuantiles;
        const double size =
            -static_cast<double>(spec_.mean_size) * std::log(1.0 - q);
        sizes_.push_back(std::clamp<uint64_t>(static_cast<uint64_t>(size),
                                              1024, spec_.max_size));
      }
    }
    for (size_t i = sizes_.size() - 1; i > 0; --i) {
      std::swap(sizes_[i], sizes_[rng_.Uniform(i + 1)]);
    }
    next_size_ = 0;
  }
  return sizes_[next_size_++];
}

uint64_t WorkloadClient::Stamp(uint64_t name, uint64_t generation,
                               uint64_t which) const {
  return aerie::Mix64(seed_ ^ (name << 24) ^ (generation << 2) ^ which) | 1;
}

std::span<const char> WorkloadClient::StampedBuffer(uint64_t len,
                                                    uint64_t head,
                                                    uint64_t tail) {
  char* data = write_buffer_.data();
  if (head != 0) {
    std::memcpy(data, &head, sizeof(head));
  }
  std::memcpy(data + len - sizeof(tail), &tail, sizeof(tail));
  return std::span<const char>(data, len);
}

bool WorkloadClient::CheckRead(const std::string& what, uint64_t got,
                               uint64_t want, uint64_t head,
                               uint64_t want_head, uint64_t tail,
                               uint64_t want_tail) {
  if (inject_bad_length_) {
    inject_bad_length_ = false;
    got -= 1;
  }
  if (got != want) {
    log_.Mismatch(what + ": read " + std::to_string(got) + " bytes, expected " +
                  std::to_string(want));
    return false;
  }
  if (head != want_head || tail != want_tail) {
    log_.Mismatch(what + ": content stamp differs");
    return false;
  }
  return true;
}

void WorkloadClient::MoveToLive(uint32_t name) {
  const int32_t pos = position_[name];
  const uint32_t last = free_.back();
  free_[static_cast<size_t>(pos)] = last;
  position_[last] = pos;
  free_.pop_back();
  position_[name] = static_cast<int32_t>(live_.size());
  live_.push_back(name);
  is_live_[name] = true;
}

void WorkloadClient::MoveToFree(uint32_t name) {
  const int32_t pos = position_[name];
  const uint32_t last = live_.back();
  live_[static_cast<size_t>(pos)] = last;
  position_[last] = pos;
  live_.pop_back();
  position_[name] = static_cast<int32_t>(free_.size());
  free_.push_back(name);
  is_live_[name] = false;
}

void WorkloadClient::Quarantine(uint32_t name) {
  const int32_t pos = position_[name];
  if (pos < 0) {
    return;
  }
  std::vector<uint32_t>& set = is_live_[name] ? live_ : free_;
  const uint32_t last = set.back();
  set[static_cast<size_t>(pos)] = last;
  position_[last] = pos;
  set.pop_back();
  position_[name] = -1;
  is_live_[name] = false;
}

namespace {

// --- PXFS mixes --------------------------------------------------------------

class PxfsClient final : public WorkloadClient {
 public:
  PxfsClient(const WorkloadSpec& spec, aerie::Pxfs* fs, std::string root,
             uint64_t seed)
      : WorkloadClient(spec, seed), fs_(fs), root_(std::move(root)) {}

  Status Prepare() override;
  void RunIteration() override;
  void Verify() override;

 private:
  bool CloseFd(int fd) {
    return Timed(OpKind::kClose, [&] { return fs_->Close(fd); }).ok();
  }

  bool CreateWhole(uint32_t name, uint64_t size);
  bool ReadWhole(uint32_t name);
  bool AppendTo(uint32_t name);
  bool AppendLog();
  bool UnlinkName(uint32_t name);
  bool StatName(uint32_t name);

  aerie::Pxfs* fs_;
  std::string root_;
  std::vector<std::string> paths_;
  std::string log_path_;
  uint64_t log_size_ = 0;
  bool log_known_ = true;
};

Status PxfsClient::Prepare() {
  AERIE_RETURN_IF_ERROR(fs_->Mkdir(root_));
  // FileBench lays a fileset out as a tree of mean width dir_width, so path
  // depth (and with it naming cost) grows with the fileset.
  std::vector<std::string> dirs = {root_};
  if (spec_.dir_width != 0) {
    const uint64_t leaves =
        std::max<uint64_t>(1, spec_.nfiles / spec_.dir_width);
    while (dirs.size() < leaves) {
      const uint64_t target =
          std::min<uint64_t>(dirs.size() * spec_.dir_width, leaves);
      std::vector<std::string> next;
      next.reserve(target);
      for (uint64_t i = 0; i < target; ++i) {
        next.push_back(dirs[i % dirs.size()] + "/d" + std::to_string(i));
        AERIE_RETURN_IF_ERROR(fs_->Mkdir(next.back()));
      }
      dirs = std::move(next);
    }
  }
  paths_.reserve(files_.size());
  for (size_t name = 0; name < files_.size(); ++name) {
    paths_.push_back(dirs[name % dirs.size()] + "/f" + std::to_string(name));
  }
  for (uint32_t name = 0; name < spec_.nfiles; ++name) {
    if (!CreateWhole(name, SampleSize())) {
      return Status(ErrorCode::kInternal, "fileset: " + log_.last_error());
    }
    MoveToLive(name);
  }
  if (spec_.log_cap != 0) {
    log_path_ = root_ + "/log";
    AERIE_RETURN_IF_ERROR(fs_->Create(log_path_));
  }
  return fs_->SyncAll();
}

bool PxfsClient::CreateWhole(uint32_t name, uint64_t size) {
  const std::string& path = paths_[name];
  auto fd = Timed(OpKind::kCreate, [&] {
    return fs_->Open(path, aerie::kOpenCreate | aerie::kOpenWrite |
                               aerie::kOpenTrunc);
  });
  if (!fd.ok()) {
    return Fail(name);
  }
  ++generation_;
  const uint64_t head = Stamp(name, generation_, 0);
  const uint64_t tail = Stamp(name, generation_, 1);
  for (uint64_t done = 0; done < size;) {
    const uint64_t chunk = std::min(size - done, spec_.io_size);
    const auto data = StampedBuffer(chunk, done == 0 ? head : 0, tail);
    auto n = Timed(OpKind::kWrite, [&] { return fs_->Write(*fd, data); });
    if (!n.ok() || *n != chunk) {
      if (n.ok()) {
        log_.Mismatch(path + ": short write");
      }
      CloseFd(*fd);
      return Fail(name);
    }
    log_.AddBytes(0, chunk);
    done += chunk;
  }
  if (!CloseFd(*fd)) {
    return Fail(name);
  }
  files_[name] = {size, head, tail};
  return true;
}

bool PxfsClient::ReadWhole(uint32_t name) {
  const std::string& path = paths_[name];
  auto fd = Timed(OpKind::kOpen,
                  [&] { return fs_->Open(path, aerie::kOpenRead); });
  if (!fd.ok()) {
    return Fail(name);
  }
  uint64_t got = 0;
  uint64_t head = 0;
  uint64_t tail = 0;
  for (;;) {
    const auto out = std::span<char>(read_buffer_.data(), spec_.io_size);
    auto n = Timed(OpKind::kRead, [&] { return fs_->Read(*fd, out); });
    if (!n.ok()) {
      CloseFd(*fd);
      return Fail(name);
    }
    if (got == 0 && *n >= sizeof(head)) {
      head = ReadU64(out.data());
    }
    RollTail(&tail, out.data(), *n);
    got += *n;
    log_.AddBytes(*n, 0);
    if (*n < spec_.io_size) {
      break;
    }
  }
  if (!CloseFd(*fd)) {
    return Fail(name);
  }
  const FileState& f = files_[name];
  if (!CheckRead(path, got, f.size, head, f.head, tail, f.tail)) {
    return Fail(name);
  }
  return true;
}

bool PxfsClient::AppendTo(uint32_t name) {
  const std::string& path = paths_[name];
  auto fd = Timed(OpKind::kOpen, [&] {
    return fs_->Open(path, aerie::kOpenWrite | aerie::kOpenAppend);
  });
  if (!fd.ok()) {
    return Fail(name);
  }
  ++generation_;
  const uint64_t tail = Stamp(name, generation_, 1);
  const auto data = StampedBuffer(spec_.append_size, 0, tail);
  auto n = Timed(OpKind::kWrite, [&] { return fs_->Write(*fd, data); });
  if (!n.ok() || *n != data.size()) {
    CloseFd(*fd);
    return Fail(name);
  }
  log_.AddBytes(0, data.size());
  if (!CloseFd(*fd)) {
    return Fail(name);
  }
  files_[name].size += data.size();
  files_[name].tail = tail;
  return true;
}

bool PxfsClient::AppendLog() {
  if (!log_known_) {
    return true;  // the log's state is unknown after a failure; leave it
  }
  // Bounded footprint: restart the log (O_TRUNC) instead of growing it.
  const bool restart = log_size_ + spec_.append_size > spec_.log_cap;
  const int flags = aerie::kOpenWrite | aerie::kOpenAppend |
                    (restart ? aerie::kOpenTrunc : 0);
  auto fd =
      Timed(OpKind::kOpen, [&] { return fs_->Open(log_path_, flags); });
  bool ok = fd.ok();
  if (ok) {
    const auto data =
        StampedBuffer(spec_.append_size, 0, Stamp(~0u, ++generation_, 1));
    auto n = Timed(OpKind::kWrite, [&] { return fs_->Write(*fd, data); });
    ok = n.ok() && *n == data.size();
    if (ok) {
      log_.AddBytes(0, data.size());
      log_size_ = (restart ? 0 : log_size_) + data.size();
    }
    ok = CloseFd(*fd) && ok;
  }
  if (!ok) {
    log_known_ = false;
    AfterFailure();
  }
  return ok;
}

bool PxfsClient::UnlinkName(uint32_t name) {
  if (!Timed(OpKind::kUnlink, [&] { return fs_->Unlink(paths_[name]); })
           .ok()) {
    return Fail(name);
  }
  return true;
}

bool PxfsClient::StatName(uint32_t name) {
  auto st = Timed(OpKind::kStat, [&] { return fs_->Stat(paths_[name]); });
  if (!st.ok()) {
    return Fail(name);
  }
  if (st->size != files_[name].size) {
    log_.Mismatch(paths_[name] + ": stat size " + std::to_string(st->size) +
                  ", expected " + std::to_string(files_[name].size));
    return Fail(name);
  }
  return true;
}

void PxfsClient::RunIteration() {
  if (live_.size() < 2 || free_.empty()) {
    gave_up_ = true;  // every name was dropped after failures
    return;
  }
  switch (spec_.mix) {
    case Mix::kWebserver:
      for (int i = 0; i < 10; ++i) {
        if (!ReadWhole(PickLive())) {
          return;
        }
      }
      AppendLog();
      return;
    case Mix::kWebproxy: {
      const uint32_t victim = PickLive();
      const uint32_t fresh = free_[rng_.Uniform(free_.size())];
      if (!UnlinkName(victim)) {
        return;
      }
      MoveToFree(victim);
      if (!CreateWhole(fresh, SampleSize())) {
        return;
      }
      MoveToLive(fresh);
      for (int i = 0; i < 5; ++i) {
        if (!ReadWhole(PickLive())) {
          return;
        }
      }
      AppendLog();
      return;
    }
    case Mix::kFileserver: {
      const uint32_t fresh = free_[rng_.Uniform(free_.size())];
      if (!CreateWhole(fresh, SampleSize())) {
        return;
      }
      MoveToLive(fresh);
      if (!AppendTo(PickLive()) || !ReadWhole(PickLive())) {
        return;
      }
      const uint32_t victim = PickLive();
      if (!UnlinkName(victim)) {
        return;
      }
      MoveToFree(victim);
      StatName(PickLive());
      return;
    }
    case Mix::kFlatWebproxy:
      break;
  }
}

void PxfsClient::Verify() {
  verifying_ = true;
  const Status synced = fs_->SyncAll();
  if (!synced.ok()) {
    log_.Mismatch("sync before verification: " + synced.ToString());
  }
  for (uint32_t name : std::vector<uint32_t>(live_)) {
    StatName(name);
  }
  for (uint32_t name : free_) {
    auto st = fs_->Stat(paths_[name]);
    log_.Account(OpKind::kStat, 0,
                 st.code() == ErrorCode::kNotFound ? OkStatus() : st.status());
    if (st.ok()) {
      log_.Mismatch(paths_[name] + ": present after unlink");
    }
  }
  if (spec_.log_cap != 0 && log_known_) {
    auto st = Timed(OpKind::kStat, [&] { return fs_->Stat(log_path_); });
    if (st.ok() && st->size != log_size_) {
      log_.Mismatch(log_path_ + ": stat size " + std::to_string(st->size) +
                    ", expected " + std::to_string(log_size_));
    }
  }
}

// --- FlatFS Webproxy ---------------------------------------------------------

class FlatClient final : public WorkloadClient {
 public:
  FlatClient(const WorkloadSpec& spec, aerie::FlatFs* fs, uint64_t seed)
      : WorkloadClient(spec, seed), fs_(fs) {}

  Status Prepare() override;
  void RunIteration() override;
  void Verify() override;

 private:
  static std::string KeyOf(uint32_t name) {
    return "k" + std::to_string(name);
  }
  bool PutName(uint32_t name);
  bool GetName(uint32_t name);
  bool LogGetModifyPut();

  aerie::FlatFs* fs_;
  const std::string log_key_ = "log";
  FileState log_state_;
  bool log_known_ = true;
};

Status FlatClient::Prepare() {
  for (uint32_t name = 0; name < spec_.nfiles; ++name) {
    if (!PutName(name)) {
      return Status(ErrorCode::kInternal, "fileset: " + log_.last_error());
    }
    MoveToLive(name);
  }
  // An empty value with a non-null pointer: FlatFs::Put hands it to
  // ScmRegion::StreamWrite, whose memcpy must not see a null source.
  AERIE_RETURN_IF_ERROR(
      fs_->Put(log_key_, std::span<const char>(write_buffer_.data(), 0)));
  return fs_->Sync();
}

bool FlatClient::PutName(uint32_t name) {
  ++generation_;
  const FileState value = {spec_.mean_size, Stamp(name, generation_, 0),
                           Stamp(name, generation_, 1)};
  const auto data = StampedBuffer(value.size, value.head, value.tail);
  if (!Timed(OpKind::kPut, [&] { return fs_->Put(KeyOf(name), data); })
           .ok()) {
    return Fail(name);
  }
  log_.AddBytes(0, value.size);
  files_[name] = value;
  return true;
}

bool FlatClient::GetName(uint32_t name) {
  const auto out =
      std::span<char>(read_buffer_.data(), spec_.flat_capacity);
  auto n = Timed(OpKind::kGet, [&] { return fs_->Get(KeyOf(name), out); });
  if (!n.ok()) {
    return Fail(name);
  }
  log_.AddBytes(*n, 0);
  const uint64_t head = *n >= sizeof(uint64_t) ? ReadU64(out.data()) : 0;
  uint64_t tail = 0;
  RollTail(&tail, out.data(), *n);
  const FileState& f = files_[name];
  if (!CheckRead(KeyOf(name), *n, f.size, head, f.head, tail, f.tail)) {
    return Fail(name);
  }
  return true;
}

bool FlatClient::LogGetModifyPut() {
  if (!log_known_) {
    return true;
  }
  // The paper's append translation: get the log, extend it, put it back.
  // Bounded footprint: it restarts at one append once it would pass the cap.
  const auto out =
      std::span<char>(read_buffer_.data(), spec_.flat_capacity);
  auto n = Timed(OpKind::kGet, [&] { return fs_->Get(log_key_, out); });
  bool ok = n.ok();
  if (ok) {
    log_.AddBytes(*n, 0);
    uint64_t tail = 0;
    RollTail(&tail, out.data(), *n);
    const uint64_t head = *n >= sizeof(uint64_t) ? ReadU64(out.data()) : 0;
    ok = CheckRead(log_key_, *n, log_state_.size, head, log_state_.head, tail,
                   log_state_.tail);
  }
  if (ok) {
    const uint64_t grown = log_state_.size + spec_.append_size;
    ++generation_;
    const FileState next = {
        grown > spec_.log_cap ? spec_.append_size : grown,
        Stamp(~0u, generation_, 0), Stamp(~0u, generation_, 1)};
    const auto data = StampedBuffer(next.size, next.head, next.tail);
    ok = Timed(OpKind::kPut, [&] { return fs_->Put(log_key_, data); }).ok();
    if (ok) {
      log_.AddBytes(0, next.size);
      log_state_ = next;
    }
  }
  if (!ok) {
    log_known_ = false;
    AfterFailure();
  }
  return ok;
}

void FlatClient::RunIteration() {
  if (live_.size() < 2 || free_.empty()) {
    gave_up_ = true;
    return;
  }
  const uint32_t victim = PickLive();
  const uint32_t fresh = free_[rng_.Uniform(free_.size())];
  if (!Timed(OpKind::kErase, [&] { return fs_->Erase(KeyOf(victim)); })
           .ok()) {
    Fail(victim);
    return;
  }
  MoveToFree(victim);
  if (!PutName(fresh)) {
    return;
  }
  MoveToLive(fresh);
  for (int i = 0; i < 5; ++i) {
    if (!GetName(PickLive())) {
      return;
    }
  }
  LogGetModifyPut();
}

void FlatClient::Verify() {
  verifying_ = true;
  const Status synced = fs_->Sync();
  if (!synced.ok()) {
    log_.Mismatch("sync before verification: " + synced.ToString());
  }
  for (uint32_t name : std::vector<uint32_t>(live_)) {
    GetName(name);
  }
  for (uint32_t name : free_) {
    auto exists = fs_->Exists(KeyOf(name));
    log_.Account(OpKind::kGet, 0, exists.status());
    if (exists.ok() && *exists) {
      log_.Mismatch(KeyOf(name) + ": present after erase");
    }
  }
  if (log_known_) {
    LogGetModifyPut();
  }
}

}  // namespace

std::unique_ptr<WorkloadClient> MakePxfsClient(const WorkloadSpec& spec,
                                               aerie::Pxfs* fs,
                                               std::string root,
                                               uint64_t seed) {
  return std::make_unique<PxfsClient>(spec, fs, std::move(root), seed);
}

std::unique_ptr<WorkloadClient> MakeFlatClient(const WorkloadSpec& spec,
                                               aerie::FlatFs* fs,
                                               uint64_t seed) {
  return std::make_unique<FlatClient>(spec, fs, seed);
}

}  // namespace perfbench
