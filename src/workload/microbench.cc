#include "src/workload/microbench.h"

#include <algorithm>

#include "src/common/clock.h"

namespace aerie {

namespace {

constexpr char kBigFile[] = "/bigfile";

// Builds (or reuses) the large file the read/write benchmarks target.
Status EnsureBigFile(FsInterface* fs, const std::string& dir,
                     uint64_t bytes, uint64_t io_size) {
  const std::string path = dir + kBigFile;
  auto size = fs->StatSize(path);
  if (size.ok() && *size >= bytes) {
    return OkStatus();
  }
  AERIE_ASSIGN_OR_RETURN(
      int fd, fs->Open(path, kOpenCreate | kOpenWrite | kOpenTrunc));
  std::string buf(io_size, 'b');
  for (uint64_t off = 0; off < bytes; off += io_size) {
    AERIE_RETURN_IF_ERROR(
        fs->Write(fd, std::span<const char>(buf.data(), buf.size()))
            .status());
  }
  AERIE_RETURN_IF_ERROR(fs->Close(fd));
  return fs->Sync();
}

template <typename Fn>
Status TimedInto(Histogram* hist, Fn&& fn) {
  const uint64_t start = NowNanos();
  Status st = fn();
  hist->Record(NowNanos() - start);
  return st;
}

}  // namespace

MicrobenchConfig MicrobenchConfig::Scaled(double scale) {
  MicrobenchConfig c;
  c.file_bytes = std::max<uint64_t>(
      static_cast<uint64_t>(static_cast<double>(c.file_bytes) * scale),
      4 << 20);
  c.random_bytes = std::min(
      c.file_bytes,
      std::max<uint64_t>(
          static_cast<uint64_t>(static_cast<double>(c.random_bytes) * scale),
          1 << 20));
  // Open/create/delete/append rows report a p50 per run, so they keep at
  // least 1,024 ops at any scale: fewer cannot resolve sub-microsecond
  // changes.
  c.nfiles = std::max<uint64_t>(
      static_cast<uint64_t>(static_cast<double>(c.nfiles) * scale), 1024);
  c.append_count = std::max<uint64_t>(
      static_cast<uint64_t>(static_cast<double>(c.append_count) * scale),
      1024);
  return c;
}

Result<Histogram> BenchSeqRead(FsInterface* fs, const std::string& dir,
                               const MicrobenchConfig& config) {
  AERIE_RETURN_IF_ERROR(
      EnsureBigFile(fs, dir, config.file_bytes, config.io_size));
  AERIE_ASSIGN_OR_RETURN(int fd, fs->Open(dir + kBigFile, kOpenRead));
  Histogram hist;
  std::string buf(config.io_size, '\0');
  for (uint64_t off = 0; off < config.file_bytes; off += config.io_size) {
    AERIE_RETURN_IF_ERROR(TimedInto(&hist, [&] {
      return fs->Read(fd, std::span<char>(buf.data(), buf.size())).status();
    }));
  }
  AERIE_RETURN_IF_ERROR(fs->Close(fd));
  return hist;
}

Result<Histogram> BenchSeqWrite(FsInterface* fs, const std::string& dir,
                                const MicrobenchConfig& config) {
  AERIE_RETURN_IF_ERROR(
      EnsureBigFile(fs, dir, config.file_bytes, config.io_size));
  AERIE_ASSIGN_OR_RETURN(int fd, fs->Open(dir + kBigFile, kOpenWrite));
  Histogram hist;
  std::string buf(config.io_size, 's');
  for (uint64_t off = 0; off < config.file_bytes; off += config.io_size) {
    AERIE_RETURN_IF_ERROR(TimedInto(&hist, [&] {
      return fs->Write(fd, std::span<const char>(buf.data(), buf.size()))
          .status();
    }));
  }
  AERIE_RETURN_IF_ERROR(fs->Close(fd));
  return hist;
}

Result<Histogram> BenchRandRead(FsInterface* fs, const std::string& dir,
                                const MicrobenchConfig& config,
                                uint64_t seed) {
  AERIE_RETURN_IF_ERROR(
      EnsureBigFile(fs, dir, config.file_bytes, config.io_size));
  AERIE_ASSIGN_OR_RETURN(int fd, fs->Open(dir + kBigFile, kOpenRead));
  Histogram hist;
  Rng rng(seed);
  std::string buf(config.io_size, '\0');
  const uint64_t blocks = config.file_bytes / config.io_size;
  const uint64_t accesses = config.random_bytes / config.io_size;
  for (uint64_t i = 0; i < accesses; ++i) {
    const uint64_t off = rng.Uniform(blocks) * config.io_size;
    AERIE_RETURN_IF_ERROR(TimedInto(&hist, [&] {
      return fs->Pread(fd, off, std::span<char>(buf.data(), buf.size()))
          .status();
    }));
  }
  AERIE_RETURN_IF_ERROR(fs->Close(fd));
  return hist;
}

Result<Histogram> BenchRandWrite(FsInterface* fs, const std::string& dir,
                                 const MicrobenchConfig& config,
                                 uint64_t seed) {
  AERIE_RETURN_IF_ERROR(
      EnsureBigFile(fs, dir, config.file_bytes, config.io_size));
  AERIE_ASSIGN_OR_RETURN(int fd, fs->Open(dir + kBigFile, kOpenWrite));
  Histogram hist;
  Rng rng(seed);
  std::string buf(config.io_size, 'r');
  const uint64_t blocks = config.file_bytes / config.io_size;
  const uint64_t accesses = config.random_bytes / config.io_size;
  for (uint64_t i = 0; i < accesses; ++i) {
    const uint64_t off = rng.Uniform(blocks) * config.io_size;
    AERIE_RETURN_IF_ERROR(TimedInto(&hist, [&] {
      return fs
          ->Pwrite(fd, off, std::span<const char>(buf.data(), buf.size()))
          .status();
    }));
  }
  AERIE_RETURN_IF_ERROR(fs->Close(fd));
  return hist;
}

Result<Histogram> BenchOpen(FsInterface* fs, const std::string& dir,
                            const MicrobenchConfig& config) {
  // Population of small files to open.
  std::string buf(config.small_file_bytes, 'o');
  for (uint64_t i = 0; i < config.nfiles; ++i) {
    const std::string path = dir + "/open" + std::to_string(i);
    if (!fs->StatSize(path).ok()) {
      AERIE_ASSIGN_OR_RETURN(int fd,
                             fs->Open(path, kOpenCreate | kOpenWrite));
      AERIE_RETURN_IF_ERROR(
          fs->Write(fd, std::span<const char>(buf.data(), buf.size()))
              .status());
      AERIE_RETURN_IF_ERROR(fs->Close(fd));
    }
  }
  AERIE_RETURN_IF_ERROR(fs->Sync());

  Histogram hist;
  for (uint64_t i = 0; i < config.nfiles; ++i) {
    const std::string path = dir + "/open" + std::to_string(i);
    AERIE_RETURN_IF_ERROR(TimedInto(&hist, [&] {
      auto fd = fs->Open(path, kOpenRead);
      if (!fd.ok()) {
        return fd.status();
      }
      return fs->Close(*fd);
    }));
  }
  return hist;
}

Result<Histogram> BenchCreate(FsInterface* fs, const std::string& dir,
                              const MicrobenchConfig& config) {
  Histogram hist;
  std::string buf(config.small_file_bytes, 'c');
  for (uint64_t i = 0; i < config.nfiles; ++i) {
    const std::string path = dir + "/create" + std::to_string(i);
    AERIE_RETURN_IF_ERROR(TimedInto(&hist, [&] {
      auto fd = fs->Open(path, kOpenCreate | kOpenWrite);
      if (!fd.ok()) {
        return fd.status();
      }
      Status st =
          fs->Write(*fd, std::span<const char>(buf.data(), buf.size()))
              .status();
      Status cst = fs->Close(*fd);
      return st.ok() ? cst : st;
    }));
  }
  return hist;
}

Result<Histogram> BenchDelete(FsInterface* fs, const std::string& dir,
                              const MicrobenchConfig& config) {
  Histogram hist;
  for (uint64_t i = 0; i < config.nfiles; ++i) {
    const std::string path = dir + "/create" + std::to_string(i);
    AERIE_RETURN_IF_ERROR(
        TimedInto(&hist, [&] { return fs->Unlink(path); }));
  }
  return hist;
}

Result<Histogram> BenchAppend(FsInterface* fs, const std::string& dir,
                              const MicrobenchConfig& config) {
  const std::string path = dir + "/appendfile";
  AERIE_RETURN_IF_ERROR(fs->Create(path));
  AERIE_ASSIGN_OR_RETURN(int fd, fs->Open(path, kOpenWrite | kOpenAppend));
  Histogram hist;
  std::string buf(config.io_size, 'a');
  for (uint64_t i = 0; i < config.append_count; ++i) {
    AERIE_RETURN_IF_ERROR(TimedInto(&hist, [&] {
      return fs->Write(fd, std::span<const char>(buf.data(), buf.size()))
          .status();
    }));
  }
  AERIE_RETURN_IF_ERROR(fs->Close(fd));
  return hist;
}

}  // namespace aerie
