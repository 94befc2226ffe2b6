// RAM-disk block device (paper §7.1).
//
// The paper mounts ext3/ext4 on Linux's brd RAM disk, modified to perform
// block writes with streaming stores and flush them with blflush — i.e. the
// same persistence cost model as SCM, at block granularity. This device does
// exactly that: writes are memcpy plus a per-cache-line latency charge, and
// the same write_ns knob the SCM region uses drives Figure 6's sensitivity
// sweep for the kernel file systems.
#ifndef AERIE_SRC_KERNELSIM_BLOCKDEV_H_
#define AERIE_SRC_KERNELSIM_BLOCKDEV_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/scm/pmem.h"

namespace aerie {

inline constexpr uint64_t kBlockSize = 4096;
inline constexpr uint64_t kLinesPerBlock = kBlockSize / 64;

class RamDisk {
 public:
  // The blocks live in present memory (MapPresentMemory), like the SCM
  // region the kernel file systems are compared against.
  static Result<std::unique_ptr<RamDisk>> Create(uint64_t block_count);
  ~RamDisk();

  RamDisk(const RamDisk&) = delete;
  RamDisk& operator=(const RamDisk&) = delete;

  uint64_t block_count() const { return block_count_; }

  // Direct pointer to a block's bytes (reads are plain memory loads, as on
  // a RAM disk whose pages live in the page cache).
  char* BlockPtr(uint64_t block) { return data_ + block * kBlockSize; }
  const char* BlockPtr(uint64_t block) const {
    return data_ + block * kBlockSize;
  }

  // Writes `data` (<= kBlockSize at `offset_in_block`) with streaming stores
  // and flushes it: charged write_ns per dirtied cache line.
  Status Write(uint64_t block, uint64_t offset_in_block,
               std::span<const char> data);
  // Flush-only (blflush of an already written block).
  void FlushBlock(uint64_t block);

  void set_write_ns(uint64_t ns) {
    write_ns_.store(ns, std::memory_order_relaxed);
  }
  uint64_t write_ns() const {
    return write_ns_.load(std::memory_order_relaxed);
  }

  uint64_t blocks_written() const { return blocks_written_.load(); }
  uint64_t lines_flushed() const { return lines_flushed_.load(); }

 private:
  RamDisk(char* data, uint64_t block_count)
      : data_(data), block_count_(block_count) {}

  void Charge(uint64_t lines) {
    lines_flushed_.fetch_add(lines, std::memory_order_relaxed);
    const uint64_t ns = write_ns();
    if (ns != 0) {
      SpinDelayNanos(ns * lines);
    }
  }

  char* data_;
  uint64_t block_count_;
  std::atomic<uint64_t> write_ns_{0};
  std::atomic<uint64_t> blocks_written_{0};
  std::atomic<uint64_t> lines_flushed_{0};
};

}  // namespace aerie

#endif  // AERIE_SRC_KERNELSIM_BLOCKDEV_H_
