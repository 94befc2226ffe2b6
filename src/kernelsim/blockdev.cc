#include "src/kernelsim/blockdev.h"

#include <sys/mman.h>

namespace aerie {

Result<std::unique_ptr<RamDisk>> RamDisk::Create(uint64_t block_count) {
  if (block_count == 0) {
    return Status(ErrorCode::kInvalidArgument, "empty disk");
  }
  AERIE_ASSIGN_OR_RETURN(char* data,
                         MapPresentMemory(block_count * kBlockSize));
  return std::unique_ptr<RamDisk>(new RamDisk(data, block_count));
}

RamDisk::~RamDisk() { ::munmap(data_, block_count_ * kBlockSize); }

Status RamDisk::Write(uint64_t block, uint64_t offset_in_block,
                      std::span<const char> data) {
  if (block >= block_count_ ||
      offset_in_block + data.size() > kBlockSize) {
    return Status(ErrorCode::kIoError, "write beyond device");
  }
  std::memcpy(BlockPtr(block) + offset_in_block, data.data(), data.size());
  blocks_written_.fetch_add(1, std::memory_order_relaxed);
  Charge((data.size() + 63) / 64);
  return OkStatus();
}

void RamDisk::FlushBlock(uint64_t block) {
  (void)block;
  Charge(kLinesPerBlock);
}

}  // namespace aerie
