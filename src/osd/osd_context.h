// Shared context handed to storage-object code (collections, mFiles).
//
// Clients get a read-mostly context (alloc == nullptr): they can read any
// object directly from SCM but cannot allocate metadata storage. The TFS
// gets the full context. Object code checks `alloc` before any mutation that
// needs fresh storage, which keeps the client/server capability split honest
// at the type level.
#ifndef AERIE_SRC_OSD_OSD_CONTEXT_H_
#define AERIE_SRC_OSD_OSD_CONTEXT_H_

#include <atomic>
#include <cstdint>

#include "src/osd/buddy.h"
#include "src/scm/pmem.h"

namespace aerie {

struct OsdContext {
  ScmRegion* region = nullptr;
  BuddyAllocator* alloc = nullptr;  // null in untrusted read-side clients

  bool can_allocate() const { return alloc != nullptr; }
};

// Clients read storage objects while the TFS applies their batches, so words
// the TFS publishes (PersistU64, or StorePublished before a flush) are
// loaded with acquire: the bytes it staged before a publish are then
// visible.
inline uint64_t LoadPublished(const void* word) {
  return static_cast<const std::atomic<uint64_t>*>(word)->load(
      std::memory_order_acquire);
}

inline void StorePublished(void* word, uint64_t value) {
  static_cast<std::atomic<uint64_t>*>(word)->store(value,
                                                   std::memory_order_release);
}

}  // namespace aerie

#endif  // AERIE_SRC_OSD_OSD_CONTEXT_H_
