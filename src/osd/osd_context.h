// Shared context handed to storage-object code (collections, mFiles).
//
// Clients get a read-mostly context (alloc == nullptr): they can read any
// object directly from SCM but cannot allocate metadata storage. The TFS
// gets the full context. Object code checks `alloc` before any mutation that
// needs fresh storage, which keeps the client/server capability split honest
// at the type level.
#ifndef AERIE_SRC_OSD_OSD_CONTEXT_H_
#define AERIE_SRC_OSD_OSD_CONTEXT_H_

#include "src/osd/buddy.h"
#include "src/scm/pmem.h"

namespace aerie {

struct OsdContext {
  ScmRegion* region = nullptr;
  BuddyAllocator* alloc = nullptr;  // null in untrusted read-side clients

  bool can_allocate() const { return alloc != nullptr; }
};

}  // namespace aerie

#endif  // AERIE_SRC_OSD_OSD_CONTEXT_H_
