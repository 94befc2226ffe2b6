// File-system integrity checker ("fsck" for an Aerie volume).
//
// Walks every namespace reachable from the volume's system collection — the
// PXFS tree, the FlatFS namespace, the orphan table, the pool map — and
// validates structure the way the TFS's validator reasons about invariants
// (paper §5.3.5): object types match their use, on-SCM structures pass
// their own validation, directory trees are acyclic, mFile link counts
// equal the number of namespace references, and every reachable object
// occupies storage the allocator actually considers allocated. Every page a
// reachable file owns (data pages, indirect blocks, header) is owned by that
// file alone and is not marked in the pool map.
//
// Crash tests run it after recovery; the `aerie_fsck` usage in tests is the
// executable spec for "metadata integrity".
#ifndef AERIE_SRC_TFS_FSCK_H_
#define AERIE_SRC_TFS_FSCK_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/osd/volume.h"

namespace aerie {

struct FsckReport {
  uint64_t directories = 0;
  uint64_t files = 0;        // PXFS mFiles (once per object, not per link)
  uint64_t flat_files = 0;   // FlatFS single-extent mFiles
  uint64_t orphans = 0;      // unlinked-but-open files awaiting reclaim
  uint64_t pool_objects = 0; // pre-allocated, not yet linked
  uint64_t errors = 0;
  std::vector<std::string> messages;  // first N problems, human-readable

  bool ok() const { return errors == 0; }
  std::string Summary() const;
};

// Read-only check over an opened volume (writable or read-only view).
Result<FsckReport> RunFsck(Volume* volume);

}  // namespace aerie

#endif  // AERIE_SRC_TFS_FSCK_H_
