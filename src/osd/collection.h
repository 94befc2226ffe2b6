// Collection object: associative key -> OID store (paper §5.3.1, Figure 3).
//
// The building block for naming structures (PXFS directories, FlatFS's flat
// namespace). Implemented as a hash table packed into extents:
//
//   head extent              bucket table block          bucket extents (4KB)
//   +------------+   swing   +------------------+        +----------------+
//   | magic      |  ------>  | nbuckets         |  --->  | bucket0 (512B) |
//   | table_ptr ~~~~~~~~~~~> | extent_ptr[0..n] |  --->  | bucket1        |
//   | counts     |           +------------------+        |  ...           |
//   +------------+                                       +----------------+
//
// Crash consistency uses shadow updates throughout:
//   * insert: entry bytes are written past the bucket's committed watermark,
//     flushed, then published by one atomic 64-bit store of the watermark;
//   * erase: the entry's header word is rewritten with the tombstone flag set
//     (one atomic 64-bit store);
//   * grow/compact: a fully-populated new table (new extents) is linked in by
//     one atomic 64-bit store to table_ptr; old extents are freed after.
//
// When tombstones exceed a threshold, live pairs are rehashed into a new
// table (paper's compaction). The untrusted library reads collections
// directly without any service call; only the TFS mutates them.
#ifndef AERIE_SRC_OSD_COLLECTION_H_
#define AERIE_SRC_OSD_COLLECTION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/osd/oid.h"
#include "src/osd/osd_context.h"

namespace aerie {

class Collection {
 public:
  static constexpr size_t kMaxKeyLen = 255;

  // Allocates and initializes a new collection (TFS side).
  static Result<Collection> Create(const OsdContext& ctx, uint32_t acl);
  // Opens an existing collection; validates type and magic.
  static Result<Collection> Open(const OsdContext& ctx, Oid oid);

  Oid oid() const { return oid_; }
  uint32_t acl() const;
  void SetAcl(uint32_t acl);

  // Containing directory, maintained by the TFS so rename validation can
  // detect namespace cycles (paper §5.3.5: "rename operations do not cause
  // cycles in the namespace").
  Oid parent_oid() const;
  void SetParentOid(Oid parent);

  // Collection-membership count (paper §5.3.4); maintained by the TFS.
  uint64_t link_count() const;
  void SetLinkCount(uint64_t n);

  // --- Mutations (TFS only; caller holds the collection's write lock) ---
  Status Insert(std::string_view key, uint64_t value);
  Status Erase(std::string_view key);
  // Insert-or-overwrite.
  Status Put(std::string_view key, uint64_t value);

  // --- Reads (safe from untrusted clients holding a read lock) ---
  Result<uint64_t> Lookup(std::string_view key) const;
  // Visits every live pair. Return false from the visitor to stop early.
  Status Scan(
      const std::function<bool(std::string_view, uint64_t)>& visit) const;

  // Live entries / tombstones (persistent hints maintained by mutations).
  uint64_t size() const;
  uint64_t tombstones() const;
  uint64_t nbuckets() const;

  // True when the next insert/erase is likely to trigger a grow or
  // compaction rehash. FlatFS uses this to decide between a per-bucket lock
  // and the whole-collection write lock (paper §6.2: "the rehash operation
  // acquires the single lock covering the whole collection in write mode").
  bool GrowthImminent() const;

  // --- FlatFS fine-grained locking support (paper §6.2) ---
  // The bucket extent a key hashes into; its OID is the lock that covers all
  // pairs stored in that extent.
  Result<Oid> BucketExtentForKey(std::string_view key) const;
  std::vector<Oid> BucketExtents() const;

  // Frees the whole collection (table + bucket extents + head).
  Status Destroy();

  // Validation pass for recovery tests: walks all buckets checking bounds.
  Status Validate() const;

 private:
  Collection(const OsdContext& ctx, Oid oid) : ctx_(ctx), oid_(oid) {}

  struct EntryRef {
    uint64_t extent_offset;  // bucket extent
    uint32_t bucket_in_extent;
    uint32_t entry_offset;  // into bucket data
  };

  Result<EntryRef> FindLive(std::string_view key) const;
  // Inserts into the key's bucket, recycling a tombstoned slot of the same
  // key length when one exists (erase+insert churn on a hot key then stays
  // in place instead of growing the bucket). Sets *reused_tombstone.
  Status InsertIntoBucket(std::string_view key, uint64_t value,
                          bool* reused_tombstone);
  // Rehashes live pairs into a table of `new_nbuckets`, atomically swings.
  Status Rehash(uint64_t new_nbuckets);
  void BumpCounts(int64_t live_delta, int64_t tomb_delta);

  OsdContext ctx_;
  Oid oid_;
};

}  // namespace aerie

#endif  // AERIE_SRC_OSD_COLLECTION_H_
