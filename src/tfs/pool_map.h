// Pool map (paper §5.3.7): the TFS's persistent record of the pre-allocated
// objects it has handed to clients, so that it can reclaim the ones a failed
// client never linked. One byte per data page of the volume holds the
// ObjType of the pooled object whose head is that page, or kNone.
// Fills mark and batches retire with plain byte stores, then flush each
// touched line once and fence (Persist); distinct bytes never tear each
// other. Layout: a 64-byte header {data_start, pages}, then the entries, in
// one buddy block allocated at Bootstrap and named "pool_map" in the system
// collection.
#ifndef AERIE_SRC_TFS_POOL_MAP_H_
#define AERIE_SRC_TFS_POOL_MAP_H_

#include <cstdint>
#include <functional>
#include <span>

#include "src/common/status.h"
#include "src/osd/oid.h"
#include "src/osd/osd_context.h"

namespace aerie {

class PoolMap {
 public:
  PoolMap() = default;

  // Allocates and persists an all-clear map covering the allocator's pages.
  static Result<PoolMap> Create(const OsdContext& ctx);
  static Result<PoolMap> Open(const OsdContext& ctx, Oid oid);

  Oid oid() const { return oid_; }

  // Plain store: marks `oid`'s head page with its type, or clears it. Returns
  // whether the entry changed; false too when `oid` is outside the map.
  bool Set(Oid oid, bool marked);
  // Flushes the lines holding `oids`' entries, each once, then fences.
  void Persist(std::span<const Oid> oids, int flush_site) const;
  // Visits every marked object in page order.
  void ForEach(const std::function<void(Oid)>& visit) const;

 private:
  // Entry index of `oid`'s head page, or -1 when it heads no mapped page.
  int64_t IndexOf(Oid oid) const;

  OsdContext ctx_;
  Oid oid_;
  uint64_t data_start_ = 0;
  uint64_t pages_ = 0;
  uint8_t* entries_ = nullptr;
};

}  // namespace aerie

#endif  // AERIE_SRC_TFS_POOL_MAP_H_
