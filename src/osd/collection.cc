#include "src/osd/collection.h"

#include <cstring>

#include "src/common/check.h"
#include "src/common/hash.h"

namespace aerie {

namespace {

constexpr uint64_t kCollectionMagic = 0x41455249450c0001ULL;

// Head extent (one 4KB page).
struct HeaderRep {
  uint64_t magic;
  uint64_t table_ptr;   // region offset of TableRep; atomic swing point
  uint64_t acl;
  uint64_t live_count;  // persistent hints (heuristics only)
  uint64_t tomb_count;
  uint64_t parent_oid;  // containing directory (rename cycle validation)
  uint64_t link_count;  // collection-membership count (paper §5.3.4)
};

// Bucket table block: nbuckets + extent pointer array.
struct TableRep {
  uint64_t nbuckets;       // power of two
  uint64_t extent_count;   // bucket extents
  uint64_t extent_ptr[];   // extent_count entries
};

constexpr uint64_t kBucketSize = 512;
constexpr uint64_t kBucketsPerExtent = kScmPageSize / kBucketSize;  // 8
constexpr uint64_t kInitialBuckets = 8;
constexpr double kMaxLoad = 8.0;        // avg entries per bucket before grow
constexpr double kTombCompactRatio = 0.25;

// Bucket layout: one commit word, then packed entries.
struct BucketRep {
  uint64_t committed;  // bytes of published entries in data[]
  char data[kBucketSize - sizeof(uint64_t)];
};
constexpr uint64_t kBucketDataBytes = kBucketSize - sizeof(uint64_t);

// Entry layout (8-byte aligned):
//   word0: key_len (low 32) | flags (high 32); flag bit 0 = tombstone
//   word1: value
//   key bytes, padded to 8.
constexpr uint64_t kTombstoneFlag = 1ULL << 32;

uint64_t EntryBytes(size_t key_len) {
  return 16 + ((key_len + 7) & ~7ULL);
}

uint32_t EntryKeyLen(uint64_t word0) {
  return static_cast<uint32_t>(word0 & 0xffffffffULL);
}
bool EntryIsTombstone(uint64_t word0) {
  return (word0 & kTombstoneFlag) != 0;
}

}  // namespace

// --- helpers bound to an open collection ---

namespace {

HeaderRep* HeaderAt(const OsdContext& ctx, Oid oid) {
  return reinterpret_cast<HeaderRep*>(ctx.region->PtrAt(oid.offset()));
}

TableRep* TableAt(const OsdContext& ctx, const HeaderRep* hdr) {
  return reinterpret_cast<TableRep*>(
      ctx.region->PtrAt(LoadPublished(&hdr->table_ptr)));
}

BucketRep* BucketAt(const OsdContext& ctx, const TableRep* table,
                    uint64_t bucket_index) {
  const uint64_t extent = bucket_index / kBucketsPerExtent;
  const uint64_t within = bucket_index % kBucketsPerExtent;
  return reinterpret_cast<BucketRep*>(
      ctx.region->PtrAt(table->extent_ptr[extent]) + within * kBucketSize);
}

uint64_t BucketIndexFor(const TableRep* table, std::string_view key) {
  return HashString(key) & (table->nbuckets - 1);
}

// Bytes needed for a TableRep with `nbuckets`.
uint64_t TableBytes(uint64_t nbuckets) {
  const uint64_t extents = nbuckets / kBucketsPerExtent;
  return sizeof(TableRep) + extents * sizeof(uint64_t);
}

// Allocates and zero-fills a table block plus its bucket extents. Returns
// the table's region offset. All writes flushed; not yet linked anywhere.
Result<uint64_t> BuildEmptyTable(const OsdContext& ctx, uint64_t nbuckets) {
  AERIE_CHECK(nbuckets % kBucketsPerExtent == 0);
  auto table_off = ctx.alloc->AllocBytes(TableBytes(nbuckets));
  if (!table_off.ok()) {
    return table_off.status();
  }
  auto* table = reinterpret_cast<TableRep*>(ctx.region->PtrAt(*table_off));
  table->nbuckets = nbuckets;
  table->extent_count = nbuckets / kBucketsPerExtent;
  for (uint64_t i = 0; i < table->extent_count; ++i) {
    auto ext = ctx.alloc->Alloc(0);  // one page
    if (!ext.ok()) {
      return ext.status();
    }
    std::memset(ctx.region->PtrAt(*ext), 0, kScmPageSize);
    ctx.region->WlFlush(ctx.region->PtrAt(*ext), kScmPageSize);
    table->extent_ptr[i] = *ext;
  }
  ctx.region->WlFlush(table, TableBytes(nbuckets));
  ctx.region->Fence();
  return *table_off;
}

void FreeTable(const OsdContext& ctx, uint64_t table_off) {
  auto* table = reinterpret_cast<TableRep*>(ctx.region->PtrAt(table_off));
  for (uint64_t i = 0; i < table->extent_count; ++i) {
    (void)ctx.alloc->Free(table->extent_ptr[i], 0);
  }
  (void)ctx.alloc->FreeBytes(table_off, TableBytes(table->nbuckets));
}

// Appends an entry to a bucket without the publish step; returns false if it
// does not fit. Used by rehash (bulk build) and by InsertIntoBucket.
bool AppendEntryRaw(const OsdContext& ctx, BucketRep* bucket,
                    std::string_view key, uint64_t value, bool publish) {
  const uint64_t need = EntryBytes(key.size());
  if (bucket->committed + need > kBucketDataBytes) {
    return false;
  }
  char* at = bucket->data + bucket->committed;
  const uint64_t word0 = key.size();
  std::memcpy(at, &word0, 8);
  std::memcpy(at + 8, &value, 8);
  std::memcpy(at + 16, key.data(), key.size());
  if (publish) {
    ctx.region->WlFlush(at, need);
    ctx.region->Fence();
    ctx.region->PersistU64(&bucket->committed, bucket->committed + need);
  } else {
    bucket->committed += need;
  }
  return true;
}

}  // namespace

Result<Collection> Collection::Create(const OsdContext& ctx, uint32_t acl) {
  AERIE_SPAN("osd", "coll_create");
  if (!ctx.can_allocate()) {
    return Status(ErrorCode::kPermissionDenied,
                  "collection creation requires the allocator");
  }
  auto head = ctx.alloc->Alloc(0);
  if (!head.ok()) {
    return head.status();
  }
  auto table = BuildEmptyTable(ctx, kInitialBuckets);
  if (!table.ok()) {
    return table.status();
  }
  auto* hdr = reinterpret_cast<HeaderRep*>(ctx.region->PtrAt(*head));
  std::memset(hdr, 0, sizeof(*hdr));
  hdr->table_ptr = *table;
  hdr->acl = acl;
  ctx.region->WlFlush(hdr, sizeof(*hdr));
  ctx.region->Fence();
  ctx.region->PersistU64(&hdr->magic, kCollectionMagic);
  return Collection(ctx, Oid::Make(ObjType::kCollection, *head));
}

Result<Collection> Collection::Open(const OsdContext& ctx, Oid oid) {
  if (oid.type() != ObjType::kCollection) {
    return Status(ErrorCode::kInvalidArgument, "oid is not a collection");
  }
  if (oid.offset() + sizeof(HeaderRep) > ctx.region->size()) {
    return Status(ErrorCode::kInvalidArgument, "oid out of range");
  }
  if (HeaderAt(ctx, oid)->magic != kCollectionMagic) {
    return Status(ErrorCode::kCorrupted, "bad collection magic");
  }
  return Collection(ctx, oid);
}

uint32_t Collection::acl() const {
  return static_cast<uint32_t>(HeaderAt(ctx_, oid_)->acl);
}

void Collection::SetAcl(uint32_t new_acl) {
  AERIE_SPAN("osd", "coll_set_acl");
  ctx_.region->PersistU64(&HeaderAt(ctx_, oid_)->acl, new_acl);
}

Oid Collection::parent_oid() const {
  return Oid(HeaderAt(ctx_, oid_)->parent_oid);
}

void Collection::SetParentOid(Oid parent) {
  AERIE_SPAN("osd", "coll_set_parent");
  ctx_.region->PersistU64(&HeaderAt(ctx_, oid_)->parent_oid, parent.raw());
}

uint64_t Collection::link_count() const {
  return HeaderAt(ctx_, oid_)->link_count;
}

void Collection::SetLinkCount(uint64_t n) {
  AERIE_SPAN("osd", "coll_set_links");
  ctx_.region->PersistU64(&HeaderAt(ctx_, oid_)->link_count, n);
}

uint64_t Collection::size() const {
  return LoadPublished(&HeaderAt(ctx_, oid_)->live_count);
}
uint64_t Collection::tombstones() const {
  return LoadPublished(&HeaderAt(ctx_, oid_)->tomb_count);
}
uint64_t Collection::nbuckets() const {
  return TableAt(ctx_, HeaderAt(ctx_, oid_))->nbuckets;
}

void Collection::BumpCounts(int64_t live_delta, int64_t tomb_delta) {
  HeaderRep* hdr = HeaderAt(ctx_, oid_);
  if (live_delta != 0) {
    ctx_.region->PersistU64(
        &hdr->live_count,
        hdr->live_count + static_cast<uint64_t>(live_delta));
  }
  if (tomb_delta != 0) {
    ctx_.region->PersistU64(
        &hdr->tomb_count,
        hdr->tomb_count + static_cast<uint64_t>(tomb_delta));
  }
}

Result<Collection::EntryRef> Collection::FindLive(std::string_view key) const {
  const HeaderRep* hdr = HeaderAt(ctx_, oid_);
  const TableRep* table = TableAt(ctx_, hdr);
  const uint64_t index = BucketIndexFor(table, key);
  const BucketRep* bucket = BucketAt(ctx_, table, index);

  uint64_t pos = 0;
  const uint64_t committed = LoadPublished(&bucket->committed);
  while (pos + 16 <= committed) {
    const uint64_t word0 = LoadPublished(bucket->data + pos);
    const uint32_t key_len = EntryKeyLen(word0);
    const uint64_t entry_size = EntryBytes(key_len);
    if (pos + entry_size > committed) {
      return Status(ErrorCode::kCorrupted, "entry exceeds committed bytes");
    }
    if (!EntryIsTombstone(word0) && key_len == key.size() &&
        std::memcmp(bucket->data + pos + 16, key.data(), key_len) == 0) {
      EntryRef ref;
      ref.extent_offset = table->extent_ptr[index / kBucketsPerExtent];
      ref.bucket_in_extent = static_cast<uint32_t>(index % kBucketsPerExtent);
      ref.entry_offset = static_cast<uint32_t>(pos);
      return ref;
    }
    pos += entry_size;
  }
  return Status(ErrorCode::kNotFound, "key not found");
}

Result<uint64_t> Collection::Lookup(std::string_view key) const {
  auto ref = FindLive(key);
  if (!ref.ok()) {
    return ref.status();
  }
  const auto* bucket = reinterpret_cast<const BucketRep*>(
      ctx_.region->PtrAt(ref->extent_offset) +
      ref->bucket_in_extent * kBucketSize);
  uint64_t value;
  std::memcpy(&value, bucket->data + ref->entry_offset + 8, 8);
  return value;
}

Status Collection::InsertIntoBucket(std::string_view key, uint64_t value,
                                    bool* reused_tombstone) {
  *reused_tombstone = false;
  HeaderRep* hdr = HeaderAt(ctx_, oid_);
  TableRep* table = TableAt(ctx_, hdr);
  BucketRep* bucket = BucketAt(ctx_, table, BucketIndexFor(table, key));

  // Recycle a tombstoned slot whose key length matches: the slot is dead to
  // readers until word0 is rewritten, so the value and key bytes can be
  // staged in place and published with one atomic store — the same commit
  // discipline as an append. This keeps erase+insert churn on a hot key
  // (e.g. a FlatFS log object rewritten per append) from ever filling the
  // bucket with tombstones.
  uint64_t pos = 0;
  const uint64_t committed = LoadPublished(&bucket->committed);
  while (pos + 16 <= committed) {
    const uint64_t word0 = LoadPublished(bucket->data + pos);
    const uint32_t key_len = EntryKeyLen(word0);
    const uint64_t entry_size = EntryBytes(key_len);
    if (pos + entry_size > committed) {
      return Status(ErrorCode::kCorrupted, "entry exceeds committed bytes");
    }
    if (EntryIsTombstone(word0) && key_len == key.size()) {
      char* at = bucket->data + pos;
      std::memcpy(at + 8, &value, 8);
      std::memcpy(at + 16, key.data(), key.size());
      ctx_.region->WlFlush(at + 8, entry_size - 8);
      ctx_.region->Fence();
      const uint64_t live_word0 = key.size();  // clears the tombstone flag
      ctx_.region->PersistU64(reinterpret_cast<uint64_t*>(at), live_word0);
      *reused_tombstone = true;
      return OkStatus();
    }
    pos += entry_size;
  }

  if (!AppendEntryRaw(ctx_, bucket, key, value, /*publish=*/true)) {
    return Status(ErrorCode::kOutOfSpace, "bucket full");
  }
  return OkStatus();
}

Status Collection::Insert(std::string_view key, uint64_t value) {
  AERIE_SPAN("osd", "coll_insert");
  if (key.empty() || key.size() > kMaxKeyLen) {
    return Status(ErrorCode::kInvalidArgument, "bad key length");
  }
  if (!ctx_.can_allocate()) {
    return Status(ErrorCode::kPermissionDenied,
                  "collection mutation requires the allocator");
  }
  if (FindLive(key).ok()) {
    return Status(ErrorCode::kAlreadyExists, "key exists");
  }

  HeaderRep* hdr = HeaderAt(ctx_, oid_);
  const TableRep* table = TableAt(ctx_, hdr);
  // Grow when average load is high.
  if (hdr->live_count + 1 >
      static_cast<uint64_t>(kMaxLoad * static_cast<double>(table->nbuckets))) {
    AERIE_RETURN_IF_ERROR(Rehash(table->nbuckets * 2));
  }

  bool reused = false;
  Status st = InsertIntoBucket(key, value, &reused);
  if (st.code() == ErrorCode::kOutOfSpace) {
    // Bucket overflow. Compact at the current size first — overflow is
    // usually tombstone buildup in one hot bucket, not table-wide load —
    // and only double when a compacted table still cannot take the entry.
    // (Rehash itself escalates the size if migration overflows.)
    for (int attempt = 0; attempt < 5 && st.code() == ErrorCode::kOutOfSpace;
         ++attempt) {
      const uint64_t nbuckets = TableAt(ctx_, HeaderAt(ctx_, oid_))->nbuckets;
      AERIE_RETURN_IF_ERROR(Rehash(attempt == 0 ? nbuckets : nbuckets * 2));
      st = InsertIntoBucket(key, value, &reused);
    }
  }
  AERIE_RETURN_IF_ERROR(st);
  BumpCounts(+1, reused ? -1 : 0);
  return OkStatus();
}

Status Collection::Erase(std::string_view key) {
  AERIE_SPAN("osd", "coll_erase");
  if (!ctx_.can_allocate()) {
    return Status(ErrorCode::kPermissionDenied,
                  "collection mutation requires the allocator");
  }
  auto ref = FindLive(key);
  if (!ref.ok()) {
    return ref.status();
  }
  auto* bucket = reinterpret_cast<BucketRep*>(
      ctx_.region->PtrAt(ref->extent_offset) +
      ref->bucket_in_extent * kBucketSize);
  uint64_t word0;
  std::memcpy(&word0, bucket->data + ref->entry_offset, 8);
  // Tombstone with one atomic 64-bit store (paper: "delete items by marking
  // them using a tombstone key").
  ctx_.region->PersistU64(
      reinterpret_cast<uint64_t*>(bucket->data + ref->entry_offset),
      word0 | kTombstoneFlag);
  BumpCounts(-1, +1);

  HeaderRep* hdr = HeaderAt(ctx_, oid_);
  const TableRep* table = TableAt(ctx_, hdr);
  const uint64_t capacity = table->nbuckets * (kBucketDataBytes / 32);
  if (hdr->tomb_count >
      static_cast<uint64_t>(kTombCompactRatio *
                            static_cast<double>(capacity))) {
    // Compact: rehash live pairs into a fresh table of the same size.
    AERIE_RETURN_IF_ERROR(Rehash(table->nbuckets));
  }
  return OkStatus();
}

Status Collection::Put(std::string_view key, uint64_t value) {
  Status st = Insert(key, value);
  if (st.code() == ErrorCode::kAlreadyExists) {
    AERIE_RETURN_IF_ERROR(Erase(key));
    return Insert(key, value);
  }
  return st;
}

Status Collection::Scan(
    const std::function<bool(std::string_view, uint64_t)>& visit) const {
  const HeaderRep* hdr = HeaderAt(ctx_, oid_);
  const TableRep* table = TableAt(ctx_, hdr);
  for (uint64_t b = 0; b < table->nbuckets; ++b) {
    const BucketRep* bucket = BucketAt(ctx_, table, b);
    uint64_t pos = 0;
    const uint64_t committed = LoadPublished(&bucket->committed);
    while (pos + 16 <= committed) {
      const uint64_t word0 = LoadPublished(bucket->data + pos);
      const uint32_t key_len = EntryKeyLen(word0);
      const uint64_t entry_size = EntryBytes(key_len);
      if (pos + entry_size > committed) {
        return Status(ErrorCode::kCorrupted, "entry exceeds committed bytes");
      }
      if (!EntryIsTombstone(word0)) {
        uint64_t value;
        std::memcpy(&value, bucket->data + pos + 8, 8);
        if (!visit(std::string_view(bucket->data + pos + 16, key_len),
                   value)) {
          return OkStatus();
        }
      }
      pos += entry_size;
    }
  }
  return OkStatus();
}

Status Collection::Rehash(uint64_t new_nbuckets) {
  if (!ctx_.can_allocate()) {
    return Status(ErrorCode::kPermissionDenied, "rehash requires allocator");
  }
  auto new_table_off = BuildEmptyTable(ctx_, new_nbuckets);
  if (!new_table_off.ok()) {
    return new_table_off.status();
  }
  auto* new_table =
      reinterpret_cast<TableRep*>(ctx_.region->PtrAt(*new_table_off));

  uint64_t live = 0;
  bool overflow = false;
  Status st = Scan([&](std::string_view key, uint64_t value) {
    BucketRep* bucket =
        BucketAt(ctx_, new_table, HashString(key) & (new_nbuckets - 1));
    if (!AppendEntryRaw(ctx_, bucket, key, value, /*publish=*/false)) {
      overflow = true;
      return false;
    }
    live++;
    return true;
  });
  AERIE_RETURN_IF_ERROR(st);
  if (overflow) {
    FreeTable(ctx_, *new_table_off);
    return Rehash(new_nbuckets * 2);
  }

  // Flush every new bucket extent, publish commit words, then swing the
  // header pointer with one atomic 64-bit store (shadow update).
  for (uint64_t i = 0; i < new_table->extent_count; ++i) {
    ctx_.region->WlFlush(ctx_.region->PtrAt(new_table->extent_ptr[i]),
                         kScmPageSize);
  }
  ctx_.region->Fence();

  HeaderRep* hdr = HeaderAt(ctx_, oid_);
  const uint64_t old_table_off = hdr->table_ptr;
  ctx_.region->PersistU64(&hdr->table_ptr, *new_table_off);
  ctx_.region->PersistU64(&hdr->live_count, live);
  ctx_.region->PersistU64(&hdr->tomb_count, 0);

  FreeTable(ctx_, old_table_off);
  return OkStatus();
}

bool Collection::GrowthImminent() const {
  const HeaderRep* hdr = HeaderAt(ctx_, oid_);
  const TableRep* table = TableAt(ctx_, hdr);
  // Mirror the thresholds Insert/Erase use, with a safety margin of one
  // bucket's worth of entries.
  const uint64_t grow_at = static_cast<uint64_t>(
      kMaxLoad * static_cast<double>(table->nbuckets));
  if (LoadPublished(&hdr->live_count) + kBucketsPerExtent >= grow_at) {
    return true;
  }
  const uint64_t capacity = table->nbuckets * (kBucketDataBytes / 32);
  return LoadPublished(&hdr->tomb_count) + kBucketsPerExtent >
         static_cast<uint64_t>(kTombCompactRatio *
                               static_cast<double>(capacity));
}

Result<Oid> Collection::BucketExtentForKey(std::string_view key) const {
  const HeaderRep* hdr = HeaderAt(ctx_, oid_);
  const TableRep* table = TableAt(ctx_, hdr);
  const uint64_t index = BucketIndexFor(table, key);
  return Oid::Make(ObjType::kExtent,
                   table->extent_ptr[index / kBucketsPerExtent]);
}

std::vector<Oid> Collection::BucketExtents() const {
  const HeaderRep* hdr = HeaderAt(ctx_, oid_);
  const TableRep* table = TableAt(ctx_, hdr);
  std::vector<Oid> out;
  out.reserve(table->extent_count);
  for (uint64_t i = 0; i < table->extent_count; ++i) {
    out.push_back(Oid::Make(ObjType::kExtent, table->extent_ptr[i]));
  }
  return out;
}

Status Collection::Destroy() {
  AERIE_SPAN("osd", "coll_destroy");
  if (!ctx_.can_allocate()) {
    return Status(ErrorCode::kPermissionDenied, "destroy requires allocator");
  }
  HeaderRep* hdr = HeaderAt(ctx_, oid_);
  FreeTable(ctx_, hdr->table_ptr);
  ctx_.region->PersistU64(&hdr->magic, 0);
  return ctx_.alloc->Free(oid_.offset(), 0);
}

Status Collection::Validate() const {
  const HeaderRep* hdr = HeaderAt(ctx_, oid_);
  if (hdr->magic != kCollectionMagic) {
    return Status(ErrorCode::kCorrupted, "bad magic");
  }
  const TableRep* table = TableAt(ctx_, hdr);
  if (table->nbuckets == 0 ||
      (table->nbuckets & (table->nbuckets - 1)) != 0 ||
      table->extent_count != table->nbuckets / kBucketsPerExtent) {
    return Status(ErrorCode::kCorrupted, "bad table geometry");
  }
  uint64_t live = 0;
  AERIE_RETURN_IF_ERROR(Scan([&](std::string_view, uint64_t) {
    live++;
    return true;
  }));
  return OkStatus();
}

}  // namespace aerie
