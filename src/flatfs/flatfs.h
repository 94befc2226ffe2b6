// FlatFS: key/value file interface over Aerie (paper §6.2).
//
// A specialized interface for applications that store many small files in a
// single directory (mail stores, wikis, proxy caches). Compared to PXFS:
//   * files are single-extent mFiles with a known maximum size, so a get or
//     put is one memcpy — no radix tree, no per-open state;
//   * the namespace is one flat collection keyed by arbitrary byte strings —
//     no hierarchical path resolution, no name cache needed;
//   * all files share the collection's permissions — no per-file metadata;
//   * scalable concurrency: operations take the collection lock in intent
//     mode and a fine-grained lock on the *bucket extent* the key hashes to;
//     only a table rehash takes the whole-collection write lock.
//
// One volatile *key table* maps a key to where its value lives (file,
// extent, size, or erased). It is both this client's overlay of batched
// put/erase ops (§6.1 "Storage Objects") and the location cache a get
// copies through. A get has two ways in, both ending in the same memcpy:
// *pinned* (the table entry under the clerk direct-access epoch it was
// stamped with, no lock; LibFs::Options::direct_data) and *locked* (the
// bucket lock, then the entry or, on a miss, the collection). DESIGN.md §10
// states the table's bound and validity rule.
//
// FlatFS and PXFS share the same volume layout and the same TFS; an
// application can reach the same files through either interface.
#ifndef AERIE_SRC_FLATFS_FLATFS_H_
#define AERIE_SRC_FLATFS_FLATFS_H_

#include <functional>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/common/status.h"
#include "src/libfs/client.h"
#include "src/osd/collection.h"
#include "src/osd/mfile.h"

namespace aerie {

class FlatFs {
 public:
  struct Options {
    // Fixed capacity of every file (paper: "small files with a known
    // maximum size"). Puts larger than this fail kOutOfSpace.
    uint64_t file_capacity = 64 << 10;
  };

  FlatFs(LibFs* fs, const Options& options);
  explicit FlatFs(LibFs* fs) : FlatFs(fs, Options{}) {}
  ~FlatFs();

  FlatFs(const FlatFs&) = delete;
  FlatFs& operator=(const FlatFs&) = delete;

  // Stores `data` under `key` (creates or replaces). One operation: no
  // open/write/close sequence (paper §7.3.2).
  Status Put(std::string_view key, std::span<const char> data);

  // Reads the value into `out`; returns bytes copied. kNotFound if absent.
  Result<uint64_t> Get(std::string_view key, std::span<char> out);
  // Convenience allocation-returning form.
  Result<std::string> Get(std::string_view key);

  Status Erase(std::string_view key);
  Result<bool> Exists(std::string_view key);

  // Visits every key (no value copy). Takes the collection read lock.
  Status Scan(const std::function<bool(std::string_view)>& visit);

  // Ships batched metadata (put/erase become visible to other clients).
  Status Sync();

  uint64_t file_capacity() const { return options_.file_capacity; }

  // Entries in the key table. When it reaches kKeysMax entries (or twice
  // what its last sweep kept, if more), it keeps only those that mirror
  // unshipped ops.
  size_t key_table_size();
  static constexpr size_t kKeysMax = 1 << 16;

 private:
  // Where `key`'s value lives, as this client may see it.
  struct Entry {
    Oid oid;
    uint64_t extent = 0;  // region offset of the value bytes
    uint64_t size = 0;
    bool erased = false;
    // Clerk direct-access epoch the entry was stamped with under the bucket
    // lock; 0: usable only under the lock.
    uint64_t epoch = 0;
    // The logged op the entry mirrors (LibFs::LogOps); 0: read from the
    // collection.
    uint64_t seq = 0;
  };

  // Acquires the lock covering `key`'s bucket (plus the intent lock on the
  // collection); escalates to the whole-collection lock when a rehash is
  // imminent. Returns the lock id acquired.
  Result<LockId> LockBucket(std::string_view key, bool write);

  // `key`'s live entry; the caller holds `lock`, which covers `key`. On a
  // table miss, reads the collection and stores what it found; a hit whose
  // epoch has moved is stamped again. kNotFound if the key is absent or
  // erased.
  Result<Entry> Find(std::string_view key, LockId lock);
  // The pinned way in; the caller holds keys_mu_ shared. Copies `key`'s
  // live entry into `entry` and pins its epoch (the caller copies the value,
  // then calls ExitDirect). False if there is no such entry or the epoch has
  // moved.
  bool PinLocked(std::string_view key, Entry* entry);
  // Stores `entry` for `key`, first stamping it with a direct epoch from
  // `lock` (held by the caller). With `op`, logs the op first (its number
  // becomes the entry's seq), under the same exclusive hold of keys_mu_ as
  // the store: gets copy under keys_mu_ shared, so none is still copying
  // the value the op replaces once the op can ship and the TFS frees that
  // value. Sweeps the table at its bound.
  Status StoreEntry(std::string_view key, LockId lock, Entry entry,
                    MetaOp* op = nullptr);
  // Drops every entry whose op has shipped, or that mirrors the
  // collection. Caller holds keys_mu_ exclusively.
  void DropShippedLocked();

  LibFs* fs_;
  Options options_;
  OsdContext ctx_;
  Oid root_;
  uint64_t hook_token_ = 0;

  std::shared_mutex keys_mu_;
  std::unordered_map<std::string, Entry> keys_;
  size_t sweep_at_ = kKeysMax;
};

}  // namespace aerie

#endif  // AERIE_SRC_FLATFS_FLATFS_H_
