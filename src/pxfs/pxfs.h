// PXFS: POSIX-style file-system interface over Aerie (paper §6.1).
//
// Provides hierarchical names, open/read/write/close with file descriptors,
// create/unlink/mkdir/rmdir/rename/stat/readdir/chmod/truncate/fsync, with
// most POSIX semantics: files movable across directories, access retained to
// open files after unlink or permission change, hard links.
//
// How the paper's mechanisms surface here:
//   * path resolution reads directory collections straight from SCM under
//     clerk-granted read locks; an optional per-client absolute-path name
//     cache short-circuits the walk (§6.1 "Caching"; the PXFS-NNC
//     configuration disables it). Every resolution probes the cache once,
//     keyed by the canonical path; a path already in canonical form is
//     probed as given, without splitting it;
//   * opening a file this client has mapped under the current clerk epoch
//     skips the clerk: the map proves the file's lock is still cached here
//     in a mode that covers the open (DESIGN.md §10.2);
//   * creates/writes take objects and extents from libFS pools, write data
//     directly, and log metadata ops into the batch;
//   * a volatile *shadow* layer makes this client's batched-but-unshipped
//     updates visible to its own operations (§6.1 "Storage Objects"): a
//     name overlay per directory, and per file the whole-file extent map
//     with this client's edits, which the data path reads like any map;
//   * directory write locks are hierarchical (XH) by default, so file locks
//     under a directory are granted locally by the clerk;
//   * unlink-while-open: the client notifies the TFS a file is open before
//     logging an unlink of it, or when releasing a revoked lock on it, so
//     the server defers storage reclaim (§6.1 "File sharing").
//
// Thread safety: all operations may be called concurrently; shared state is
// guarded by short critical sections, and cross-client coherence comes from
// the lock protocol.
#ifndef AERIE_SRC_PXFS_PXFS_H_
#define AERIE_SRC_PXFS_PXFS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/open_flags.h"
#include "src/common/open_table.h"
#include "src/common/status.h"
#include "src/libfs/client.h"
#include "src/obs/obs.h"
#include "src/osd/collection.h"
#include "src/osd/mfile.h"

namespace aerie {

struct PxfsStat {
  Oid oid;
  bool is_dir = false;
  uint64_t size = 0;
  uint64_t link_count = 0;
  uint32_t acl = 0;
};

struct PxfsDirent {
  std::string name;
  Oid oid;
  bool is_dir;
};

class Pxfs {
 public:
  struct Options {
    // Per-client absolute-path name cache (PXFS vs PXFS-NNC, §7.3.1).
    bool name_cache = true;
    // Take directory write locks hierarchically (XH) so descendant file
    // locks are clerk-local. Explicit (X) is the ablation configuration.
    bool hierarchical_dir_locks = true;
    // Enforce memory-protection semantics on the data path (paper §5.3.3):
    // when a file's ACL cannot be expressed by read/write memory protection
    // (e.g. write-only files), data access goes through the trusted service
    // instead of direct loads/stores.
    bool enforce_memory_protection = false;
  };

  Pxfs(LibFs* fs, const Options& options);
  explicit Pxfs(LibFs* fs) : Pxfs(fs, Options{}) {}
  ~Pxfs();

  Pxfs(const Pxfs&) = delete;
  Pxfs& operator=(const Pxfs&) = delete;

  // --- File descriptor API ---
  Result<int> Open(std::string_view path, int flags);
  Status Close(int fd);
  Result<uint64_t> Read(int fd, std::span<char> out);
  Result<uint64_t> Write(int fd, std::span<const char> data);
  Result<uint64_t> Pread(int fd, uint64_t offset, std::span<char> out);
  Result<uint64_t> Pwrite(int fd, uint64_t offset,
                          std::span<const char> data);
  Result<uint64_t> Seek(int fd, uint64_t offset);
  Status Ftruncate(int fd, uint64_t size);
  Status Fsync(int fd);
  Result<PxfsStat> Fstat(int fd);

  // --- Namespace API ---
  Status Create(std::string_view path);  // create + close
  Status Unlink(std::string_view path);
  Status Mkdir(std::string_view path);
  Status Rmdir(std::string_view path);
  Status Rename(std::string_view from, std::string_view to);
  // Hard link: `to` becomes another name for the file at `from` (directories
  // cannot be hard-linked). Raises the file's membership count (§5.3.4).
  Status Link(std::string_view from, std::string_view to);
  Result<PxfsStat> Stat(std::string_view path);
  Result<std::vector<PxfsDirent>> ReadDir(std::string_view path);
  Status Chmod(std::string_view path, uint32_t acl);
  Status Truncate(std::string_view path, uint64_t size);

  // Working directory for relative paths. Relative resolution starts here
  // and — per the paper (§6.1) — never consults the name cache, since
  // relative paths "tend to be shorter". The cwd is held by OID; cwd() is
  // its canonical path, or "" once a directory rename may have moved it
  // (until SetCwd is given an absolute path).
  Status SetCwd(std::string_view path);
  std::string cwd() const;

  // Ships batched metadata and persists data (libfs_sync).
  Status SyncAll();

  LibFs* libfs() { return fs_; }

  // --- Introspection (tests / benches) ---
  uint64_t name_cache_hits() const { return cache_hits_.value(); }
  uint64_t name_cache_misses() const { return cache_misses_.value(); }
  void FlushNameCache();

 private:
  friend class PxfsTestPeer;  // reads and bounds the name cache in tests
  // A file's map while it mirrors ops not yet shipped: the whole-file
  // extent map with this client's edits (attached runs, size, pages a
  // pending truncate frees as holes), stamped with the last logged op it
  // mirrors (LibFs::LogOps). Once that op has shipped, the mFile says
  // everything the map does and the shadow is dropped.
  struct FileShadow {
    std::shared_ptr<const LibFs::DirectMap> map;
    uint64_t seq = 0;
  };
  struct DirOverlay {
    std::unordered_map<std::string, uint64_t> added;  // name -> oid raw
    std::set<std::string> removed;
  };
  struct FdEntry {
    Oid oid;
    Oid dir;  // containing directory at open time
    std::atomic<uint64_t> offset{0};
    int flags = 0;
    std::vector<LockId> ancestors;  // lock chain root..parent (incl parent)
  };
  struct Resolved {
    Oid parent;               // directory containing the leaf
    Oid target;               // null if the leaf does not exist
    std::string leaf;         // final path component ("" for root)
    std::vector<LockId> ancestors;  // locks root..parent (excludes target)
  };
  // A parent directory's OID and the lock chain above it (a name_chains_
  // entry).
  using NameChain = std::pair<const uint64_t, std::vector<LockId>>;
  // One name-cache entry in one cache line: the key's hash tag, the
  // target's OID, the parent's OID and lock chain (stored once per parent
  // in name_chains_) and the key itself, in place up to SlotKey::kInline
  // bytes.
  struct alignas(64) NameSlot {
    bool empty() const { return tag == 0; }
    uint64_t hash() const { return tag; }
    bool Holds(uint32_t key_tag, std::string_view path) const {
      return tag == key_tag && key.view() == path;
    }

    uint64_t target_raw = 0;
    const NameChain* parent = nullptr;
    uint32_t tag = 0;  // 0: empty
    SlotKey key;
  };
  static_assert(sizeof(NameSlot) == 64);
  // The name cache's hash tag for `key`: never 0, which marks an empty slot.
  static uint32_t NameTag(std::string_view key) {
    return static_cast<uint32_t>(std::hash<std::string_view>{}(key)) |
           0x80000000u;
  }

  // Resolves `path` (absolute, or relative to the cwd). Takes S locks on
  // each directory walked (released before returning; the clerk keeps the
  // globals cached). Probes the name cache at most once. With `key`, also
  // stores the path's canonical absolute form, the name-cache key, or ""
  // for a relative path when the cwd's path is unknown.
  Result<Resolved> Resolve(std::string_view path, bool fill_cache,
                           std::string* key = nullptr);
  // One name-cache probe: fills `out` and counts a hit, or counts a miss.
  bool CacheLookup(std::string_view key, Resolved* out);
  // Caches `key` -> (target, parent, the parent's lock chain), leaving an
  // identical entry alone; a new entry first empties a cache that holds
  // name_cache_max_ paths or parent chains.
  void CacheInsert(std::string_view key, Oid target, Oid parent,
                   std::span<const LockId> chain);
  void CacheErase(std::string_view key);
  // Index of `key`'s slot (`tag` is NameTag(key)), or OpenTable::kNone.
  size_t FindNameLocked(uint32_t tag, std::string_view key) const;
  // Empties the name cache. Chains go only with the slots that point at
  // them.
  void ClearNamesLocked();

  // Directory lookup through the overlay, then SCM.
  Result<Oid> DirLookup(Oid dir, const std::string& name);

  // Overlay bookkeeping (call *after* LogOp; see implementation note).
  void OverlayAdd(Oid dir, const std::string& name, Oid oid);
  void OverlayRemove(Oid dir, const std::string& name);
  void ClearVolatileState();  // overlay + shadows + name cache
  // Marks the cwd's path unknown: a directory rename, here or by another
  // client once authority has left, may have moved the cwd.
  void ForgetCwdPath();
  // Drops everything kept under a pooled object's OID: the offset may have
  // belonged to a destroyed file or directory.
  void ForgetRecycled(Oid oid);

  // `file`'s shadow map while it mirrors an op not yet shipped, else
  // nullptr.
  std::shared_ptr<const LibFs::DirectMap> ShadowFor(Oid file);
  // Makes `map` `file`'s shadow, stamped with `seq`, the last op it mirrors;
  // then stores the same map in the direct cache if it carries an epoch, or
  // drops the cached one. So a current cached map never disagrees with a
  // live shadow. Sweeps shipped shadows once the table doubles in size.
  void SetShadow(Oid file, uint64_t seq,
                 std::shared_ptr<const LibFs::DirectMap> map);

  LockMode DirWriteMode() const {
    return options_.hierarchical_dir_locks ? LockMode::kExclusiveHier
                                           : LockMode::kExclusive;
  }

  // The entry behind `fd`, or kBadHandle. The returned reference keeps the
  // entry alive across a concurrent Close.
  Result<std::shared_ptr<FdEntry>> LookupFd(int fd);

  // --- Data path (DESIGN.md §10) ---
  // One read and one write routine, each with two ways in: *pinned* (the
  // cached extent map under a pinned clerk epoch, no lock) and *locked*
  // (the file lock, then a map reused or rebuilt under it). Both ways run
  // the same copy loop, MFile::ReadDirect / MFile::WriteDirect.
  Result<uint64_t> ReadFile(const FdEntry& entry, uint64_t offset,
                            std::span<char> out);
  Result<uint64_t> WriteFile(const FdEntry& entry, uint64_t offset,
                             std::span<const char> data);
  // The locked way's bodies; the caller holds the file lock.
  Result<uint64_t> ReadLocked(Oid file, uint64_t offset, std::span<char> out);
  Result<uint64_t> WriteLocked(Oid file, uint64_t offset,
                               std::span<const char> data);
  Status TruncateLocked(Oid file, uint64_t size);

  // Upper bound on cacheable file size: one map entry per 4KB page.
  static constexpr uint64_t kDirectMaxPages = 1 << 16;  // 256MB

  bool DirectUsable() const {
    return fs_->direct_data() && !options_.enforce_memory_protection;
  }
  // `file`'s cached map if it was validated under the current clerk epoch
  // (and is writable, for `write`), else nullptr. The epoch moves whenever
  // authority may leave this client, so such a map proves the file's lock
  // is still cached here in the map's mode.
  std::shared_ptr<const LibFs::DirectMap> CurrentMap(Oid file, bool write);
  // The pinned way: the cached map for `file` with the clerk epoch pinned
  // (the caller copies, then calls ExitDirect), or nullptr. A write needs
  // a writable map that already covers [0, end).
  std::shared_ptr<const LibFs::DirectMap> PinMap(Oid file, bool write,
                                                 uint64_t end);
  // The locked way's map; the caller holds the file lock in `mode`. In
  // order: the cached map if its epoch is current (and it is writable, for
  // kExclusive; it may stop short of an extending write's new pages); else
  // the live shadow; else a snapshot of the mFile. Either of the last two
  // covers the whole file (a snapshot for kExclusive up to `end`) under a
  // fresh grant epoch, so the caller may cache it, unless that would exceed
  // kDirectMaxPages, the pinned way is off, or the grant fails: then the
  // map has epoch 0, and a snapshot covers only [offset, end).
  Result<std::shared_ptr<const LibFs::DirectMap>> LockedMap(
      Oid file, LockMode mode, uint64_t offset, uint64_t end);
  // A private copy of `map` to edit, covering the whole file: `map`'s
  // nodes shared, or a fresh snapshot if `map` is a window (an edited map
  // becomes the shadow, so it must cover the whole file).
  Result<std::shared_ptr<LibFs::DirectMap>> EditableMap(
      Oid file, const LibFs::DirectMap& map);
  // Rights from `file`'s ACL that memory protection must enforce (paper
  // §5.3.3), or 0 (unrestricted) without enforce_memory_protection.
  uint32_t ProtectedRights(Oid file);
  uint64_t FileSize(Oid file);

  Status UnlinkLocked(const Resolved& r);

  LibFs* fs_;
  Options options_;
  OsdContext ctx_;
  uint64_t hook_token_ = 0;

  std::mutex fds_mu_;
  std::vector<std::shared_ptr<FdEntry>> fds_;
  std::vector<int> free_fds_;
  std::unordered_map<uint64_t, uint32_t> open_counts_;  // oid -> local opens
  // Files the TFS has been told are open here (paper §6.1 open-file table).
  std::set<uint64_t> notified_open_;

  std::mutex overlay_mu_;
  std::unordered_map<uint64_t, DirOverlay> overlay_;
  std::unordered_map<uint64_t, FileShadow> shadows_;
  static constexpr size_t kShadowSweepMin = 1024;
  size_t shadow_sweep_at_ = kShadowSweepMin;

  mutable std::mutex cwd_mu_;
  Oid cwd_oid_;                       // null: cwd is the root
  std::vector<LockId> cwd_ancestors_; // lock chain root..cwd's parent
  std::string cwd_path_ = "/";         // canonical; "" if unknown

  // The name cache empties itself when it reaches this many paths or parent
  // chains (name_cache_max_; tests lower it through PxfsTestPeer).
  static constexpr size_t kNameCacheMax = 1 << 16;
  size_t name_cache_max_ = kNameCacheMax;
  std::mutex cache_mu_;
  OpenTable<NameSlot> name_cache_;
  // Parent directory OID -> the lock chain above it (root first), shared by
  // every cached name under that parent. A directory's chain changes only
  // when a rename or rmdir moves a directory above it, and both flush the
  // cache (here, or through the release hook when another client does it).
  // Node-based, so the slots' pointers survive rehashing.
  std::unordered_map<uint64_t, std::vector<LockId>> name_chains_;
  // Name-cache statistics live in the obs registry for this Pxfs's lifetime.
  obs::Counter cache_hits_{"pxfs.name_cache.hit"};
  obs::Counter cache_misses_{"pxfs.name_cache.miss"};
  obs::ScopedRegistration obs_registration_;
};

}  // namespace aerie

#endif  // AERIE_SRC_PXFS_PXFS_H_
