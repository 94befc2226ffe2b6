#include "src/tfs/fsck.h"

#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "src/osd/collection.h"
#include "src/osd/mfile.h"
#include "src/tfs/pool_map.h"

namespace aerie {

namespace {

constexpr size_t kMaxMessages = 64;

class Checker {
 public:
  explicit Checker(Volume* volume)
      : volume_(volume), ctx_(volume->context()) {}

  FsckReport Run() {
    auto sys = Collection::Open(ctx_, volume_->root_oid());
    if (!sys.ok()) {
      Problem("system collection unreadable: " + sys.status().ToString());
      return report_;
    }
    const Oid pxfs_root = LookupOid(*sys, "root");
    const Oid flat_root = LookupOid(*sys, "flat");
    const Oid orphans = LookupOid(*sys, "orphans");
    const Oid pool_map = LookupOid(*sys, "pool_map");

    // The pool map first: file storage is checked against its marks.
    if (!pool_map.IsNull()) {
      CheckPoolMap(pool_map);
    }
    if (!pxfs_root.IsNull()) {
      WalkDirectory(pxfs_root, "/", 0);
      CheckLinkCounts();
    }
    if (!flat_root.IsNull()) {
      CheckFlatNamespace(flat_root);
    }
    if (!orphans.IsNull()) {
      CheckOrphans(orphans);
    }
    return report_;
  }

 private:
  void Problem(const std::string& message) {
    report_.errors++;
    if (report_.messages.size() < kMaxMessages) {
      report_.messages.push_back(message);
    }
  }

  Oid LookupOid(const Collection& coll, const char* key) {
    auto value = coll.Lookup(key);
    if (!value.ok()) {
      Problem(std::string("system entry missing: ") + key);
      return Oid();
    }
    return Oid(*value);
  }

  // True when the object's head page is marked allocated (only checkable on
  // writable volumes, where the allocator is mounted).
  void CheckAllocated(Oid oid, const std::string& where) {
    if (ctx_.alloc != nullptr && !ctx_.alloc->IsAllocated(oid.offset())) {
      Problem(where + ": object storage not marked allocated");
    }
  }

  // Every page a file owns (data pages, indirect blocks, header) must be
  // allocated, owned by no other file, and not marked in the pool map: a run
  // belongs to one file.
  void CheckStorage(const MFile& file, const std::string& where) {
    for (uint64_t page : file.StoragePages()) {
      auto [owner, fresh] = page_owner_.emplace(page, file.oid().raw());
      if (!fresh && owner->second != file.oid().raw()) {
        Problem(where + ": page mapped by two files");
      }
      if (ctx_.alloc != nullptr && !ctx_.alloc->IsAllocated(page)) {
        Problem(where + ": mapped page not marked allocated");
      }
      if (pool_marked_.count(page) != 0) {
        Problem(where + ": mapped page marked in the pool map");
      }
    }
  }

  void WalkDirectory(Oid dir_oid, const std::string& path, int depth) {
    if (depth > 256) {
      Problem(path + ": directory nesting exceeds 256 (cycle?)");
      return;
    }
    if (!visited_dirs_.insert(dir_oid.raw()).second) {
      Problem(path + ": directory reachable twice (cycle or double link)");
      return;
    }
    auto dir = Collection::Open(ctx_, dir_oid);
    if (!dir.ok()) {
      Problem(path + ": unreadable directory: " + dir.status().ToString());
      return;
    }
    if (Status st = dir->Validate(); !st.ok()) {
      Problem(path + ": collection invalid: " + st.ToString());
      return;
    }
    CheckAllocated(dir_oid, path);
    report_.directories++;

    std::vector<std::pair<std::string, Oid>> entries;
    (void)dir->Scan([&](std::string_view name, uint64_t value) {
      entries.emplace_back(std::string(name), Oid(value));
      return true;
    });
    for (const auto& [name, oid] : entries) {
      const std::string child_path =
          path == "/" ? "/" + name : path + "/" + name;
      switch (oid.type()) {
        case ObjType::kCollection: {
          auto child = Collection::Open(ctx_, oid);
          if (child.ok() && !(child->parent_oid() == dir_oid)) {
            Problem(child_path + ": parent pointer does not match location");
          }
          WalkDirectory(oid, child_path, depth + 1);
          break;
        }
        case ObjType::kMFile: {
          auto file = MFile::Open(ctx_, oid);
          if (!file.ok()) {
            Problem(child_path + ": unreadable file: " +
                    file.status().ToString());
            break;
          }
          if (Status st = file->Validate(); !st.ok()) {
            Problem(child_path + ": mFile invalid: " + st.ToString());
            break;
          }
          CheckAllocated(oid, child_path);
          if (file_refs_[oid.raw()]++ == 0) {
            CheckStorage(*file, child_path);
          }
          break;
        }
        default:
          Problem(child_path + ": unexpected object type in directory");
      }
    }
  }

  void CheckLinkCounts() {
    for (const auto& [raw, refs] : file_refs_) {
      report_.files++;
      auto file = MFile::Open(ctx_, Oid(raw));
      if (file.ok() && file->link_count() != refs) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "oid %llx: link_count %llu != %llu references",
                      static_cast<unsigned long long>(raw),
                      static_cast<unsigned long long>(file->link_count()),
                      static_cast<unsigned long long>(refs));
        Problem(buf);
      }
    }
  }

  void CheckFlatNamespace(Oid flat_oid) {
    auto flat = Collection::Open(ctx_, flat_oid);
    if (!flat.ok()) {
      Problem("flat namespace unreadable: " + flat.status().ToString());
      return;
    }
    if (Status st = flat->Validate(); !st.ok()) {
      Problem("flat namespace invalid: " + st.ToString());
      return;
    }
    (void)flat->Scan([&](std::string_view key, uint64_t value) {
      const Oid oid(value);
      auto file = MFile::Open(ctx_, oid);
      if (!file.ok()) {
        Problem("flat key '" + std::string(key) + "': unreadable mFile");
      } else {
        if (Status st = file->Validate(); !st.ok()) {
          Problem("flat key '" + std::string(key) +
                  "': invalid: " + st.ToString());
        } else {
          CheckStorage(*file, "flat key '" + std::string(key) + "'");
        }
        if (file->size() > file->capacity() && file->single_extent()) {
          Problem("flat key '" + std::string(key) + "': size > capacity");
        }
        report_.flat_files++;
      }
      return true;
    });
  }

  void CheckOrphans(Oid orphans_oid) {
    auto orphans = Collection::Open(ctx_, orphans_oid);
    if (!orphans.ok()) {
      Problem("orphan table unreadable: " + orphans.status().ToString());
      return;
    }
    (void)orphans->Scan([&](std::string_view, uint64_t value) {
      auto file = MFile::Open(ctx_, Oid(value));
      if (!file.ok()) {
        Problem("orphan entry points at unreadable mFile");
      } else if (file->link_count() != 0) {
        Problem("orphan entry has nonzero link count");
      } else if (Status st = file->Validate(); !st.ok()) {
        Problem("orphan mFile invalid: " + st.ToString());
      } else {
        CheckStorage(*file, "orphan");
        report_.orphans++;
      }
      return true;
    });
  }

  // Every marked entry must head a live object of the recorded type.
  void CheckPoolMap(Oid map_oid) {
    auto map = PoolMap::Open(ctx_, map_oid);
    if (!map.ok()) {
      Problem("pool map unreadable: " + map.status().ToString());
      return;
    }
    map->ForEach([&](Oid oid) {
      const bool live = oid.type() == ObjType::kExtent ||
                        MFile::Open(ctx_, oid).ok() ||
                        Collection::Open(ctx_, oid).ok();
      if (!live) {
        Problem("pool map entry is not a live extent, mFile or collection");
        return;
      }
      CheckAllocated(oid, "pooled object");
      pool_marked_.insert(oid.offset());
      report_.pool_objects++;
    });
  }

  Volume* volume_;
  OsdContext ctx_;
  FsckReport report_;
  std::set<uint64_t> visited_dirs_;
  std::map<uint64_t, uint64_t> file_refs_;
  std::unordered_map<uint64_t, uint64_t> page_owner_;  // page -> file oid
  std::unordered_set<uint64_t> pool_marked_;            // head page offsets
};

}  // namespace

std::string FsckReport::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: %llu dirs, %llu files, %llu flat, %llu orphans, "
                "%llu pooled, %llu errors",
                ok() ? "clean" : "ERRORS",
                static_cast<unsigned long long>(directories),
                static_cast<unsigned long long>(files),
                static_cast<unsigned long long>(flat_files),
                static_cast<unsigned long long>(orphans),
                static_cast<unsigned long long>(pool_objects),
                static_cast<unsigned long long>(errors));
  return buf;
}

Result<FsckReport> RunFsck(Volume* volume) {
  if (volume->root_oid().IsNull()) {
    return Status(ErrorCode::kInvalidArgument, "volume has no root");
  }
  Checker checker(volume);
  return checker.Run();
}

}  // namespace aerie
