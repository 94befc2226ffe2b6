// Storage object IDs (paper §5.3.1).
//
// Every file-system storage object is named by a 64-bit OID: the six
// least-significant bits encode the object type (64 possible types) and the
// remaining 58 bits encode where the object lives. This forces a minimum
// object size of 64 bytes and means locating an object from its OID needs no
// lookup — at the cost of objects not being relocatable, which the paper
// found acceptable.
//
// Deviation (documented in DESIGN.md §4): the paper stores the object's
// virtual address; we store the byte offset from the region base divided by
// 64. Under the paper's same-address mapping these are isomorphic, and
// offsets stay valid if the host maps the region elsewhere after a reboot.
//
// The OID doubles as the object's global lock id (paper §5.3.4: "a unique
// global lock to every object").
#ifndef AERIE_SRC_OSD_OID_H_
#define AERIE_SRC_OSD_OID_H_

#include <cstdint>

#include "src/lock/lock_proto.h"

namespace aerie {

enum class ObjType : uint8_t {
  kNone = 0,
  kExtent = 1,      // raw storage extent
  kCollection = 2,  // associative key->OID table (directories, namespaces)
  kMFile = 3,       // offset->extent map (file data)
  kSuperblock = 4,
  kPoolTable = 5,   // the TFS's pool map (paper §5.3.7)
};

class Oid {
 public:
  constexpr Oid() : raw_(0) {}
  constexpr explicit Oid(uint64_t raw) : raw_(raw) {}

  // `offset` is the object's byte offset in the region; must be 64-byte
  // aligned (the minimum object size the encoding enforces).
  static constexpr Oid Make(ObjType type, uint64_t offset) {
    return Oid(((offset >> 6) << 6) | static_cast<uint64_t>(type));
  }

  constexpr bool IsNull() const { return raw_ == 0; }
  constexpr ObjType type() const {
    return static_cast<ObjType>(raw_ & 0x3f);
  }
  constexpr uint64_t offset() const { return (raw_ >> 6) << 6; }
  constexpr uint64_t raw() const { return raw_; }

  // The object's global lock id.
  constexpr LockId lock_id() const { return raw_; }

  friend constexpr bool operator==(Oid a, Oid b) { return a.raw_ == b.raw_; }
  friend constexpr bool operator!=(Oid a, Oid b) { return a.raw_ != b.raw_; }

 private:
  uint64_t raw_;
};

}  // namespace aerie

#endif  // AERIE_SRC_OSD_OID_H_
