// Metadata operations (paper §5.3.5).
//
// Clients do not mutate metadata directly: they log operations like these
// into a local batch (libFS) and ship the batch to the TFS, which validates
// and applies them. Each op names the *authority lock* the client claims
// covers the op; the TFS verifies the client actually holds that lock in a
// write mode before applying.
//
// The same encoding is reused for the TFS's write-ahead log, enriched with
// server-computed absolute values (victim OIDs, new link counts) so that
// replay after a crash is idempotent.
#ifndef AERIE_SRC_TFS_OPS_H_
#define AERIE_SRC_TFS_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/osd/oid.h"
#include "src/rpc/wire.h"

namespace aerie {

enum class MetaOpType : uint32_t {
  kNone = 0,
  kCreateFile,    // dir, name, obj = new mFile (from client pool)
  kCreateDir,     // dir, name, obj = new collection (from client pool)
  kLink,          // dir, name, obj = existing object (hard link)
  kUnlink,        // dir, name             (file or empty directory)
  kRename,        // dir, name -> dir2, name2 (overwrites dst if present)
  kAttachExtent,  // obj = file, a = first page, b = first extent offset,
                  // pages = run length (contiguous pooled pages)
  kSetSize,       // obj = file, a = size
  kTruncate,      // obj = file, a = size
  kSetAcl,        // obj, a = acl
  kFlatPut,       // dir = collection, name = key, obj = mFile, a = size
  kFlatErase,     // dir = collection, name = key
};

struct MetaOp {
  MetaOpType type = MetaOpType::kNone;
  uint64_t authority = 0;  // lock id claimed to cover this op

  Oid dir;            // primary directory / collection
  Oid dir2;           // rename destination directory
  std::string name;   // primary name / key
  std::string name2;  // rename destination name
  Oid obj;            // object being created / linked / modified
  uint64_t a = 0;     // op-specific scalar (page index, size, acl)
  uint64_t b = 0;     // op-specific scalar (extent offset)
  uint64_t pages = 1;  // kAttachExtent: pages in the run (>= 1)

  // --- Server-enriched fields (absolute values for idempotent replay) ---
  Oid victim;                // object displaced by unlink/rename/put
  uint64_t victim_links = 0;  // victim's link count after the op
  uint8_t victim_free = 0;    // 1: victim storage is freed by this op
  uint8_t victim_is_dir = 0;  // victim object type hint
  uint64_t obj_links = 0;     // obj's link count after the op

  void Encode(WireBuffer* out) const;
  static Result<MetaOp> Decode(WireReader* in);
};

// Encoded size of an op with empty names: the least one can take on the
// wire, which bounds the op count a batch blob can claim.
inline constexpr uint32_t kMinOpBytes = 94;

// Short lower-case name of an op type ("attach_extent"), for metric names.
const char* OpTypeName(MetaOpType type);
inline constexpr uint32_t kMetaOpTypeCount =
    static_cast<uint32_t>(MetaOpType::kFlatErase) + 1;

// Encodes a sequence of ops into one batch blob.
std::string EncodeBatch(const std::vector<MetaOp>& ops);
// Decodes a batch blob (validates structure; untrusted input).
Result<std::vector<MetaOp>> DecodeBatch(std::string_view blob);

// RPC method ids served by the TFS.
enum TfsRpcMethod : uint32_t {
  kTfsRpcApplyBatch = 0x5400,
  kTfsRpcPoolFill = 0x5401,
  kTfsRpcNotifyOpen = 0x5402,
  kTfsRpcNotifyClosed = 0x5403,
  kTfsRpcGetRoots = 0x5404,
  kTfsRpcServiceRead = 0x5405,
  kTfsRpcServiceWrite = 0x5406,
};

}  // namespace aerie

#endif  // AERIE_SRC_TFS_OPS_H_
