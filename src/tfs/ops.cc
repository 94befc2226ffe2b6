#include "src/tfs/ops.h"

namespace aerie {

const char* OpTypeName(MetaOpType type) {
  switch (type) {
    case MetaOpType::kNone:
      return "none";
    case MetaOpType::kCreateFile:
      return "create_file";
    case MetaOpType::kCreateDir:
      return "create_dir";
    case MetaOpType::kLink:
      return "link";
    case MetaOpType::kUnlink:
      return "unlink";
    case MetaOpType::kRename:
      return "rename";
    case MetaOpType::kAttachExtent:
      return "attach_extent";
    case MetaOpType::kSetSize:
      return "set_size";
    case MetaOpType::kTruncate:
      return "truncate";
    case MetaOpType::kSetAcl:
      return "set_acl";
    case MetaOpType::kFlatPut:
      return "flat_put";
    case MetaOpType::kFlatErase:
      return "flat_erase";
  }
  return "unknown";
}

void MetaOp::Encode(WireBuffer* out) const {
  out->AppendU32(static_cast<uint32_t>(type));
  out->AppendU64(authority);
  out->AppendU64(dir.raw());
  out->AppendU64(dir2.raw());
  out->AppendString(name);
  out->AppendString(name2);
  out->AppendU64(obj.raw());
  out->AppendU64(a);
  out->AppendU64(b);
  out->AppendU64(pages);
  out->AppendU64(victim.raw());
  out->AppendU64(victim_links);
  out->AppendU8(victim_free);
  out->AppendU8(victim_is_dir);
  out->AppendU64(obj_links);
}

Result<MetaOp> MetaOp::Decode(WireReader* in) {
  MetaOp op;
  auto type = in->ReadU32();
  auto authority = in->ReadU64();
  auto dir = in->ReadU64();
  auto dir2 = in->ReadU64();
  auto name = in->ReadString();
  auto name2 = in->ReadString();
  auto obj = in->ReadU64();
  auto a = in->ReadU64();
  auto b = in->ReadU64();
  auto pages = in->ReadU64();
  auto victim = in->ReadU64();
  auto victim_links = in->ReadU64();
  auto victim_free = in->ReadU8();
  auto victim_is_dir = in->ReadU8();
  auto obj_links = in->ReadU64();
  if (!type.ok() || !authority.ok() || !dir.ok() || !dir2.ok() ||
      !name.ok() || !name2.ok() || !obj.ok() || !a.ok() || !b.ok() ||
      !pages.ok() || !victim.ok() || !victim_links.ok() || !victim_free.ok() ||
      !victim_is_dir.ok() || !obj_links.ok()) {
    return Status(ErrorCode::kInvalidArgument, "truncated metadata op");
  }
  op.type = static_cast<MetaOpType>(*type);
  op.authority = *authority;
  op.dir = Oid(*dir);
  op.dir2 = Oid(*dir2);
  op.name = std::string(*name);
  op.name2 = std::string(*name2);
  op.obj = Oid(*obj);
  op.a = *a;
  op.b = *b;
  op.pages = *pages;
  op.victim = Oid(*victim);
  op.victim_links = *victim_links;
  op.victim_free = *victim_free;
  op.victim_is_dir = *victim_is_dir;
  op.obj_links = *obj_links;
  return op;
}

std::string EncodeBatch(const std::vector<MetaOp>& ops) {
  WireBuffer buf;
  buf.AppendU32(static_cast<uint32_t>(ops.size()));
  for (const MetaOp& op : ops) {
    op.Encode(&buf);
  }
  return buf.Release();
}

Result<std::vector<MetaOp>> DecodeBatch(std::string_view blob) {
  WireReader reader(blob);
  auto count = reader.ReadU32();
  if (!count.ok()) {
    return count.status();
  }
  // Minimum encoded op size bounds the count a well-formed blob can carry
  // (untrusted input: never reserve based on a claimed count alone).
  if (*count > blob.size() / kMinOpBytes + 1) {
    return Status(ErrorCode::kInvalidArgument, "op count exceeds batch size");
  }
  std::vector<MetaOp> ops;
  ops.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto op = MetaOp::Decode(&reader);
    if (!op.ok()) {
      return op.status();
    }
    ops.push_back(std::move(*op));
  }
  if (!reader.AtEnd()) {
    return Status(ErrorCode::kInvalidArgument, "trailing bytes in batch");
  }
  return ops;
}

}  // namespace aerie
