#include "src/txlog/redo_log.h"

#include <cstring>

#include "src/common/hash.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/scm/crash_sim.h"

namespace aerie {

namespace {

constexpr uint64_t kLogMagic = 0x41455249454c4f47ULL;  // "AERIELOG"

struct LogHeaderRep {
  uint64_t magic;
  uint64_t capacity;
  // Committed tail: bytes of valid records. Published atomically.
  uint64_t head;
};

struct RecordHeaderRep {
  uint32_t size;  // payload bytes
  uint32_t type;
  uint64_t checksum;  // over payload
};

uint64_t AlignUp8(uint64_t v) { return (v + 7) & ~7ULL; }

}  // namespace

char* RedoLog::RecordArea() const {
  return region_->PtrAt(offset_) + sizeof(LogHeaderRep);
}

Result<RedoLog> RedoLog::Format(ScmRegion* region, uint64_t offset,
                                uint64_t size) {
  if (size <= sizeof(LogHeaderRep)) {
    return Status(ErrorCode::kInvalidArgument, "log area too small");
  }
  AERIE_SPAN("txlog", "format");
  auto* hdr = reinterpret_cast<LogHeaderRep*>(region->PtrAt(offset));
  hdr->capacity = size - sizeof(LogHeaderRep);
  hdr->head = 0;
  region->WlFlush(hdr, sizeof(*hdr));
  region->Fence();
  region->PersistU64(&hdr->magic, kLogMagic);
  return RedoLog(region, offset, hdr->capacity);
}

Result<RedoLog> RedoLog::Open(ScmRegion* region, uint64_t offset) {
  auto* hdr = reinterpret_cast<LogHeaderRep*>(region->PtrAt(offset));
  if (hdr->magic != kLogMagic) {
    return Status(ErrorCode::kCorrupted, "bad redo-log magic");
  }
  RedoLog log(region, offset, hdr->capacity);
  log.volatile_tail_ = hdr->head;
  return log;
}

uint64_t RedoLog::committed_bytes() const {
  const auto* hdr =
      reinterpret_cast<const LogHeaderRep*>(region_->PtrAt(offset_));
  return hdr->head;
}

Status RedoLog::Append(uint32_t type, std::span<const char> payload) {
  AERIE_SPAN("txlog", "append");
  const uint64_t need =
      AlignUp8(sizeof(RecordHeaderRep) + payload.size());
  if (volatile_tail_ + need > capacity_) {
    return Status(ErrorCode::kOutOfSpace, "redo log full");
  }
  RecordHeaderRep rec;
  rec.size = static_cast<uint32_t>(payload.size());
  rec.type = type;
  rec.checksum = HashBytes(payload.data(), payload.size());

  char* dst = RecordArea() + volatile_tail_;
  // Streaming writes into the log (paper: x86 streaming instructions buffer
  // in WC buffers; high bandwidth for the sequential log).
  region_->StreamWrite(dst, &rec, sizeof(rec));
  if (!payload.empty()) {
    region_->StreamWrite(dst + sizeof(rec), payload.data(), payload.size());
  }
  volatile_tail_ += need;
  AERIE_COUNT_N("txlog.append.bytes", need);
  // Mid-epoch interest point: record bytes sit in the WC buffers and any
  // subset of them may reach SCM; the commit pointer must shield replay.
  region_->CrashPoint("txlog.append");
  return OkStatus();
}

Status RedoLog::Commit() {
  AERIE_SPAN("txlog", "commit");
  AERIE_COUNT("txlog.commit.count");
  obs::TraceInstant("txlog.commit.bytes", volatile_tail_);
  // Registered persistence sites (crash-sim mutation targets). Suppressing
  // any of them is a detectable protocol bug: without the BFlush the commit
  // pointer can cover garbage record bytes; without the publish flush a
  // crash mid-apply has no committed record to replay. The fences here are
  // deliberately NOT registered — the apply path fences before anything
  // depends on them, so their suppression is masked by protocol redundancy
  // and a mutation test could never detect it (see DESIGN.md).
  static const int kCommitBFlushSite =
      RegisterPersistSite("txlog.commit.bflush");
  static const int kCommitPublishFlushSite =
      RegisterPersistSite("txlog.commit.publish.flush");
  // Drain the WC buffers so record bytes are persistent, order the commit
  // pointer after them, then publish with one atomic 64-bit store.
  region_->BFlush(kCommitBFlushSite);
  region_->Fence();
  auto* hdr = reinterpret_cast<LogHeaderRep*>(region_->PtrAt(offset_));
  region_->PersistU64(&hdr->head, volatile_tail_, kCommitPublishFlushSite);
  region_->CrashPoint("txlog.commit");
  return OkStatus();
}

Status RedoLog::Replay(const ReplayFn& fn) const {
  AERIE_SPAN("txlog", "replay");
  const uint64_t end = committed_bytes();
  const char* area = RecordArea();
  uint64_t pos = 0;
  while (pos < end) {
    if (pos + sizeof(RecordHeaderRep) > end) {
      return Status(ErrorCode::kCorrupted, "truncated record header");
    }
    RecordHeaderRep rec;
    std::memcpy(&rec, area + pos, sizeof(rec));
    const uint64_t payload_at = pos + sizeof(RecordHeaderRep);
    if (payload_at + rec.size > end) {
      return Status(ErrorCode::kCorrupted, "truncated record payload");
    }
    std::span<const char> payload(area + payload_at, rec.size);
    if (HashBytes(payload.data(), payload.size()) != rec.checksum) {
      return Status(ErrorCode::kCorrupted, "record checksum mismatch");
    }
    AERIE_RETURN_IF_ERROR(fn(rec.type, payload));
    pos = AlignUp8(payload_at + rec.size);
  }
  return OkStatus();
}

void RedoLog::Truncate() {
  AERIE_SPAN("txlog", "truncate");
  // Suppressing this flush leaves the old (larger) head covering a mix of
  // freshly appended and stale record bytes — replay then walks across the
  // torn boundary and fails the checksum.
  static const int kTruncatePublishFlushSite =
      RegisterPersistSite("txlog.truncate.publish.flush");
  auto* hdr = reinterpret_cast<LogHeaderRep*>(region_->PtrAt(offset_));
  region_->PersistU64(&hdr->head, 0, kTruncatePublishFlushSite);
  volatile_tail_ = 0;
  region_->CrashPoint("txlog.truncate");
}

}  // namespace aerie
