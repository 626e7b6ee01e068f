#include "store/wal.h"

#include <stdexcept>
#include <utility>

#include "common/byte_codec.h"
#include "common/framing.h"

namespace neutraj::store {

std::string EncodeWalRecord(const WalRecord& rec) {
  if (rec.embedding.empty()) {
    throw std::invalid_argument("EncodeWalRecord: empty embedding");
  }
  ByteWriter w;
  w.Reserve(12 + 8 * rec.embedding.size());
  w.U64(rec.seq);
  w.U32(static_cast<uint32_t>(rec.embedding.size()));
  for (const double v : rec.embedding) w.F64(v);
  return EncodeWireFrame(kWalInsert, w.Take());
}

bool ParseWalRecord(const std::string& payload, WalRecord* out) {
  ByteReader r(payload);
  uint64_t seq = 0;
  uint32_t dim = 0;
  if (!r.U64(&seq) || !r.U32(&dim) || dim == 0 ||
      r.Remaining() != 8 * static_cast<size_t>(dim)) {
    return false;
  }
  out->seq = seq;
  out->embedding.resize(dim);
  for (double& v : out->embedding) r.F64(&v);
  return r.Done();
}

const char* WalTailName(WalTail t) {
  switch (t) {
    case WalTail::kClean: return "clean";
    case WalTail::kTorn: return "torn";
    case WalTail::kCorrupt: return "corrupt";
    case WalTail::kBadRecord: return "bad-record";
  }
  return "unknown";
}

WalReplayResult ReplayWal(const std::string& bytes, EmbeddingDatabase* db) {
  WalReplayResult result;
  size_t offset = 0;
  while (offset < bytes.size()) {
    WireFrame frame;
    const FrameStatus status = DecodeWireFrame(bytes, &offset, &frame);
    if (status == FrameStatus::kIncomplete) {
      result.tail = WalTail::kTorn;
      result.detail = "incomplete record at byte " + std::to_string(offset) +
                      " (" + std::to_string(bytes.size() - offset) +
                      " trailing bytes)";
      break;
    }
    if (status != FrameStatus::kOk) {
      result.tail = WalTail::kCorrupt;
      result.detail = std::string("undecodable record at byte ") +
                      std::to_string(offset) + ": " + FrameStatusName(status);
      break;
    }
    WalRecord rec;
    if (frame.type != kWalInsert || !ParseWalRecord(frame.payload, &rec)) {
      result.tail = WalTail::kBadRecord;
      result.detail = "malformed record payload (type " +
                      std::to_string(frame.type) + ")";
      break;
    }
    const size_t size = db->size();
    if (rec.seq < size) {
      // Already covered by the snapshot (or an earlier duplicate): the
      // skip is what makes replaying the same tail twice a no-op.
      ++result.skipped;
      result.valid_bytes = offset;
      continue;
    }
    if (rec.seq > size) {
      result.tail = WalTail::kBadRecord;
      result.detail = "sequence gap: record seq " + std::to_string(rec.seq) +
                      " but corpus has " + std::to_string(size);
      break;
    }
    try {
      db->Insert(rec.embedding);
    } catch (const std::invalid_argument& e) {
      result.tail = WalTail::kBadRecord;
      result.detail = std::string("record rejected: ") + e.what();
      break;
    }
    ++result.applied;
    result.valid_bytes = offset;
  }
  return result;
}

WalWriter::WalWriter(std::string path, FileFactory* factory)
    : path_(std::move(path)), file_(factory->OpenAppend(path_)) {}

size_t WalWriter::Append(const WalRecord& rec) {
  const std::string bytes = EncodeWalRecord(rec);
  file_->Append(bytes);
  file_->Sync();
  ++appended_records_;
  return bytes.size();
}

void WalWriter::Reset() {
  file_->Truncate();
  appended_records_ = 0;
}

}  // namespace neutraj::store
