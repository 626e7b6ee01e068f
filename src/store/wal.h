// Write-ahead log for the serving corpus.
//
// The WAL is a flat file of binary records, each one a CRC-framed wire
// frame (common/framing.h — the exact format the serving sockets use, so
// framing, checksums and torn-tail detection are one battle-tested code
// path). One record type exists today:
//
//   kWalInsert (type 1), payload:
//     offset  size  field
//     0       8     seq    — corpus id this embedding was assigned
//     8       4     dim    — embedding width
//     12      8*dim IEEE-754 doubles, little-endian bit patterns
//
// Append discipline: a record is written and fsync'd *before* the insert
// it describes is applied to the in-memory database or acknowledged to the
// client, so the log is always a superset of acknowledged state.
//
// Replay discipline: records apply in file order. A record whose seq is
// below the database's current size is a duplicate of already-snapshotted
// state and is skipped — this makes replay idempotent, which is what lets
// compaction crash between writing the snapshot and truncating the log
// without corrupting anything. Replay stops (rather than throwing) at the
// first undecodable frame: a truncated tail (kill mid-write) or a
// bit-flipped record ends recovery at the last consistent prefix.

#ifndef NEUTRAJ_STORE_WAL_H_
#define NEUTRAJ_STORE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/embedding_db.h"
#include "nn/matrix.h"
#include "store/file.h"

namespace neutraj::store {

/// Wire-frame type of an insert record.
inline constexpr uint16_t kWalInsert = 1;

struct WalRecord {
  uint64_t seq = 0;
  nn::Vector embedding;
};

/// Renders one record as a framed byte string ready to append.
std::string EncodeWalRecord(const WalRecord& rec);

/// Decodes a kWalInsert payload; false on truncation, trailing garbage, or
/// an implausible dimension.
bool ParseWalRecord(const std::string& payload, WalRecord* out);

/// Why replay stopped consuming the log.
enum class WalTail {
  kClean,      ///< Every byte decoded as a valid record.
  kTorn,       ///< Trailing bytes form an incomplete frame (kill mid-write).
  kCorrupt,    ///< A frame failed magic/version/CRC checks.
  kBadRecord,  ///< A frame decoded but its payload was invalid (unknown
               ///< type, malformed payload, sequence gap, dim mismatch).
};

const char* WalTailName(WalTail t);

struct WalReplayResult {
  size_t applied = 0;      ///< Records inserted into the database.
  size_t skipped = 0;      ///< Duplicates of snapshotted state (idempotence).
  size_t valid_bytes = 0;  ///< Prefix length consumed as valid records.
  WalTail tail = WalTail::kClean;
  std::string detail;      ///< Human-readable stop reason when not kClean.
};

/// Replays `bytes` (a WAL file's contents) into `db`. Never throws on log
/// corruption — it stops at the last valid prefix and reports how.
WalReplayResult ReplayWal(const std::string& bytes, EmbeddingDatabase* db);

/// Appender over one WAL file. Not thread-safe; DurableStore serializes.
class WalWriter {
 public:
  /// Opens `path` for appending via `factory`.
  WalWriter(std::string path, FileFactory* factory);

  /// Appends one record durably (write + fsync) and returns its size in
  /// bytes. Throws StoreError on any I/O failure, in which case nothing may
  /// be acknowledged.
  size_t Append(const WalRecord& rec);

  /// Truncates the log to empty (post-compaction). Throws StoreError.
  void Reset();

  /// Records appended since the writer opened or last Reset.
  uint64_t appended_records() const { return appended_records_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::unique_ptr<File> file_;
  uint64_t appended_records_ = 0;
};

}  // namespace neutraj::store

#endif  // NEUTRAJ_STORE_WAL_H_
