// Crash-durable persistence under the serving corpus.
//
// DurableStore wraps a live EmbeddingDatabase with a write-ahead log plus
// periodic compacted snapshots, both living in one data directory:
//
//   <data_dir>/snapshot.embdb   — compacted corpus (the EmbeddingDatabase
//                                 container format, written atomically via
//                                 tmp + fsync + rename)
//   <data_dir>/wal.log          — CRC-framed insert records appended (and
//                                 fsync'd) since the last snapshot
//
// Snapshots are written in the binary codec: shape "<count> <dim> le64",
// then the rows as raw little-endian doubles, the same encoding WAL records
// use (see core/embedding_db.h). A legacy text snapshot (two-token shape)
// is still recovered, and the compaction that ends a recovery with a WAL
// tail rewrites it in binary. There is no downgrade: a binary that predates
// the codec cannot read the raw doubles and its Open() throws
// CorruptionError.
//
// Invariants, in the order they matter:
//
//   1. WAL-before-ack. Insert() appends and syncs the record before the
//      embedding enters the in-memory database, so anything a client saw
//      acknowledged is on stable storage. A kill at any instant recovers a
//      corpus that contains every acknowledged insert and is a prefix of
//      the submitted sequence (the at-most-one in-flight record may or may
//      not survive; nothing later can).
//   2. Idempotent replay. WAL records carry their corpus id; recovery
//      skips records already covered by the snapshot. Compaction can
//      therefore crash anywhere between "snapshot renamed" and "log
//      truncated" — the stale log records are skipped on the next replay,
//      never double-applied.
//   3. Tolerant tail, strict body. Recovery stops cleanly at a truncated
//      or bit-flipped log record (the expected shape of a crash) and
//      truncates it away; a corrupt *snapshot* is typed CorruptionError —
//      serving corrupt vectors is never an option.
//   4. Degrade, don't lie. If the log device fails mid-flight the store
//      flips to read-only: the failed insert and all later ones throw
//      StoreError (the serving layer answers kDegraded), while queries
//      over the already-durable corpus keep working.

#ifndef NEUTRAJ_STORE_DURABLE_STORE_H_
#define NEUTRAJ_STORE_DURABLE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/sync.h"
#include "core/embedding_db.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "store/file.h"
#include "store/wal.h"

namespace neutraj::store {

class DurableStore {
 public:
  struct Options {
    std::string data_dir;
    /// WAL records that trigger an automatic compaction from Insert();
    /// 0 compacts only on explicit Compact() / Open().
    size_t compact_every = 1024;
    /// fsync each WAL append. Production default; the fault harness turns
    /// it off because FaultyFile intercepts syncs anyway.
    bool sync_writes = true;
    /// I/O seam; nullptr uses FileFactory::Posix().
    FileFactory* files = nullptr;
  };

  /// What recovery found. Returned by Open() and echoed by the server log.
  struct RecoveryInfo {
    size_t snapshot_records = 0;  ///< Embeddings restored from the snapshot.
    size_t replayed = 0;          ///< WAL records applied on top.
    size_t skipped = 0;           ///< Duplicate records ignored (idempotence).
    WalTail tail = WalTail::kClean;
    std::string tail_detail;      ///< Stop reason when tail != kClean.
  };

  /// `db` must outlive the store; all mutations of `db` must go through
  /// Insert() once the store owns it (readers are unrestricted).
  DurableStore(EmbeddingDatabase* db, Options opts);

  /// Recovers snapshot + WAL tail into the database and opens the log for
  /// appending. If the directory holds prior state the database must be
  /// empty (recovery IS the corpus); if the database already has rows and
  /// the directory is fresh, they are snapshotted immediately so a corpus
  /// built from --data is durable from request one. Ends with a compaction
  /// whenever the log had content, so torn tails never linger. Throws
  /// StoreError on I/O failure and CorruptionError on a corrupt snapshot.
  RecoveryInfo Open() NEUTRAJ_EXCLUDES(mu_);

  /// Durably logs and applies one insert; returns the assigned corpus id.
  /// Throws StoreError (without applying) if the store is degraded or the
  /// append fails — an insert that was not logged is never acknowledged —
  /// and std::invalid_argument, logging nothing, for an empty embedding or
  /// one whose width differs from a non-empty database's.
  /// WAL-then-db ordering is enforced under mu_: the record is appended and
  /// synced before EmbeddingDatabase::Insert runs (store rank < db rank).
  /// `trace` (nullable) gets a "store_wait" span until mu_ is acquired, a
  /// "wal" span around the append + sync, and a "compact" span around the
  /// compaction this insert triggers, if any — recording is lock-free, so
  /// it is safe under mu_.
  size_t Insert(const nn::Vector& embedding,
                obs::RequestTrace* trace = nullptr) NEUTRAJ_EXCLUDES(mu_);

  /// Snapshots the corpus and truncates the WAL. Throws StoreError.
  void Compact() NEUTRAJ_EXCLUDES(mu_);

  /// True once a log/snapshot I/O failure has flipped the store read-only.
  bool read_only() const { return degraded_.load(); }
  std::string degraded_reason() const NEUTRAJ_EXCLUDES(mu_);

  /// Live WAL records since the last compaction.
  size_t wal_records() const NEUTRAJ_EXCLUDES(mu_);

  const std::string& snapshot_path() const { return snapshot_path_; }
  const std::string& wal_path() const { return wal_path_; }

  /// Re-points the store's telemetry (wal/* and store/* metrics) at
  /// `registry`; same contract as EmbeddingDatabase::AttachMetrics.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  /// One span times the compaction into store/compact_us and, when `trace`
  /// is sampled, into its "compact" stage.
  void CompactLocked(obs::RequestTrace* trace) NEUTRAJ_REQUIRES(mu_);
  void DegradeLocked(const std::string& reason) NEUTRAJ_REQUIRES(mu_);

  EmbeddingDatabase* db_;
  Options opts_;
  FileFactory* files_;
  std::string snapshot_path_;
  std::string wal_path_;

  /// Serializes all mutations; ranked below the database lock because
  /// Insert/Compact call into the EmbeddingDatabase while holding it
  /// (the WAL-then-db ordering seam).
  mutable Mutex mu_{lock_rank::kStore};
  std::unique_ptr<WalWriter> wal_ NEUTRAJ_GUARDED_BY(mu_)
      NEUTRAJ_PT_GUARDED_BY(mu_);
  size_t wal_records_ NEUTRAJ_GUARDED_BY(mu_) = 0;
  bool opened_ NEUTRAJ_GUARDED_BY(mu_) = false;
  std::string degraded_reason_ NEUTRAJ_GUARDED_BY(mu_);
  std::atomic<bool> degraded_{false};

  // Registry-owned; re-resolved by AttachMetrics.
  obs::ConcurrentHistogram* append_us_ = nullptr;
  obs::ConcurrentHistogram* compact_us_ = nullptr;
  obs::ConcurrentHistogram* recovery_us_ = nullptr;
  obs::Counter* wal_appends_ = nullptr;
  obs::Counter* wal_bytes_ = nullptr;
  obs::Counter* compactions_ = nullptr;
  obs::Counter* recovered_records_ = nullptr;
  obs::Counter* replay_skipped_ = nullptr;
  obs::Counter* tail_truncations_ = nullptr;
  obs::Gauge* degraded_gauge_ = nullptr;
  obs::Gauge* live_wal_records_ = nullptr;
};

}  // namespace neutraj::store

#endif  // NEUTRAJ_STORE_DURABLE_STORE_H_
