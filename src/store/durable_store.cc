#include "store/durable_store.h"

#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/file_util.h"
#include "obs/trace.h"

namespace neutraj::store {

namespace {

constexpr char kSnapshotName[] = "snapshot.embdb";
constexpr char kWalName[] = "wal.log";
constexpr char kSnapshotTmpSuffix[] = ".tmp";

}  // namespace

DurableStore::DurableStore(EmbeddingDatabase* db, Options opts)
    : db_(db),
      opts_(std::move(opts)),
      files_(opts_.files != nullptr ? opts_.files : &FileFactory::Posix()),
      snapshot_path_(opts_.data_dir + "/" + kSnapshotName),
      wal_path_(opts_.data_dir + "/" + kWalName) {
  if (db_ == nullptr) {
    throw std::invalid_argument("DurableStore: null EmbeddingDatabase");
  }
  if (opts_.data_dir.empty()) {
    throw std::invalid_argument("DurableStore: empty data_dir");
  }
  AttachMetrics(&obs::MetricsRegistry::Global());
}

void DurableStore::AttachMetrics(obs::MetricsRegistry* registry) {
  append_us_ = &registry->GetHistogram("wal/append_us");
  compact_us_ = &registry->GetHistogram("store/compact_us");
  recovery_us_ = &registry->GetHistogram("store/recovery_us");
  wal_appends_ = &registry->GetCounter("wal/records");
  wal_bytes_ = &registry->GetCounter("wal/bytes");
  compactions_ = &registry->GetCounter("store/compactions");
  recovered_records_ = &registry->GetCounter("store/recovered_records");
  replay_skipped_ = &registry->GetCounter("store/replay_skipped");
  tail_truncations_ = &registry->GetCounter("store/tail_truncations");
  degraded_gauge_ = &registry->GetGauge("store/degraded");
  live_wal_records_ = &registry->GetGauge("store/wal_records");
  degraded_gauge_->Set(degraded_.load() ? 1.0 : 0.0);
}

std::string DurableStore::degraded_reason() const {
  MutexLock lock(mu_);
  return degraded_reason_;
}

size_t DurableStore::wal_records() const {
  MutexLock lock(mu_);
  return wal_ != nullptr ? wal_->appended_records() : 0;
}

void DurableStore::DegradeLocked(const std::string& reason) {
  if (!degraded_.load()) {
    degraded_reason_ = reason;
    degraded_.store(true);
    degraded_gauge_->Set(1.0);
  }
}

DurableStore::RecoveryInfo DurableStore::Open() {
  obs::Span span("store/recovery", recovery_us_, nullptr);
  MutexLock lock(mu_);
  if (opened_) throw StoreError("DurableStore: already opened");
  if (!EnsureDirectory(opts_.data_dir)) {
    throw StoreError("DurableStore: cannot create data dir " + opts_.data_dir);
  }
  // A crash during a previous compaction can leave a half-written snapshot
  // temp file; it was never renamed into place, so it is dead weight.
  {
    std::error_code ec;
    std::filesystem::remove(snapshot_path_ + kSnapshotTmpSuffix, ec);
  }

  RecoveryInfo info;
  const bool has_snapshot = FileExists(snapshot_path_);
  std::string wal_bytes;
  if (FileExists(wal_path_)) wal_bytes = ReadFile(wal_path_);

  if ((has_snapshot || !wal_bytes.empty()) && !db_->empty()) {
    throw StoreError(
        "DurableStore: data dir " + opts_.data_dir +
        " already holds a corpus but the database is not empty — recover "
        "into an empty database or point at a fresh directory");
  }

  if (has_snapshot) {
    // CorruptionError propagates: a damaged snapshot must never be served.
    *db_ = EmbeddingDatabase::Load(snapshot_path_);
    info.snapshot_records = db_->size();
  }

  if (!wal_bytes.empty()) {
    const WalReplayResult r = ReplayWal(wal_bytes, db_);
    info.replayed = r.applied;
    info.skipped = r.skipped;
    info.tail = r.tail;
    info.tail_detail = r.detail;
    recovered_records_->Add(r.applied);
    replay_skipped_->Add(r.skipped);
    if (r.tail != WalTail::kClean) tail_truncations_->Increment();
  }

  wal_ = std::make_unique<WalWriter>(wal_path_, files_);
  opened_ = true;

  if (!wal_bytes.empty()) {
    // Fold the replayed tail into a fresh snapshot and truncate the log:
    // torn/corrupt trailing bytes must not precede future appends, and a
    // crash inside THIS compaction is safe by replay idempotence.
    CompactLocked(nullptr);
  } else if (!db_->empty() && !has_snapshot) {
    // Pre-seeded database (corpus built from --data) over a fresh
    // directory: make it durable before the first request.
    CompactLocked(nullptr);
  }
  return info;
}

size_t DurableStore::Insert(const nn::Vector& embedding,
                            obs::RequestTrace* trace) {
  obs::Span append_span("wal/append", append_us_, nullptr);
  obs::Span wait_span("store_wait", nullptr, trace);
  MutexLock lock(mu_);
  wait_span.Stop();
  if (!opened_) throw StoreError("DurableStore: Insert before Open");
  if (degraded_.load()) {
    throw StoreError("DurableStore: store is read-only (degraded): " +
                     degraded_reason_);
  }
  // All corpus mutations are serialized through mu_, so the id the
  // database will assign is its current size.
  const uint64_t seq = db_->size();
  // Reject what the database would reject before anything is logged: a
  // logged record the database refuses would stop every later replay at
  // it, losing the acknowledged inserts behind it.
  if (embedding.empty() || (seq > 0 && embedding.size() != db_->dim())) {
    throw std::invalid_argument(
        "DurableStore::Insert: embedding dimension " +
        std::to_string(embedding.size()) + " != database dimension " +
        std::to_string(db_->dim()));
  }
  obs::Span wal_span("wal", nullptr, trace);
  size_t record_bytes = 0;
  try {
    record_bytes = wal_->Append({seq, embedding});
  } catch (const StoreError& e) {
    // Not logged => must not be applied or acknowledged.
    DegradeLocked(e.what());
    throw;
  }
  wal_span.Stop();
  const size_t id = db_->Insert(embedding);
  NEUTRAJ_ASSERT_MSG(id == seq, "DurableStore: WAL seq diverged from corpus id");
  append_span.Stop();
  wal_appends_->Increment();
  wal_bytes_->Add(record_bytes);
  const uint64_t live_records = wal_->appended_records();
  live_wal_records_->Set(static_cast<double>(live_records));

  if (opts_.compact_every > 0 && live_records >= opts_.compact_every) {
    try {
      CompactLocked(trace);
    } catch (const StoreError& e) {
      // The insert itself is durable and applied; only future writes are
      // in doubt, so degrade but still acknowledge this id.
      DegradeLocked(e.what());
    }
  }
  return id;
}

void DurableStore::Compact() {
  MutexLock lock(mu_);
  if (!opened_) throw StoreError("DurableStore: Compact before Open");
  if (degraded_.load()) {
    throw StoreError("DurableStore: store is read-only (degraded): " +
                     degraded_reason_);
  }
  try {
    CompactLocked(nullptr);
  } catch (const StoreError& e) {
    DegradeLocked(e.what());
    throw;
  }
}

void DurableStore::CompactLocked(obs::RequestTrace* trace) {
  obs::Span span("compact", compact_us_, trace);
  // Atomic-replace with the same discipline as WriteFileAtomic, but routed
  // through the (injectable, checked) FileFactory: write the full snapshot
  // to a temp file, fsync it, rename over the live name, fsync the
  // directory, and only then truncate the log. Every prefix of this
  // sequence leaves a recoverable directory.
  const std::string tmp = snapshot_path_ + kSnapshotTmpSuffix;
  const std::string bytes = db_->Serialize();
  {
    std::unique_ptr<File> f = files_->CreateTruncate(tmp);
    f->Append(bytes);
    f->Sync();
  }
  files_->Rename(tmp, snapshot_path_);
  files_->SyncDirectory(opts_.data_dir);
  wal_->Reset();
  live_wal_records_->Set(0.0);
  compactions_->Increment();
}

}  // namespace neutraj::store
