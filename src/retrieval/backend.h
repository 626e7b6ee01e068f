// Retrieval backends: the strategy seam between the query service and the
// corpus scan.
//
// QueryService answers every TopK through a RetrievalBackend. ExactBackend,
// the service's default, is the full O(N * d) EmbeddingDatabase scan, split
// into row chunks that the calling thread and the backend's helper threads
// claim together.
// IvfBackend is the ANN path: an IvfIndex probe ranks the centroids, then
// the exact scan's int8 bound runs over the probed lists, so the result is
// the exact top-k of those lists and only which lists are probed is
// approximate; probing every list gives ExactBackend's answer bit for bit.
// Both backends are views over the service's primary EmbeddingDatabase —
// inserts land in the database (and WAL) first, then NotifyInsert keeps
// the backend's index current.
//
// Telemetry (IvfBackend, re-resolved by AttachMetrics):
//   retrieval/probe_us            histogram  centroid ranking
//   retrieval/rerank_us           histogram  bounded scan of the probed lists
//   retrieval/candidates_scanned  counter    rows the probed lists hold
//   retrieval/lists_probed        counter    lists probed
//   retrieval/queries             counter    TopK calls served

#ifndef NEUTRAJ_RETRIEVAL_BACKEND_H_
#define NEUTRAJ_RETRIEVAL_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/thread_pool.h"
#include "core/embedding_db.h"
#include "core/search.h"
#include "nn/matrix.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "retrieval/ivf_index.h"

namespace neutraj::retrieval {

/// Strategy interface for answering embedding top-k queries.
class RetrievalBackend {
 public:
  virtual ~RetrievalBackend() = default;

  /// Stable identifier ("exact", "ivf") for logs and stats.
  virtual const char* name() const = 0;

  /// Top-k for `query`; `exclude` as in EmbeddingDatabase::TopK. `nprobe`
  /// is the ANN breadth knob (0 = backend default); exact backends ignore
  /// it. `trace` (nullable) receives per-stage spans ("probe"/"rerank" for
  /// IVF, "scan" for exact) when the request is sampled; results are
  /// identical either way.
  virtual SearchResult TopK(const nn::Vector& query, size_t k, int64_t exclude,
                            size_t nprobe,
                            obs::RequestTrace* trace = nullptr) = 0;

  /// Called after row `id` has landed in the primary database (and WAL).
  virtual void NotifyInsert(size_t id, const nn::Vector& embedding) = 0;

  /// Re-points backend telemetry at `registry` (no-op for backends without
  /// metrics of their own).
  virtual void AttachMetrics(obs::MetricsRegistry* registry) = 0;
};

/// The full exact scan — EmbeddingDatabase::TopK, its row chunks shared
/// between the calling thread and this backend's own helper pool.
class ExactBackend final : public RetrievalBackend {
 public:
  /// `db` must outlive the backend. `threads` is how many cores the scans
  /// in flight may use together: each caller scans on its own thread, and
  /// a pool of `threads - 1` helpers (none for threads <= 1, which scans
  /// inline) lends each of the c concurrent callers (threads - c) / c of
  /// them. So one caller gets every idle core, and more than threads / 2
  /// callers scan inline instead of crowding the cores they already fill.
  explicit ExactBackend(const EmbeddingDatabase* db, size_t threads = 1);

  const char* name() const override { return "exact"; }
  SearchResult TopK(const nn::Vector& query, size_t k, int64_t exclude,
                    size_t nprobe, obs::RequestTrace* trace = nullptr) override;
  void NotifyInsert(size_t /*id*/, const nn::Vector& /*embedding*/) override {
  }
  void AttachMetrics(obs::MetricsRegistry* /*registry*/) override {}

 private:
  const EmbeddingDatabase* db_;
  const size_t threads_;
  std::unique_ptr<ThreadPool> helpers_;  ///< Null: scan inline.
  std::atomic<size_t> callers_{0};       ///< TopK calls in flight.
};

/// IVF probe + bounded scan of the probed lists. Build() must run on a
/// quiesced database before the backend serves traffic; NotifyInsert keeps
/// it current after.
class IvfBackend final : public RetrievalBackend {
 public:
  /// `db` must outlive the backend. Metrics register in `registry`
  /// (nullptr = the process-global registry).
  IvfBackend(const EmbeddingDatabase* db, IvfIndex::Options options,
             obs::MetricsRegistry* registry = nullptr);

  /// Deterministically builds the index from the database's current rows
  /// over `threads` workers (call once, before serving). The database must
  /// be quiesced (uses the unlocked embeddings() accessor) and non-empty.
  void Build(size_t threads = 1);

  const char* name() const override { return "ivf"; }
  SearchResult TopK(const nn::Vector& query, size_t k, int64_t exclude,
                    size_t nprobe, obs::RequestTrace* trace = nullptr) override;
  void NotifyInsert(size_t id, const nn::Vector& embedding) override;
  void AttachMetrics(obs::MetricsRegistry* registry) override;

  const IvfIndex& index() const { return index_; }

 private:
  const EmbeddingDatabase* db_;
  IvfIndex index_;

  // Registry-owned; re-resolved by AttachMetrics.
  obs::ConcurrentHistogram* probe_us_ = nullptr;
  obs::ConcurrentHistogram* rerank_us_ = nullptr;
  obs::Counter* candidates_scanned_ = nullptr;
  obs::Counter* lists_probed_ = nullptr;
  obs::Counter* queries_ = nullptr;
};

}  // namespace neutraj::retrieval

#endif  // NEUTRAJ_RETRIEVAL_BACKEND_H_
