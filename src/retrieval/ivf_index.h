// IVF (inverted-file) index over corpus embeddings.
//
// The exact serving scan is O(N * d) per query; at millions of rows that is
// the latency floor. This index buys back most of it with the classic IVF
// recipe: a coarse k-means quantizer partitions the corpus into `nlist`
// lists, and a query reads only the `nprobe` lists whose centroids are
// nearest. Each list keeps its rows' corpus ids and their int8 codes
// (retrieval/quantized.h CodeList), and TopK runs the exact scan's bound
// over them (EmbeddingDatabase::TopKOfLists): only rows whose bound can
// reach the top k get their exact distance, read from the database. So the
// result is the exact top-k of the probed lists, distance bits and the
// (distance, ascending id) order included; probing every list gives
// exactly EmbeddingDatabase::TopK. Only which lists are probed is
// approximate.
//
// Determinism. The build is a pure function of (rows, Options): seeded
// sampling, seeded initial centroids, a fixed number of Lloyd iterations
// with ties broken toward the lower list id and empty lists keeping their
// previous centroid, and an assignment pass whose result is independent of
// the thread count. Queries are deterministic for a fixed (index, nprobe):
// centroid ranking ties break toward the lower list id, and the scan is
// exact.
//
// Concurrency. Centroids, lists, and row count live behind a SharedMutex
// at lock_rank::kRetrieval (below the kDb corpus lock, so TopK holds this
// index's lock into the database's). Probe() and TopK() take the reader
// lock, Insert() the writer lock. The quantizer and options are fixed by
// Build() before the index serves traffic and are read without locking.
//
// A list's ids need not ascend: the serving layer mirrors a row into the
// index after the database insert returns, outside any lock, so concurrent
// inserters can land ids out of order.

#ifndef NEUTRAJ_RETRIEVAL_IVF_INDEX_H_
#define NEUTRAJ_RETRIEVAL_IVF_INDEX_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/sync.h"
#include "core/search.h"
#include "nn/matrix.h"
#include "retrieval/quantized.h"

namespace neutraj {
class EmbeddingDatabase;
}

namespace neutraj::retrieval {

/// Coarse-quantized inverted-file index with int8-coded lists.
class IvfIndex {
 public:
  struct Options {
    /// Target list count; clamped to the corpus size at build time.
    size_t nlist = 64;
    /// Rows sampled (seeded, without replacement) to train k-means.
    size_t train_sample = 16384;
    /// Lloyd iterations; fixed count, no convergence test (determinism).
    size_t kmeans_iters = 8;
    /// Seed for sampling and centroid initialization.
    uint64_t seed = 42;
    /// Lists probed when the caller passes nprobe = 0.
    size_t default_nprobe = 8;
  };

  IvfIndex() : IvfIndex(Options{}) {}
  explicit IvfIndex(Options options) : options_(options) {}

  IvfIndex(const IvfIndex&) = delete;
  IvfIndex& operator=(const IvfIndex&) = delete;

  /// Builds the index from `rows` (typically EmbeddingDatabase::embeddings()
  /// on a quiesced database; row index == corpus id). Deterministic for a
  /// fixed (rows, Options) at every `threads` value. Throws
  /// std::invalid_argument on an empty corpus or ragged rows and
  /// std::logic_error if already built.
  void Build(const std::vector<nn::Vector>& rows, size_t threads = 1);

  bool built() const { return built_.load(std::memory_order_acquire); }

  /// Embedding width (0 before Build).
  size_t dim() const { return quantizer_.dim(); }

  /// Actual list count after clamping (0 before Build).
  size_t nlist() const NEUTRAJ_EXCLUDES(mu_);

  /// Indexed rows (build rows + live inserts).
  size_t size() const NEUTRAJ_EXCLUDES(mu_);

  /// Adds row `id` to the list with the nearest centroid. The id is the
  /// caller's corpus id (the serve layer passes the database insert id).
  /// Throws std::logic_error before Build and std::invalid_argument on a
  /// dimension mismatch.
  void Insert(size_t id, const nn::Vector& embedding) NEUTRAJ_EXCLUDES(mu_);

  /// The lists `query` probes, nearest centroid first: the nprobe nearest
  /// (0 = Options::default_nprobe; clamped to [1, nlist]), ties toward the
  /// lower list id. Throws std::logic_error before Build and
  /// std::invalid_argument on a dimension mismatch.
  std::vector<size_t> Probe(const nn::Vector& query, size_t nprobe = 0) const
      NEUTRAJ_EXCLUDES(mu_);

  /// The exact top-k of the rows in `lists` (as Probe returns them), their
  /// distances read from `db`, the database whose ids the lists hold:
  /// EmbeddingDatabase::TopKOfLists under this index's reader lock.
  /// `scanned` (nullable) receives how many rows the lists hold. Throws as
  /// Probe does, and std::out_of_range on a list number >= nlist().
  SearchResult TopK(const EmbeddingDatabase& db, const nn::Vector& query,
                    const std::vector<size_t>& lists, size_t k,
                    int64_t exclude = -1, size_t* scanned = nullptr) const
      NEUTRAJ_EXCLUDES(mu_);

  const Options& options() const { return options_; }

 private:
  /// Throws unless the index is built and `query` has its width.
  void CheckQuery(const nn::Vector& query, const char* caller) const;

  const Options options_;
  Int8Quantizer quantizer_;  ///< Fixed by Build before serving.
  std::atomic<bool> built_{false};

  mutable SharedMutex mu_{lock_rank::kRetrieval};
  std::vector<nn::Vector> centroids_ NEUTRAJ_GUARDED_BY(mu_);
  std::vector<CodeList> lists_ NEUTRAJ_GUARDED_BY(mu_);
  size_t rows_ NEUTRAJ_GUARDED_BY(mu_) = 0;
};

}  // namespace neutraj::retrieval

#endif  // NEUTRAJ_RETRIEVAL_IVF_INDEX_H_
