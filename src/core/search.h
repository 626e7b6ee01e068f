// Top-k similarity search primitives.
//
// The paper's online protocol: embed the corpus once, answer a query by a
// linear scan in embedding space (O(|corpus| * d)), optionally re-rank the
// top candidates with the exact measure.

#ifndef NEUTRAJ_CORE_SEARCH_H_
#define NEUTRAJ_CORE_SEARCH_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "distance/measures.h"
#include "nn/matrix.h"

namespace neutraj {

/// Result of a top-k query: ids and their distances, ascending by distance.
struct SearchResult {
  std::vector<size_t> ids;
  std::vector<double> dists;

  size_t size() const { return ids.size(); }
};

/// Top-k smallest entries of a distance vector (ties broken by lower id).
/// `exclude` (if >= 0) removes one id — typically the query itself.
SearchResult TopKByDistance(const std::vector<double>& dists, size_t k,
                            int64_t exclude = -1);

/// The k best (distance, id) pairs seen so far, as a bounded max-heap whose
/// top is the current worst entry: the streaming form of TopKByDistance.
/// It never holds more than min(k, rows offered) entries, so a scan with a
/// huge k over a small corpus allocates no more than the corpus.
class TopKHeap {
 public:
  explicit TopKHeap(size_t k) : k_(k) {}

  /// Reserves room for `rows` more offers (capped at k).
  void Reserve(size_t rows);

  /// Offers row `id` at squared L2 distance `sq`; its distance is
  /// std::sqrt(sq). Ids must arrive in ascending order: a row whose `sq`
  /// exceeds the worst entry's is dropped without taking the sqrt, which is
  /// exact only because an equal distance would lose the tie on id.
  void OfferScanned(double sq, size_t id) {
    if (heap_.size() == k_ && (k_ == 0 || sq > heap_.front().sq)) return;
    Offer({std::sqrt(sq), sq, id});
  }

  /// OfferScanned for ids in any order: the row always takes its sqrt and
  /// competes by (distance, id), so a tie at the worst entry's distance goes
  /// to the lower id whenever it arrives.
  void OfferAnyOrder(double sq, size_t id) { Offer({std::sqrt(sq), sq, id}); }

  /// The distance a row must not exceed to enter: the worst entry's once
  /// the heap holds k entries, +infinity before.
  double Bound() const {
    return heap_.size() < k_ || heap_.empty()
               ? std::numeric_limits<double>::infinity()
               : heap_.front().dist;
  }

  /// Folds in every entry of `other`, whose ids may interleave with ours.
  void Merge(const TopKHeap& other);

  /// The entries ascending by (distance, id); leaves the heap empty.
  SearchResult Take();

 private:
  struct Entry {
    double dist;
    double sq;  ///< dist == std::sqrt(sq): the pruning key.
    size_t id;
  };
  /// The (distance, then ascending id) order every top-k result follows.
  static bool Before(const Entry& a, const Entry& b) {
    return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
  }
  void Offer(const Entry& e);

  size_t k_;
  std::vector<Entry> heap_;  ///< Max-heap under Before.
};

/// Streams rows [begin, end) of `corpus` into `heap` under L2, skipping
/// `exclude` (if >= 0). Each row's squared sum runs left to right over the
/// dimensions, as nn::L2Distance does, so every score is bit-identical to
/// it. Rows must all have the query's width (std::invalid_argument
/// otherwise). Allocates nothing beyond the heap's min(k, rows) entries.
void ScanTopK(const std::vector<nn::Vector>& corpus, const nn::Vector& query,
              size_t begin, size_t end, int64_t exclude, TopKHeap* heap);

/// Top-k nearest corpus embeddings to `query` under L2: ScanTopK over the
/// whole corpus. Bit-identical to TopKByDistance over nn::L2Distance of
/// every row, without materializing that distance vector.
SearchResult EmbeddingTopK(const std::vector<nn::Vector>& corpus,
                           const nn::Vector& query, size_t k,
                           int64_t exclude = -1);

/// EmbeddingTopK restricted to `candidates` — EmbeddingDatabase::TopKOf's
/// scan, an oracle for any result's ids. Distances and the (distance, then
/// ascending id) tie-break are computed exactly as EmbeddingTopK computes
/// them, so when `candidates` contains the true top-k the result is
/// bit-identical to the full scan. Duplicate candidate ids are scored once.
SearchResult EmbeddingTopKOf(const std::vector<nn::Vector>& corpus,
                             const nn::Vector& query,
                             const std::vector<size_t>& candidates, size_t k,
                             int64_t exclude = -1);

/// Top-k nearest corpus trajectories to `query` under the exact measure —
/// the BruteForce baseline and the experiments' ground truth.
SearchResult ExactTopK(const std::vector<Trajectory>& corpus,
                       const Trajectory& query, const DistanceFn& fn, size_t k,
                       int64_t exclude = -1);

/// Computes exact distances for `candidates` only and returns their top-k —
/// the re-ranking step applied after an embedding (or index) prefilter.
SearchResult RerankByExact(const std::vector<Trajectory>& corpus,
                           const Trajectory& query,
                           const std::vector<size_t>& candidates,
                           const DistanceFn& fn, size_t k);

}  // namespace neutraj

#endif  // NEUTRAJ_CORE_SEARCH_H_
