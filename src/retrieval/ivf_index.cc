#include "retrieval/ivf_index.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/embedding_db.h"
#include "retrieval/kernels.h"

namespace neutraj::retrieval {

namespace {

/// Nearest centroid by exact squared L2, ties toward the lower list id
/// (the scan order makes the tie-break implicit: strict < keeps the first).
size_t NearestCentroid(const std::vector<nn::Vector>& centroids,
                       const double* row, size_t dim) {
  size_t best = 0;
  double best_dist = ExactSquaredL2(centroids[0].data(), row, dim);
  for (size_t c = 1; c < centroids.size(); ++c) {
    const double dist = ExactSquaredL2(centroids[c].data(), row, dim);
    if (dist < best_dist) {
      best_dist = dist;
      best = c;
    }
  }
  return best;
}

}  // namespace

void IvfIndex::Build(const std::vector<nn::Vector>& rows, size_t threads) {
  if (built()) {
    throw std::logic_error("IvfIndex::Build: index already built");
  }
  if (rows.empty()) {
    throw std::invalid_argument("IvfIndex::Build: empty corpus");
  }
  const size_t n = rows.size();
  const size_t dim = rows.front().size();
  if (dim == 0) {
    throw std::invalid_argument("IvfIndex::Build: zero-dimension rows");
  }
  for (const nn::Vector& row : rows) {
    if (row.size() != dim) {
      throw std::invalid_argument("IvfIndex::Build: ragged corpus rows");
    }
    NEUTRAJ_DCHECK_FINITE(row);
  }

  // The quantizer trains on the full corpus (one O(n * d) max pass), so no
  // build-time row ever clamps; only live inserts beyond the built range do.
  quantizer_ = Int8Quantizer::Train(rows);

  // Seeded k-means over a sample: deterministic init, fixed Lloyd
  // iterations, empty lists keep their previous centroid.
  Rng rng(options_.seed);
  std::vector<size_t> sample;
  if (n <= options_.train_sample) {
    sample.resize(n);
    for (size_t i = 0; i < n; ++i) sample[i] = i;
  } else {
    sample = rng.SampleIndices(n, options_.train_sample);
  }
  const size_t nlist = std::max<size_t>(
      1, std::min(options_.nlist, sample.size()));

  std::vector<nn::Vector> centroids;
  centroids.reserve(nlist);
  for (const size_t idx : rng.SampleIndices(sample.size(), nlist)) {
    centroids.push_back(rows[sample[idx]]);
  }
  std::vector<size_t> assign(sample.size(), 0);
  std::vector<nn::Vector> sums(nlist);
  std::vector<size_t> counts(nlist);
  for (size_t iter = 0; iter < options_.kmeans_iters; ++iter) {
    for (size_t s = 0; s < sample.size(); ++s) {
      assign[s] = NearestCentroid(centroids, rows[sample[s]].data(), dim);
    }
    for (size_t c = 0; c < nlist; ++c) {
      sums[c].assign(dim, 0.0);
      counts[c] = 0;
    }
    for (size_t s = 0; s < sample.size(); ++s) {
      const nn::Vector& row = rows[sample[s]];
      nn::Vector& sum = sums[assign[s]];
      for (size_t d = 0; d < dim; ++d) sum[d] += row[d];
      ++counts[assign[s]];
    }
    for (size_t c = 0; c < nlist; ++c) {
      if (counts[c] == 0) continue;  // Empty list keeps its old centroid.
      for (size_t d = 0; d < dim; ++d) {
        centroids[c][d] = sums[c][d] / static_cast<double>(counts[c]);
      }
    }
  }

  // Assignment pass over the full corpus. Each slot is written exactly once,
  // so the parallel chunking cannot change the result.
  std::vector<size_t> full_assign(n);
  ParallelFor(n, threads, [&](size_t i) {
    full_assign[i] = NearestCentroid(centroids, rows[i].data(), dim);
  });

  std::vector<CodeList> lists(nlist);
  for (size_t i = 0; i < n; ++i) {
    CodeList& list = lists[full_assign[i]];
    list.ids.push_back(i);
    list.codes.Append(quantizer_, rows[i]);
  }

  {
    WriterLock lock(mu_);
    centroids_ = std::move(centroids);
    lists_ = std::move(lists);
    rows_ = n;
  }
  built_.store(true, std::memory_order_release);
}

size_t IvfIndex::nlist() const {
  ReaderLock lock(mu_);
  return centroids_.size();
}

size_t IvfIndex::size() const {
  ReaderLock lock(mu_);
  return rows_;
}

void IvfIndex::Insert(size_t id, const nn::Vector& embedding) {
  if (!built()) {
    throw std::logic_error("IvfIndex::Insert: index not built");
  }
  if (embedding.size() != dim()) {
    throw std::invalid_argument(
        "IvfIndex::Insert: embedding dimension " +
        std::to_string(embedding.size()) + " != index dimension " +
        std::to_string(dim()));
  }
  NEUTRAJ_DCHECK_FINITE(embedding);
  WriterLock lock(mu_);
  CodeList& list =
      lists_[NearestCentroid(centroids_, embedding.data(), embedding.size())];
  list.ids.push_back(id);
  list.codes.Append(quantizer_, embedding);
  ++rows_;
}

void IvfIndex::CheckQuery(const nn::Vector& query, const char* caller) const {
  if (!built()) {
    throw std::logic_error(std::string("IvfIndex::") + caller +
                           ": index not built");
  }
  if (query.size() != dim()) {
    throw std::invalid_argument(
        std::string("IvfIndex::") + caller + ": query dimension " +
        std::to_string(query.size()) + " != index dimension " +
        std::to_string(dim()));
  }
}

std::vector<size_t> IvfIndex::Probe(const nn::Vector& query,
                                    size_t nprobe) const {
  CheckQuery(query, "Probe");
  ReaderLock lock(mu_);
  // Rank lists by exact centroid distance, ties toward the lower list id.
  const size_t probe = std::max<size_t>(
      1, std::min(nprobe == 0 ? options_.default_nprobe : nprobe,
                  centroids_.size()));
  std::vector<std::pair<double, size_t>> order;
  order.reserve(centroids_.size());
  for (size_t c = 0; c < centroids_.size(); ++c) {
    order.emplace_back(
        ExactSquaredL2(centroids_[c].data(), query.data(), query.size()), c);
  }
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<ptrdiff_t>(probe), order.end());
  std::vector<size_t> lists(probe);
  for (size_t p = 0; p < probe; ++p) lists[p] = order[p].second;
  return lists;
}

SearchResult IvfIndex::TopK(const EmbeddingDatabase& db,
                            const nn::Vector& query,
                            const std::vector<size_t>& lists, size_t k,
                            int64_t exclude, size_t* scanned) const {
  CheckQuery(query, "TopK");
  ReaderLock lock(mu_);
  std::vector<const CodeList*> probed;
  probed.reserve(lists.size());
  size_t rows = 0;
  for (const size_t l : lists) {
    probed.push_back(&lists_.at(l));
    rows += probed.back()->ids.size();
  }
  if (scanned != nullptr) *scanned = rows;
  // Lock rank kRetrieval -> kDb: the lists stay put while the database
  // reads their rows.
  return db.TopKOfLists(query, k, exclude, quantizer_, probed);
}

}  // namespace neutraj::retrieval
