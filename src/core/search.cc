#include "core/search.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/similarity.h"

namespace neutraj {

namespace {

/// Shared partial-sort driver over (id, distance) pairs.
SearchResult TopKImpl(size_t n, size_t k, int64_t exclude,
                      const std::vector<double>& dists) {
  std::vector<size_t> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (exclude >= 0 && i == static_cast<size_t>(exclude)) continue;
    ids.push_back(i);
  }
  const size_t kk = std::min(k, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + static_cast<long>(kk), ids.end(),
                    [&](size_t a, size_t b) {
                      if (dists[a] != dists[b]) return dists[a] < dists[b];
                      return a < b;
                    });
  ids.resize(kk);
  SearchResult r;
  r.ids = std::move(ids);
  r.dists.reserve(kk);
  for (size_t id : r.ids) r.dists.push_back(dists[id]);
  return r;
}

}  // namespace

SearchResult TopKByDistance(const std::vector<double>& dists, size_t k,
                            int64_t exclude) {
  return TopKImpl(dists.size(), k, exclude, dists);
}

void TopKHeap::Reserve(size_t rows) {
  heap_.reserve(std::min(k_, heap_.size() + rows));
}

void TopKHeap::Offer(const Entry& e) {
  if (heap_.size() < k_) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Before);
  } else if (k_ > 0 && Before(e, heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Before);
    heap_.back() = e;
    std::push_heap(heap_.begin(), heap_.end(), Before);
  }
}

void TopKHeap::Merge(const TopKHeap& other) {
  Reserve(other.heap_.size());
  for (const Entry& e : other.heap_) Offer(e);
}

SearchResult TopKHeap::Take() {
  std::sort_heap(heap_.begin(), heap_.end(), Before);
  SearchResult r;
  r.ids.reserve(heap_.size());
  r.dists.reserve(heap_.size());
  for (const Entry& e : heap_) {
    r.ids.push_back(e.id);
    r.dists.push_back(e.dist);
  }
  heap_.clear();
  return r;
}

void ScanTopK(const std::vector<nn::Vector>& corpus, const nn::Vector& query,
              size_t begin, size_t end, int64_t exclude, TopKHeap* heap) {
  const size_t dim = query.size();
  const double* q = query.data();
  const size_t skip = exclude >= 0 ? static_cast<size_t>(exclude)
                                   : std::numeric_limits<size_t>::max();
  auto row = [&](size_t i) {
    if (corpus[i].size() != dim) {
      throw std::invalid_argument("ScanTopK: row " + std::to_string(i) +
                                  " has dimension " +
                                  std::to_string(corpus[i].size()) +
                                  " != query dimension " +
                                  std::to_string(dim));
    }
    return corpus[i].data();
  };
  heap->Reserve(end - begin);
  size_t i = begin;
  // Four rows at a time: four independent accumulator chains keep the FP
  // adders busy, while each row's own sum still runs left to right.
  for (; i + 4 <= end; i += 4) {
    const double* r0 = row(i);
    const double* r1 = row(i + 1);
    const double* r2 = row(i + 2);
    const double* r3 = row(i + 3);
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      const double d0 = r0[j] - q[j];
      const double d1 = r1[j] - q[j];
      const double d2 = r2[j] - q[j];
      const double d3 = r3[j] - q[j];
      s0 += d0 * d0;
      s1 += d1 * d1;
      s2 += d2 * d2;
      s3 += d3 * d3;
    }
    const double sums[4] = {s0, s1, s2, s3};
    for (size_t r = 0; r < 4; ++r) {
      if (i + r != skip) heap->OfferScanned(sums[r], i + r);
    }
  }
  for (; i < end; ++i) {
    const double* r0 = row(i);
    double s = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      const double d = r0[j] - q[j];
      s += d * d;
    }
    if (i != skip) heap->OfferScanned(s, i);
  }
}

SearchResult EmbeddingTopK(const std::vector<nn::Vector>& corpus,
                           const nn::Vector& query, size_t k, int64_t exclude) {
  TopKHeap heap(k);
  ScanTopK(corpus, query, 0, corpus.size(), exclude, &heap);
  return heap.Take();
}

SearchResult EmbeddingTopKOf(const std::vector<nn::Vector>& corpus,
                             const nn::Vector& query,
                             const std::vector<size_t>& candidates, size_t k,
                             int64_t exclude) {
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(candidates.size());
  for (const size_t id : candidates) {
    if (exclude >= 0 && id == static_cast<size_t>(exclude)) continue;
    // nn::L2Distance — the same call EmbeddingTopK makes, so the scores
    // (and therefore the merged ordering) are bit-identical to the scan.
    scored.emplace_back(nn::L2Distance(corpus[id], query), id);
  }
  std::sort(scored.begin(), scored.end());
  scored.erase(std::unique(scored.begin(), scored.end()), scored.end());
  const size_t kk = std::min(k, scored.size());
  SearchResult r;
  r.ids.reserve(kk);
  r.dists.reserve(kk);
  for (size_t i = 0; i < kk; ++i) {
    r.ids.push_back(scored[i].second);
    r.dists.push_back(scored[i].first);
  }
  return r;
}

SearchResult ExactTopK(const std::vector<Trajectory>& corpus,
                       const Trajectory& query, const DistanceFn& fn, size_t k,
                       int64_t exclude) {
  std::vector<double> dists(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (exclude >= 0 && i == static_cast<size_t>(exclude)) {
      dists[i] = 0.0;  // Excluded by TopKImpl anyway.
      continue;
    }
    dists[i] = fn(corpus[i], query);
  }
  return TopKImpl(corpus.size(), k, exclude, dists);
}

SearchResult RerankByExact(const std::vector<Trajectory>& corpus,
                           const Trajectory& query,
                           const std::vector<size_t>& candidates,
                           const DistanceFn& fn, size_t k) {
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(candidates.size());
  for (size_t id : candidates) {
    scored.emplace_back(fn(corpus[id], query), id);
  }
  const size_t kk = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(kk),
                    scored.end());
  SearchResult r;
  r.ids.reserve(kk);
  r.dists.reserve(kk);
  for (size_t i = 0; i < kk; ++i) {
    r.ids.push_back(scored[i].second);
    r.dists.push_back(scored[i].first);
  }
  return r;
}

}  // namespace neutraj
