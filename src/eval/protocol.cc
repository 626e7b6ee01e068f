#include "eval/protocol.h"

#include <numeric>
#include <stdexcept>

#include "common/random.h"
#include "core/search.h"

namespace neutraj {

DatasetSplit SplitDataset(const TrajectoryDataset& dataset, double seed_fraction,
                          double val_fraction, uint64_t rng_seed) {
  if (seed_fraction < 0 || val_fraction < 0 ||
      seed_fraction + val_fraction > 1.0) {
    throw std::invalid_argument("SplitDataset: bad fractions");
  }
  std::vector<size_t> order(dataset.size());
  std::iota(order.begin(), order.end(), size_t{0});
  Rng rng(rng_seed);
  rng.Shuffle(&order);
  const double total = static_cast<double>(dataset.size());
  const size_t n_seed = static_cast<size_t>(seed_fraction * total);
  const size_t n_val = static_cast<size_t>(val_fraction * total);
  DatasetSplit split;
  for (size_t i = 0; i < order.size(); ++i) {
    const Trajectory& t = dataset.trajectories[order[i]];
    if (i < n_seed) {
      split.seeds.push_back(t);
    } else if (i < n_seed + n_val) {
      split.val.push_back(t);
    } else {
      split.test.push_back(t);
    }
  }
  return split;
}

TopKWorkload::TopKWorkload(std::vector<Trajectory> corpus,
                           const DistanceFn& exact, size_t num_queries,
                           uint64_t rng_seed)
    : corpus_(std::move(corpus)) {
  if (corpus_.empty()) throw std::invalid_argument("TopKWorkload: empty corpus");
  Rng rng(rng_seed);
  if (num_queries == 0 || num_queries >= corpus_.size()) {
    query_ids_.resize(corpus_.size());
    std::iota(query_ids_.begin(), query_ids_.end(), size_t{0});
  } else {
    query_ids_ = rng.SampleIndices(corpus_.size(), num_queries);
  }
  exact_rows_.resize(query_ids_.size());
  for (size_t q = 0; q < query_ids_.size(); ++q) {
    const Trajectory& query = corpus_[query_ids_[q]];
    exact_rows_[q].resize(corpus_.size());
    for (size_t j = 0; j < corpus_.size(); ++j) {
      exact_rows_[q][j] = j == query_ids_[q] ? 0.0 : exact(query, corpus_[j]);
    }
  }
}

TopKQuality TopKWorkload::Evaluate(const RankFn& rank) const {
  std::vector<QueryJudgement> judgements;
  judgements.reserve(query_ids_.size());
  std::vector<std::vector<size_t>> rankings(query_ids_.size());
  for (size_t q = 0; q < query_ids_.size(); ++q) {
    rankings[q] = rank(q);
    QueryJudgement j;
    j.ranked_ids = rankings[q];
    j.exact_dists = &exact_rows_[q];
    j.exclude = static_cast<int64_t>(query_ids_[q]);
    judgements.push_back(std::move(j));
  }
  return EvaluateTopKQuality(judgements);
}

TopKQuality TopKWorkload::EvaluateModel(const NeuTrajModel& model,
                                        size_t k) const {
  const std::vector<nn::Vector> embeds = model.EmbedAll(corpus_);
  return Evaluate([&](size_t query_pos) {
    const size_t qid = query_ids_[query_pos];
    const SearchResult r = EmbeddingTopK(embeds, embeds[qid], k,
                                         static_cast<int64_t>(qid));
    return r.ids;
  });
}

}  // namespace neutraj
