// Reproduces Table VII: case studies of top-k search under the Fréchet
// distance for one short and one long query. For each query: the top-3
// ground truth vs NeuTraj's top-3 (by id and exact distance), plus HR@10,
// HR@50, R10@50 and the distortions d_H5 / d_H10 / d_R10. Expected shape:
// NeuTraj's lists overlap heavily with the ground truth and preserve rank
// order, with distortions of meters to tens of meters on near-duplicates.

#include <algorithm>
#include <cstdio>

#include "exp_common.h"

namespace {

using namespace neutraj;
using namespace neutraj::bench;

void CaseStudy(const char* tag, size_t query_id,
               const std::vector<Trajectory>& corpus,
               const std::vector<nn::Vector>& embeds, const DistanceFn& exact) {
  const Trajectory& query = corpus[query_id];
  std::vector<double> exact_dists(corpus.size());
  for (size_t j = 0; j < corpus.size(); ++j) {
    exact_dists[j] = j == query_id ? 0.0 : exact(query, corpus[j]);
  }
  const SearchResult gt = TopKByDistance(exact_dists, 50,
                                         static_cast<int64_t>(query_id));
  const SearchResult pred = EmbeddingTopK(embeds, embeds[query_id], 50,
                                          static_cast<int64_t>(query_id));

  QueryJudgement j;
  j.ranked_ids = pred.ids;
  j.exact_dists = &exact_dists;
  j.exclude = static_cast<int64_t>(query_id);
  const TopKQuality q = EvaluateTopKQuality({j});

  std::vector<size_t> pred5(pred.ids.begin(), pred.ids.begin() + 5);
  std::vector<size_t> gt5(gt.ids.begin(), gt.ids.begin() + 5);
  const double d_h5 = std::abs(MeanDistanceOf(pred5, exact_dists) -
                               MeanDistanceOf(gt5, exact_dists));

  std::printf("\n=== %s: query T_%zu (length %zu, span %.0fm) ===\n", tag,
              query_id, query.size(), query.Bounds().Width());
  std::printf("HR@10 %.2f  HR@50 %.2f  R10@50 %.2f  dH5 %.0fm  dH10 %.0fm  "
              "dR10 %.0fm\n",
              q.hr10, q.hr50, q.r10_at_50, d_h5, q.delta_h10, q.delta_r10);
  std::printf("%-24s %-24s\n", "top-3 ground truth", "top-3 NeuTraj");
  for (int r = 0; r < 3; ++r) {
    // Rank of the NeuTraj pick within the exact ground-truth order.
    size_t gt_rank = 0;
    for (size_t k = 0; k < gt.ids.size(); ++k) {
      if (gt.ids[k] == pred.ids[r]) gt_rank = k + 1;
    }
    std::printf("T_%-6zu (%6.0fm)       T_%-6zu (%6.0fm, GT rank %zu)\n",
                gt.ids[r], gt.dists[r], pred.ids[r],
                exact_dists[pred.ids[r]], gt_rank);
  }
}

}  // namespace

int main() {
  PrintBanner("Table VII — case studies",
              "porto / Frechet; one short and one long query");

  ExperimentContext ctx = MakeContext("porto", Measure::kFrechet);
  TrainedModel tm = GetModel(ctx, VariantConfig("NeuTraj", Measure::kFrechet));
  const auto& corpus = ctx.split.test;
  const auto embeds = tm.model.EmbedAll(corpus);
  const DistanceFn exact = ExactDistanceFn(Measure::kFrechet);

  // Pick a short and a long representative query deterministically.
  size_t short_q = 0, long_q = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (corpus[i].size() < corpus[short_q].size()) short_q = i;
    if (corpus[i].size() > corpus[long_q].size()) long_q = i;
  }
  CaseStudy("short trajectory", short_q, corpus, embeds, exact);
  CaseStudy("long trajectory", long_q, corpus, embeds, exact);
  return 0;
}
