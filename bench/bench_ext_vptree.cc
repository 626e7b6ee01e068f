// Extension experiment: sub-linear top-k over the learned embeddings.
// The embedding distance is a metric, so a vantage-point tree can replace
// the flat O(N*d) scan of the paper's protocol. This bench measures
// per-query latency of flat scan vs VP-tree over growing corpora and
// reports the fraction of points the tree actually visits.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "exp_common.h"

namespace {

using namespace neutraj;
using namespace neutraj::bench;

const std::vector<int64_t> kSizes = {1000, 5000, 20000};

struct VpState {
  std::vector<nn::Vector> embeds;
  std::vector<nn::Vector> queries;
  std::map<int64_t, std::unique_ptr<VpTree>> trees;

  static VpState& Get() {
    static VpState* s = Build();
    return *s;
  }

 private:
  static VpState* Build() {
    auto* s = new VpState();
    std::printf("# one-time setup: corpus embeddings + VP-trees\n");
    GeneratorConfig gen = PortoLikeConfig(1.0);
    gen.num_trajectories = static_cast<size_t>(kSizes.back());
    gen.num_popular_routes = 120;
    gen.seed = 31337;
    TrajectoryDataset big = GeneratePortoLike(gen);
    ExperimentContext ctx = MakeContext("porto", Measure::kFrechet);
    TrainedModel tm = GetModel(ctx, VariantConfig("NeuTraj", Measure::kFrechet));
    s->embeds = tm.model.EmbedAll(big.trajectories);
    for (int64_t n : kSizes) {
      s->trees[n] = std::make_unique<VpTree>(std::vector<nn::Vector>(
          s->embeds.begin(), s->embeds.begin() + n));
    }
    for (int i = 0; i < 32; ++i) s->queries.push_back(s->embeds[i * 13]);
    // Report pruning at each size.
    for (int64_t n : kSizes) {
      size_t visits = 0;
      for (const auto& q : s->queries) {
        s->trees[n]->TopK(q, 50);
        visits += s->trees[n]->last_visit_count();
      }
      std::printf("# n=%-6lld mean visited %.0f of %lld (%.1f%%)\n",
                  static_cast<long long>(n),
                  static_cast<double>(visits) /
                      static_cast<double>(s->queries.size()),
                  static_cast<long long>(n),
                  100.0 * static_cast<double>(visits) /
                      (static_cast<double>(s->queries.size()) *
                       static_cast<double>(n)));
    }
    return s;
  }
};

void BM_FlatScan(benchmark::State& state) {
  VpState& s = VpState::Get();
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<nn::Vector> sub(s.embeds.begin(),
                              s.embeds.begin() + static_cast<long>(n));
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EmbeddingTopK(sub, s.queries[qi++ % s.queries.size()], 50));
  }
}

void BM_VpTree(benchmark::State& state) {
  VpState& s = VpState::Get();
  const VpTree& tree = *s.trees.at(state.range(0));
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.TopK(s.queries[qi++ % s.queries.size()], 50));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("Extension — flat embedding scan vs VP-tree top-50 search\n");
  for (int64_t n : kSizes) {
    benchmark::RegisterBenchmark("FlatScan", BM_FlatScan)
        ->Arg(n)
        ->Unit(benchmark::kMicrosecond)
        ->MinTime(0.1);
    benchmark::RegisterBenchmark("VpTree", BM_VpTree)
        ->Arg(n)
        ->Unit(benchmark::kMicrosecond)
        ->MinTime(0.1);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
