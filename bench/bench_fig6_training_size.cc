// Reproduces Fig. 6: HR@10 of NeuTraj vs NT-No-SAM as the number of seed
// (training) trajectories grows, on Fréchet, Hausdorff and DTW (porto).
// Expected shape: both methods improve with more seeds and then flatten;
// NeuTraj stays above NT-No-SAM, with the largest gap at the smallest
// training size (the memory compensates for sparse supervision).

#include <cstdio>

#include "exp_common.h"

int main() {
  using namespace neutraj;
  using namespace neutraj::bench;
  PrintBanner("Fig. 6 — sensitivity to training-set size",
              "HR@10 vs #seeds (fractions of the standard pool), porto");

  const std::vector<double> fractions = {0.25, 0.5, 0.75, 1.0};
  for (Measure m :
       {Measure::kFrechet, Measure::kHausdorff, Measure::kDtw}) {
    ExperimentContext ctx = MakeContext("porto", m);
    const TopKWorkload workload = MakeWorkload(ctx);
    std::printf("\n--- %s ---\n", MeasureName(m).c_str());
    std::printf("%-8s %-10s %-10s\n", "#seeds", "NeuTraj", "NT-No-SAM");
    for (double frac : fractions) {
      const size_t n = static_cast<size_t>(
          frac * static_cast<double>(ctx.split.seeds.size()));
      const std::vector<Trajectory> seeds(ctx.split.seeds.begin(),
                                          ctx.split.seeds.begin() +
                                              static_cast<long>(n));
      const DistanceMatrix dists = CachedPairwiseDistances(seeds, m);
      double hr[2] = {0, 0};
      int idx = 0;
      for (const std::string variant : {"NeuTraj", "NT-No-SAM"}) {
        NeuTrajConfig cfg = VariantConfig(variant, m);
        Stopwatch sw;
        TrainedModel tm = TrainOrLoadModel(cfg, ctx.grid, seeds, dists);
        std::printf("  [train %s n=%zu: %s %.1fs]\n", variant.c_str(), n,
                    tm.from_cache ? "cached" : "fresh", sw.ElapsedSeconds());
        hr[idx++] = workload.EvaluateModel(tm.model).hr10;
      }
      std::printf("%-8zu %-10.4f %-10.4f\n", n, hr[0], hr[1]);
    }
  }
  return 0;
}
