// Disk cache for trained models and seed distance matrices, shared by the
// bench binaries so repeated runs (and benches sharing a configuration)
// do not retrain or recompute ground truth. Keyed by a hash of the full
// training fingerprint (config + corpus contents); delete the cache
// directory to force recomputation.

#ifndef NEUTRAJ_EVAL_MODEL_CACHE_H_
#define NEUTRAJ_EVAL_MODEL_CACHE_H_

#include <string>
#include <vector>

#include "core/trainer.h"
#include "data/dataset.h"

namespace neutraj {

/// Default cache location (relative to the working directory).
inline constexpr char kDefaultCacheDir[] = "neutraj_cache";

/// Stable fingerprint of a trajectory corpus (content hash).
std::string CorpusFingerprint(const std::vector<Trajectory>& trajs);

/// Computes (or loads from cache) the exact pairwise distance matrix of
/// `trajs` under `m`.
DistanceMatrix CachedPairwiseDistances(
    const std::vector<Trajectory>& trajs, Measure m,
    const std::string& cache_dir = kDefaultCacheDir);

/// A trained model plus its training telemetry.
struct TrainedModel {
  NeuTrajModel model;
  TrainResult stats;
  bool from_cache = false;
};

/// Trains a model (or loads it from cache). `grid` and the seed distance
/// matrix follow the standard pipeline; `callback` is only invoked on a
/// real (non-cached) training run.
TrainedModel TrainOrLoadModel(const NeuTrajConfig& cfg, const Grid& grid,
                              const std::vector<Trajectory>& seeds,
                              const DistanceMatrix& seed_dists,
                              const std::string& cache_dir = kDefaultCacheDir,
                              const EpochCallback& callback = nullptr);

}  // namespace neutraj

#endif  // NEUTRAJ_EVAL_MODEL_CACHE_H_
