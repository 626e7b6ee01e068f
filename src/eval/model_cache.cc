#include "eval/model_cache.h"

#include <cstdio>
#include <sstream>

#include "common/file_util.h"
#include "common/string_util.h"
#include "geo/traj_io.h"

namespace neutraj {

std::string CorpusFingerprint(const std::vector<Trajectory>& trajs) {
  return StrFormat("corpus-%016llx-%zu",
                   static_cast<unsigned long long>(
                       Fnv1aHash(SerializeTrajectories(trajs))),
                   trajs.size());
}

DistanceMatrix CachedPairwiseDistances(const std::vector<Trajectory>& trajs,
                                       Measure m, const std::string& cache_dir) {
  EnsureDirectory(cache_dir);
  const std::string key = StrFormat(
      "dist-%s-%016llx.txt", MeasureName(m).c_str(),
      static_cast<unsigned long long>(
          Fnv1aHash(CorpusFingerprint(trajs) + MeasureName(m))));
  const std::string path = cache_dir + "/" + key;
  if (FileExists(path)) {
    std::istringstream in(ReadFile(path));
    size_t n = 0;
    in >> n;
    if (n == trajs.size()) {
      DistanceMatrix d(n);
      bool ok = true;
      for (size_t i = 0; i < n && ok; ++i) {
        for (size_t j = i + 1; j < n && ok; ++j) {
          double v;
          if (in >> v) {
            d.Set(i, j, v);
          } else {
            ok = false;
          }
        }
      }
      if (ok) return d;
    }
    // Corrupt or stale: fall through and recompute.
    std::fprintf(stderr,
                 "[neutraj] warning: corrupt or stale distance cache entry "
                 "%s; recomputing\n",
                 path.c_str());
  }
  DistanceMatrix d = ComputePairwiseDistances(trajs, m);
  std::ostringstream out;
  out.precision(17);
  out << d.size() << '\n';
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t j = i + 1; j < d.size(); ++j) out << d.At(i, j) << ' ';
  }
  out << '\n';
  WriteFileAtomic(path, out.str());
  return d;
}

TrainedModel TrainOrLoadModel(const NeuTrajConfig& cfg, const Grid& grid,
                              const std::vector<Trajectory>& seeds,
                              const DistanceMatrix& seed_dists,
                              const std::string& cache_dir,
                              const EpochCallback& callback) {
  EnsureDirectory(cache_dir);
  std::ostringstream grid_sig;
  grid_sig << grid.region().min_x << ',' << grid.region().min_y << ','
           << grid.region().max_x << ',' << grid.region().max_y << ','
           << grid.num_cols() << 'x' << grid.num_rows();
  // kArchVersion invalidates cached models when the cell/encoder
  // architecture or numerics change in ways the config does not capture
  // (3: the SIMD kernels' accumulation order and exp).
  constexpr int kArchVersion = 3;
  const std::string fingerprint =
      StrFormat("arch=%d|", kArchVersion) + cfg.Fingerprint() + "|" +
      grid_sig.str() + "|" + CorpusFingerprint(seeds);
  const std::string base = StrFormat(
      "model-%s-%016llx", cfg.VariantName().c_str(),
      static_cast<unsigned long long>(Fnv1aHash(fingerprint)));
  const std::string model_path = cache_dir + "/" + base + ".model";
  const std::string stats_path = cache_dir + "/" + base + ".stats";

  if (FileExists(model_path) && FileExists(stats_path)) {
    try {
      TrainedModel out{NeuTrajModel::Load(model_path), TrainResult{}, true};
      std::istringstream in(ReadFile(stats_path));
      size_t epochs = 0;
      in >> out.stats.total_seconds >> out.stats.early_stopped >> epochs;
      out.stats.epochs.resize(epochs);
      for (EpochStats& e : out.stats.epochs) {
        in >> e.epoch >> e.mean_loss >> e.seconds;
      }
      if (in) return out;
      std::fprintf(stderr,
                   "[neutraj] warning: corrupt cached training stats %s; "
                   "retraining\n",
                   stats_path.c_str());
    } catch (const std::exception& e) {
      // Corrupt cache entry: fall back to retraining instead of aborting.
      std::fprintf(stderr,
                   "[neutraj] warning: corrupt cached model %s (%s); "
                   "retraining\n",
                   model_path.c_str(), e.what());
    }
  }

  Trainer trainer(cfg, grid, seeds, seed_dists);
  TrainResult stats = trainer.Train(callback);
  TrainedModel out{trainer.TakeModel(), stats, false};
  out.model.Save(model_path);
  std::ostringstream stats_out;
  stats_out.precision(17);
  stats_out << stats.total_seconds << ' ' << stats.early_stopped << ' '
            << stats.epochs.size() << '\n';
  for (const EpochStats& e : stats.epochs) {
    stats_out << e.epoch << ' ' << e.mean_loss << ' ' << e.seconds << '\n';
  }
  WriteFileAtomic(stats_path, stats_out.str());
  return out;
}

}  // namespace neutraj
