#include "exp_common.h"

#include <cstdio>
#include <cstdlib>

namespace neutraj::bench {

const Scale& GetScale() {
  static const Scale scale = [] {
    Scale s;
    const char* env = std::getenv("NEUTRAJ_SCALE");
    if (env != nullptr && std::string(env) == "paper") {
      s.name = "paper";
      s.dataset = 4.0;
      s.epochs = 30;
      s.queries = 100;
      s.embedding_dim = 64;
    }
    return s;
  }();
  return scale;
}

TrajectoryDataset PortoDataset() {
  return GeneratePortoLike(PortoLikeConfig(GetScale().dataset));
}

TrajectoryDataset GeolifeDataset() {
  return GenerateGeolifeLike(GeolifeLikeConfig(GetScale().dataset));
}

ExperimentContext::ExperimentContext(std::string name, Measure m,
                                     TrajectoryDataset dataset)
    : dataset_name(std::move(name)),
      measure(m),
      db(std::move(dataset)),
      split(SplitDataset(db, 0.2, 0.1)),
      grid(db.region.Inflated(50.0), /*cell_size=*/100.0),
      seed_dists(CachedPairwiseDistances(split.seeds, m)) {}

ExperimentContext MakeContext(const std::string& dataset, Measure m) {
  if (dataset == "porto") return ExperimentContext("porto", m, PortoDataset());
  if (dataset == "geolife") {
    return ExperimentContext("geolife", m, GeolifeDataset());
  }
  throw std::invalid_argument("MakeContext: unknown dataset " + dataset);
}

NeuTrajConfig VariantConfig(const std::string& variant, Measure m) {
  NeuTrajConfig cfg;
  if (variant == "NeuTraj") {
    cfg = NeuTrajConfig::NeuTraj();
  } else if (variant == "NT-No-SAM") {
    cfg = NeuTrajConfig::NoSam();
  } else if (variant == "NT-No-WS") {
    cfg = NeuTrajConfig::NoWs();
  } else if (variant == "Siamese") {
    cfg = NeuTrajConfig::Siamese();
  } else {
    throw std::invalid_argument("VariantConfig: unknown variant " + variant);
  }
  cfg.measure = m;
  cfg.embedding_dim = GetScale().embedding_dim;
  cfg.scan_width = 2;
  cfg.sampling_num = 10;
  cfg.batch_size = 20;
  cfg.epochs = GetScale().epochs;
  cfg.learning_rate = 1e-3;
  return cfg;
}

TrainedModel GetModel(const ExperimentContext& ctx, const NeuTrajConfig& cfg) {
  std::printf("  [%s/%s] %s: ", ctx.dataset_name.c_str(),
              MeasureName(ctx.measure).c_str(), cfg.VariantName().c_str());
  std::fflush(stdout);
  Stopwatch sw;
  TrainedModel m =
      TrainOrLoadModel(cfg, ctx.grid, ctx.split.seeds, ctx.seed_dists);
  std::printf("%s (%.1fs)\n", m.from_cache ? "cached" : "trained",
              sw.ElapsedSeconds());
  return m;
}

TopKWorkload MakeWorkload(const ExperimentContext& ctx) {
  return TopKWorkload(ctx.split.test, ExactDistanceFn(ctx.measure),
                      GetScale().queries, /*rng_seed=*/4242);
}

TopKQuality EvaluateAp(const ExperimentContext& ctx,
                       const TopKWorkload& workload, bool* ok) {
  const ApproxParams params = ApproxParams::ForRegion(ctx.db.region);
  const auto ap = ApproxDistance::Create(ctx.measure, params);
  if (ap == nullptr) {
    *ok = false;
    return TopKQuality{};
  }
  *ok = true;
  const auto sketches = ap->PrepareCorpus(workload.corpus());
  const TopKQuality q = workload.Evaluate([&](size_t pos) {
    const size_t qid = workload.query_ids()[pos];
    return ap
        ->TopK(sketches, workload.corpus()[qid], 50, static_cast<int64_t>(qid))
        .ids;
  });
  return q;
}

std::string FormatAccuracyRow(const std::string& method, const TopKQuality& q,
                              bool with_distortion) {
  if (with_distortion) {
    return StrFormat(
        "%-10s  HR@10 %.4f  HR@50 %.4f  R10@50 %.4f  d_H10/d_R10 %4.0f/%4.0f",
        method.c_str(), q.hr10, q.hr50, q.r10_at_50, q.delta_h10, q.delta_r10);
  }
  return StrFormat("%-10s  HR@10 %.4f  HR@50 %.4f  R10@50 %.4f", method.c_str(),
                   q.hr10, q.hr50, q.r10_at_50);
}

void PrintBanner(const std::string& experiment, const std::string& detail) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("%s\n", detail.c_str());
  std::printf("scale=%s (set NEUTRAJ_SCALE=paper for larger runs); cache dir "
              "./neutraj_cache\n",
              GetScale().name.c_str());
  std::printf("==============================================================\n");
}

}  // namespace neutraj::bench
