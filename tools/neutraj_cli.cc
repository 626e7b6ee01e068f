// neutraj_cli — command-line front end for the NeuTraj library.
//
// Subcommands:
//   generate  --preset porto|geolife --scale S --out corpus.csv [--seed N]
//   train     --data corpus.csv --out model.ntj [--measure M] [--variant V]
//             [--epochs N] [--dim D] [--width W] [--seed-fraction F]
//             [--threads T] [--metrics-out run.jsonl] [--trace]
//   embed     --model model.ntj --data corpus.csv --out embeds.txt [--threads T]
//   search    --model model.ntj --data corpus.csv --query I [--k K] [--rerank]
//             [--threads T]
//   cluster   --model model.ntj --data corpus.csv --eps E [--min-pts P]
//   distance  --data corpus.csv --i A --j B [--measure M]
//
// Corpora are line-based CSV ("x1,y1;x2,y2;..."); models are the library's
// text format. Every command prints to stdout and exits non-zero on error.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "flags.h"
#include "neutraj.h"

namespace {

using namespace neutraj;

using flags::Args;

/// Loads a corpus with the empty-trajectory ingestion guard: empty lines in
/// hand-edited CSVs become a warning, not an encoder crash mid-run.
std::vector<Trajectory> LoadCorpusGuarded(const std::string& path) {
  size_t dropped = 0;
  auto corpus = DropEmptyTrajectories(LoadTrajectories(path), &dropped);
  if (dropped > 0) {
    std::fprintf(stderr, "warning: dropped %zu empty trajectories from %s\n",
                 dropped, path.c_str());
  }
  return corpus;
}

void PrintUsage() {
  std::printf(
      "neutraj_cli <command> [flags]\n"
      "  generate  --preset porto|geolife --out F [--scale S] [--seed N]\n"
      "  train     --data F --out M [--measure m] [--variant neutraj|siamese|"
      "no-sam|no-ws]\n"
      "            [--epochs N] [--dim D] [--width W] [--seed-fraction F]\n"
      "            [--checkpoint-dir D [--checkpoint-every N] [--resume]]\n"
      "            [--threads T] [--metrics-out run.jsonl] [--trace]\n"
      "  embed     --model M --data F --out E [--threads T]\n"
      "  search    --model M --data F --query I [--k K] [--rerank] "
      "[--threads T]\n"
      "  cluster   --model M --data F --eps E [--min-pts P]\n"
      "  distance  --data F --i A --j B [--measure m]\n");
}

int CmdGenerate(const Args& args) {
  const std::string preset = args.Get("preset", "porto");
  const double scale = args.GetDouble("scale", 1.0);
  GeneratorConfig cfg =
      preset == "geolife" ? GeolifeLikeConfig(scale) : PortoLikeConfig(scale);
  if (args.Has("seed")) cfg.seed = static_cast<uint64_t>(args.GetInt("seed", 13));
  const TrajectoryDataset db = preset == "geolife" ? GenerateGeolifeLike(cfg)
                                                   : GeneratePortoLike(cfg);
  SaveTrajectories(args.Require("out"), db.trajectories);
  std::printf("wrote %zu trajectories (mean length %.1f) to %s\n", db.size(),
              db.MeanLength(), args.Get("out").c_str());
  return 0;
}

NeuTrajConfig VariantFromName(const std::string& name) {
  if (name == "neutraj") return NeuTrajConfig::NeuTraj();
  if (name == "siamese") return NeuTrajConfig::Siamese();
  if (name == "no-sam") return NeuTrajConfig::NoSam();
  if (name == "no-ws") return NeuTrajConfig::NoWs();
  throw std::runtime_error("unknown variant: " + name);
}

int CmdTrain(const Args& args) {
  TrajectoryDataset db;
  db.trajectories = LoadCorpusGuarded(args.Require("data"));
  db.RecomputeRegion();
  if (db.size() < 10) throw std::runtime_error("corpus too small to train on");

  NeuTrajConfig cfg = VariantFromName(args.Get("variant", "neutraj"));
  cfg.measure = MeasureFromName(args.Get("measure", "frechet"));
  cfg.embedding_dim = static_cast<size_t>(args.GetInt("dim", 32));
  cfg.scan_width = static_cast<int32_t>(args.GetInt("width", 2));
  cfg.epochs = static_cast<size_t>(args.GetInt("epochs", 25));
  cfg.checkpoint_dir = args.Get("checkpoint-dir", "");
  cfg.checkpoint_every =
      static_cast<size_t>(args.GetInt("checkpoint-every", 1));
  // Training is bit-for-bit identical for every thread count, so --threads
  // is a pure wall-clock knob.
  cfg.threads = static_cast<size_t>(args.GetInt("threads", 1));

  const double frac = args.GetDouble("seed-fraction", 0.2);
  DatasetSplit split = SplitDataset(db, frac, 0.0);
  std::printf("training %s on %zu seeds (measure %s, d=%zu, w=%d, %zu epochs)\n",
              cfg.VariantName().c_str(), split.seeds.size(),
              MeasureName(cfg.measure).c_str(), cfg.embedding_dim,
              cfg.scan_width, cfg.epochs);

  // --trace turns on coarse spans (trainer/epoch, nn/encode, nn/backward);
  // the collected timing histograms are printed in Prometheus text format
  // after training so a run can be profiled without a scraper.
  if (args.Has("trace")) {
    obs::SetTraceLevel(obs::TraceLevel::kCoarse);
  }

  Stopwatch sw;
  DistanceMatrix d = ComputePairwiseDistances(split.seeds, cfg.measure);
  std::printf("seed distances: %.1fs\n", sw.ElapsedSeconds());
  Grid grid(db.region.Inflated(50.0), 100.0);
  sw.Restart();
  Trainer trainer(cfg, grid, split.seeds, d);

  // --metrics-out streams one JSON line of telemetry per epoch (loss, grad
  // norm, sampler stats, throughput) for live tailing or offline plotting.
  std::unique_ptr<obs::JsonlSink> metrics;
  if (args.Has("metrics-out")) {
    metrics = std::make_unique<obs::JsonlSink>(args.Get("metrics-out"));
    trainer.SetMetricsSink(metrics.get());
  }
  if (args.Has("resume")) {
    const std::string ckpt = cfg.checkpoint_dir.empty()
                                 ? args.Get("resume")
                                 : cfg.checkpoint_dir + "/neutraj.ckpt";
    trainer.ResumeFrom(ckpt);
    std::printf("resumed from %s at epoch %zu\n", ckpt.c_str(),
                trainer.next_epoch());
  }
  const TrainResult tr = trainer.Train([](const EpochStats& e, NeuTrajModel&) {
    std::printf("  epoch %3zu  loss %.5f  grad %.3g  (%.1fs, %.0f traj/s)\n",
                e.epoch, e.mean_loss, e.grad_norm, e.seconds, e.trajs_per_sec);
    return true;
  });
  for (const DivergenceEvent& ev : tr.divergence_events) {
    std::printf("  watchdog: epoch %zu rolled back (%s), lr -> %g\n", ev.epoch,
                ev.reason.c_str(), ev.new_learning_rate);
  }
  if (tr.diverged) {
    std::fprintf(stderr,
                 "warning: training diverged and was stopped at the last "
                 "good checkpointed state\n");
  }
  std::printf("training: %.1fs\n", sw.ElapsedSeconds());
  trainer.TakeModel().Save(args.Require("out"));
  std::printf("model written to %s\n", args.Get("out").c_str());
  if (metrics != nullptr) {
    std::printf("epoch telemetry written to %s\n", metrics->path().c_str());
  }
  if (args.Has("trace")) {
    std::printf("--- collected metrics (Prometheus text format) ---\n%s",
                obs::RenderPrometheus(obs::MetricsRegistry::Global().Snapshot())
                    .c_str());
  }
  return 0;
}

int CmdEmbed(const Args& args) {
  const NeuTrajModel model = NeuTrajModel::Load(args.Require("model"));
  const auto corpus = LoadCorpusGuarded(args.Require("data"));
  const size_t threads = static_cast<size_t>(args.GetInt("threads", 1));
  Stopwatch sw;
  const auto embeds = threads > 1 ? model.EmbedAllParallel(corpus, threads)
                                  : model.EmbedAll(corpus);
  std::string out;
  char buf[32];
  for (const auto& e : embeds) {
    for (size_t k = 0; k < e.size(); ++k) {
      std::snprintf(buf, sizeof(buf), "%.8g", e[k]);
      if (k > 0) out += ' ';
      out += buf;
    }
    out += '\n';
  }
  WriteFileAtomic(args.Require("out"), out);
  std::printf("embedded %zu trajectories (d=%zu) in %.2fs -> %s\n",
              embeds.size(), model.config().embedding_dim, sw.ElapsedSeconds(),
              args.Get("out").c_str());
  return 0;
}

int CmdSearch(const Args& args) {
  const NeuTrajModel model = NeuTrajModel::Load(args.Require("model"));
  const auto corpus = LoadCorpusGuarded(args.Require("data"));
  const size_t query = static_cast<size_t>(args.GetInt("query", 0));
  const size_t k = static_cast<size_t>(args.GetInt("k", 10));
  const size_t threads = static_cast<size_t>(args.GetInt("threads", 1));
  if (query >= corpus.size()) throw std::runtime_error("query id out of range");

  Stopwatch sw;
  const EmbeddingDatabase db = EmbeddingDatabase::Build(model, corpus, threads);
  const double embed_s = sw.ElapsedSeconds();
  sw.Restart();
  SearchResult result =
      db.TopK(db.at(query), std::max(k, 50ul), static_cast<int64_t>(query));
  if (args.Has("rerank")) {
    result = RerankByExact(corpus, corpus[query], result.ids,
                           ExactDistanceFn(model.config().measure), k);
  }
  const double query_ms = sw.ElapsedMillis();
  std::printf("top-%zu for query %zu (embed corpus %.2fs, query %.2fms):\n", k,
              query, embed_s, query_ms);
  for (size_t i = 0; i < std::min(k, result.size()); ++i) {
    std::printf("  %2zu. trajectory %-6zu dist %.6f\n", i + 1, result.ids[i],
                result.dists[i]);
  }
  return 0;
}

int CmdCluster(const Args& args) {
  const NeuTrajModel model = NeuTrajModel::Load(args.Require("model"));
  const auto corpus = LoadCorpusGuarded(args.Require("data"));
  const double eps = args.GetDouble("eps", 1.0);
  const size_t min_pts = static_cast<size_t>(args.GetInt("min-pts", 5));
  const auto embeds = model.EmbedAll(corpus);
  std::vector<double> dists(corpus.size() * corpus.size(), 0.0);
  for (size_t i = 0; i < corpus.size(); ++i) {
    for (size_t j = 0; j < corpus.size(); ++j) {
      dists[i * corpus.size() + j] = nn::L2Distance(embeds[i], embeds[j]);
    }
  }
  const Clustering c = Dbscan(dists, corpus.size(), eps, min_pts);
  std::printf("DBSCAN(eps=%.3f, min_pts=%zu) on embedding distances: %d "
              "clusters, %zu noise\n",
              eps, min_pts, c.num_clusters, c.num_noise);
  for (size_t i = 0; i < c.labels.size(); ++i) {
    std::printf("%zu %d\n", i, c.labels[i]);
  }
  return 0;
}

int CmdDistance(const Args& args) {
  const auto corpus = LoadCorpusGuarded(args.Require("data"));
  const size_t i = static_cast<size_t>(args.GetInt("i", 0));
  const size_t j = static_cast<size_t>(args.GetInt("j", 1));
  if (i >= corpus.size() || j >= corpus.size()) {
    throw std::runtime_error("trajectory id out of range");
  }
  const Measure m = MeasureFromName(args.Get("measure", "frechet"));
  std::printf("%s(%zu, %zu) = %.6f\n", MeasureName(m).c_str(), i, j,
              ExactDistanceFn(m)(corpus[i], corpus[j]));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = flags::ParseArgs(argc, argv, /*subcommand=*/true);
    if (args.command == "generate") return CmdGenerate(args);
    if (args.command == "train") return CmdTrain(args);
    if (args.command == "embed") return CmdEmbed(args);
    if (args.command == "search") return CmdSearch(args);
    if (args.command == "cluster") return CmdCluster(args);
    if (args.command == "distance") return CmdDistance(args);
    if (args.command == "help" || args.command == "--help") {
      PrintUsage();
      return 0;
    }
    std::fprintf(stderr, "unknown command: %s\n\n", args.command.c_str());
    PrintUsage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    PrintUsage();
    return 1;
  }
}
