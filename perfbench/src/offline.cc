// `offline` workload: the model builder's pipeline, in-process.
//
//   1. the seed Fréchet distance matrix at nproc threads (the set-up cost of
//      seed guidance);
//   2. Trainer::Train for a fixed number of epochs at cfg.threads = nproc;
//   3. EmbeddingDatabase::Build over a long-trajectory corpus (16-256
//      points) at nproc threads;
//   4. HR@10 of embedding search against exact Fréchet ground truth, and the
//      latency of in-process queries (Embed + exact scan) from nproc callers.
//
// nn forward/backward, the core trainer and sampler, and distance do nearly
// all the work; serve, store and retrieval are idle, so serving changes
// should move nothing here.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace perfbench {

using namespace neutraj;

namespace {

struct Sizes {
  size_t seeds, eval, hr_queries, epochs, long_corpus;
};
constexpr Sizes kFull = {200, 1000, 400, 4, 600};
constexpr Sizes kSmoke = {40, 200, 20, 1, 60};
constexpr int kSetupRepeats = 9;
constexpr int kSetupGroups = 3;
constexpr size_t kMinQuerySamples = 1000;
constexpr size_t kWindows = 8;
constexpr size_t kSweepLengths[] = {16, 64, 256};
constexpr size_t kIdentitySample = 32;

/// Long road-network trajectories of up to 256 points.
std::vector<Trajectory> LongTrajectories(size_t n, uint64_t seed) {
  GeneratorConfig cfg = PortoLikeConfig(1.0);
  cfg.num_trajectories = n;
  cfg.seed = seed + 2;
  cfg.road.seed = seed ^ 0x5bd1e995ull;
  cfg.min_hops = 40;
  cfg.max_hops = 80;
  cfg.point_spacing = 40.0;
  cfg.max_points = 256;
  cfg.min_points = 16;
  return GenerateCorpus("long", cfg).trajectories;
}

/// Long trajectories cut to lengths spread log-uniformly over [16, 256].
/// The lengths are the same fixed quantiles for every seed (only their
/// order and the paths vary), so the length mix, and with it the encode
/// cost, does not change from seed to seed.
std::vector<Trajectory> LongCorpus(size_t n, uint64_t seed) {
  std::vector<Trajectory> out = LongTrajectories(n, seed);
  std::vector<size_t> lengths(n);
  for (size_t i = 0; i < n; ++i) {
    const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    lengths[i] = static_cast<size_t>(std::lround(16.0 * std::pow(16.0, q)));
  }
  Rng rng(seed + 3);
  for (size_t i = n; i > 1; --i) {
    std::swap(lengths[i - 1],
              lengths[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i - 1)))]);
  }
  for (size_t i = 0; i < n; ++i) out[i] = Head(out[i], lengths[i]);
  return out;
}

size_t Points(const std::vector<Trajectory>& trajs) {
  size_t n = 0;
  for (const Trajectory& t : trajs) n += t.size();
  return n;
}

std::map<std::string, double> GlobalMetrics() {
  const auto flat = obs::MetricsRegistry::Global().Snapshot().Flatten();
  return {flat.begin(), flat.end()};
}

}  // namespace

void RunOffline(const Options& opts, Report* report) {
  const Sizes sz = opts.smoke ? kSmoke : kFull;
  const double S = opts.seconds;
  uint64_t ops = 0;

  // -- Inputs ------------------------------------------------------------------
  TrajectoryDataset data = MakePorto(sz.seeds + sz.eval, opts.seed);
  const std::vector<Trajectory> seeds(data.trajectories.begin(),
                                      data.trajectories.begin() + static_cast<long>(sz.seeds));
  const std::vector<Trajectory> eval(data.trajectories.begin() + static_cast<long>(sz.seeds),
                                     data.trajectories.end());
  const std::vector<Trajectory> long_corpus = LongCorpus(sz.long_corpus, opts.seed);
  BoundingBox region = data.region;
  for (const Trajectory& t : long_corpus) region.Extend(t.Bounds());
  const size_t long_points = Points(long_corpus);
  std::printf("offline: %zu seeds, %zu-trajectory HR@10 corpus (%zu queries), "
              "%zu long trajectories (%zu points), %zu epochs at %zu threads\n",
              seeds.size(), eval.size(), sz.hr_queries, long_corpus.size(), long_points,
              sz.epochs, opts.nproc);

  if (opts.trace) obs::SetTraceLevel(obs::TraceLevel::kCoarse);

  // -- 1. Seed distance matrix (the set-up time), several times ---------------
  // The repeats come in kSetupGroups groups spread over the run (before
  // training, after it, and at the end), so one slow spell of the machine
  // cannot cover them all.
  std::vector<double> setups, setup_steals;
  DistanceMatrix seed_dists;
  bool same_matrix = true;
  const auto seed_matrix_group = [&] {
    for (int i = 0; i < kSetupRepeats / kSetupGroups; ++i) {
      const CpuTimes c0 = ReadCpuTimes();
      Stopwatch sw;
      DistanceMatrix d = ComputePairwiseDistancesParallel(
          seeds, ExactDistanceFn(Measure::kFrechet), opts.nproc);
      setups.push_back(sw.ElapsedSeconds());
      setup_steals.push_back(StealShare(c0, ReadCpuTimes()));
      if (setups.size() == 1) {
        seed_dists = std::move(d);
      } else {
        for (size_t r = 0; r < d.size() && same_matrix; ++r) {
          same_matrix = std::equal(d.Row(r), d.Row(r) + d.size(), seed_dists.Row(r));
        }
      }
      ++ops;
    }
  };
  seed_matrix_group();

  // -- 2. Training -------------------------------------------------------------
  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.measure = Measure::kFrechet;
  cfg.embedding_dim = 32;
  cfg.epochs = sz.epochs;
  cfg.threads = opts.nproc;
  cfg.rng_seed = opts.seed;
  const Grid grid(region.Inflated(50.0), 100.0);
  const auto before_train = GlobalMetrics();
  Trainer trainer(cfg, grid, seeds, seed_dists);
  const TrainResult trained = trainer.Train();
  const auto after_train = GlobalMetrics();
  std::vector<double> epochs;
  for (const EpochStats& e : trained.epochs) epochs.push_back(e.seconds);
  ops += trained.epochs.size();
  report->Check(trained.epochs.size() == sz.epochs && !trained.diverged,
                "training ran every epoch without divergence");
  {
    NeuTrajConfig once = cfg;
    once.epochs = 1;
    Trainer again(once, grid, seeds, seed_dists);
    const TrainResult r = again.Train();
    report->Check(!r.epochs.empty() && !trained.epochs.empty() &&
                      r.epochs[0].mean_loss == trained.epochs[0].mean_loss,
                  "two runs give the same first-epoch loss");
  }
  const NeuTrajModel model = trainer.TakeModel();

  seed_matrix_group();

  // -- 3. Bulk encoding of the long corpus, and in-process query latency ------
  // In-process similarity search over the long corpus, Embed + exact scan,
  // from nproc concurrent callers so the figure covers every core rather
  // than whichever one a single caller lands on. The log-uniform length mix
  // makes this the O(L) encode cost per query. The phase runs as kWindows
  // consecutive windows, each a few Build repeats and then a query window;
  // the figures are medians over the least-stolen half of each. Callers
  // stop only between whole passes over the corpus, so every window queries
  // the same length mix however fast it runs.
  std::vector<double> build_pps, build_steals;
  std::vector<double> window_p50, window_p99, window_steals;
  size_t queries = 0;
  EmbeddingDatabase long_db;
  for (size_t w = 0; w < kWindows; ++w) {
    Stopwatch budget;
    do {
      const CpuTimes c0 = ReadCpuTimes();
      Stopwatch sw;
      long_db = EmbeddingDatabase::Build(model, long_corpus, opts.nproc);
      build_pps.push_back(static_cast<double>(long_points) / sw.ElapsedSeconds());
      build_steals.push_back(StealShare(c0, ReadCpuTimes()));
      ++ops;
    } while (budget.ElapsedSeconds() < 0.25 * S / kWindows);

    std::vector<std::vector<double>> per_caller(opts.nproc);
    const CpuTimes c0 = ReadCpuTimes();
    ParallelFor(opts.nproc, opts.nproc, [&](size_t c) {
      Stopwatch window;
      while (per_caller[c].size() < kMinQuerySamples / opts.nproc ||
             window.ElapsedSeconds() < 0.2 * S / kWindows) {
        for (size_t i = c; i < long_corpus.size(); i += opts.nproc) {
          Stopwatch sw;
          long_db.TopK(model.Embed(long_corpus[i]), 10);
          per_caller[c].push_back(sw.ElapsedMicros());
        }
      }
    });
    window_steals.push_back(StealShare(c0, ReadCpuTimes()));
    std::vector<double> us;
    for (const std::vector<double>& q : per_caller) us.insert(us.end(), q.begin(), q.end());
    window_p50.push_back(Median(us));
    window_p99.push_back(Percentile(us, 0.99));
    queries += us.size();
  }
  ops += queries;
  const double query_p50 = QuietMedian(window_p50, window_steals, kWindows / 2);
  const double query_p99 = QuietMedian(window_p99, window_steals, kWindows / 2);
  {
    const std::vector<Trajectory> sample(long_corpus.begin(),
                                         long_corpus.begin() + kIdentitySample);
    const std::vector<nn::Vector> serial = model.EmbedAll(sample);
    bool same = true;
    for (size_t i = 0; i < sample.size(); ++i) same = same && serial[i] == long_db.at(i);
    report->Check(same, "Build at nproc threads bit-identical to serial EmbedAll");
  }

  // -- 4. HR@10 against exact Fréchet -----------------------------------------
  const EmbeddingDatabase eval_db = EmbeddingDatabase::Build(model, eval, opts.nproc);
  std::vector<std::vector<double>> truth(sz.hr_queries, std::vector<double>(eval.size()));
  ParallelFor(sz.hr_queries * eval.size(), opts.nproc, [&](size_t i) {
    const size_t q = i / eval.size(), j = i % eval.size();
    truth[q][j] = q == j ? 0.0 : FrechetDistance(eval[q], eval[j]);
  });
  std::vector<QueryJudgement> judgements(sz.hr_queries);
  for (size_t q = 0; q < sz.hr_queries; ++q) {
    judgements[q].ranked_ids =
        eval_db.TopK(model.Embed(eval[q]), 50, static_cast<int64_t>(q)).ids;
    judgements[q].exact_dists = &truth[q];
    judgements[q].exclude = static_cast<int64_t>(q);
  }
  const double hr10 = EvaluateTopKQuality(judgements).hr10;

  seed_matrix_group();
  report->Check(same_matrix, "seed distance matrix identical across repeats");
  std::printf("offline setup repeats (s / steal):");
  for (size_t i = 0; i < setups.size(); ++i) {
    std::printf(" %.4f/%.1f%%", setups[i], 100.0 * setup_steals[i]);
  }
  std::printf("\n");
  report->Ops(ops, 0);

  const double setup = QuietMedian(setups, setup_steals, setups.size() / 2 + 1);
  const double epoch_s = Median(epochs);
  const double pps = QuietMedian(build_pps, build_steals, build_pps.size() / 2 + 1);
  std::printf("offline: epoch_s %.4f (n=%zu)  encode_points_per_s %.0f (n=%zu)  hr10 %.4f  "
              "setup_s %.4f (n=%zu)  error_rate 0\n",
              epoch_s, epochs.size(), pps, build_pps.size(), hr10, setup, setups.size());
  std::printf("offline: query p50 %.1f us  p99 %.1f us  (quietest %zu of %zu windows, "
              "n=%zu)\n",
              query_p50, query_p99, Quietest(window_steals, kWindows / 2).size(), kWindows,
              queries);

  if (!opts.trace) {
    report->Metric("setup_s", setup, "s");
    report->Metric("success_rate", 1.0, "fraction");
    report->Metric("latency_p50_us", query_p50, "us");
    report->Metric("throughput_per_s", pps, "1/s");
    report->Metric("quality", hr10, "fraction");
    return;
  }

  // -- Per-layer: traced spans, O(L) sweep, thread scaling ----------------------
  const Window fwd = HistWindow(before_train, after_train, "trace/nn/encode_us");
  const Window bwd = HistWindow(before_train, after_train, "trace/nn/backward_us");
  const double nn_wall_per_epoch =
      (fwd.sum + bwd.sum) / 1e6 / static_cast<double>(sz.epochs * opts.nproc);
  std::printf("epoch split (nn spans spread over %zu threads): forward+backward %.4f s, "
              "rest %.4f s of %.4f s\n",
              opts.nproc, nn_wall_per_epoch, epoch_s - nn_wall_per_epoch, epoch_s);

  Stopwatch sw;
  EmbeddingDatabase::Build(model, long_corpus, 1);
  const double serial_pps = static_cast<double>(long_points) / sw.ElapsedSeconds();
  obs::SetTraceLevel(obs::TraceLevel::kOff);
  sw.Restart();
  EmbeddingDatabase::Build(model, long_corpus, opts.nproc);
  const double untraced_s = sw.ElapsedSeconds();
  obs::SetTraceLevel(obs::TraceLevel::kCoarse);
  sw.Restart();
  EmbeddingDatabase::Build(model, long_corpus, opts.nproc);
  const double traced_s = sw.ElapsedSeconds();
  obs::SetTraceLevel(obs::TraceLevel::kOff);

  for (size_t len : kSweepLengths) {
    std::vector<Trajectory> group;
    for (const Trajectory& t : LongTrajectories(64, opts.seed + len)) {
      if (t.size() >= len) group.push_back(Head(t, len));
    }
    if (group.empty()) continue;
    nn::CellWorkspace ws;
    size_t points = 0;
    Stopwatch lsw;
    while (lsw.ElapsedSeconds() < 0.05 * S || points == 0) {
      for (const Trajectory& t : group) model.Embed(t, &ws);
      points += group.size() * len;
    }
    const double us_per_point = lsw.ElapsedMicros() / static_cast<double>(points);
    std::printf("O(L) sweep: L=%-4zu %.3f us/point (%zu trajectories)\n", len, us_per_point,
                group.size());
    report->Metric("nn.encode_us_per_point.L" + std::to_string(len), us_per_point, "us");
  }
  report->Metric("nn.encode_scaling", pps / serial_pps, "ratio");
  report->Metric("nn.train_forward_us", fwd.mean(), "us");
  report->Metric("nn.backward_us", bwd.mean(), "us");
  report->Metric("core.epoch_s", epoch_s, "s");
  report->Metric("core.epoch_rest_s", epoch_s - nn_wall_per_epoch, "s");
  const double pairs = static_cast<double>(seeds.size() * (seeds.size() - 1) / 2);
  report->Metric("distance.seed_pairs_per_s", pairs / setup, "1/s");
  report->Metric("obs.trace_overhead", traced_s / untraced_s, "ratio");
  report->Metric("gen.latency_p99_us", query_p99, "us");
}

}  // namespace perfbench
