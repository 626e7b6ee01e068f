// Integration tests: end-to-end training of all four variants, convergence,
// search quality above chance, and model serialization.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>

#include "core/search.h"
#include "core/trainer.h"
#include "data/generators.h"
#include "eval/protocol.h"
#include "test_util.h"

namespace neutraj {
namespace {

/// Small clustered corpus: trajectories around a handful of template routes,
/// so near-duplicates exist and metric learning has signal.
std::vector<Trajectory> ClusteredCorpus(size_t n, Rng* rng) {
  std::vector<Trajectory> templates;
  for (int k = 0; k < 5; ++k) {
    templates.push_back(testing::RandomTrajectory(12, 1000.0, rng));
  }
  std::vector<Trajectory> out;
  for (size_t i = 0; i < n; ++i) {
    const Trajectory& base = templates[i % templates.size()];
    Trajectory t;
    for (size_t j = 0; j < base.size(); ++j) {
      t.Append(Point(base[j].x + rng->Gaussian(0, 15.0),
                     base[j].y + rng->Gaussian(0, 15.0)));
    }
    out.push_back(std::move(t));
  }
  return out;
}

Grid CorpusGrid(const std::vector<Trajectory>& corpus) {
  BoundingBox region = BoundingBox::Empty();
  for (const Trajectory& t : corpus) region.Extend(t.Bounds());
  return Grid(region.Inflated(10.0), 60.0);
}

NeuTrajConfig TinyConfig(NeuTrajConfig base) {
  base.embedding_dim = 12;
  base.scan_width = 1;
  base.sampling_num = 4;
  base.batch_size = 8;
  base.epochs = 4;
  base.learning_rate = 5e-3;
  return base;
}

struct VariantCase {
  std::string name;
  NeuTrajConfig config;
};

// Print only the variant name: the default printer would dump the config
// bytes, and ctest's discovered test names would carry that dump.
void PrintTo(const VariantCase& c, std::ostream* os) { *os << c.name; }

class VariantTrainingTest : public ::testing::TestWithParam<VariantCase> {};

TEST_P(VariantTrainingTest, LossDecreasesOverTraining) {
  Rng rng(71);
  const auto corpus = ClusteredCorpus(24, &rng);
  const DistanceMatrix d = ComputePairwiseDistances(corpus, Measure::kFrechet);
  NeuTrajConfig cfg = TinyConfig(GetParam().config);
  cfg.epochs = 10;
  Trainer trainer(cfg, CorpusGrid(corpus), corpus, d);
  const TrainResult r = trainer.Train();
  ASSERT_EQ(r.epochs.size(), cfg.epochs);
  // Compare epoch-averaged loss at the start and end; per-epoch loss is
  // noisy for the random-sampling variants (fresh pairs every epoch).
  const double head =
      (r.epochs[0].mean_loss + r.epochs[1].mean_loss) / 2.0;
  const double tail = (r.epochs[cfg.epochs - 2].mean_loss +
                       r.epochs[cfg.epochs - 1].mean_loss) /
                      2.0;
  EXPECT_LT(tail, head) << GetParam().name
                        << " should reduce its training loss";
  EXPECT_GT(r.total_seconds, 0.0);
}

NeuTrajConfig WithBackbone(NeuTrajConfig cfg, nn::Backbone backbone) {
  cfg.backbone = backbone;
  return cfg;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VariantTrainingTest,
    ::testing::Values(
        VariantCase{"NeuTraj", NeuTrajConfig::NeuTraj()},
        VariantCase{"NoSam", NeuTrajConfig::NoSam()},
        VariantCase{"NoWs", NeuTrajConfig::NoWs()},
        VariantCase{"Siamese", NeuTrajConfig::Siamese()},
        VariantCase{"Gru", WithBackbone(NeuTrajConfig::NeuTraj(),
                                        nn::Backbone::kGru)},
        VariantCase{"SamGru", WithBackbone(NeuTrajConfig::NeuTraj(),
                                           nn::Backbone::kSamGru)}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(TrainerTest, RejectsBadInputs) {
  Rng rng(72);
  const auto corpus = ClusteredCorpus(6, &rng);
  const Grid grid = CorpusGrid(corpus);
  NeuTrajConfig cfg = TinyConfig(NeuTrajConfig::NeuTraj());
  EXPECT_THROW(Trainer(cfg, grid, {corpus[0]}, DistanceMatrix(1)),
               std::invalid_argument);
  EXPECT_THROW(Trainer(cfg, grid, corpus, DistanceMatrix(3)),
               std::invalid_argument);
}

TEST(TrainerTest, EpochCallbackCanStopTraining) {
  Rng rng(73);
  const auto corpus = ClusteredCorpus(12, &rng);
  const DistanceMatrix d = ComputePairwiseDistances(corpus, Measure::kHausdorff);
  NeuTrajConfig cfg = TinyConfig(NeuTrajConfig::NoSam());
  cfg.measure = Measure::kHausdorff;
  cfg.epochs = 10;
  Trainer trainer(cfg, CorpusGrid(corpus), corpus, d);
  size_t calls = 0;
  const TrainResult r = trainer.Train([&](const EpochStats&, NeuTrajModel&) {
    return ++calls < 3;  // Stop after the third epoch.
  });
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(r.epochs.size(), 3u);
  EXPECT_TRUE(r.early_stopped);
}

TEST(TrainerTest, EarlyStoppingOnLossPlateau) {
  Rng rng(74);
  const auto corpus = ClusteredCorpus(12, &rng);
  const DistanceMatrix d = ComputePairwiseDistances(corpus, Measure::kFrechet);
  NeuTrajConfig cfg = TinyConfig(NeuTrajConfig::NoSam());
  cfg.epochs = 50;
  cfg.early_stop_tol = 0.9;  // Absurdly strict: stops almost immediately.
  cfg.patience = 2;
  Trainer trainer(cfg, CorpusGrid(corpus), corpus, d);
  const TrainResult r = trainer.Train();
  EXPECT_TRUE(r.early_stopped);
  EXPECT_LT(r.epochs.size(), 50u);
}

/// Pearson correlation between embedding distances and exact distances over
/// all seed pairs — the direct measure of how similarity-preserving the
/// learned metric space is.
double DistanceCorrelation(const NeuTrajModel& model,
                           const std::vector<Trajectory>& corpus,
                           const DistanceMatrix& d) {
  const auto embeds = model.EmbedAll(corpus);
  std::vector<double> x, y;
  for (size_t i = 0; i < corpus.size(); ++i) {
    for (size_t j = i + 1; j < corpus.size(); ++j) {
      x.push_back(nn::L2Distance(embeds[i], embeds[j]));
      y.push_back(d.At(i, j));
    }
  }
  double mx = 0, my = 0;
  for (size_t k = 0; k < x.size(); ++k) {
    mx += x[k];
    my += y[k];
  }
  mx /= static_cast<double>(x.size());
  my /= static_cast<double>(x.size());
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t k = 0; k < x.size(); ++k) {
    sxy += (x[k] - mx) * (y[k] - my);
    sxx += (x[k] - mx) * (x[k] - mx);
    syy += (y[k] - my) * (y[k] - my);
  }
  return sxy / std::sqrt(sxx * syy + 1e-30);
}

TEST(TrainerTest, TrainingImprovesDistanceCorrelation) {
  // A small city-like corpus: overlapping routes with graded distances, so
  // an untrained random encoder is far from similarity-preserving.
  GeneratorConfig gen = PortoLikeConfig(0.1);  // 50 trajectories.
  gen.max_points = 24;
  TrajectoryDataset db = GeneratePortoLike(gen);
  const auto& corpus = db.trajectories;
  const DistanceMatrix d = ComputePairwiseDistances(corpus, Measure::kFrechet);
  NeuTrajConfig cfg = TinyConfig(NeuTrajConfig::NeuTraj());
  cfg.epochs = 40;  // Enough to converge on this small pool.
  const Grid grid(db.region.Inflated(10.0), 100.0);

  NeuTrajModel untrained(cfg, grid);
  Rng wrng(1);
  untrained.InitializeWeights(&wrng);
  const double corr_untrained = DistanceCorrelation(untrained, corpus, d);

  Trainer trainer(cfg, grid, corpus, d);
  trainer.Train();
  NeuTrajModel trained = trainer.TakeModel();
  const double corr_trained = DistanceCorrelation(trained, corpus, d);

  EXPECT_GT(corr_trained, corr_untrained)
      << "training must make the embedding space more similarity-preserving";
  EXPECT_GT(corr_trained, 0.9) << "trained metric should strongly correlate "
                                  "with the exact measure on its seed pool";
}

TEST(ModelIoTest, SaveLoadPreservesEmbeddings) {
  Rng rng(76);
  const auto corpus = ClusteredCorpus(16, &rng);
  const DistanceMatrix d = ComputePairwiseDistances(corpus, Measure::kFrechet);
  NeuTrajConfig cfg = TinyConfig(NeuTrajConfig::NeuTraj());
  cfg.epochs = 2;
  Trainer trainer(cfg, CorpusGrid(corpus), corpus, d);
  trainer.Train();
  NeuTrajModel model = trainer.TakeModel();

  const auto dir = std::filesystem::temp_directory_path() /
                   ("neutraj_model_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "m.model").string();
  model.Save(path);
  const NeuTrajModel loaded = NeuTrajModel::Load(path);

  EXPECT_EQ(loaded.config().VariantName(), model.config().VariantName());
  EXPECT_EQ(loaded.config().embedding_dim, model.config().embedding_dim);
  EXPECT_EQ(loaded.NumParameters(), model.NumParameters());
  for (const Trajectory& t : corpus) {
    const nn::Vector a = model.Embed(t);
    const nn::Vector b = loaded.Embed(t);
    ASSERT_EQ(a.size(), b.size());
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_DOUBLE_EQ(a[k], b[k]) << "embedding drift after reload";
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ModelIoTest, SaveLoadRoundtripsGruBackbone) {
  Rng rng(78);
  const auto corpus = ClusteredCorpus(12, &rng);
  NeuTrajConfig cfg = TinyConfig(NeuTrajConfig::NeuTraj());
  cfg.backbone = nn::Backbone::kSamGru;
  NeuTrajModel model(cfg, CorpusGrid(corpus));
  Rng wr(2);
  model.InitializeWeights(&wr);
  // Populate the memory so the masked-attention state matters.
  for (const Trajectory& t : corpus) model.encoder().Encode(t, true);

  const auto dir = std::filesystem::temp_directory_path() /
                   ("neutraj_gru_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "g.model").string();
  model.Save(path);
  const NeuTrajModel loaded = NeuTrajModel::Load(path);
  for (const Trajectory& t : corpus) {
    const nn::Vector a = model.Embed(t);
    const nn::Vector b = loaded.Embed(t);
    for (size_t k = 0; k < a.size(); ++k) EXPECT_DOUBLE_EQ(a[k], b[k]);
  }
  std::filesystem::remove_all(dir);
}

TEST(ModelIoTest, LoadRejectsCorruptFiles) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("neutraj_badmodel_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "bad.model").string();
  {
    std::ofstream out(path);
    out << "NOT-A-MODEL\n";
  }
  EXPECT_THROW(NeuTrajModel::Load(path), std::runtime_error);
  EXPECT_THROW(NeuTrajModel::Load((dir / "missing.model").string()),
               std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(ModelTest, SimilarityIsExpOfDistance) {
  Rng rng(79);
  const auto corpus = ClusteredCorpus(6, &rng);
  NeuTrajConfig cfg = TinyConfig(NeuTrajConfig::NeuTraj());
  NeuTrajModel model(cfg, CorpusGrid(corpus));
  Rng wr(3);
  model.InitializeWeights(&wr);
  for (size_t i = 0; i + 1 < corpus.size(); i += 2) {
    const double s = model.Similarity(corpus[i], corpus[i + 1]);
    const double d = model.Distance(corpus[i], corpus[i + 1]);
    EXPECT_NEAR(s, std::exp(-d), 1e-12);
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(SearchTest, RerankHandlesSmallCandidateSets) {
  Rng rng(80);
  const auto corpus = testing::RandomCorpus(6, 5, 8, 200.0, &rng);
  const DistanceFn fn = ExactDistanceFn(Measure::kHausdorff);
  // k larger than the candidate list: returns all candidates, ordered.
  const SearchResult r = RerankByExact(corpus, corpus[0], {2, 4}, fn, 10);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_LE(r.dists[0], r.dists[1]);
  // Empty candidate list.
  const SearchResult empty = RerankByExact(corpus, corpus[0], {}, fn, 10);
  EXPECT_EQ(empty.size(), 0u);
}

TEST(SearchTest, TopKByDistanceOrdersAndExcludes) {
  const std::vector<double> dists = {5.0, 1.0, 3.0, 1.0, 4.0};
  const SearchResult r = TopKByDistance(dists, 3, /*exclude=*/1);
  ASSERT_EQ(r.ids.size(), 3u);
  EXPECT_EQ(r.ids[0], 3u) << "tie at 1.0 excluded id 1, id 3 remains";
  EXPECT_EQ(r.ids[1], 2u);
  EXPECT_EQ(r.ids[2], 4u);
  EXPECT_DOUBLE_EQ(r.dists[0], 1.0);
  // k larger than pool.
  const SearchResult all = TopKByDistance(dists, 100, -1);
  EXPECT_EQ(all.ids.size(), 5u);
  EXPECT_EQ(all.ids[0], 1u) << "tie broken by lower id";
}

TEST(SearchTest, ExactAndRerankAgreeWithBruteForce) {
  Rng rng(77);
  const auto corpus = testing::RandomCorpus(20, 5, 12, 500.0, &rng);
  const Trajectory query = testing::RandomTrajectory(8, 500.0, &rng);
  const DistanceFn fn = ExactDistanceFn(Measure::kDtw);
  const SearchResult exact = ExactTopK(corpus, query, fn, 5);
  // Rerank over all candidates must equal exact search.
  std::vector<size_t> all(corpus.size());
  std::iota(all.begin(), all.end(), size_t{0});
  const SearchResult rerank = RerankByExact(corpus, query, all, fn, 5);
  EXPECT_EQ(exact.ids, rerank.ids);
  for (size_t i = 1; i < exact.dists.size(); ++i) {
    EXPECT_LE(exact.dists[i - 1], exact.dists[i]);
  }
}

}  // namespace
}  // namespace neutraj
