// Tests for core/: config presets, similarity guidance, sampling, loss and
// the embedding scan.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.h"
#include "core/config.h"
#include "core/embedding_db.h"
#include "core/loss.h"
#include "core/sampler.h"
#include "core/search.h"
#include "core/similarity.h"
#include "obs/metrics.h"
#include "retrieval/quantized.h"
#include "serve/protocol.h"
#include "test_util.h"

namespace neutraj {
namespace {

DistanceMatrix MakeDistances() {
  // 4 seeds: 0 and 1 close; 2 mid; 3 far from everyone.
  DistanceMatrix d(4);
  d.Set(0, 1, 1.0);
  d.Set(0, 2, 5.0);
  d.Set(0, 3, 20.0);
  d.Set(1, 2, 5.0);
  d.Set(1, 3, 20.0);
  d.Set(2, 3, 18.0);
  return d;
}

TEST(ConfigTest, PresetVariantNames) {
  EXPECT_EQ(NeuTrajConfig::NeuTraj().VariantName(), "NeuTraj");
  EXPECT_EQ(NeuTrajConfig::NoSam().VariantName(), "NT-No-SAM");
  EXPECT_EQ(NeuTrajConfig::NoWs().VariantName(), "NT-No-WS");
  EXPECT_EQ(NeuTrajConfig::Siamese().VariantName(), "Siamese");
}

TEST(ConfigTest, FingerprintDiscriminates) {
  NeuTrajConfig a = NeuTrajConfig::NeuTraj();
  NeuTrajConfig b = a;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.embedding_dim = 99;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b = a;
  b.measure = Measure::kDtw;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(ConfigTest, ValidateCatchesNonsense) {
  NeuTrajConfig c;
  c.embedding_dim = 0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = NeuTrajConfig();
  c.scan_width = -1;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = NeuTrajConfig();
  c.learning_rate = 0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = NeuTrajConfig();
  EXPECT_NO_THROW(c.Validate());
}

TEST(SimilarityMatrixTest, ExpTransformRangeAndMonotonicity) {
  NeuTrajConfig cfg;
  cfg.transform = SimilarityTransform::kExp;
  const SimilarityMatrix s(MakeDistances(), cfg);
  ASSERT_EQ(s.size(), 4u);
  // Diagonal: exp(0) = 1.
  for (size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(s.At(i, i), 1.0);
  // Monotone decreasing in distance.
  EXPECT_GT(s.At(0, 1), s.At(0, 2));
  EXPECT_GT(s.At(0, 2), s.At(0, 3));
  // Symmetric for the unnormalized transform.
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(s.At(i, j), s.At(j, i));
      EXPECT_GT(s.At(i, j), 0.0);
      EXPECT_LE(s.At(i, j), 1.0);
    }
  }
}

TEST(SimilarityMatrixTest, AutoAlphaCalibratesToKnnScale) {
  NeuTrajConfig cfg;
  cfg.alpha = 0.0;
  cfg.alpha_factor = 1.0;
  cfg.sampling_num = 10;  // Clamped to pool-1 = 3 neighbors.
  // 3rd-NN distances per row: 20, 20, 18, 20 -> mean 19.5.
  const SimilarityMatrix s(MakeDistances(), cfg);
  EXPECT_NEAR(s.alpha(), std::log(2.0) / 19.5, 1e-12);
  // The calibration point: similarity at the mean kNN radius is 0.5.
  EXPECT_NEAR(std::exp(-s.alpha() * 19.5), 0.5, 1e-12);
  // Explicit alpha wins.
  cfg.alpha = 2.0;
  const SimilarityMatrix s2(MakeDistances(), cfg);
  EXPECT_DOUBLE_EQ(s2.alpha(), 2.0);
  EXPECT_NEAR(s2.At(0, 1), std::exp(-2.0), 1e-12);
}

TEST(SimilarityMatrixTest, RowSoftmaxRowsSumToOne) {
  NeuTrajConfig cfg;
  cfg.transform = SimilarityTransform::kRowSoftmax;
  const SimilarityMatrix s(MakeDistances(), cfg);
  for (size_t i = 0; i < 4; ++i) {
    double total = 0.0;
    for (size_t j = 0; j < 4; ++j) total += s.At(i, j);
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(SamplerTest, RankingWeightsNormalizedAndDecreasing) {
  const auto r = RankingWeights(5);
  ASSERT_EQ(r.size(), 5u);
  double total = 0.0;
  for (size_t i = 0; i < 5; ++i) {
    total += r[i];
    if (i > 0) {
      EXPECT_LT(r[i], r[i - 1]);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Reciprocal shape: r[1]/r[0] = 1/2.
  EXPECT_NEAR(r[1] / r[0], 0.5, 1e-12);
  EXPECT_TRUE(RankingWeights(0).empty());
}

class SamplerStrategyTest : public ::testing::TestWithParam<SamplingStrategy> {};

TEST_P(SamplerStrategyTest, ExcludesAnchorAndIsDistinct) {
  NeuTrajConfig cfg;
  const SimilarityMatrix s(MakeDistances(), cfg);
  Rng rng(61);
  for (int rep = 0; rep < 50; ++rep) {
    const AnchorSample a = SampleAnchorPairs(s, 0, 2, GetParam(), &rng);
    std::set<size_t> seen;
    for (size_t id : a.similar) {
      EXPECT_NE(id, 0u);
      EXPECT_TRUE(seen.insert(id).second);
    }
    for (size_t id : a.dissimilar) {
      EXPECT_NE(id, 0u);
      EXPECT_TRUE(seen.insert(id).second) << "similar/dissimilar overlap";
    }
  }
}

TEST_P(SamplerStrategyTest, ListsAreRankOrdered) {
  NeuTrajConfig cfg;
  const SimilarityMatrix s(MakeDistances(), cfg);
  Rng rng(62);
  for (int rep = 0; rep < 50; ++rep) {
    const AnchorSample a = SampleAnchorPairs(s, 1, 3, GetParam(), &rng);
    for (size_t i = 1; i < a.similar.size(); ++i) {
      EXPECT_GE(s.At(1, a.similar[i - 1]), s.At(1, a.similar[i]))
          << "similar list must be in decreasing similarity";
    }
    for (size_t i = 1; i < a.dissimilar.size(); ++i) {
      EXPECT_LE(s.At(1, a.dissimilar[i - 1]), s.At(1, a.dissimilar[i]))
          << "dissimilar list must be in increasing similarity";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothStrategies, SamplerStrategyTest,
    ::testing::Values(SamplingStrategy::kDistanceWeighted,
                      SamplingStrategy::kRandom),
    [](const ::testing::TestParamInfo<SamplingStrategy>& param_info) {
      return param_info.param == SamplingStrategy::kDistanceWeighted ? "weighted"
                                                               : "random";
    });

TEST(SamplerTest, WeightedSamplingPrefersNearNeighbors) {
  // With a strongly peaked similarity row, the top similar pick should be
  // the true nearest neighbor most of the time.
  DistanceMatrix d(5);
  d.Set(0, 1, 0.1);
  d.Set(0, 2, 10.0);
  d.Set(0, 3, 10.0);
  d.Set(0, 4, 10.0);
  d.Set(1, 2, 10.0);
  d.Set(1, 3, 10.0);
  d.Set(1, 4, 10.0);
  d.Set(2, 3, 10.0);
  d.Set(2, 4, 10.0);
  d.Set(3, 4, 10.0);
  NeuTrajConfig cfg;
  cfg.alpha = 1.0;
  const SimilarityMatrix s(d, cfg);
  Rng rng(63);
  int nearest_first = 0;
  const int reps = 300;
  for (int rep = 0; rep < reps; ++rep) {
    const AnchorSample a =
        SampleAnchorPairs(s, 0, 1, SamplingStrategy::kDistanceWeighted, &rng);
    ASSERT_EQ(a.similar.size(), 1u);
    if (a.similar[0] == 1) ++nearest_first;
  }
  EXPECT_GT(nearest_first, reps / 2)
      << "importance sampling should pick the near-duplicate most often";
}

TEST(SamplerTest, DissimilarSamplingPrefersFarItems) {
  // Mirror of the similar-sampling test: with one far outlier, the top
  // dissimilar pick should usually be that outlier.
  DistanceMatrix d(5);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = i + 1; j < 5; ++j) d.Set(i, j, 0.5);
  }
  d.Set(0, 4, 50.0);
  NeuTrajConfig cfg;
  cfg.alpha = 1.0;
  const SimilarityMatrix s(d, cfg);
  Rng rng(65);
  int outlier_first = 0;
  const int reps = 300;
  for (int rep = 0; rep < reps; ++rep) {
    const AnchorSample a =
        SampleAnchorPairs(s, 0, 1, SamplingStrategy::kDistanceWeighted, &rng);
    ASSERT_EQ(a.dissimilar.size(), 1u);
    if (a.dissimilar[0] == 4) ++outlier_first;
  }
  // Weights 1 - S: outlier ~1.0, others ~0.39 -> outlier picked ~46%.
  EXPECT_GT(outlier_first, reps / 3);
}

TEST(SamplerTest, DegeneratePoolsHandled) {
  NeuTrajConfig cfg;
  DistanceMatrix d(1);
  const SimilarityMatrix s(d, cfg);
  Rng rng(64);
  const AnchorSample a =
      SampleAnchorPairs(s, 0, 5, SamplingStrategy::kDistanceWeighted, &rng);
  EXPECT_TRUE(a.similar.empty());
  EXPECT_TRUE(a.dissimilar.empty());
}

TEST(SamplerTest, RowSoftmaxGuidanceAlsoSamples) {
  // The row-normalized transform produces tiny values; the sampler must
  // still function (weights are relative).
  NeuTrajConfig cfg;
  cfg.transform = SimilarityTransform::kRowSoftmax;
  const SimilarityMatrix s(MakeDistances(), cfg);
  Rng rng(66);
  const AnchorSample a =
      SampleAnchorPairs(s, 0, 2, SamplingStrategy::kDistanceWeighted, &rng);
  EXPECT_EQ(a.similar.size(), 2u);
  EXPECT_FALSE(a.dissimilar.empty());
}

TEST(LossTest, SimilarPairLossQuadratic) {
  const PairLoss pl = SimilarPairLoss(0.8, 0.5, 2.0);
  EXPECT_NEAR(pl.loss, 2.0 * 0.09, 1e-12);
  EXPECT_NEAR(pl.dg, 2.0 * 2.0 * 0.3, 1e-12);
  // Symmetric in sign of the error for the loss, antisymmetric for dg.
  const PairLoss pl2 = SimilarPairLoss(0.2, 0.5, 2.0);
  EXPECT_NEAR(pl2.loss, pl.loss, 1e-12);
  EXPECT_NEAR(pl2.dg, -pl.dg, 1e-12);
}

TEST(LossTest, DissimilarPairLossIsOneSided) {
  // Predicted less similar than truth: no loss, no gradient.
  const PairLoss ok = DissimilarPairLoss(0.2, 0.5, 1.0);
  EXPECT_DOUBLE_EQ(ok.loss, 0.0);
  EXPECT_DOUBLE_EQ(ok.dg, 0.0);
  // Predicted too similar: quadratic penalty.
  const PairLoss bad = DissimilarPairLoss(0.9, 0.5, 1.0);
  EXPECT_NEAR(bad.loss, 0.16, 1e-12);
  EXPECT_NEAR(bad.dg, 0.8, 1e-12);
}

TEST(LossTest, MsePairLoss) {
  const PairLoss pl = MsePairLoss(0.3, 0.7, 0.5);
  EXPECT_NEAR(pl.loss, 0.5 * 0.16, 1e-12);
  EXPECT_NEAR(pl.dg, -0.4, 1e-12);
}

TEST(LossTest, BackpropSkipsCoincidentEmbeddings) {
  nn::Vector e = {1.0, 2.0};
  nn::Vector de_a(2, 0.0), de_b(2, 0.0);
  BackpropPairSimilarity(e, e, 1.0, 5.0, &de_a, &de_b);
  EXPECT_DOUBLE_EQ(de_a[0], 0.0);
  EXPECT_DOUBLE_EQ(de_b[1], 0.0);
}

TEST(EmbeddingDatabaseTest, TopKBreaksDistanceTiesByAscendingId) {
  // The ascending-id tie-break is a pinned API contract: IVF's list scan
  // (TopKOfLists) replicates it to stay bit-identical with this scan,
  // and the serving protocol's determinism guarantees lean on it. If this
  // test fails, those paths silently diverge.
  EmbeddingDatabase db;
  const nn::Vector near = {1.0, 0.0};
  const nn::Vector far = {3.0, 0.0};
  db.Insert(far);   // id 0
  db.Insert(near);  // id 1
  db.Insert(near);  // id 2 — exact duplicate of 1
  db.Insert(far);   // id 3 — exact duplicate of 0
  db.Insert(near);  // id 4 — exact duplicate of 1

  const nn::Vector query = {0.0, 0.0};
  const SearchResult r = db.TopK(query, 5);
  EXPECT_EQ(r.ids, (std::vector<size_t>{1, 2, 4, 0, 3}));
  EXPECT_EQ(r.dists, (std::vector<double>{1.0, 1.0, 1.0, 3.0, 3.0}));

  // The tie-break survives exclusion (ids do not renumber) …
  const SearchResult ex = db.TopK(query, 5, /*exclude=*/2);
  EXPECT_EQ(ex.ids, (std::vector<size_t>{1, 4, 0, 3}));

  // … and TopKOf, the re-rank primitive, orders candidates identically.
  const SearchResult of = db.TopKOf(query, {3, 4, 2, 0, 1}, 5);
  EXPECT_EQ(of.ids, r.ids);
  EXPECT_EQ(of.dists, r.dists);
}

TEST(EmbeddingDatabaseTest, TopKOfListsTakesIdsInAnyOrder) {
  // IVF lists hold ids in the order rows were mirrored into the index, which
  // need not ascend; the scan must still break ties by ascending id.
  EmbeddingDatabase db;
  const std::vector<nn::Vector> rows = {
      {3.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}, {3.0, 0.0}, {0.0, 1.0}};
  for (const nn::Vector& r : rows) db.Insert(r);
  const auto quantizer = retrieval::Int8Quantizer::Train(rows);
  retrieval::CodeList first, second;
  for (const size_t id : {4, 2, 0}) {
    first.ids.push_back(id);
    first.codes.Append(quantizer, rows[id]);
  }
  for (const size_t id : {3, 1}) {
    second.ids.push_back(id);
    second.codes.Append(quantizer, rows[id]);
  }
  const nn::Vector query = {0.0, 0.0};
  const SearchResult want = db.TopK(query, 5);
  for (size_t k = 1; k <= 5; ++k) {
    const SearchResult got =
        db.TopKOfLists(query, k, -1, quantizer, {&first, &second});
    EXPECT_EQ(got.ids, std::vector<size_t>(want.ids.begin(),
                                           want.ids.begin() + k));
    EXPECT_EQ(got.dists, std::vector<double>(want.dists.begin(),
                                             want.dists.begin() + k));
  }
  EXPECT_EQ(db.TopKOfLists(query, 5, /*exclude=*/1, quantizer, {&second}).ids,
            (std::vector<size_t>{3}));
  retrieval::CodeList stray;
  stray.ids.push_back(rows.size());
  stray.codes.Append(quantizer, rows[0]);
  EXPECT_THROW(db.TopKOfLists(query, 1, -1, quantizer, {&stray}),
               std::out_of_range);
}

TEST(TopKHeapTest, OfferAnyOrderBreaksASqrtTieById) {
  // Two squared distances one ulp apart can share a sqrt. OfferScanned
  // drops the larger one unseen, which is right only when its id is the
  // larger too; OfferAnyOrder lets it win the tie on a lower id.
  double sq = 1.5;
  while (std::sqrt(sq) != std::sqrt(std::nextafter(sq, 2.0))) {
    sq = std::nextafter(sq, 2.0);
  }
  const double above = std::nextafter(sq, 2.0);
  TopKHeap heap(1);
  heap.OfferAnyOrder(sq, 7);
  heap.OfferAnyOrder(above, 3);
  const SearchResult r = heap.Take();
  EXPECT_EQ(r.ids, (std::vector<size_t>{3}));
  EXPECT_EQ(r.dists, (std::vector<double>{std::sqrt(above)}));
}

/// The algorithm the streaming scan replaced: every row's nn::L2Distance,
/// then a (distance, ascending id) partial sort.
SearchResult OracleTopK(const std::vector<nn::Vector>& rows,
                        const nn::Vector& query, size_t k, int64_t exclude) {
  std::vector<double> dists(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    dists[i] = nn::L2Distance(rows[i], query);
  }
  return TopKByDistance(dists, k, exclude);
}

TEST(EmbeddingDatabaseTest, ChunkedTopKIsBitIdenticalToTheSortOracle) {
  constexpr size_t kDim = 64;
  const size_t chunk = EmbeddingDatabase::ScanChunkRows(kDim);
  ASSERT_EQ(chunk * kDim * sizeof(double), size_t{1} << 20);
  Rng rng(313);
  std::vector<nn::Vector> rows(3 * chunk + chunk / 2, nn::Vector(kDim));
  for (nn::Vector& r : rows) {
    for (double& x : r) x = rng.Gaussian(0.0, 1.0);
  }
  // Duplicates straddling every chunk boundary: equal distances from any
  // query, found by different chunks, so only the id tie-break orders them.
  for (size_t b = chunk; b < rows.size(); b += chunk) {
    rows[b] = rows[b - 1];
    rows[b + 1] = rows[b - 1];
  }
  // Queries: on a duplicated row (a tie at distance 0), next to one (a tie
  // at a nonzero distance inside the top few) and a generic point.
  nn::Vector near = rows[chunk - 1];
  near[0] += 1e-3;
  nn::Vector generic(kDim);
  for (double& x : generic) x = rng.Gaussian(0.0, 1.0);
  const std::vector<nn::Vector> queries = {rows[2 * chunk - 1], near, generic};

  ThreadPool one(1), two(2), three(3);
  const std::vector<ThreadPool*> helpers = {nullptr, &one, &two, &three};
  const int64_t boundary = static_cast<int64_t>(chunk);
  for (const size_t n :
       {size_t{0}, size_t{1}, chunk - 1, chunk, chunk + 1, rows.size()}) {
    const std::vector<nn::Vector> prefix(rows.begin(),
                                         rows.begin() + static_cast<long>(n));
    EmbeddingDatabase db;
    for (const nn::Vector& r : prefix) db.Insert(r);
    for (const size_t k : {size_t{0}, size_t{1}, size_t{10}, n, n + 3,
                           size_t{serve::kMaxTopKResults}}) {
      for (const int64_t exclude : {int64_t{-1}, boundary - 1, boundary}) {
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          const SearchResult want = OracleTopK(prefix, queries[qi], k, exclude);
          const SearchResult streamed =
              EmbeddingTopK(prefix, queries[qi], k, exclude);
          EXPECT_EQ(streamed.ids, want.ids);
          EXPECT_EQ(streamed.dists, want.dists);
          for (size_t h = 0; h < helpers.size(); ++h) {
            const SearchResult got =
                db.TopK(queries[qi], k, exclude, helpers[h]);
            ASSERT_EQ(got.ids, want.ids) << "n=" << n << " k=" << k
                                         << " exclude=" << exclude
                                         << " query=" << qi << " helpers=" << h;
            ASSERT_EQ(got.dists, want.dists);
          }
        }
      }
    }
  }
}

/// The database Deserialize publishes for `rows`: the same rows with the
/// int8 index built, so TopK runs the bounded scan.
EmbeddingDatabase Indexed(const std::vector<nn::Vector>& rows) {
  EmbeddingDatabase flat;
  for (const nn::Vector& r : rows) flat.Insert(r);
  return EmbeddingDatabase::Deserialize(flat.Serialize(), "test", 2);
}

void ExpectSame(const SearchResult& got, const SearchResult& want) {
  ASSERT_EQ(got.ids, want.ids);
  ASSERT_EQ(got.dists, want.dists);  // Distances compared bit for bit.
}

TEST(BoundedTopKTest, MatchesTheSortOracleOnEveryShape) {
  // Gaussian rows with one near-constant dimension (its scale, and so its
  // bound weight, is ~0), a run of twelve duplicates so that k = 10 ties
  // at the k-th place, and row counts that are not a multiple of 8. The
  // larger dims span several scan chunks, so helpers share the shared τ.
  ThreadPool three(3);
  for (const size_t dim : {1ul, 3ul, 8ul, 32ul, 64ul, 131ul}) {
    const size_t chunk = EmbeddingDatabase::ScanChunkRows(dim);
    const size_t n = dim >= 32 ? 2 * chunk + 5 : 1003;
    Rng rng(1000 + dim);
    std::vector<nn::Vector> rows(n, nn::Vector(dim));
    for (nn::Vector& r : rows) {
      for (double& x : r) x = rng.Gaussian(0.0, 1.0);
      r[0] = 0.5 + 1e-9 * rng.Gaussian(0.0, 1.0);
    }
    const size_t dup = n / 2;
    for (size_t i = dup + 1; i < dup + 12; ++i) rows[i] = rows[dup];
    EmbeddingDatabase db = Indexed(rows);

    // Inserts after the build: two clamped far outside the trained range,
    // one of them next to a query, and one more duplicate.
    nn::Vector far(dim, 40.0), near_far(dim, 0.0);
    near_far[0] = 60.0;
    for (const nn::Vector& r : {far, near_far, rows[dup]}) {
      rows.push_back(r);
      db.Insert(r);
    }
    nn::Vector generic(dim);
    for (double& x : generic) x = rng.Gaussian(0.0, 1.0);
    nn::Vector beside_dup = rows[dup];
    beside_dup[dim - 1] += 0.25;
    nn::Vector out_of_range(dim, 0.0);
    out_of_range[0] = 59.0;
    const std::vector<nn::Vector> queries = {generic, rows[dup], beside_dup,
                                             out_of_range, rows[7]};

    const int64_t inside = static_cast<int64_t>(dup + 3);
    const int64_t outside = static_cast<int64_t>(rows.size() + 100);
    for (const size_t k : {size_t{1}, size_t{10}, rows.size() + 5}) {
      for (const int64_t exclude : {int64_t{-1}, inside, outside}) {
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          SCOPED_TRACE(::testing::Message() << "dim " << dim << " k " << k
                                          << " exclude " << exclude
                                          << " query " << qi);
          const SearchResult want =
              OracleTopK(rows, queries[qi], k, exclude);
          ExpectSame(db.TopK(queries[qi], k, exclude), want);
          ExpectSame(db.TopK(queries[qi], k, exclude, &three, 1), want);
          ExpectSame(db.TopK(queries[qi], k, exclude, &three), want);
        }
      }
    }
  }
}

TEST(BoundedTopKTest, CodesAcrossARoundingBoundaryStillMatch) {
  // Scales of exactly 1 (a row of 127s). The query sits just below a half
  // in every dimension and row 16 just above it, so their codes differ by
  // one everywhere: a decoded distance of sqrt(dim) for a true one of
  // 2e-6 · sqrt(dim). Only subtracting both reconstruction errors keeps
  // row 16 from being cut by the k-th distance that rows 0 and 1 set.
  constexpr size_t kDim = 16;
  nn::Vector query(kDim), beside(kDim);
  for (size_t d = 0; d < kDim; ++d) {
    const double half = static_cast<double>(d % 5) + 0.5;
    query[d] = half - 1e-6;
    beside[d] = half + 1e-6;
  }
  std::vector<nn::Vector> rows(24, nn::Vector(kDim, -100.0));
  rows[0] = query;
  rows[0][0] += 0.3;
  rows[1] = query;
  rows[1][1] -= 0.35;
  rows[16] = beside;
  rows[23] = nn::Vector(kDim, 127.0);
  const EmbeddingDatabase db = Indexed(rows);
  for (const size_t k : {size_t{2}, size_t{3}}) {
    ExpectSame(db.TopK(query, k), OracleTopK(rows, query, k, -1));
  }
}

TEST(BoundedTopKTest, InsertOnlyDatabaseScansExactlyUntilRebuilt) {
  // Filled by Insert from empty, the database has no quantizer: every row
  // gets its exact distance. Deserialize trains one and the pass prunes.
  constexpr size_t kDim = 16, kRows = 3000;
  Rng rng(77);
  std::vector<nn::Vector> rows(kRows, nn::Vector(kDim));
  for (nn::Vector& r : rows) {
    for (double& x : r) x = rng.Gaussian(0.0, 1.0);
  }
  obs::MetricsRegistry registry;
  EmbeddingDatabase flat;
  for (const nn::Vector& r : rows) flat.Insert(r);
  flat.AttachMetrics(&registry);
  const obs::Counter& scored = registry.GetCounter("db/topk_scored_rows");
  const SearchResult want = OracleTopK(rows, rows[5], 10, -1);
  ExpectSame(flat.TopK(rows[5], 10), want);
  EXPECT_EQ(scored.Value(), kRows);

  EmbeddingDatabase indexed = Indexed(rows);
  indexed.AttachMetrics(&registry);
  ExpectSame(indexed.TopK(rows[5], 10), want);
  EXPECT_LT(scored.Value() - kRows, kRows / 2);
}

TEST(BoundedTopKTest, SearchSizedCorpusMatchesTheScanOnTwoSeeds) {
  // 100k x 32 rows, the size and width of the search workload's corpus,
  // drawn as a Gaussian mixture; 200 queries off corpus rows per seed.
  constexpr size_t kDim = 32, kRows = 100000, kQueries = 200;
  for (const uint64_t seed : {7ul, 11ul}) {
    Rng rng(seed);
    std::vector<nn::Vector> centers(64, nn::Vector(kDim));
    for (nn::Vector& c : centers) {
      for (double& x : c) x = rng.Gaussian(0.0, 1.0);
    }
    std::vector<nn::Vector> rows(kRows, nn::Vector(kDim));
    for (size_t i = 0; i < kRows; ++i) {
      for (size_t d = 0; d < kDim; ++d) {
        rows[i][d] = centers[i % centers.size()][d] + rng.Gaussian(0.0, 0.4);
      }
    }
    const EmbeddingDatabase db = Indexed(rows);
    ThreadPool helpers(3);
    size_t mismatches = 0;
    for (size_t q = 0; q < kQueries; ++q) {
      nn::Vector query = rows[(q * 7919) % kRows];
      for (double& x : query) x += rng.Gaussian(0.0, 0.2);
      const SearchResult want = EmbeddingTopK(rows, query, 10);
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &helpers}) {
        const SearchResult got = db.TopK(query, 10, -1, pool);
        if (got.ids != want.ids || got.dists != want.dists) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
}

TEST(BoundedTopKTest, NonFiniteRowsAreRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<nn::Vector> rows = {{1.0, 2.0}, {3.0, 4.0}};
  EmbeddingDatabase flat;  // No quantizer.
  EmbeddingDatabase indexed = Indexed(rows);
  for (EmbeddingDatabase* db : {&flat, &indexed}) {
    EXPECT_THROW(db->Insert(nn::Vector{nan, 0.0}), std::invalid_argument);
    EXPECT_THROW(db->Insert(nn::Vector{0.0, -inf}), std::invalid_argument);
  }
  EXPECT_EQ(flat.size(), 0u);
  EXPECT_EQ(indexed.size(), 2u);
  ExpectSame(indexed.TopK(nn::Vector{1.0, 2.0}, 5),
             OracleTopK(rows, nn::Vector{1.0, 2.0}, 5, -1));
}

TEST(EmbeddingSimilarityTest, RangeAndMonotonicity) {
  const nn::Vector a = {0.0, 0.0};
  const nn::Vector b = {1.0, 0.0};
  const nn::Vector c = {5.0, 0.0};
  EXPECT_DOUBLE_EQ(EmbeddingSimilarity(a, a), 1.0);
  EXPECT_GT(EmbeddingSimilarity(a, b), EmbeddingSimilarity(a, c));
  EXPECT_NEAR(EmbeddingSimilarity(a, b), std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(EmbeddingDistance(a, c), 5.0);
}

}  // namespace
}  // namespace neutraj
