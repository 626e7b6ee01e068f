// The dispatched nn kernels (nn/kernels.h) and the one SIMD decision
// (common/simd_dispatch.h). The portable forms (nn/matrix.cc) and the AVX2
// forms (nn/kernels_avx2.cc) must agree bit for bit on every shape and
// input, so that training and serving run one numerics on every machine:
// a model trained where AVX2 runs encodes to the same bits where it does
// not. Each test forces both forms; on a CPU without AVX2 only the portable
// half runs and kAvx2 must throw.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/simd_dispatch.h"
#include "core/model.h"
#include "core/trainer.h"
#include "distance/pairwise.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "retrieval/kernels.h"
#include "test_util.h"

namespace neutraj {
namespace {

/// Restores kAuto when a test that forces a kernel ends.
class SimdKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { SetSimdKernel(SimdKernel::kAuto); }
};

/// The kernel choices to compare: portable, then AVX2 where it runs.
std::vector<SimdKernel> Choices() {
  std::vector<SimdKernel> out = {SimdKernel::kPortable};
  if (Avx2Available()) out.push_back(SimdKernel::kAvx2);
  return out;
}

/// Bitwise equality, so -0.0 differs from +0.0 and a NaN equals itself.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

std::vector<double> Gaussians(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Gaussian(0.0, 1.0);
  return v;
}

TEST_F(SimdKernelTest, OneDecisionPinsBothFamilies) {
  SetSimdKernel(SimdKernel::kPortable);
  EXPECT_FALSE(Avx2Active());
  EXPECT_STREQ(retrieval::QuantizedKernelName(), "portable");
  if (Avx2Available()) {
    SetSimdKernel(SimdKernel::kAvx2);
    EXPECT_TRUE(Avx2Active());
    EXPECT_STREQ(retrieval::QuantizedKernelName(), "avx2");
  } else {
    EXPECT_THROW(SetSimdKernel(SimdKernel::kAvx2), std::runtime_error);
  }
  SetSimdKernel(SimdKernel::kAuto);
  EXPECT_EQ(Avx2Active(), Avx2Available());
}

/// Shapes of every remainder class of the 4-row and 4-column blocking, and
/// the SAM-LSTM step's own: the stacked gates (4d x d, 4d x 2), the
/// candidate and fusion layers (d x d, d x 2d) and the attention window
/// ((2w+1)^2 x d) at d = 32.
std::vector<std::pair<size_t, size_t>> KernelShapes() {
  std::vector<std::pair<size_t, size_t>> shapes;
  for (size_t rows = 1; rows <= 9; ++rows) {
    for (size_t cols = 1; cols <= 9; ++cols) shapes.emplace_back(rows, cols);
  }
  for (const auto& s : {std::make_pair<size_t, size_t>(128, 32),
                        std::make_pair<size_t, size_t>(128, 2),
                        std::make_pair<size_t, size_t>(32, 64),
                        std::make_pair<size_t, size_t>(32, 32),
                        std::make_pair<size_t, size_t>(32, 2),
                        std::make_pair<size_t, size_t>(25, 32),
                        std::make_pair<size_t, size_t>(130, 67)}) {
    shapes.push_back(s);
  }
  return shapes;
}

TEST_F(SimdKernelTest, MatVecFormsAreBitIdentical) {
  Rng rng(41);
  for (const auto& [rows, cols] : KernelShapes()) {
    SCOPED_TRACE(::testing::Message() << rows << " x " << cols);
    nn::Matrix a(rows, cols);
    a.values() = Gaussians(rows * cols, &rng);
    nn::Vector x = Gaussians(cols, &rng);
    nn::Vector xt = Gaussians(rows, &rng);
    // Signed zeros, and zero x entries so MatTVecAccum's skips fire.
    a.data()[0] = -0.0;
    x[cols - 1] = -0.0;
    for (size_t r = 0; r < rows; r += 3) xt[r] = 0.0;
    if (rows >= 4) std::fill(xt.begin(), xt.begin() + 4, 0.0);
    const nn::Vector y0 = Gaussians(rows, &rng);
    const nn::Vector yt0 = Gaussians(cols, &rng);

    std::vector<nn::Vector> y, yt;
    for (const SimdKernel choice : Choices()) {
      SetSimdKernel(choice);
      y.push_back(y0);
      nn::MatVecAccum(a, x, &y.back());
      yt.push_back(yt0);
      nn::MatTVecAccum(a, xt, &yt.back());
    }
    for (size_t i = 1; i < y.size(); ++i) {
      EXPECT_TRUE(SameBits(y[0], y[i])) << "MatVecAccum";
      EXPECT_TRUE(SameBits(yt[0], yt[i])) << "MatTVecAccum";
    }
    // The dispatch is a choice between the two internal forms.
    nn::Vector direct = y0;
    nn::internal::MatVecAccumPortable(a.data(), rows, cols, x.data(),
                                      direct.data());
    EXPECT_TRUE(SameBits(direct, y[0]));
  }
}

/// Inputs that exercise every branch of the exp: signed zeros, subnormal-
/// adjacent magnitudes, the clamp edges and just past them, overflow and
/// underflow ranges, infinities and NaN, then a dense random sweep.
std::vector<double> ActivationSweep() {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> v = {0.0,   -0.0,   1e-300, -1e-300, 1e-17,  -1e-17,
                           1.0,   -1.0,   0.5,    -0.5,    20.0,   -20.0,
                           354.0, -354.0, 354.5,  -354.5,  708.0,  -708.0,
                           709.0, -709.0, 709.5,  -708.5,  800.0,  -800.0,
                           inf,   -inf};
  v.push_back(std::numeric_limits<double>::quiet_NaN());
  v.push_back(std::nextafter(-708.0, -inf));
  v.push_back(std::nextafter(709.0, inf));
  Rng rng(43);
  for (int i = 0; i < 4000; ++i) v.push_back(rng.Uniform(-30.0, 30.0));
  for (int i = 0; i < 4000; ++i) v.push_back(rng.Uniform(-720.0, 720.0));
  return v;
}

TEST_F(SimdKernelTest, ActivationFormsAreBitIdentical) {
  const std::vector<double> x = ActivationSweep();
  // Every length 1..9 and the whole sweep, so each vector tail is covered.
  std::vector<size_t> lengths = {x.size()};
  for (size_t n = 1; n <= 9; ++n) lengths.push_back(n);
  for (const size_t n : lengths) {
    SCOPED_TRACE(::testing::Message() << "n " << n);
    std::vector<nn::Vector> e, s, t, soft;
    for (const SimdKernel choice : Choices()) {
      SetSimdKernel(choice);
      e.emplace_back(n);
      s.emplace_back(n);
      t.emplace_back(n);
      nn::ExpInto(x.data(), n, e.back().data());
      nn::SigmoidInto(x.data(), n, s.back().data());
      nn::TanhInto(x.data(), n, t.back().data());
      nn::Vector logits(x.begin(), x.begin() + static_cast<ptrdiff_t>(n));
      for (double& l : logits) {
        if (!std::isfinite(l)) l = -std::numeric_limits<double>::infinity();
      }
      logits[0] = 0.0;  // At least one finite logit.
      nn::SoftmaxInPlace(&logits);
      soft.push_back(std::move(logits));
    }
    for (size_t i = 1; i < e.size(); ++i) {
      EXPECT_TRUE(SameBits(e[0], e[i])) << "exp";
      EXPECT_TRUE(SameBits(s[0], s[i])) << "sigmoid";
      EXPECT_TRUE(SameBits(t[0], t[i])) << "tanh";
      EXPECT_TRUE(SameBits(soft[0], soft[i])) << "softmax";
    }
  }
}

/// |a − b| in units in the last place, for finite positive doubles.
uint64_t UlpDistance(double a, double b) {
  const uint64_t ia = std::bit_cast<uint64_t>(a);
  const uint64_t ib = std::bit_cast<uint64_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

TEST_F(SimdKernelTest, ActivationsAreAccurate) {
  Rng rng(44);
  std::vector<double> x = {nn::internal::kExpMin, nn::internal::kExpMax, 0.0,
                           -0.0, 1e-300, -1e-300, 1.0, -1.0};
  for (int i = 0; i < 200000; ++i) {
    x.push_back(rng.Uniform(nn::internal::kExpMin, nn::internal::kExpMax));
  }
  for (int i = 0; i < 200000; ++i) x.push_back(rng.Uniform(-40.0, 40.0));
  const size_t n = x.size();
  for (const SimdKernel choice : Choices()) {
    SetSimdKernel(choice);
    nn::Vector e(n), s(n), t(n);
    nn::ExpInto(x.data(), n, e.data());
    nn::SigmoidInto(x.data(), n, s.data());
    nn::TanhInto(x.data(), n, t.data());
    uint64_t worst_ulp = 0;
    double worst_sigmoid = 0.0, worst_tanh = 0.0;
    for (size_t i = 0; i < n; ++i) {
      worst_ulp = std::max(worst_ulp, UlpDistance(e[i], std::exp(x[i])));
      const long double xi = x[i];
      const long double sig = 1.0L / (1.0L + std::exp(-xi));
      worst_sigmoid = std::max(
          worst_sigmoid, static_cast<double>(std::fabs(s[i] - sig)));
      worst_tanh = std::max(
          worst_tanh, static_cast<double>(std::fabs(t[i] - std::tanh(xi))));
    }
    EXPECT_LE(worst_ulp, 2u);
    EXPECT_LE(worst_sigmoid, 4.5e-16);
    EXPECT_LE(worst_tanh, 4.5e-16);
  }
}

TEST_F(SimdKernelTest, ExpEdges) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> x = {-inf, -800.0, std::nextafter(-708.0, -inf),
                                 0.0,  -0.0,   800.0,
                                 inf,  std::numeric_limits<double>::quiet_NaN()};
  for (const SimdKernel choice : Choices()) {
    SetSimdKernel(choice);
    nn::Vector e(x.size());
    nn::ExpInto(x.data(), x.size(), e.data());
    // Below the clamp the result is exactly 0: a −inf softmax logit (a
    // masked attention row) gets weight 0.
    EXPECT_EQ(e[0], 0.0);
    EXPECT_EQ(e[1], 0.0);
    EXPECT_EQ(e[2], 0.0);
    EXPECT_EQ(e[3], 1.0);
    EXPECT_EQ(e[4], 1.0);
    // Above it the result saturates at exp(kExpMax), finite.
    EXPECT_EQ(e[5], e[6]);
    EXPECT_TRUE(std::isfinite(e[5]));
    EXPECT_TRUE(std::isnan(e[7])) << "NaN must reach the divergence watchdog";
  }
}

// ---------------------------------------------------------------------------
// End to end: a model encodes, and a training run learns, identically under
// either kernel.

struct TrainingData {
  std::vector<Trajectory> corpus;
  DistanceMatrix dists;
  Grid grid;
};

TrainingData MakeTrainingData() {
  Rng rng(45);
  std::vector<Trajectory> corpus =
      testing::RandomCorpus(40, 8, 24, 2000.0, &rng);
  DistanceMatrix dists = ComputePairwiseDistances(corpus, Measure::kFrechet);
  BoundingBox region = BoundingBox::Empty();
  for (const Trajectory& t : corpus) region.Extend(t.Bounds());
  const Grid grid(region.Inflated(10.0), 100.0);
  return {std::move(corpus), std::move(dists), grid};
}

NeuTrajConfig D32Config(size_t threads) {
  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = 32;
  cfg.epochs = 1;
  cfg.batch_size = 10;
  cfg.sampling_num = 4;
  cfg.threads = threads;
  return cfg;
}

TEST_F(SimdKernelTest, TrainedModelEncodesIdentically) {
  const TrainingData data = MakeTrainingData();
  SetSimdKernel(SimdKernel::kPortable);
  Trainer trainer(D32Config(1), data.grid, data.corpus, data.dists);
  trainer.Train();
  const NeuTrajModel trained = trainer.TakeModel();
  NeuTrajModel random_init(D32Config(1), data.grid);
  Rng init_rng(46);
  random_init.InitializeWeights(&init_rng);

  Rng rng(47);
  const std::vector<Trajectory> queries =
      testing::RandomCorpus(200, 2, 64, 2000.0, &rng);
  const NeuTrajModel* models[] = {&trained, &random_init};
  for (const NeuTrajModel* model : models) {
    std::vector<std::vector<nn::Vector>> runs;
    for (const SimdKernel choice : Choices()) {
      SetSimdKernel(choice);
      runs.push_back(model->EmbedAll(queries));
    }
    for (size_t k = 1; k < runs.size(); ++k) {
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_TRUE(SameBits(runs[0][i], runs[k][i])) << "trajectory " << i;
      }
    }
  }
}

TEST_F(SimdKernelTest, FirstEpochLossIsIdenticalAcrossKernelsAndThreads) {
  const TrainingData data = MakeTrainingData();
  std::vector<double> losses;
  std::vector<std::vector<nn::Vector>> embeddings;
  for (const SimdKernel choice : Choices()) {
    for (const size_t threads : {1ul, 3ul}) {
      SetSimdKernel(choice);
      Trainer trainer(D32Config(threads), data.grid, data.corpus, data.dists);
      const TrainResult result = trainer.Train();
      ASSERT_FALSE(result.epochs.empty());
      losses.push_back(result.epochs.front().mean_loss);
      embeddings.push_back(trainer.TakeModel().EmbedAll(data.corpus));
    }
  }
  for (size_t i = 1; i < losses.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(losses[i]),
              std::bit_cast<uint64_t>(losses[0]))
        << "run " << i;
    for (size_t t = 0; t < data.corpus.size(); ++t) {
      EXPECT_TRUE(SameBits(embeddings[i][t], embeddings[0][t]))
          << "run " << i << " trajectory " << t;
    }
  }
}

}  // namespace
}  // namespace neutraj
