// Tests for nn/: initialization, parameters, Adam, memory tensor, cells'
// forward semantics and the encoder contract.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/random.h"
#include "nn/adam.h"
#include "nn/encoder.h"
#include "nn/gru_cell.h"
#include "nn/init.h"
#include "nn/lstm_cell.h"
#include "nn/memory_tensor.h"
#include "nn/parameter.h"
#include "nn/sam_cell.h"
#include "test_util.h"

namespace neutraj::nn {
namespace {

using neutraj::testing::RandomTrajectory;

Grid TestGrid() {
  BoundingBox region = BoundingBox::Empty();
  region.Extend(Point(0, 0));
  region.Extend(Point(1000, 1000));
  return Grid(region, 100.0);
}

TEST(InitTest, XavierBoundsRespected) {
  Rng rng(41);
  Matrix m(20, 30);
  XavierUniform(&m, &rng);
  const double bound = std::sqrt(6.0 / 50.0);
  for (double v : m.values()) {
    EXPECT_LE(std::abs(v), bound);
  }
  // Not all zero.
  EXPECT_GT(m.SquaredNorm(), 0.0);
}

TEST(InitTest, OrthogonalColumnsAreOrthonormal) {
  Rng rng(42);
  Matrix m(8, 8);
  OrthogonalInit(&m, &rng);
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      double dot = 0.0;
      for (size_t r = 0; r < 8; ++r) dot += m(r, i) * m(r, j);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-9) << i << "," << j;
    }
  }
}

TEST(InitTest, OrthogonalHandlesRectangles) {
  Rng rng(43);
  Matrix wide(3, 7);
  OrthogonalInit(&wide, &rng);
  // Rows of a wide matrix are orthonormal.
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      double dot = 0.0;
      for (size_t c = 0; c < 7; ++c) dot += wide(i, c) * wide(j, c);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(ParamTest, ZeroGradsAndNorms) {
  Param p("p", 2, 2);
  p.grad(0, 0) = 3.0;
  p.grad(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(GradNorm({&p}), 5.0);
  ZeroGrads({&p});
  EXPECT_DOUBLE_EQ(GradNorm({&p}), 0.0);
}

TEST(ParamTest, ClipGradNormScalesDown) {
  Param p("p", 1, 2);
  p.grad(0, 0) = 3.0;
  p.grad(0, 1) = 4.0;
  const double pre = ClipGradNorm({&p}, 1.0);
  EXPECT_DOUBLE_EQ(pre, 5.0);
  EXPECT_NEAR(GradNorm({&p}), 1.0, 1e-12);
  // Already small: untouched.
  const double pre2 = ClipGradNorm({&p}, 10.0);
  EXPECT_NEAR(pre2, 1.0, 1e-12);
  EXPECT_NEAR(GradNorm({&p}), 1.0, 1e-12);
}

TEST(ParamTest, SerializationRoundtrip) {
  Rng rng(44);
  Param a("layer.W", 3, 4), b("layer.b", 3, 1);
  for (double& v : a.value.values()) v = rng.Gaussian(0, 1);
  for (double& v : b.value.values()) v = rng.Gaussian(0, 1);
  const std::string text = SerializeParams({&a, &b});

  Param a2("layer.W", 3, 4), b2("layer.b", 3, 1);
  DeserializeParams(text, {&a2, &b2});
  for (size_t i = 0; i < a.value.size(); ++i) {
    EXPECT_DOUBLE_EQ(a2.value.values()[i], a.value.values()[i]);
  }
  for (size_t i = 0; i < b.value.size(); ++i) {
    EXPECT_DOUBLE_EQ(b2.value.values()[i], b.value.values()[i]);
  }
}

TEST(ParamTest, DeserializeRejectsMismatch) {
  Param a("x", 2, 2);
  const std::string text = SerializeParams({&a});
  Param wrong_name("y", 2, 2);
  EXPECT_THROW(DeserializeParams(text, {&wrong_name}), std::runtime_error);
  Param wrong_shape("x", 2, 3);
  EXPECT_THROW(DeserializeParams(text, {&wrong_shape}), std::runtime_error);
  Param ok("x", 2, 2);
  EXPECT_THROW(DeserializeParams("x 2 2\n1 2 3", {&ok}), std::runtime_error);
}

TEST(AdamTest, MinimizesQuadratic) {
  // f(w) = 0.5 * sum (w - target)^2; Adam should converge close to target.
  Param w("w", 4, 1);
  const std::vector<double> target = {1.0, -2.0, 0.5, 3.0};
  AdamOptions opts;
  opts.learning_rate = 0.05;
  opts.clip_norm = 0.0;
  Adam adam({&w}, opts);
  for (int step = 0; step < 800; ++step) {
    ZeroGrads({&w});
    for (size_t i = 0; i < 4; ++i) {
      w.grad(i, 0) = w.value(i, 0) - target[i];
    }
    adam.Step();
  }
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(w.value(i, 0), target[i], 1e-2);
  }
  EXPECT_EQ(adam.step_count(), 800);
}

TEST(AdamTest, ClipLimitsStepOnHugeGradients) {
  Param w("w", 1, 1);
  AdamOptions opts;
  opts.learning_rate = 0.1;
  opts.clip_norm = 1.0;
  Adam adam({&w}, opts);
  w.grad(0, 0) = 1e9;
  const double pre = adam.Step();
  EXPECT_DOUBLE_EQ(pre, 1e9);
  // The applied update is bounded by ~lr regardless of gradient size.
  EXPECT_LE(std::abs(w.value(0, 0)), 0.2);
}

TEST(AdamTest, StateRoundtripResumesIdentically) {
  // Two optimizers over identical params; one is checkpointed mid-run and
  // restored into a fresh instance. Subsequent steps must match exactly.
  Param a("w", 3, 2), b("w", 3, 2);
  Rng rng(55);
  for (size_t i = 0; i < a.value.values().size(); ++i) {
    a.value.values()[i] = b.value.values()[i] = rng.Gaussian(0.0, 1.0);
  }
  AdamOptions opts;
  opts.learning_rate = 0.01;
  Adam original({&a}, opts);

  auto fake_grads = [&](Param* p, int t) {
    for (size_t i = 0; i < p->grad.values().size(); ++i) {
      p->grad.values()[i] =
          std::sin(static_cast<double>(t) + static_cast<double>(i));
    }
  };
  for (int t = 0; t < 5; ++t) {
    fake_grads(&a, t);
    original.Step();
  }

  Adam restored({&b}, opts);
  b.value = a.value;  // Values travel in the params section, not Adam's.
  restored.DeserializeState(original.SerializeState());
  EXPECT_EQ(restored.step_count(), original.step_count());
  for (int t = 5; t < 10; ++t) {
    fake_grads(&a, t);
    fake_grads(&b, t);
    original.Step();
    restored.Step();
  }
  for (size_t i = 0; i < a.value.values().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.value.values()[i], b.value.values()[i]);
  }

  EXPECT_THROW(restored.DeserializeState("ADAM"), std::runtime_error);
  EXPECT_THROW(restored.DeserializeState("ADAM 3 99\n"), std::runtime_error);
}

TEST(MemoryTensorTest, ZeroInitializedAndCounted) {
  MemoryTensor m(4, 3, 5);
  EXPECT_EQ(m.CountNonZeroCells(), 0);
  Vector gate(5, 1.0), value(5, 2.0);
  m.BlendWrite(GridCell{1, 2}, gate, value);
  EXPECT_EQ(m.CountNonZeroCells(), 1);
  const double* slice = m.Slice(GridCell{1, 2});
  for (size_t k = 0; k < 5; ++k) EXPECT_DOUBLE_EQ(slice[k], 2.0);
}

TEST(MemoryTensorTest, BlendWriteInterpolates) {
  MemoryTensor m(2, 2, 2);
  m.BlendWrite(GridCell{0, 0}, {1.0, 1.0}, {10.0, 20.0});
  m.BlendWrite(GridCell{0, 0}, {0.5, 0.25}, {0.0, 0.0});
  const double* s = m.Slice(GridCell{0, 0});
  EXPECT_DOUBLE_EQ(s[0], 5.0);
  EXPECT_DOUBLE_EQ(s[1], 15.0);
}

TEST(MemoryTensorTest, GatherWindowCopiesSlices) {
  MemoryTensor m(3, 3, 2);
  m.BlendWrite(GridCell{1, 1}, {1, 1}, {7, 8});
  Matrix g;
  m.GatherWindow({{0, 0}, {1, 1}}, &g);
  ASSERT_EQ(g.rows(), 2u);
  ASSERT_EQ(g.cols(), 2u);
  EXPECT_DOUBLE_EQ(g(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(g(1, 1), 8.0);
}

TEST(MemoryTensorTest, ClearResets) {
  MemoryTensor m(2, 2, 2);
  m.BlendWrite(GridCell{1, 1}, {1, 1}, {1, 1});
  m.Clear();
  EXPECT_EQ(m.CountNonZeroCells(), 0);
}

TEST(MemoryTensorTest, RejectsBadDimensions) {
  EXPECT_THROW(MemoryTensor(0, 2, 2), std::invalid_argument);
  // BlendWrite is on the write hot path: shape violations are contract
  // breaches (NEUTRAJ_ASSERT aborts) rather than recoverable exceptions.
  MemoryTensor m(2, 2, 3);
  EXPECT_DEATH(m.BlendWrite(GridCell{0, 0}, {1, 1}, {1, 1, 1}),
               "BlendWrite shape mismatch");
}

TEST(LstmCellTest, ForwardShapesAndGateRanges) {
  Rng rng(45);
  LstmCell cell("c", 2, 6);
  cell.Initialize(&rng);
  LstmTape tape;
  Vector h, c;
  cell.Forward({0.3, -0.2}, Vector(6, 0.0), Vector(6, 0.0), &tape, &h, &c);
  ASSERT_EQ(h.size(), 6u);
  ASSERT_EQ(c.size(), 6u);
  for (size_t k = 0; k < 6; ++k) {
    EXPECT_GT(tape.i[k], 0.0);
    EXPECT_LT(tape.i[k], 1.0);
    EXPECT_GT(tape.f[k], 0.0);
    EXPECT_LT(tape.f[k], 1.0);
    EXPECT_LE(std::abs(tape.g[k]), 1.0);
    EXPECT_LE(std::abs(h[k]), 1.0) << "h = o*tanh(c) is bounded by 1";
  }
}

// A scan window none of whose cells was ever written (every step of a
// random-init model at inference) reduces the SAM step to its plain form:
// h, c, the tape fields backward reads and backward's gradients are those of
// the same step with use_memory = false, the attention weights and mix are
// zero, and the window is neither copied into the tape nor scored.
struct AllMaskedStep {
  Grid grid = TestGrid();
  MemoryTensor memory{grid.num_cols(), grid.num_rows(), 8};
  GridCell center{2, 2};
  std::vector<GridCell> window = grid.ScanWindow(center, 1);
  Vector x = {0.3, -0.2};
  Vector h_prev, c_prev, dh, dc;

  AllMaskedStep() {
    Rng rng(61);
    for (Vector* v : {&h_prev, &c_prev, &dh, &dc}) {
      v->resize(8);
      for (double& e : *v) e = rng.Gaussian(0.0, 0.5);
    }
    // A written cell outside the window: the memory is not empty.
    memory.BlendWrite(GridCell{9, 9}, Vector(8, 0.5), Vector(8, 0.25));
  }
};

void ExpectSameGrads(const GradBuffer& a, const GradBuffer& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).values(), b.at(i).values()) << "param " << i;
  }
}

TEST(SamCellTest, AllMaskedWindowIsThePlainStep) {
  AllMaskedStep step;
  Rng rng(62);
  SamLstmCell cell("s", 2, 8);
  cell.Initialize(&rng);
  SamTape masked, plain;
  masked.att.g = Matrix(1, 1);
  masked.att.g(0, 0) = 42.0;  // Must survive: the window copy is skipped.
  Vector h1, c1, h2, c2;
  cell.Forward(step.x, step.h_prev, step.c_prev, step.window, step.center,
               &step.memory, /*use_memory=*/true, /*update_memory=*/true,
               &masked, &h1, &c1);
  cell.Forward(step.x, step.h_prev, step.c_prev, step.window, step.center,
               &step.memory, /*use_memory=*/false, /*update_memory=*/false,
               &plain, &h2, &c2);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(c1, c2);
  EXPECT_FALSE(masked.used_memory);
  EXPECT_TRUE(masked.att.all_masked);
  EXPECT_EQ(masked.att.a, Vector(step.window.size(), 0.0));
  EXPECT_EQ(masked.att.mix, Vector(8, 0.0));
  EXPECT_EQ(masked.att.g.values(), Vector{42.0});
  for (const auto field : {&SamTape::f, &SamTape::i, &SamTape::s, &SamTape::o,
                           &SamTape::c_tilde, &SamTape::c_hat, &SamTape::c,
                           &SamTape::tanh_c}) {
    EXPECT_EQ(masked.*field, plain.*field);
  }
  // The write still lands: M(center) = s (*) c + (1 - s) (*) 0.
  const double* slot = step.memory.Slice(step.center);
  for (size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(slot[k], masked.s[k] * c1[k] + (1.0 - masked.s[k]) * 0.0);
  }

  GradBuffer g1(cell.Params()), g2(cell.Params());
  Vector dh1(8, 0.0), dc1(8, 0.0), dx1(2, 0.0);
  Vector dh2(8, 0.0), dc2(8, 0.0), dx2(2, 0.0);
  cell.Backward(masked, step.dh, step.dc, &dh1, &dc1, &dx1, &g1);
  cell.Backward(plain, step.dh, step.dc, &dh2, &dc2, &dx2, &g2);
  EXPECT_EQ(dh1, dh2);
  EXPECT_EQ(dc1, dc2);
  EXPECT_EQ(dx1, dx2);
  ExpectSameGrads(g1, g2);
}

TEST(GruCellTest, AllMaskedWindowIsThePlainStep) {
  AllMaskedStep step;
  Rng rng(63);
  SamGruCell cell("g", 2, 8);
  cell.Initialize(&rng);
  GruTape masked, plain;
  Vector h1, h2;
  cell.Forward(step.x, step.h_prev, step.window, step.center, &step.memory,
               /*use_memory=*/true, /*update_memory=*/false, &masked, &h1);
  cell.Forward(step.x, step.h_prev, step.window, step.center, &step.memory,
               /*use_memory=*/false, /*update_memory=*/false, &plain, &h2);
  EXPECT_EQ(h1, h2);
  EXPECT_FALSE(masked.used_memory);
  EXPECT_TRUE(masked.att.all_masked);
  EXPECT_EQ(masked.att.a, Vector(step.window.size(), 0.0));
  EXPECT_EQ(masked.att.mix, Vector(8, 0.0));
  EXPECT_EQ(masked.n_prime, plain.n_prime);

  GradBuffer g1(cell.Params()), g2(cell.Params());
  Vector dh1(8, 0.0), dx1(2, 0.0), dh2(8, 0.0), dx2(2, 0.0);
  cell.Backward(masked, step.dh, &dh1, &dx1, &g1);
  cell.Backward(plain, step.dh, &dh2, &dx2, &g2);
  EXPECT_EQ(dh1, dh2);
  EXPECT_EQ(dx1, dx2);
  ExpectSameGrads(g1, g2);
}

TEST(LstmCellTest, ForgetBiasInitializedToOne) {
  Rng rng(46);
  LstmCell cell("c", 2, 4);
  cell.Initialize(&rng);
  // Block layout [i, f, g, o]: rows [h, 2h) are the forget gate.
  auto params = cell.Params();
  const Param* b = params[2];
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_DOUBLE_EQ(b->value(4 + k, 0), 1.0);
    EXPECT_DOUBLE_EQ(b->value(k, 0), 0.0);
  }
}

TEST(EncoderTest, EmbeddingIsDeterministicWithoutMemoryUpdates) {
  Rng rng(47);
  Encoder enc(Backbone::kSamLstm, TestGrid(), 8, 1);
  enc.Initialize(&rng);
  const Trajectory t = RandomTrajectory(10, 1000.0, &rng);
  const Vector e1 = enc.Encode(t, /*update_memory=*/false);
  const Vector e2 = enc.Encode(t, /*update_memory=*/false);
  ASSERT_EQ(e1.size(), 8u);
  for (size_t k = 0; k < 8; ++k) EXPECT_DOUBLE_EQ(e1[k], e2[k]);
}

TEST(EncoderTest, MemoryUpdatesChangeState) {
  Rng rng(48);
  Encoder enc(Backbone::kSamLstm, TestGrid(), 8, 1);
  enc.Initialize(&rng);
  const Trajectory t = RandomTrajectory(10, 1000.0, &rng);
  EXPECT_EQ(enc.memory().CountNonZeroCells(), 0);
  enc.Encode(t, /*update_memory=*/true);
  EXPECT_GT(enc.memory().CountNonZeroCells(), 0)
      << "training-time encoding must write the memory";
  enc.ResetMemory();
  EXPECT_EQ(enc.memory().CountNonZeroCells(), 0);
}

TEST(EncoderTest, LstmBackboneHasNoMemory) {
  Rng rng(49);
  Encoder enc(Backbone::kLstm, TestGrid(), 8, 2);
  enc.Initialize(&rng);
  EXPECT_FALSE(enc.has_memory());
  const Trajectory t = RandomTrajectory(5, 1000.0, &rng);
  EXPECT_EQ(enc.Encode(t, true).size(), 8u);
}

TEST(EncoderTest, RejectsEmptyTrajectoryAndBadGradient) {
  Rng rng(50);
  Encoder enc(Backbone::kLstm, TestGrid(), 4, 0);
  enc.Initialize(&rng);
  EXPECT_THROW(enc.Encode(Trajectory(), false), std::invalid_argument);
  EncodeTape tape;
  enc.Encode(RandomTrajectory(3, 1000.0, &rng), false, &tape);
  EXPECT_THROW(enc.Backward(tape, Vector(5, 0.0)), std::invalid_argument);
}

TEST(AdamTest, FirstStepMagnitudeIsLearningRate) {
  // With bias correction, the very first Adam step moves each coordinate by
  // exactly lr * sign(g) (up to epsilon).
  Param w("w", 1, 2);
  AdamOptions opts;
  opts.learning_rate = 0.01;
  opts.clip_norm = 0.0;
  Adam adam({&w}, opts);
  w.grad(0, 0) = 3.7;
  w.grad(0, 1) = -0.002;
  adam.Step();
  EXPECT_NEAR(w.value(0, 0), -0.01, 1e-5);
  EXPECT_NEAR(w.value(0, 1), 0.01, 1e-4);
}

TEST(EncoderTest, SamEncodingShiftsAfterMemoryWrites) {
  // Re-encoding the same trajectory after a memory-updating pass must give
  // a different embedding: the SAM read sees what the first pass wrote.
  Rng rng(52);
  Encoder enc(Backbone::kSamLstm, TestGrid(), 8, 1);
  enc.Initialize(&rng);
  const Trajectory t = RandomTrajectory(10, 1000.0, &rng);
  const Vector before = enc.Encode(t, /*update_memory=*/false);
  enc.Encode(t, /*update_memory=*/true);
  const Vector after = enc.Encode(t, /*update_memory=*/false);
  EXPECT_GT(L2Distance(before, after), 1e-9)
      << "memory writes must influence later reads";
  // And resetting the memory restores the original embedding exactly.
  enc.ResetMemory();
  const Vector reset = enc.Encode(t, /*update_memory=*/false);
  for (size_t k = 0; k < reset.size(); ++k) {
    EXPECT_DOUBLE_EQ(reset[k], before[k]);
  }
}

TEST(EncoderTest, ParameterCountsMatchArchitecture) {
  Rng rng(53);
  const size_t d = 8;
  Encoder lstm(Backbone::kLstm, TestGrid(), d, 0);
  size_t lstm_params = 0;
  for (Param* p : lstm.Params()) lstm_params += p->value.size();
  // LSTM: Wx (4d x 2) + Wh (4d x d) + b (4d).
  EXPECT_EQ(lstm_params, 4 * d * 2 + 4 * d * d + 4 * d);

  Encoder sam(Backbone::kSamLstm, TestGrid(), d, 2);
  size_t sam_params = 0;
  for (Param* p : sam.Params()) sam_params += p->value.size();
  // SAM: Wg (4d x 2) + Ug (4d x d) + bg (4d) + Wc (d x 2) + Uc (d x d) +
  //      bc (d) + Whis (d x 2d) + bhis (d).
  EXPECT_EQ(sam_params, 4 * d * 2 + 4 * d * d + 4 * d + 2 * d + d * d + d +
                            2 * d * d + d);
}

TEST(EncoderTest, GruBackbonesWork) {
  Rng rng(54);
  const Trajectory t = RandomTrajectory(10, 1000.0, &rng);
  Encoder gru(Backbone::kGru, TestGrid(), 8, 0);
  gru.Initialize(&rng);
  EXPECT_FALSE(gru.has_memory());
  EXPECT_EQ(gru.Encode(t, true).size(), 8u);

  Encoder sam_gru(Backbone::kSamGru, TestGrid(), 8, 2);
  sam_gru.Initialize(&rng);
  EXPECT_TRUE(sam_gru.has_memory());
  EXPECT_EQ(sam_gru.memory().CountNonZeroCells(), 0);
  sam_gru.Encode(t, /*update_memory=*/true);
  EXPECT_GT(sam_gru.memory().CountNonZeroCells(), 0)
      << "SAM-GRU training encodes must write the memory";
  // Read-only encodes are deterministic.
  const Vector e1 = sam_gru.Encode(t, false);
  const Vector e2 = sam_gru.Encode(t, false);
  for (size_t k = 0; k < e1.size(); ++k) EXPECT_DOUBLE_EQ(e1[k], e2[k]);
}

TEST(EncoderTest, GruParameterCount) {
  const size_t d = 8;
  Encoder gru(Backbone::kGru, TestGrid(), d, 0);
  size_t params = 0;
  for (Param* p : gru.Params()) params += p->value.size();
  // (r,z,s): Wg (3d x 2) + Ug (3d x d) + bg (3d); candidate Wn (d x 2) +
  // Un (d x d) + bn (d); fusion Whis (d x 2d) + bhis (d).
  EXPECT_EQ(params, 3 * d * 2 + 3 * d * d + 3 * d + 2 * d + d * d + d +
                        2 * d * d + d);
}

TEST(EncoderTest, EmbeddingDependsOnPointOrder) {
  Rng rng(51);
  Encoder enc(Backbone::kLstm, TestGrid(), 8, 0);
  enc.Initialize(&rng);
  Trajectory fwd = RandomTrajectory(12, 1000.0, &rng);
  Trajectory rev;
  for (size_t i = fwd.size(); i-- > 0;) rev.Append(fwd[i]);
  const Vector ef = enc.Encode(fwd, false);
  const Vector er = enc.Encode(rev, false);
  EXPECT_GT(L2Distance(ef, er), 1e-6)
      << "an RNN encoder must be order-sensitive";
}

}  // namespace
}  // namespace neutraj::nn
