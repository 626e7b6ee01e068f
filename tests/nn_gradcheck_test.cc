// Finite-difference validation of every hand-written backward pass — the
// highest-risk code in the library. Each case builds a scalar loss, runs
// the analytic backward once, then compares each parameter gradient against
// central differences of the recomputed loss.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "common/random.h"
#include "core/loss.h"
#include "core/similarity.h"
#include "eval/gradcheck.h"
#include "geo/grid.h"
#include "nn/attention.h"
#include "nn/encoder.h"
#include "nn/gru_cell.h"
#include "nn/memory_tensor.h"
#include "nn/sam_cell.h"
#include "test_util.h"

namespace neutraj::nn {
namespace {

using neutraj::testing::RandomTrajectory;

/// Compares the accumulated analytic gradients of `params` against central
/// finite differences of `loss_fn`. At most `max_checks` entries per
/// parameter are probed (strided deterministically) to keep runtime sane.
void CheckParamGradients(const std::vector<Param*>& params,
                         const std::function<double()>& loss_fn,
                         double eps = 1e-6, double tol = 2e-5,
                         size_t max_checks = 32) {
  for (Param* p : params) {
    auto& value = p->value.values();
    const auto& grad = p->grad.values();
    const size_t stride = std::max<size_t>(1, value.size() / max_checks);
    for (size_t k = 0; k < value.size(); k += stride) {
      const double saved = value[k];
      value[k] = saved + eps;
      const double up = loss_fn();
      value[k] = saved - eps;
      const double down = loss_fn();
      value[k] = saved;
      const double numeric = (up - down) / (2.0 * eps);
      const double analytic = grad[k];
      const double scale = std::max({1.0, std::abs(numeric), std::abs(analytic)});
      EXPECT_NEAR(analytic, numeric, tol * scale)
          << "param " << p->name << " entry " << k;
    }
  }
}

Grid TestGrid() {
  BoundingBox region = BoundingBox::Empty();
  region.Extend(Point(0, 0));
  region.Extend(Point(1000, 1000));
  return Grid(region, 100.0);  // 10 x 10 cells.
}

TEST(GradCheckTest, AttentionRead) {
  Rng rng(32);
  const size_t k = 9, d = 6;
  Matrix g(k, d);
  for (double& v : g.values()) v = rng.Gaussian(0, 0.5);
  Vector q(d);
  for (double& v : q) v = rng.Gaussian(0, 0.5);
  Vector w(d);
  for (double& v : w) v = rng.Gaussian(0, 1.0);

  auto loss_fn = [&]() {
    AttentionTape tape;
    AttentionForward(g, q, &tape);
    return Dot(tape.mix, w);
  };

  AttentionTape tape;
  AttentionForward(g, q, &tape);
  Vector dq(d, 0.0);
  AttentionBackward(tape, w, nullptr, &dq);

  const double eps = 1e-6;
  for (size_t i = 0; i < d; ++i) {
    const double saved = q[i];
    q[i] = saved + eps;
    const double up = loss_fn();
    q[i] = saved - eps;
    const double down = loss_fn();
    q[i] = saved;
    EXPECT_NEAR(dq[i], (up - down) / (2 * eps), 1e-6) << "dq entry " << i;
  }
}

TEST(GradCheckTest, LstmEncoderSingleTrajectory) {
  Rng rng(33);
  Encoder enc(Backbone::kLstm, TestGrid(), /*hidden=*/5, /*scan_width=*/0);
  enc.Initialize(&rng);
  const Trajectory traj = RandomTrajectory(7, 1000.0, &rng);

  auto loss_fn = [&]() {
    const Vector e = enc.Encode(traj, /*update_memory=*/false);
    return 0.5 * SquaredNorm(e);
  };

  EncodeTape tape;
  const Vector e = enc.Encode(traj, false, &tape);
  ZeroGrads(enc.Params());
  enc.Backward(tape, e);  // dL/dE = E for L = 0.5||E||^2.
  CheckParamGradients(enc.Params(), loss_fn);
}

TEST(GradCheckTest, SamEncoderWithFrozenMemory) {
  Rng rng(34);
  Encoder enc(Backbone::kSamLstm, TestGrid(), /*hidden=*/5, /*scan_width=*/1);
  enc.Initialize(&rng);
  // Seed the memory with nonzero content so the attention path is active;
  // encode read-only so the forward pass is repeatable for finite diffs.
  for (double& v : enc.memory().values()) v = rng.Gaussian(0, 0.3);
  enc.memory().RecomputeWrittenFlags();
  const Trajectory traj = RandomTrajectory(6, 1000.0, &rng);

  auto loss_fn = [&]() {
    const Vector e = enc.Encode(traj, /*update_memory=*/false);
    return 0.5 * SquaredNorm(e);
  };

  EncodeTape tape;
  const Vector e = enc.Encode(traj, false, &tape);
  ZeroGrads(enc.Params());
  enc.Backward(tape, e);
  CheckParamGradients(enc.Params(), loss_fn);
}

TEST(GradCheckTest, SamEncoderZeroScanWidth) {
  // w = 0 (single-cell window) is a boundary case of the attention reader.
  Rng rng(35);
  Encoder enc(Backbone::kSamLstm, TestGrid(), /*hidden=*/4, /*scan_width=*/0);
  enc.Initialize(&rng);
  for (double& v : enc.memory().values()) v = rng.Gaussian(0, 0.3);
  enc.memory().RecomputeWrittenFlags();
  const Trajectory traj = RandomTrajectory(5, 1000.0, &rng);

  auto loss_fn = [&]() {
    const Vector e = enc.Encode(traj, false);
    return 0.5 * SquaredNorm(e);
  };
  EncodeTape tape;
  const Vector e = enc.Encode(traj, false, &tape);
  ZeroGrads(enc.Params());
  enc.Backward(tape, e);
  CheckParamGradients(enc.Params(), loss_fn);
}

TEST(GradCheckTest, GruEncoderSingleTrajectory) {
  Rng rng(38);
  Encoder enc(Backbone::kGru, TestGrid(), /*hidden=*/5, /*scan_width=*/0);
  enc.Initialize(&rng);
  const Trajectory traj = RandomTrajectory(7, 1000.0, &rng);

  auto loss_fn = [&]() {
    const Vector e = enc.Encode(traj, /*update_memory=*/false);
    return 0.5 * SquaredNorm(e);
  };
  EncodeTape tape;
  const Vector e = enc.Encode(traj, false, &tape);
  ZeroGrads(enc.Params());
  enc.Backward(tape, e);
  CheckParamGradients(enc.Params(), loss_fn);
}

TEST(GradCheckTest, SamGruEncoderWithFrozenMemory) {
  Rng rng(39);
  Encoder enc(Backbone::kSamGru, TestGrid(), /*hidden=*/5, /*scan_width=*/1);
  enc.Initialize(&rng);
  for (double& v : enc.memory().values()) v = rng.Gaussian(0, 0.3);
  enc.memory().RecomputeWrittenFlags();
  const Trajectory traj = RandomTrajectory(6, 1000.0, &rng);

  auto loss_fn = [&]() {
    const Vector e = enc.Encode(traj, /*update_memory=*/false);
    return 0.5 * SquaredNorm(e);
  };
  EncodeTape tape;
  const Vector e = enc.Encode(traj, false, &tape);
  ZeroGrads(enc.Params());
  enc.Backward(tape, e);
  CheckParamGradients(enc.Params(), loss_fn);
}

TEST(GradCheckTest, SamLstmCellDirectTwoSteps) {
  // Drives the cell directly (no encoder) through two recurrent steps with
  // an active frozen memory, so the step-to-step (h, c) chain rule is
  // checked without the unroll loop in between.
  Rng rng(51);
  const size_t d = 4;
  SamLstmCell cell("cell", /*input_dim=*/2, d);
  cell.Initialize(&rng);
  MemoryTensor mem(3, 3, d);
  for (double& v : mem.values()) v = rng.Gaussian(0, 0.3);
  mem.RecomputeWrittenFlags();
  std::vector<GridCell> window;
  for (int32_t qy = 0; qy < 3; ++qy) {
    for (int32_t px = 0; px < 3; ++px) window.push_back(GridCell{px, qy});
  }
  const GridCell center{1, 1};
  const Vector x1 = {0.3, -0.4}, x2 = {-0.2, 0.6};

  auto run_forward = [&](Vector* h_out, Vector* c_out, SamTape* t1,
                         SamTape* t2) {
    Vector h1, c1;
    cell.Forward(x1, Vector(d, 0.0), Vector(d, 0.0), window, center, &mem,
                 /*use_memory=*/true, /*update_memory=*/false, t1, &h1, &c1);
    cell.Forward(x2, h1, c1, window, center, &mem, true, false, t2, h_out,
                 c_out);
  };
  auto loss_fn = [&]() {
    Vector h, c;
    SamTape t1, t2;
    run_forward(&h, &c, &t1, &t2);
    return 0.5 * (SquaredNorm(h) + SquaredNorm(c));
  };

  Vector h, c;
  SamTape t1, t2;
  run_forward(&h, &c, &t1, &t2);
  ZeroGrads(cell.Params());
  Vector dh1(d, 0.0), dc1(d, 0.0), dh0(d, 0.0), dc0(d, 0.0);
  cell.Backward(t2, h, c, &dh1, &dc1, nullptr);
  cell.Backward(t1, dh1, dc1, &dh0, &dc0, nullptr);
  CheckParamGradients(cell.Params(), loss_fn);
}

TEST(GradCheckTest, SamGruCellDirectTwoSteps) {
  Rng rng(52);
  const size_t d = 4;
  SamGruCell cell("cell", /*input_dim=*/2, d);
  cell.Initialize(&rng);
  MemoryTensor mem(3, 3, d);
  for (double& v : mem.values()) v = rng.Gaussian(0, 0.3);
  mem.RecomputeWrittenFlags();
  std::vector<GridCell> window;
  for (int32_t qy = 0; qy < 3; ++qy) {
    for (int32_t px = 0; px < 3; ++px) window.push_back(GridCell{px, qy});
  }
  const GridCell center{1, 1};
  const Vector x1 = {0.3, -0.4}, x2 = {-0.2, 0.6};

  auto run_forward = [&](Vector* h_out, GruTape* t1, GruTape* t2) {
    Vector h1;
    cell.Forward(x1, Vector(d, 0.0), window, center, &mem,
                 /*use_memory=*/true, /*update_memory=*/false, t1, &h1);
    cell.Forward(x2, h1, window, center, &mem, true, false, t2, h_out);
  };
  auto loss_fn = [&]() {
    Vector h;
    GruTape t1, t2;
    run_forward(&h, &t1, &t2);
    return 0.5 * SquaredNorm(h);
  };

  Vector h;
  GruTape t1, t2;
  run_forward(&h, &t1, &t2);
  ZeroGrads(cell.Params());
  Vector dh1(d, 0.0), dh0(d, 0.0);
  cell.Backward(t2, h, &dh1, nullptr, nullptr);
  cell.Backward(t1, dh1, &dh0, nullptr, nullptr);
  CheckParamGradients(cell.Params(), loss_fn);
}

TEST(GradCheckTest, PairSimilarityBackprop) {
  Rng rng(36);
  const size_t d = 8;
  Vector ea(d), eb(d);
  for (double& v : ea) v = rng.Gaussian(0, 1);
  for (double& v : eb) v = rng.Gaussian(0, 1);
  const double f = 0.4;
  const double r = 0.7;

  auto loss_fn = [&]() {
    const double g = neutraj::EmbeddingSimilarity(ea, eb);
    return neutraj::SimilarPairLoss(g, f, r).loss;
  };

  const double g = neutraj::EmbeddingSimilarity(ea, eb);
  const neutraj::PairLoss pl = neutraj::SimilarPairLoss(g, f, r);
  Vector dea(d, 0.0), deb(d, 0.0);
  neutraj::BackpropPairSimilarity(ea, eb, g, pl.dg, &dea, &deb);

  const double eps = 1e-6;
  for (size_t k = 0; k < d; ++k) {
    double saved = ea[k];
    ea[k] = saved + eps;
    const double up = loss_fn();
    ea[k] = saved - eps;
    const double down = loss_fn();
    ea[k] = saved;
    EXPECT_NEAR(dea[k], (up - down) / (2 * eps), 1e-6) << "dea " << k;

    saved = eb[k];
    eb[k] = saved + eps;
    const double up2 = loss_fn();
    eb[k] = saved - eps;
    const double down2 = loss_fn();
    eb[k] = saved;
    EXPECT_NEAR(deb[k], (up2 - down2) / (2 * eps), 1e-6) << "deb " << k;
  }
}

TEST(GradCheckTest, EndToEndRankingLossThroughSamEncoder) {
  // Composite check: two trajectories encoded by the SAM encoder, pair
  // similarity, and the dissimilar-pair margin loss in its active branch.
  Rng rng(37);
  Encoder enc(Backbone::kSamLstm, TestGrid(), /*hidden=*/4, /*scan_width=*/1);
  enc.Initialize(&rng);
  for (double& v : enc.memory().values()) v = rng.Gaussian(0, 0.2);
  enc.memory().RecomputeWrittenFlags();
  const Trajectory ta = RandomTrajectory(5, 1000.0, &rng);
  const Trajectory tb = RandomTrajectory(6, 1000.0, &rng);
  const double f = 0.0;  // Forces the margin branch active (g > 0 always).
  const double r = 1.0;

  auto loss_fn = [&]() {
    const Vector ea = enc.Encode(ta, false);
    const Vector eb = enc.Encode(tb, false);
    const double g = neutraj::EmbeddingSimilarity(ea, eb);
    return neutraj::DissimilarPairLoss(g, f, r).loss;
  };

  EncodeTape tape_a, tape_b;
  const Vector ea = enc.Encode(ta, false, &tape_a);
  const Vector eb = enc.Encode(tb, false, &tape_b);
  const double g = neutraj::EmbeddingSimilarity(ea, eb);
  const neutraj::PairLoss pl = neutraj::DissimilarPairLoss(g, f, r);
  ASSERT_GT(pl.loss, 0.0) << "margin branch must be active for this check";
  Vector dea(4, 0.0), deb(4, 0.0);
  neutraj::BackpropPairSimilarity(ea, eb, g, pl.dg, &dea, &deb);
  ZeroGrads(enc.Params());
  enc.Backward(tape_a, dea);
  enc.Backward(tape_b, deb);
  CheckParamGradients(enc.Params(), loss_fn, 1e-6, 5e-5);
}

// -- Exhaustive audit (shared battery, see src/eval/gradcheck.h) ------------

class GradAuditTest : public ::testing::Test {
 protected:
  // The battery is deterministic, so run it once for the whole fixture.
  static void SetUpTestSuite() {
    records_ = new std::vector<eval::GradAuditRecord>(
        eval::RunGradientAudit(eval::GradAuditOptions{}));
  }
  static void TearDownTestSuite() {
    delete records_;
    records_ = nullptr;
  }

  static const std::vector<eval::GradAuditRecord>& records() {
    return *records_;
  }

  /// Max |analytic gradient| over every audited block of `case_name` whose
  /// block label matches `block` exactly; -1 when absent.
  static double BlockSignal(const std::string& case_name,
                            const std::string& block) {
    double found = -1.0;
    for (const auto& r : records()) {
      if (r.case_name == case_name && r.block == block) {
        found = std::max(found, r.max_abs_grad);
      }
    }
    return found;
  }

 private:
  static const std::vector<eval::GradAuditRecord>* records_;
};

const std::vector<eval::GradAuditRecord>* GradAuditTest::records_ = nullptr;

TEST_F(GradAuditTest, EveryBlockUnderTolerance) {
  ASSERT_FALSE(records().empty());
  for (const auto& r : records()) {
    EXPECT_LT(r.max_rel_err, 1e-4)
        << r.case_name << " " << r.block << " (checked " << r.checked << ")";
    EXPECT_GT(r.checked, 0u) << r.case_name << " " << r.block;
  }
}

TEST_F(GradAuditTest, CoversEveryBackboneAndPath) {
  std::set<std::string> cases;
  for (const auto& r : records()) cases.insert(r.case_name);
  for (const char* expected :
       {"attention/read", "attention/da_direct", "attention/k1",
        "attention/masked", "loss/similar", "loss/dissimilar", "loss/mse",
        "lstm/len7_h5", "lstm/len1", "lstm/len4_h3", "gru/len7_h5", "gru/len1",
        "sam_lstm/frozen_w1", "sam_lstm/w0", "sam_lstm/len1",
        "sam_lstm/all_masked", "sam_lstm/after_writes", "sam_gru/frozen_w1",
        "sam_gru/w0", "sam_gru/len1", "sam_gru/all_masked",
        "sam_gru/after_writes", "e2e/ranking_sam_lstm"}) {
    EXPECT_TRUE(cases.count(expected)) << "missing audit case " << expected;
  }
}

TEST_F(GradAuditTest, EveryGateOfEveryStackedParamIsAudited) {
  // Per-gate coverage: each stacked parameter of each backbone must appear
  // split into its gate blocks in at least one case.
  const std::map<std::string, std::vector<std::string>> stacks = {
      {"encoder.lstm.Wx", {"i", "f", "g", "o"}},
      {"encoder.lstm.Wh", {"i", "f", "g", "o"}},
      {"encoder.lstm.b", {"i", "f", "g", "o"}},
      {"encoder.sam.Wg", {"f", "i", "s", "o"}},
      {"encoder.sam.Ug", {"f", "i", "s", "o"}},
      {"encoder.sam.bg", {"f", "i", "s", "o"}},
      {"encoder.gru.Wg", {"r", "z", "s"}},
      {"encoder.gru.Ug", {"r", "z", "s"}},
      {"encoder.gru.bg", {"r", "z", "s"}},
  };
  std::set<std::string> blocks;
  for (const auto& r : records()) blocks.insert(r.block);
  for (const auto& [param, gates] : stacks) {
    for (const std::string& gate : gates) {
      EXPECT_TRUE(blocks.count(param + "[" + gate + "]"))
          << "no audited gate block " << param << "[" << gate << "]";
    }
  }
}

TEST_F(GradAuditTest, ActiveMemoryPathsCarryGradientSignal) {
  // The frozen-memory SAM cases are constructed so that every parameter —
  // including the spatial gate and the attention fusion layer — receives a
  // nonzero gradient. A zero here means a silently dead path.
  for (const char* block :
       {"encoder.sam.Wg[f]", "encoder.sam.Wg[i]", "encoder.sam.Wg[s]",
        "encoder.sam.Wg[o]", "encoder.sam.Ug[s]", "encoder.sam.bg[s]",
        "encoder.sam.Wc", "encoder.sam.Uc", "encoder.sam.bc",
        "encoder.sam.Whis", "encoder.sam.bhis"}) {
    EXPECT_GT(BlockSignal("sam_lstm/frozen_w1", block), 0.0) << block;
  }
  for (const char* block :
       {"encoder.gru.Wg[r]", "encoder.gru.Wg[z]", "encoder.gru.Wg[s]",
        "encoder.gru.Wn", "encoder.gru.Un", "encoder.gru.bn",
        "encoder.gru.Whis", "encoder.gru.bhis"}) {
    EXPECT_GT(BlockSignal("sam_gru/frozen_w1", block), 0.0) << block;
  }
}

TEST_F(GradAuditTest, InertPathsStayInert) {
  // Plain GRU (no memory): the spatial gate must be exactly dead weight.
  EXPECT_EQ(BlockSignal("gru/len7_h5", "encoder.gru.Wg[s]"), 0.0);
  EXPECT_EQ(BlockSignal("gru/len7_h5", "encoder.gru.Ug[s]"), 0.0);
  EXPECT_EQ(BlockSignal("gru/len7_h5", "encoder.gru.bg[s]"), 0.0);
  // All-masked windows degrade to the plain cell: the fusion layer and the
  // spatial gate contribute nothing.
  EXPECT_EQ(BlockSignal("sam_lstm/all_masked", "encoder.sam.Whis"), 0.0);
  EXPECT_EQ(BlockSignal("sam_gru/all_masked", "encoder.gru.Whis"), 0.0);
  // Length-1 trajectories: recurrent weights see h_prev = 0 and must have a
  // zero gradient — signal here would mean the initial state leaks.
  EXPECT_EQ(BlockSignal("lstm/len1", "encoder.lstm.Wh[i]"), 0.0);
  EXPECT_EQ(BlockSignal("gru/len1", "encoder.gru.Ug[z]"), 0.0);
}

TEST_F(GradAuditTest, TableRendersEveryRecord) {
  const std::string table = eval::FormatGradAuditTable(records());
  EXPECT_NE(table.find("max rel err"), std::string::npos);
  // One header line + one line per record.
  EXPECT_EQ(static_cast<size_t>(
                std::count(table.begin(), table.end(), '\n')),
            records().size() + 1);
  EXPECT_NE(table.find("e2e/ranking_sam_lstm"), std::string::npos);
}

}  // namespace
}  // namespace neutraj::nn
