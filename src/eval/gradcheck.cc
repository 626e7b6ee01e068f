#include "eval/gradcheck.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>

#include "common/random.h"
#include "core/loss.h"
#include "core/similarity.h"
#include "geo/grid.h"
#include "nn/attention.h"
#include "nn/encoder.h"

namespace neutraj::eval {

namespace {

using nn::AttentionTape;
using nn::EncodeTape;
using nn::Encoder;
using nn::Matrix;
using nn::Param;
using nn::Vector;

using LossFn = std::function<double()>;

/// A contiguous flat-index range [begin, end) of one parameter's values.
struct Block {
  std::string name;
  size_t begin = 0;
  size_t end = 0;
};

/// Probes up to opts.max_checks entries of `values[begin, end)` (strided)
/// against central differences of `loss_fn` and appends one record.
void AuditRange(const std::string& case_name, const Block& block,
                std::vector<double>* values, const std::vector<double>& grads,
                const LossFn& loss_fn, const GradAuditOptions& opts,
                std::vector<GradAuditRecord>* out) {
  GradAuditRecord rec;
  rec.case_name = case_name;
  rec.block = block.name;
  const size_t size = block.end - block.begin;
  const size_t stride = std::max<size_t>(1, size / opts.max_checks);
  for (size_t k = block.begin; k < block.end; k += stride) {
    const double saved = (*values)[k];
    (*values)[k] = saved + opts.eps;
    const double up = loss_fn();
    (*values)[k] = saved - opts.eps;
    const double down = loss_fn();
    (*values)[k] = saved;
    const double numeric = (up - down) / (2.0 * opts.eps);
    const double analytic = grads[k];
    const double scale =
        std::max({1.0, std::abs(numeric), std::abs(analytic)});
    rec.max_rel_err =
        std::max(rec.max_rel_err, std::abs(analytic - numeric) / scale);
    rec.max_abs_grad = std::max(rec.max_abs_grad, std::abs(analytic));
    ++rec.checked;
  }
  out->push_back(std::move(rec));
}

/// Audits `params` against `loss_fn`. A parameter whose row count equals
/// `gates.size() * hidden` is stacked gate blocks: it is audited one gate
/// block at a time (named "param[gate]") so an inert or swapped gate is
/// visible in the table instead of averaged away.
void AuditParams(const std::string& case_name,
                 const std::vector<Param*>& params, size_t hidden,
                 const std::vector<std::string>& gates, const LossFn& loss_fn,
                 const GradAuditOptions& opts,
                 std::vector<GradAuditRecord>* out) {
  for (Param* p : params) {
    auto& values = p->value.values();
    const auto& grads = p->grad.values();
    const size_t rows = p->value.rows();
    const size_t cols = p->value.cols();
    if (!gates.empty() && rows == gates.size() * hidden) {
      for (size_t g = 0; g < gates.size(); ++g) {
        Block block;
        block.name = p->name + "[" + gates[g] + "]";
        block.begin = g * hidden * cols;
        block.end = (g + 1) * hidden * cols;
        AuditRange(case_name, block, &values, grads, loss_fn, opts, out);
      }
    } else {
      AuditRange(case_name, {p->name, 0, values.size()}, &values, grads,
                 loss_fn, opts, out);
    }
  }
}

/// Audits a plain input vector (attention query, loss embedding, ...).
void AuditVector(const std::string& case_name, const std::string& name,
                 Vector* x, const Vector& grad, const LossFn& loss_fn,
                 const GradAuditOptions& opts,
                 std::vector<GradAuditRecord>* out) {
  AuditRange(case_name, {name, 0, x->size()}, x, grad, loss_fn, opts, out);
}

Grid AuditGrid() {
  BoundingBox region = BoundingBox::Empty();
  region.Extend(Point(0, 0));
  region.Extend(Point(1000, 1000));
  return Grid(region, 100.0);  // 10 x 10 cells.
}

Trajectory MakeTrajectory(size_t len, Rng* rng) {
  Trajectory t;
  for (size_t i = 0; i < len; ++i) {
    t.Append(Point(rng->Uniform(0.0, 1000.0), rng->Uniform(0.0, 1000.0)));
  }
  return t;
}

const std::vector<std::string> kLstmGates = {"i", "f", "g", "o"};
const std::vector<std::string> kSamLstmGates = {"f", "i", "s", "o"};
const std::vector<std::string> kSamGruGates = {"r", "z", "s"};

/// Shared body of every encoder case: loss L = 0.5 ||E||^2, analytic
/// backward with dL/dE = E, then a per-gate-block parameter audit.
void AuditEncoder(const std::string& case_name, Encoder* enc, size_t hidden,
                  const std::vector<std::string>& gates,
                  const Trajectory& traj, const GradAuditOptions& opts,
                  std::vector<GradAuditRecord>* out) {
  auto loss_fn = [enc, &traj]() {
    return 0.5 * nn::SquaredNorm(enc->Encode(traj, /*update_memory=*/false));
  };
  EncodeTape tape;
  const Vector e = enc->Encode(traj, /*update_memory=*/false, &tape);
  nn::ZeroGrads(enc->Params());
  enc->Backward(tape, e);
  AuditParams(case_name, enc->Params(), hidden, gates, loss_fn, opts, out);
}

void SeedMemory(Encoder* enc, Rng* rng, double stddev) {
  for (double& v : enc->memory().values()) v = rng->Gaussian(0.0, stddev);
  enc->memory().RecomputeWrittenFlags();
}

// -- Battery cases ----------------------------------------------------------

/// Attention read: dq through mix, with an optional direct dL/dA term and an
/// optional row mask.
void CaseAttention(const std::string& case_name, size_t k, size_t d,
                   bool with_da_direct, const std::vector<char>* mask,
                   uint64_t seed, const GradAuditOptions& opts,
                   std::vector<GradAuditRecord>* out) {
  Rng rng(seed);
  Matrix g(k, d);
  for (double& v : g.values()) v = rng.Gaussian(0.0, 0.5);
  Vector q(d);
  for (double& v : q) v = rng.Gaussian(0.0, 0.5);
  Vector wm(d);  // Weights of the mix term of the loss.
  for (double& v : wm) v = rng.Gaussian(0.0, 1.0);
  Vector wa(k);  // Weights of the direct attention term.
  for (double& v : wa) v = rng.Gaussian(0.0, 1.0);

  auto loss_fn = [&]() {
    AttentionTape tape;
    AttentionForward(g, q, &tape, mask);
    double l = nn::Dot(tape.mix, wm);
    if (with_da_direct) l += nn::Dot(tape.a, wa);
    return l;
  };
  AttentionTape tape;
  AttentionForward(g, q, &tape, mask);
  Vector dq(d, 0.0);
  AttentionBackward(tape, wm, with_da_direct ? &wa : nullptr, &dq);
  AuditVector(case_name, "q", &q, dq, loss_fn, opts, out);
}

void CaseLoss(const std::string& case_name, int kind, double f, double r,
              uint64_t seed, const GradAuditOptions& opts,
              std::vector<GradAuditRecord>* out) {
  Rng rng(seed);
  const size_t d = 8;
  Vector ea(d), eb(d);
  for (double& v : ea) v = rng.Gaussian(0.0, 1.0);
  for (double& v : eb) v = rng.Gaussian(0.0, 1.0);
  auto pair_loss = [kind, f, r](double g) {
    if (kind == 0) return SimilarPairLoss(g, f, r);
    if (kind == 1) return DissimilarPairLoss(g, f, r);
    return MsePairLoss(g, f, r);
  };
  auto loss_fn = [&]() { return pair_loss(EmbeddingSimilarity(ea, eb)).loss; };
  const double g = EmbeddingSimilarity(ea, eb);
  const PairLoss pl = pair_loss(g);
  Vector dea(d, 0.0), deb(d, 0.0);
  BackpropPairSimilarity(ea, eb, g, pl.dg, &dea, &deb);
  AuditVector(case_name, "e_a", &ea, dea, loss_fn, opts, out);
  AuditVector(case_name, "e_b", &eb, deb, loss_fn, opts, out);
}

/// Ranking loss through the full SAM encoder: the composite check.
void CaseEndToEnd(const GradAuditOptions& opts,
                  std::vector<GradAuditRecord>* out) {
  Rng rng(108);
  const size_t hidden = 4;
  Encoder enc(nn::Backbone::kSamLstm, AuditGrid(), hidden, /*scan_width=*/1);
  enc.Initialize(&rng);
  SeedMemory(&enc, &rng, 0.2);
  const Trajectory ta = MakeTrajectory(5, &rng);
  const Trajectory tb = MakeTrajectory(6, &rng);
  const double f = 0.0;  // g > 0 always, so the margin branch stays active.
  const double r = 1.0;
  auto loss_fn = [&]() {
    const Vector ea = enc.Encode(ta, false);
    const Vector eb = enc.Encode(tb, false);
    return DissimilarPairLoss(EmbeddingSimilarity(ea, eb), f, r).loss;
  };
  EncodeTape tape_a, tape_b;
  const Vector ea = enc.Encode(ta, false, &tape_a);
  const Vector eb = enc.Encode(tb, false, &tape_b);
  const double g = EmbeddingSimilarity(ea, eb);
  const PairLoss pl = DissimilarPairLoss(g, f, r);
  Vector dea(hidden, 0.0), deb(hidden, 0.0);
  BackpropPairSimilarity(ea, eb, g, pl.dg, &dea, &deb);
  nn::ZeroGrads(enc.Params());
  enc.Backward(tape_a, dea);
  enc.Backward(tape_b, deb);
  AuditParams("e2e/ranking_sam_lstm", enc.Params(), hidden, kSamLstmGates,
              loss_fn, opts, out);
}

struct EncoderCase {
  const char* name;
  nn::Backbone backbone;
  size_t hidden;
  int32_t scan_width;
  size_t length;
  uint64_t seed;
  // Memory preparation: 0 = none/cleared, 1 = random seed, 2 = populated by
  // encoding a warm-up trajectory with update_memory=true.
  int memory_prep;
};

constexpr EncoderCase kEncoderCases[] = {
    {"lstm/len7_h5", nn::Backbone::kLstm, 5, 0, 7, 201, 0},
    {"lstm/len1", nn::Backbone::kLstm, 5, 0, 1, 202, 0},
    {"lstm/len4_h3", nn::Backbone::kLstm, 3, 0, 4, 203, 0},
    {"gru/len7_h5", nn::Backbone::kGru, 5, 0, 7, 204, 0},
    {"gru/len1", nn::Backbone::kGru, 5, 0, 1, 205, 0},
    {"sam_lstm/frozen_w1", nn::Backbone::kSamLstm, 5, 1, 6, 206, 1},
    {"sam_lstm/w0", nn::Backbone::kSamLstm, 4, 0, 5, 207, 1},
    {"sam_lstm/len1", nn::Backbone::kSamLstm, 4, 1, 1, 208, 1},
    {"sam_lstm/all_masked", nn::Backbone::kSamLstm, 4, 1, 5, 209, 0},
    {"sam_lstm/after_writes", nn::Backbone::kSamLstm, 4, 1, 6, 210, 2},
    {"sam_gru/frozen_w1", nn::Backbone::kSamGru, 5, 1, 6, 211, 1},
    {"sam_gru/w0", nn::Backbone::kSamGru, 4, 0, 5, 212, 1},
    {"sam_gru/len1", nn::Backbone::kSamGru, 4, 1, 1, 213, 1},
    {"sam_gru/all_masked", nn::Backbone::kSamGru, 4, 1, 5, 214, 0},
    {"sam_gru/after_writes", nn::Backbone::kSamGru, 4, 1, 6, 215, 2},
};

const std::vector<std::string>& GatesFor(nn::Backbone b) {
  switch (b) {
    case nn::Backbone::kLstm:
      return kLstmGates;
    case nn::Backbone::kSamLstm:
      return kSamLstmGates;
    case nn::Backbone::kGru:
    case nn::Backbone::kSamGru:
      return kSamGruGates;
  }
  return kLstmGates;  // Unreachable.
}

void RunEncoderCase(const EncoderCase& c, const GradAuditOptions& opts,
                    std::vector<GradAuditRecord>* out) {
  Rng rng(c.seed);
  Encoder enc(c.backbone, AuditGrid(), c.hidden, c.scan_width);
  enc.Initialize(&rng);
  if (enc.has_memory()) {
    if (c.memory_prep == 1) {
      SeedMemory(&enc, &rng, 0.3);
    } else if (c.memory_prep == 2) {
      // Populate the memory through the production write path so the audit
      // reads exactly the state a training run would leave behind.
      const Trajectory warmup = MakeTrajectory(12, &rng);
      enc.Encode(warmup, /*update_memory=*/true);
    }
  }
  const Trajectory traj = MakeTrajectory(c.length, &rng);
  AuditEncoder(c.name, &enc, c.hidden, GatesFor(c.backbone), traj, opts, out);
}

}  // namespace

std::vector<GradAuditRecord> RunGradientAudit(const GradAuditOptions& opts) {
  std::vector<GradAuditRecord> out;
  CaseAttention("attention/read", 9, 6, false, nullptr, 102, opts, &out);
  CaseAttention("attention/da_direct", 9, 6, true, nullptr, 103, opts, &out);
  CaseAttention("attention/k1", 1, 6, true, nullptr, 104, opts, &out);
  {
    // Half the window rows masked out (never-written memory cells).
    std::vector<char> mask = {1, 0, 1, 0, 1, 0, 1, 0, 1};
    CaseAttention("attention/masked", 9, 6, true, &mask, 105, opts, &out);
  }
  CaseLoss("loss/similar", 0, 0.4, 0.7, 106, opts, &out);
  CaseLoss("loss/dissimilar", 1, 0.0, 0.7, 107, opts, &out);
  CaseLoss("loss/mse", 2, 0.4, 0.7, 109, opts, &out);
  for (const EncoderCase& c : kEncoderCases) RunEncoderCase(c, opts, &out);
  CaseEndToEnd(opts, &out);
  return out;
}

std::string FormatGradAuditTable(const std::vector<GradAuditRecord>& records) {
  size_t case_w = 4, block_w = 5;
  for (const GradAuditRecord& r : records) {
    case_w = std::max(case_w, r.case_name.size());
    block_w = std::max(block_w, r.block.size());
  }
  std::ostringstream out;
  auto pad = [&out](const std::string& s, size_t w) {
    out << s;
    for (size_t i = s.size(); i < w + 2; ++i) out << ' ';
  };
  pad("case", case_w);
  pad("block", block_w);
  out << "checked  max|grad|     max rel err\n";
  for (const GradAuditRecord& r : records) {
    pad(r.case_name, case_w);
    pad(r.block, block_w);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%7zu  %9.3e  %14.3e", r.checked,
                  r.max_abs_grad, r.max_rel_err);
    out << buf << '\n';
  }
  return out.str();
}

}  // namespace neutraj::eval
