#include "nn/attention.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace neutraj::nn {

namespace {

constexpr double kMaskedLogit = -std::numeric_limits<double>::infinity();

}  // namespace

void AttentionForward(const Matrix& g, const Vector& q, AttentionTape* tape,
                      const std::vector<char>* mask) {
  tape->g = g;
  AttentionForwardPrefilled(tape, q, mask);
}

void AttentionForwardPrefilled(AttentionTape* tape, const Vector& q,
                               const std::vector<char>* mask) {
  NEUTRAJ_DCHECK_FINITE(q);
  tape->all_masked = mask != nullptr &&
                     std::none_of(mask->begin(), mask->end(),
                                  [](char written) { return written != 0; });
  if (tape->all_masked) {
    tape->a.assign(mask->size(), 0.0);
    tape->mix.assign(q.size(), 0.0);
    return;
  }
  const Matrix& g = tape->g;
  NEUTRAJ_DCHECK_MSG(g.cols() == q.size(), "attention query width mismatch");
  NEUTRAJ_DCHECK_MSG(mask == nullptr || mask->size() == g.rows(),
                     "attention mask must have one flag per window row");
  MatVec(g, q, &tape->a);
  if (mask != nullptr) {
    for (size_t i = 0; i < tape->a.size(); ++i) {
      if (!(*mask)[i]) tape->a[i] = kMaskedLogit;
    }
  }
  SoftmaxInPlace(&tape->a);
  MatTVec(g, tape->a, &tape->mix);
  NEUTRAJ_DCHECK_FINITE(tape->mix);
}

void AttentionBackward(const AttentionTape& tape, const Vector& dmix,
                       const Vector* da_direct, Vector* dq_accum,
                       Vector* da_scratch, Vector* du_scratch) {
  if (tape.all_masked) return;  // mix was constant zero; no query gradient.
  NEUTRAJ_DCHECK_MSG(dmix.size() == tape.g.cols(),
                     "attention dmix width mismatch");
  NEUTRAJ_DCHECK_MSG(da_direct == nullptr || da_direct->size() == tape.a.size(),
                     "attention da_direct length mismatch");
  NEUTRAJ_DCHECK_MSG(dq_accum != nullptr && dq_accum->size() == tape.g.cols(),
                     "attention dq accumulator must be pre-sized");
  Vector local_da, local_du;
  Vector& da = da_scratch != nullptr ? *da_scratch : local_da;
  Vector& du = du_scratch != nullptr ? *du_scratch : local_du;
  // mix = G^T A  =>  dA = G * dmix.
  MatVec(tape.g, dmix, &da);
  if (da_direct != nullptr) {
    AxpyInPlace(1.0, *da_direct, &da);
  }
  // A = softmax(u): du = A (*) (dA - <A, dA>).
  const double inner = Dot(tape.a, da);
  du.resize(da.size());
  for (size_t i = 0; i < da.size(); ++i) du[i] = tape.a[i] * (da[i] - inner);
  // u = G q  =>  dq += G^T du.
  MatTVecAccum(tape.g, du, dq_accum);
}

}  // namespace neutraj::nn
