#include "retrieval/quantized.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/check.h"
#include "retrieval/kernels.h"

namespace neutraj::retrieval {

namespace {

/// Scales below this are floored so a constant-zero dimension still has a
/// well-defined (if useless) code and no division by zero.
constexpr double kMinScale = 1e-12;

}  // namespace

Int8Quantizer Int8Quantizer::Train(const std::vector<nn::Vector>& sample) {
  if (sample.empty()) {
    throw std::invalid_argument("Int8Quantizer::Train: empty sample");
  }
  const size_t dim = sample.front().size();
  if (dim == 0) {
    throw std::invalid_argument("Int8Quantizer::Train: zero-dimension rows");
  }
  std::vector<double> max_abs(dim, 0.0);
  for (const nn::Vector& v : sample) {
    if (v.size() != dim) {
      throw std::invalid_argument("Int8Quantizer::Train: ragged sample");
    }
    NEUTRAJ_DCHECK_FINITE(v);
    for (size_t d = 0; d < dim; ++d) {
      max_abs[d] = std::max(max_abs[d], std::fabs(v[d]));
    }
  }
  return FromMaxAbs(max_abs);
}

Int8Quantizer Int8Quantizer::FromMaxAbs(const std::vector<double>& max_abs) {
  if (max_abs.empty()) {
    throw std::invalid_argument("Int8Quantizer::FromMaxAbs: zero dimensions");
  }
  const size_t dim = max_abs.size();
  Int8Quantizer q;
  q.scales_.resize(dim);
  q.weights_.resize(dim);
  q.bound_weights_.resize(dim);
  double s_max = kMinScale;
  for (size_t d = 0; d < dim; ++d) {
    q.scales_[d] = std::max(max_abs[d], kMinScale) / 127.0;
    s_max = std::max(s_max, q.scales_[d]);
  }
  for (size_t d = 0; d < dim; ++d) {
    const double ratio = q.scales_[d] / s_max;
    q.weights_[d] = std::max(
        1, static_cast<int32_t>(std::lround(ratio * ratio * 256.0)));
    q.bound_weights_[d] =
        static_cast<int32_t>(std::floor(ratio * ratio * 128.0));
  }
  q.proxy_to_l2_ = s_max * s_max / 256.0;
  q.bound_scale_ = s_max * s_max / 128.0;
  return q;
}

std::vector<int8_t> Int8Quantizer::Encode(const nn::Vector& v) const {
  std::vector<int8_t> code;
  code.reserve(dim());
  EncodeAppend(v, &code);
  return code;
}

void Int8Quantizer::EncodeAppend(const nn::Vector& v,
                                 std::vector<int8_t>* out) const {
  if (v.size() != dim()) {
    throw std::invalid_argument(
        "Int8Quantizer: vector dimension " + std::to_string(v.size()) +
        " != quantizer dimension " + std::to_string(dim()));
  }
  const size_t at = out->size();
  out->resize(at + dim());
  QuantizeRow(v.data(), scales_.data(), dim(), out->data() + at);
}

double Int8Quantizer::EncodeWithError(const double* v, int8_t* code) const {
  return RoundedUpSqrt(QuantizeRow(v, scales_.data(), dim(), code));
}

void Int8Quantizer::EncodeBlocks(const std::vector<nn::Vector>& rows,
                                 size_t begin, size_t end, int8_t* blocks,
                                 double* errors) const {
  const size_t dim = this->dim();
  const size_t block_bytes = BlockBytes(dim);
  std::vector<int8_t> code(dim + 1);  // Room for an odd dim's zero pad.
  for (size_t i = begin; i < end; ++i) {
    errors[i] = EncodeWithError(rows[i].data(), code.data());
    int8_t* row = blocks + i / kCodeBlockRows * block_bytes +
                  BlockCodeOffset(i % kCodeBlockRows, 0);
    for (size_t d = 0; d < dim; d += 2) {
      std::memcpy(row + d * kCodeBlockRows, code.data() + d, 2);
    }
  }
}

nn::Vector Int8Quantizer::Decode(const int8_t* code) const {
  nn::Vector v(dim());
  for (size_t d = 0; d < dim(); ++d) {
    v[d] = scales_[d] * static_cast<double>(code[d]);
  }
  return v;
}

int64_t Int8Quantizer::WeightedCodeAccum(const int8_t* a,
                                         const int8_t* b) const {
  return WeightedCodeSquaredL2(a, b, weights_.data(), dim());
}

double Int8Quantizer::SquaredErrorBound() const {
  double acc = 0.0;
  for (const double s : scales_) {
    acc += (s / 2.0) * (s / 2.0);
  }
  return acc;
}

}  // namespace neutraj::retrieval
