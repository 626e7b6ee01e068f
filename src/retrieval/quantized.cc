#include "retrieval/quantized.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "common/thread_pool.h"
#include "retrieval/kernels.h"

namespace neutraj::retrieval {

namespace {

/// Scales below this are floored so a constant-zero dimension still has a
/// well-defined (if useless) code and no division by zero.
constexpr double kMinScale = 1e-12;

/// Encodes `row` as row r of `block` and returns its error. `code` is
/// scratch of q.dim() + 1 zeroed bytes, so an odd dim pads with a zero.
double EncodeRow(const Int8Quantizer& q, const double* row, size_t r,
                 int8_t* block, std::vector<int8_t>* code) {
  const double error = q.EncodeWithError(row, code->data());
  int8_t* at = block + BlockCodeOffset(r, 0);
  for (size_t d = 0; d < q.dim(); d += 2) {
    std::memcpy(at + d * kCodeBlockRows, code->data() + d, 2);
  }
  return error;
}

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
  q.bound_weights_.resize(dim);
  double s_max = kMinScale;
  for (size_t d = 0; d < dim; ++d) {
    q.scales_[d] = std::max(max_abs[d], kMinScale) / 127.0;
    s_max = std::max(s_max, q.scales_[d]);
  }
  for (size_t d = 0; d < dim; ++d) {
    const double ratio = q.scales_[d] / s_max;
    q.bound_weights_[d] =
        static_cast<int32_t>(std::floor(ratio * ratio * 128.0));
  }
  q.bound_scale_ = s_max * s_max / 128.0;
  return q;
}

double Int8Quantizer::EncodeWithError(const double* v, int8_t* code) const {
  return RoundedUpSqrt(QuantizeRow(v, scales_.data(), dim(), code));
}

nn::Vector Int8Quantizer::Decode(const int8_t* code) const {
  nn::Vector v(dim());
  for (size_t d = 0; d < dim(); ++d) {
    v[d] = scales_[d] * static_cast<double>(code[d]);
  }
  return v;
}

double Int8Quantizer::SquaredErrorBound() const {
  double acc = 0.0;
  for (const double s : scales_) {
    acc += (s / 2.0) * (s / 2.0);
  }
  return acc;
}

CodeBlocks CodeBlocks::Encode(const Int8Quantizer& quantizer,
                              const std::vector<nn::Vector>& rows,
                              size_t threads) {
  CodeBlocks c;
  const size_t n = rows.size();
  const size_t blocks = (n + kCodeBlockRows - 1) / kCodeBlockRows;
  c.block_bytes_ = BlockBytes(quantizer.dim());
  c.blocks_.resize(blocks * c.block_bytes_);
  c.errors_.resize(n);
  c.block_errors_.resize(blocks);
  if (n == 0) return c;
  // Parts of whole blocks, one per worker, so no two workers write a block.
  const size_t parts = std::clamp<size_t>(threads, 1, blocks);
  const size_t part_rows = (blocks + parts - 1) / parts * kCodeBlockRows;
  ParallelFor(parts, threads, [&](size_t p) {
    std::vector<int8_t> code(quantizer.dim() + 1);
    for (size_t i = p * part_rows; i < std::min(n, (p + 1) * part_rows); ++i) {
      const size_t b = i / kCodeBlockRows;
      c.errors_[i] = EncodeRow(quantizer, rows[i].data(), i % kCodeBlockRows,
                               c.blocks_.data() + b * c.block_bytes_, &code);
      c.block_errors_[b] = std::max(c.block_errors_[b], c.errors_[i]);
    }
  });
  return c;
}

void CodeBlocks::Append(const Int8Quantizer& quantizer, const nn::Vector& row) {
  if (row.size() != quantizer.dim()) {
    throw std::invalid_argument(
        "CodeBlocks::Append: row dimension " + std::to_string(row.size()) +
        " != quantizer dimension " + std::to_string(quantizer.dim()));
  }
  const size_t i = size();
  if (i % kCodeBlockRows == 0) {
    block_bytes_ = BlockBytes(quantizer.dim());
    blocks_.resize(blocks_.size() + block_bytes_);
    block_errors_.push_back(0.0);
  }
  // Reused across appends (they run under their owners' writer locks):
  // bytes below dim are rewritten by every encode, and the pad byte at dim
  // stays zero.
  if (code_.size() != quantizer.dim() + 1) code_.assign(quantizer.dim() + 1, 0);
  errors_.push_back(EncodeRow(quantizer, row.data(), i % kCodeBlockRows,
                              blocks_.data() + blocks_.size() - block_bytes_,
                              &code_));
  block_errors_.back() = std::max(block_errors_.back(), errors_.back());
}

}  // namespace neutraj::retrieval
