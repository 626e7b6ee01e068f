// Int8 symmetric quantization tier for cheap candidate scans.
//
// The paper's online protocol ranks the corpus by embedding-space L2; at
// millions of rows the double-precision scan is memory-bound (64 bytes per
// row at d=8). This tier stores an 8x smaller int8 code per row and scans
// candidates with an integer-only kernel, after which the top survivors are
// re-ranked with the exact float distance — so quantization can only affect
// WHICH candidates reach the re-rank, never the scores the caller sees.
//
// Scheme: symmetric per-dimension scalar quantization. Training scans a
// corpus (or sample) for per-dimension max magnitudes m_d and fixes
//
//   s_d     = max(m_d, epsilon) / 127          (the per-dimension scale)
//   code_d  = clamp(round(x_d / s_d), -127, 127)
//
// so decode(code)_d = s_d * code_d and the per-dimension reconstruction
// error is at most s_d / 2 for in-range inputs (inputs beyond the trained
// range clamp; live inserts therefore inherit the build-time range). The
// scan distance is the integer form of the scale-weighted code L2:
//
//   w_d   = max(1, round((s_d / s_max)² · 256))         (integer weights)
//   D(a,b) = Σ w_d (a_d - b_d)²                          (pure i32/i64)
//   approx squared L2 ≈ D(a,b) · s_max² / 256
//
// which honors per-dimension scales while keeping the inner loop integer —
// see kernels.h. Deterministic everywhere: same corpus → same scales →
// same codes → same candidate ranking, on every machine and kernel.
//
// The exact TopK scan (core/embedding_db.h) uses the codes as a lower
// bound instead of an estimate. With the floor weights
//
//   w′_d = ⌊128 · (s_d / s_max)²⌋                        (may be 0)
//
// c · Σ w′_d (a_d - b_d)² never exceeds ‖decode(a) − decode(b)‖², and with
// each vector's reconstruction error e_x = ‖x − decode(code(x))‖, the
// triangle inequality gives
//
//   ‖q − x‖ ≥ sqrt(c · Σ w′_d (q̂_d − x̂_d)²) − e_q − e_x,   c = s_max² / 128.
//
// The weights stop at 128 so that w′_d · (a_d − b_d) fits int16, which the
// bound's kernel (kernels.h BlockCodeSquaredL2) multiplies in.
//
// A clamped input has a large e_x, so its bound stays loose and correct.

#ifndef NEUTRAJ_RETRIEVAL_QUANTIZED_H_
#define NEUTRAJ_RETRIEVAL_QUANTIZED_H_

#include <cstdint>
#include <vector>

#include "nn/matrix.h"

namespace neutraj::retrieval {

/// Per-dimension symmetric int8 quantizer + its integer scan distance.
/// Immutable after Train(); safe to share across threads.
class Int8Quantizer {
 public:
  Int8Quantizer() = default;

  /// Fixes scales from the per-dimension max magnitudes of `sample` (must
  /// be non-empty, all rows the same dimension). Throws
  /// std::invalid_argument on an empty sample or ragged rows.
  static Int8Quantizer Train(const std::vector<nn::Vector>& sample);

  /// Fixes scales from per-dimension max magnitudes, each finite and >= 0
  /// (what Train computes from its sample). Throws std::invalid_argument
  /// when `max_abs` is empty.
  static Int8Quantizer FromMaxAbs(const std::vector<double>& max_abs);

  bool trained() const { return !scales_.empty(); }
  size_t dim() const { return scales_.size(); }

  /// Quantizes one vector (dimension must match; throws otherwise).
  std::vector<int8_t> Encode(const nn::Vector& v) const;

  /// Appends the code of `v` to `out` (bulk storage without per-row
  /// allocations; `out` grows by dim()).
  void EncodeAppend(const nn::Vector& v, std::vector<int8_t>* out) const;

  /// The lower-bound form of Encode for finite `v` (dim() values): writes
  /// its dim() codes, equal to Encode's, to `code` and returns the
  /// reconstruction error ‖v − Decode(code)‖, rounded up.
  double EncodeWithError(const double* v, int8_t* code) const;

  /// Bulk EncodeWithError into kernels.h's block layout: row i of `rows`,
  /// for i in [begin, end), goes to block i / 8 of `blocks` at
  /// BlockCodeOffset(i % 8, d), and its error to errors[i]. Rows must be
  /// finite and of width dim().
  void EncodeBlocks(const std::vector<nn::Vector>& rows, size_t begin,
                    size_t end, int8_t* blocks, double* errors) const;

  /// Reconstruction: decode(code)_d = s_d * code_d.
  nn::Vector Decode(const int8_t* code) const;

  /// Approximate squared L2 between two codes: the integer weighted kernel
  /// mapped back to L2 units. Exceeds/undershoots the true squared L2 only
  /// by quantization + weight-rounding error; ties in the integer
  /// accumulator are exact, so rankings are deterministic.
  double ApproxSquaredL2(const int8_t* a, const int8_t* b) const {
    return proxy_to_l2_ *
           static_cast<double>(WeightedCodeAccum(a, b));
  }

  /// The raw integer accumulator (exposed so callers can rank candidates in
  /// exact integer arithmetic and defer the float mapping entirely).
  int64_t WeightedCodeAccum(const int8_t* a, const int8_t* b) const;

  const std::vector<double>& scales() const { return scales_; }

  /// The lower bound's weights w′_d = ⌊128 · (s_d / s_max)²⌋, in [0, 128].
  const std::vector<int32_t>& bound_weights() const { return bound_weights_; }
  /// c = s_max² / 128: c · Σ w′_d (a_d - b_d)² ≤ ‖decode(a) − decode(b)‖².
  double bound_scale() const { return bound_scale_; }

  /// Worst-case per-vector reconstruction error bound in squared-L2 terms
  /// for in-range inputs: Σ_d (s_d / 2)².
  double SquaredErrorBound() const;

 private:
  std::vector<double> scales_;    ///< s_d.
  std::vector<int32_t> weights_;  ///< w_d in [1, 256].
  std::vector<int32_t> bound_weights_;  ///< w′_d in [0, 128].
  double bound_scale_ = 0.0;            ///< s_max² / 128.
  double proxy_to_l2_ = 0.0;      ///< s_max² / 256.
};

}  // namespace neutraj::retrieval

#endif  // NEUTRAJ_RETRIEVAL_QUANTIZED_H_
