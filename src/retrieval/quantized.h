// Int8 symmetric quantization tier: the lower bound behind every TopK.
//
// The paper's online protocol ranks the corpus by embedding-space L2; at
// millions of rows the double-precision scan is memory-bound (64 bytes per
// row at d=8). This tier keeps an 8x smaller int8 code per row, and a scan
// reads the codes first: they give each row a lower bound on its distance,
// and only rows whose bound can still reach the top k get their exact
// double distance. So quantization decides how many rows are scored, never
// which rows are returned or the distances the caller sees.
//
// Scheme: symmetric per-dimension scalar quantization. Training scans a
// corpus (or sample) for per-dimension max magnitudes m_d and fixes
//
//   s_d     = max(m_d, epsilon) / 127          (the per-dimension scale)
//   code_d  = clamp(round(x_d / s_d), -127, 127)
//
// so decode(code)_d = s_d * code_d and the per-dimension reconstruction
// error is at most s_d / 2 for in-range inputs (inputs beyond the trained
// range clamp; live inserts therefore inherit the build-time range). With
// the integer floor weights
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
// bound's kernel (kernels.h BlockCodeSquaredL2) multiplies in. A clamped
// input has a large e_x, so its bound stays loose and correct.
// Deterministic everywhere: same corpus → same scales → same codes → same
// sums, on every machine and kernel.
//
// CodeBlocks keeps the codes of a sequence of rows in the kernel's block
// layout, with the errors the bound subtracts. The exact scan keeps one
// beside the database's rows (core/embedding_db.h) and each IVF list keeps
// one beside its ids (retrieval/ivf_index.h).

#ifndef NEUTRAJ_RETRIEVAL_QUANTIZED_H_
#define NEUTRAJ_RETRIEVAL_QUANTIZED_H_

#include <cstdint>
#include <vector>

#include "nn/matrix.h"

namespace neutraj::retrieval {

/// Per-dimension symmetric int8 quantizer and its bound's weights.
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

  /// Quantizes finite `v` (dim() values): writes its dim() codes to `code`
  /// and returns the reconstruction error ‖v − Decode(code)‖, rounded up.
  double EncodeWithError(const double* v, int8_t* code) const;

  /// Reconstruction: decode(code)_d = s_d * code_d.
  nn::Vector Decode(const int8_t* code) const;

  const std::vector<double>& scales() const { return scales_; }

  /// The lower bound's weights w′_d = ⌊128 · (s_d / s_max)²⌋, in [0, 128].
  const std::vector<int32_t>& bound_weights() const { return bound_weights_; }
  /// c = s_max² / 128: c · Σ w′_d (a_d - b_d)² ≤ ‖decode(a) − decode(b)‖².
  double bound_scale() const { return bound_scale_; }

  /// Worst-case per-vector reconstruction error bound in squared-L2 terms
  /// for in-range inputs: Σ_d (s_d / 2)².
  double SquaredErrorBound() const;

 private:
  std::vector<double> scales_;          ///< s_d.
  std::vector<int32_t> bound_weights_;  ///< w′_d in [0, 128].
  double bound_scale_ = 0.0;            ///< s_max² / 128.
};

/// The codes of a sequence of rows in kernels.h's block layout: row i sits
/// in block i / 8 at BlockCodeOffset(i % 8, d), beside its reconstruction
/// error rounded up, and each block keeps its largest row error. Rows are
/// only appended.
class CodeBlocks {
 public:
  /// The codes of `rows` under `quantizer`, encoded over `threads` workers
  /// (the same codes for every thread count). Rows must be finite and of
  /// width quantizer.dim().
  static CodeBlocks Encode(const Int8Quantizer& quantizer,
                           const std::vector<nn::Vector>& rows,
                           size_t threads = 1);

  /// Appends the code of finite `row` under `quantizer`, the one every
  /// other row was encoded with. Throws std::invalid_argument when the row
  /// is not of width quantizer.dim().
  void Append(const Int8Quantizer& quantizer, const nn::Vector& row);

  /// Rows encoded.
  size_t size() const { return errors_.size(); }

  /// Block b: the codes of rows [8b, 8b + 8), zero past size().
  const int8_t* block(size_t b) const {
    return blocks_.data() + b * block_bytes_;
  }
  /// Row i's reconstruction error, rounded up.
  double error(size_t i) const { return errors_[i]; }
  /// The largest error of block b's rows.
  double block_error(size_t b) const { return block_errors_[b]; }

 private:
  size_t block_bytes_ = 0;
  std::vector<int8_t> blocks_;
  std::vector<double> errors_;
  std::vector<double> block_errors_;
  std::vector<int8_t> code_;  ///< Append's encode scratch, dim + 1 bytes.
};

/// Rows named by their corpus ids with their codes, in the same order: one
/// IVF list. The ids need not ascend.
struct CodeList {
  std::vector<size_t> ids;
  CodeBlocks codes;
};

}  // namespace neutraj::retrieval

#endif  // NEUTRAJ_RETRIEVAL_QUANTIZED_H_
