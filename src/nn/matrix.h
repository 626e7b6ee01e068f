// Dense matrix/vector kernels for the hand-written neural substrate.
//
// The library deliberately avoids external BLAS/ML dependencies: all
// embedding models in this repo train on modest CPU-scale corpora. The
// recurrent step's hot kernels — MatVecAccum, MatTVecAccum and the exp
// behind SigmoidInto, TanhInto and SoftmaxInPlace — have a portable and an
// AVX2 form chosen at runtime (nn/kernels.h, common/simd_dispatch.h) that
// agree bit for bit, so training and serving run one numerics on every
// machine. The rest are plain loops. We use double precision so the
// backward passes can be validated against central finite differences to
// tight tolerances.

#ifndef NEUTRAJ_NN_MATRIX_H_
#define NEUTRAJ_NN_MATRIX_H_

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/check.h"

namespace neutraj::nn {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  double& operator()(size_t r, size_t c) {
    NEUTRAJ_DCHECK_MSG(r < rows_ && c < cols_, "Matrix index out of bounds");
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    NEUTRAJ_DCHECK_MSG(r < rows_ && c < cols_, "Matrix index out of bounds");
    return data_[r * cols_ + c];
  }

  double* Row(size_t r) {
    NEUTRAJ_DCHECK_MSG(r < rows_, "Matrix row out of bounds");
    return data_.data() + r * cols_;
  }
  const double* Row(size_t r) const {
    NEUTRAJ_DCHECK_MSG(r < rows_, "Matrix row out of bounds");
    return data_.data() + r * cols_;
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  const std::vector<double>& values() const { return data_; }
  std::vector<double>& values() { return data_; }

  /// Sets every entry to zero.
  void Zero();

  /// Frobenius norm squared.
  double SquaredNorm() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

// ---- Matrix-vector kernels ------------------------------------------------
// All kernels check shapes and throw std::invalid_argument on mismatch.

/// y = A * x.
void MatVec(const Matrix& a, const Vector& x, Vector* y);

/// y += A * x.
void MatVecAccum(const Matrix& a, const Vector& x, Vector* y);

/// y = A^T * x.
void MatTVec(const Matrix& a, const Vector& x, Vector* y);

/// y += A^T * x.
void MatTVecAccum(const Matrix& a, const Vector& x, Vector* y);

/// A += u * v^T (rank-1 update; used for weight gradients).
void AddOuterProduct(Matrix* a, const Vector& u, const Vector& v);

// ---- Vector kernels -------------------------------------------------------

/// y += x.
void AxpyInPlace(double alpha, const Vector& x, Vector* y);

/// out = a (elementwise*) b.
void Hadamard(const Vector& a, const Vector& b, Vector* out);

/// out += a (elementwise*) b.
void HadamardAccum(const Vector& a, const Vector& b, Vector* out);

/// Dot product.
double Dot(const Vector& a, const Vector& b);

/// Squared L2 norm.
double SquaredNorm(const Vector& v);

/// Euclidean (L2) norm.
double L2Norm(const Vector& v);

/// Euclidean distance between two equal-length vectors.
double L2Distance(const Vector& a, const Vector& b);

/// In-place numerically-stable softmax: exp(v_i − max v) through ExpInto,
/// normalized by their left-to-right sum. A −inf entry gets weight 0.
void SoftmaxInPlace(Vector* v);

/// out[i] = exp(x[i]) for i < n, the one exp of the nn activations (see
/// nn/kernels.h for its reduction and range); `out` may equal `x`.
void ExpInto(const double* x, size_t n, double* out);

/// Elementwise sigmoid 1 / (1 + exp(−x)) and tanh 1 − 2 / (exp(2x) + 1)
/// over n entries through ExpInto; `out` may equal `x`.
void SigmoidInto(const double* x, size_t n, double* out);
void TanhInto(const double* x, size_t n, double* out);

/// The same, resizing `out` to x.size().
void SigmoidInto(const Vector& x, Vector* out);
void TanhInto(const Vector& x, Vector* out);

}  // namespace neutraj::nn

#endif  // NEUTRAJ_NN_MATRIX_H_
