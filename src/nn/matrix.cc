#include "nn/matrix.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/simd_dispatch.h"
#include "nn/kernels.h"

namespace neutraj::nn {

namespace {

void CheckDim(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("nn shape mismatch: ") + what);
}

}  // namespace

void Matrix::Zero() { std::fill(data_.begin(), data_.end(), 0.0); }

double Matrix::SquaredNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

void MatVec(const Matrix& a, const Vector& x, Vector* y) {
  CheckDim(a.cols() == x.size(), "MatVec x");
  y->assign(a.rows(), 0.0);
  MatVecAccum(a, x, y);
}

void MatVecAccum(const Matrix& a, const Vector& x, Vector* y) {
  CheckDim(a.cols() == x.size() && a.rows() == y->size(), "MatVecAccum");
  (Avx2Active() ? internal::MatVecAccumAvx2 : internal::MatVecAccumPortable)(
      a.data(), a.rows(), a.cols(), x.data(), y->data());
  NEUTRAJ_DCHECK_FINITE(*y);
}

void MatTVec(const Matrix& a, const Vector& x, Vector* y) {
  CheckDim(a.rows() == x.size(), "MatTVec x");
  y->assign(a.cols(), 0.0);
  MatTVecAccum(a, x, y);
}

void MatTVecAccum(const Matrix& a, const Vector& x, Vector* y) {
  CheckDim(a.rows() == x.size() && a.cols() == y->size(), "MatTVecAccum");
  (Avx2Active() ? internal::MatTVecAccumAvx2 : internal::MatTVecAccumPortable)(
      a.data(), a.rows(), a.cols(), x.data(), y->data());
  NEUTRAJ_DCHECK_FINITE(*y);
}

void AddOuterProduct(Matrix* a, const Vector& u, const Vector& v) {
  CheckDim(a->rows() == u.size() && a->cols() == v.size(), "AddOuterProduct");
  const size_t rows = u.size();
  const size_t cols = v.size();
  const double* vp = v.data();
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double u0 = u[r], u1 = u[r + 1], u2 = u[r + 2], u3 = u[r + 3];
    if (u0 == 0.0 && u1 == 0.0 && u2 == 0.0 && u3 == 0.0) continue;
    double* r0 = a->Row(r);
    double* r1 = a->Row(r + 1);
    double* r2 = a->Row(r + 2);
    double* r3 = a->Row(r + 3);
    for (size_t c = 0; c < cols; ++c) {
      const double vc = vp[c];
      r0[c] += u0 * vc;
      r1[c] += u1 * vc;
      r2[c] += u2 * vc;
      r3[c] += u3 * vc;
    }
  }
  for (; r < rows; ++r) {
    const double ur = u[r];
    if (ur == 0.0) continue;
    double* row = a->Row(r);
    for (size_t c = 0; c < cols; ++c) row[c] += ur * vp[c];
  }
}

void AxpyInPlace(double alpha, const Vector& x, Vector* y) {
  CheckDim(x.size() == y->size(), "AxpyInPlace");
  for (size_t i = 0; i < x.size(); ++i) (*y)[i] += alpha * x[i];
}

void Hadamard(const Vector& a, const Vector& b, Vector* out) {
  CheckDim(a.size() == b.size(), "Hadamard");
  out->resize(a.size());
  for (size_t i = 0; i < a.size(); ++i) (*out)[i] = a[i] * b[i];
}

void HadamardAccum(const Vector& a, const Vector& b, Vector* out) {
  CheckDim(a.size() == b.size() && a.size() == out->size(), "HadamardAccum");
  for (size_t i = 0; i < a.size(); ++i) (*out)[i] += a[i] * b[i];
}

double Dot(const Vector& a, const Vector& b) {
  CheckDim(a.size() == b.size(), "Dot");
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double SquaredNorm(const Vector& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return s;
}

double L2Norm(const Vector& v) { return std::sqrt(SquaredNorm(v)); }

double L2Distance(const Vector& a, const Vector& b) {
  CheckDim(a.size() == b.size(), "L2Distance");
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

void SoftmaxInPlace(Vector* v) {
  if (v->empty()) return;
  const double m = *std::max_element(v->begin(), v->end());
  for (double& x : *v) x -= m;
  ExpInto(v->data(), v->size(), v->data());
  double total = 0.0;
  for (const double x : *v) total += x;
  NEUTRAJ_DCHECK_MSG(check_internal::FiniteChecksSuspended() ||
                         (total > 0.0 && std::isfinite(total)),
                     "softmax normalizer must be positive and finite");
  for (double& x : *v) x /= total;
  NEUTRAJ_DCHECK_FINITE(*v);
}

void ExpInto(const double* x, size_t n, double* out) {
  (Avx2Active() ? internal::ExpAvx2 : internal::ExpPortable)(x, n, out);
}

void SigmoidInto(const double* x, size_t n, double* out) {
  (Avx2Active() ? internal::SigmoidAvx2 : internal::SigmoidPortable)(x, n, out);
}

void TanhInto(const double* x, size_t n, double* out) {
  (Avx2Active() ? internal::TanhAvx2 : internal::TanhPortable)(x, n, out);
}

void SigmoidInto(const Vector& x, Vector* out) {
  out->resize(x.size());
  SigmoidInto(x.data(), x.size(), out->data());
}

void TanhInto(const Vector& x, Vector* out) {
  out->resize(x.size());
  TanhInto(x.data(), x.size(), out->data());
}

// ---- Portable forms of the dispatched kernels (see nn/kernels.h) -----------

namespace internal {

void MatVecAccumPortable(const double* a, size_t rows, size_t cols,
                         const double* x, double* y) {
  for (size_t r = 0; r < rows; ++r) {
    const double* row = a + r * cols;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      s0 += row[c] * x[c];
      s1 += row[c + 1] * x[c + 1];
      s2 += row[c + 2] * x[c + 2];
      s3 += row[c + 3] * x[c + 3];
    }
    for (; c < cols; ++c) s0 += row[c] * x[c];
    y[r] += (s0 + s1) + (s2 + s3);
  }
}

void MatTVecAccumPortable(const double* a, size_t rows, size_t cols,
                          const double* x, double* y) {
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double x0 = x[r], x1 = x[r + 1], x2 = x[r + 2], x3 = x[r + 3];
    if (x0 == 0.0 && x1 == 0.0 && x2 == 0.0 && x3 == 0.0) continue;
    const double* r0 = a + r * cols;
    const double* r1 = r0 + cols;
    const double* r2 = r1 + cols;
    const double* r3 = r2 + cols;
    for (size_t c = 0; c < cols; ++c) {
      y[c] += (x0 * r0[c] + x1 * r1[c]) + (x2 * r2[c] + x3 * r3[c]);
    }
  }
  for (; r < rows; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    const double* row = a + r * cols;
    for (size_t c = 0; c < cols; ++c) y[c] += row[c] * xr;
  }
}

namespace {

double Exp(double in) {
  // Clamps as _mm256_max_pd(lo, in) and _mm256_min_pd(hi, x) do: a NaN
  // input passes through both.
  double x = kExpMin > in ? kExpMin : in;
  x = kExpMax < x ? kExpMax : x;
  const double t = x * kLog2e + kRoundMagic;
  const double k = t - kRoundMagic;
  const double r = (x - k * kLn2Hi) - k * kLn2Lo;
  double p = kExpPoly[kExpDegree];
  for (size_t i = kExpDegree; i-- > 0;) p = p * r + kExpPoly[i];
  const uint64_t k_bits =
      std::bit_cast<uint64_t>(t) - std::bit_cast<uint64_t>(kRoundMagic);
  const double scale = std::bit_cast<double>((k_bits + 1023) << 52);
  return in < kExpMin ? 0.0 : p * scale;
}

}  // namespace

void ExpPortable(const double* x, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = Exp(x[i]);
}

void SigmoidPortable(const double* x, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = 1.0 / (1.0 + Exp(-x[i]));
}

void TanhPortable(const double* x, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = 1.0 - 2.0 / (Exp(x[i] + x[i]) + 1.0);
}

}  // namespace internal

}  // namespace neutraj::nn
