// The AVX2 forms of the dispatched nn kernels (nn/kernels.h), isolated in
// their own translation unit so the build compiles exactly this file with
// -mavx2 (and -ffp-contract=off, never -mfma; see src/CMakeLists.txt) while
// the rest of the tree keeps the baseline ISA. Dispatch in nn/matrix.cc
// reaches these only when Avx2Active() (common/simd_dispatch.h), so a binary
// built here runs correctly on a CPU without AVX2.
//
// Every function repeats its portable twin's operations in the same order,
// one lane per element (or per row), so the two agree bit for bit. The file
// calls no inline library code: a template instantiated here with -mavx2
// could be the copy the linker keeps for the whole program.
//
// Without AVX2 support in the toolchain, the #else branch keeps the symbols
// defined by forwarding to the portable forms.

#include "nn/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace neutraj::nn::internal {

namespace {

/// ExpPortable's Exp on four lanes.
__m256d Exp4(__m256d in) {
  const __m256d lo = _mm256_set1_pd(kExpMin);
  const __m256d magic = _mm256_set1_pd(kRoundMagic);
  __m256d x = _mm256_max_pd(lo, in);
  x = _mm256_min_pd(_mm256_set1_pd(kExpMax), x);
  const __m256d t =
      _mm256_add_pd(_mm256_mul_pd(x, _mm256_set1_pd(kLog2e)), magic);
  const __m256d k = _mm256_sub_pd(t, magic);
  const __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(x, _mm256_mul_pd(k, _mm256_set1_pd(kLn2Hi))),
      _mm256_mul_pd(k, _mm256_set1_pd(kLn2Lo)));
  __m256d p = _mm256_set1_pd(kExpPoly[kExpDegree]);
  for (size_t i = kExpDegree; i-- > 0;) {
    p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(kExpPoly[i]));
  }
  const __m256i k_bits = _mm256_sub_epi64(_mm256_castpd_si256(t),
                                          _mm256_castpd_si256(magic));
  const __m256d scale = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(k_bits, _mm256_set1_epi64x(1023)), 52));
  const __m256d underflow = _mm256_cmp_pd(in, lo, _CMP_LT_OQ);
  return _mm256_andnot_pd(underflow, _mm256_mul_pd(p, scale));
}

/// Four rows of MatVecAccum with at least four columns: one vector of
/// lanes per row, the tail columns blended into lane 0, then each row's
/// (l0 + l1) + (l2 + l3) gathered into one vector by hadd and two
/// cross-lane permutes.
void MatVecAccum4Rows(const double* a, size_t cols, const double* x,
                      double* y) {
  const double* r0 = a;
  const double* r1 = r0 + cols;
  const double* r2 = r1 + cols;
  const double* r3 = r2 + cols;
  __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
  __m256d s2 = _mm256_setzero_pd(), s3 = _mm256_setzero_pd();
  size_t c = 0;
  for (; c + 4 <= cols; c += 4) {
    const __m256d xc = _mm256_loadu_pd(x + c);
    s0 = _mm256_add_pd(s0, _mm256_mul_pd(_mm256_loadu_pd(r0 + c), xc));
    s1 = _mm256_add_pd(s1, _mm256_mul_pd(_mm256_loadu_pd(r1 + c), xc));
    s2 = _mm256_add_pd(s2, _mm256_mul_pd(_mm256_loadu_pd(r2 + c), xc));
    s3 = _mm256_add_pd(s3, _mm256_mul_pd(_mm256_loadu_pd(r3 + c), xc));
  }
  for (; c < cols; ++c) {
    s0 = _mm256_blend_pd(s0, _mm256_add_pd(s0, _mm256_set1_pd(r0[c] * x[c])), 1);
    s1 = _mm256_blend_pd(s1, _mm256_add_pd(s1, _mm256_set1_pd(r1[c] * x[c])), 1);
    s2 = _mm256_blend_pd(s2, _mm256_add_pd(s2, _mm256_set1_pd(r2[c] * x[c])), 1);
    s3 = _mm256_blend_pd(s3, _mm256_add_pd(s3, _mm256_set1_pd(r3[c] * x[c])), 1);
  }
  // h01 = (s0 l0+l1, s1 l0+l1, s0 l2+l3, s1 l2+l3), h23 likewise.
  const __m256d h01 = _mm256_hadd_pd(s0, s1);
  const __m256d h23 = _mm256_hadd_pd(s2, s3);
  const __m256d low = _mm256_permute2f128_pd(h01, h23, 0x20);
  const __m256d high = _mm256_permute2f128_pd(h01, h23, 0x31);
  _mm256_storeu_pd(y, _mm256_add_pd(_mm256_loadu_pd(y),
                                    _mm256_add_pd(low, high)));
}

/// Four rows of MatVecAccum with fewer than four columns (the gates' 2-wide
/// input weights): every column is a tail column, so each row's lane 0 is
/// its sum and lanes 1-3 stay +0; one vector holds the four rows' lane 0s.
void MatVecAccum4RowsNarrow(const double* a, size_t cols, const double* x,
                            double* y) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d s = zero;
  for (size_t c = 0; c < cols; ++c) {
    const __m256d column = _mm256_set_pd(a[3 * cols + c], a[2 * cols + c],
                                         a[cols + c], a[c]);
    s = _mm256_add_pd(s, _mm256_mul_pd(column, _mm256_set1_pd(x[c])));
  }
  // (l0 + l1) + (l2 + l3) with l1 = l2 = l3 = +0.
  s = _mm256_add_pd(_mm256_add_pd(s, zero), _mm256_add_pd(zero, zero));
  _mm256_storeu_pd(y, _mm256_add_pd(_mm256_loadu_pd(y), s));
}

/// MatTVecAccum over the N vectors of columns starting at c0, which stay in
/// registers while every row adds into them, in the portable loop's order:
/// the 4-row blocks (skipped when their four x entries are zero), then the
/// remaining rows one by one.
template <size_t N>
void MatTVecColumns(const double* a, size_t rows, size_t cols,
                    const double* x, double* y, size_t c0) {
  __m256d acc[N];
  for (size_t j = 0; j < N; ++j) acc[j] = _mm256_loadu_pd(y + c0 + 4 * j);
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double x0 = x[r], x1 = x[r + 1], x2 = x[r + 2], x3 = x[r + 3];
    if (x0 == 0.0 && x1 == 0.0 && x2 == 0.0 && x3 == 0.0) continue;
    const double* r0 = a + r * cols + c0;
    const double* r1 = r0 + cols;
    const double* r2 = r1 + cols;
    const double* r3 = r2 + cols;
    const __m256d v0 = _mm256_set1_pd(x0), v1 = _mm256_set1_pd(x1);
    const __m256d v2 = _mm256_set1_pd(x2), v3 = _mm256_set1_pd(x3);
    for (size_t j = 0; j < N; ++j) {
      const size_t c = 4 * j;
      acc[j] = _mm256_add_pd(
          acc[j],
          _mm256_add_pd(
              _mm256_add_pd(_mm256_mul_pd(v0, _mm256_loadu_pd(r0 + c)),
                            _mm256_mul_pd(v1, _mm256_loadu_pd(r1 + c))),
              _mm256_add_pd(_mm256_mul_pd(v2, _mm256_loadu_pd(r2 + c)),
                            _mm256_mul_pd(v3, _mm256_loadu_pd(r3 + c)))));
    }
  }
  for (; r < rows; ++r) {
    if (x[r] == 0.0) continue;
    const double* row = a + r * cols + c0;
    const __m256d v = _mm256_set1_pd(x[r]);
    for (size_t j = 0; j < N; ++j) {
      acc[j] = _mm256_add_pd(acc[j],
                             _mm256_mul_pd(_mm256_loadu_pd(row + 4 * j), v));
    }
  }
  for (size_t j = 0; j < N; ++j) _mm256_storeu_pd(y + c0 + 4 * j, acc[j]);
}

}  // namespace

void MatVecAccumAvx2(const double* a, size_t rows, size_t cols,
                     const double* x, double* y) {
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    if (cols >= 4) {
      MatVecAccum4Rows(a + r * cols, cols, x, y + r);
    } else {
      MatVecAccum4RowsNarrow(a + r * cols, cols, x, y + r);
    }
  }
  if (r < rows) MatVecAccumPortable(a + r * cols, rows - r, cols, x, y + r);
}

void MatTVecAccumAvx2(const double* a, size_t rows, size_t cols,
                      const double* x, double* y) {
  const size_t whole = cols / 4 * 4;
  size_t c0 = 0;
  for (; c0 + 16 <= whole; c0 += 16) MatTVecColumns<4>(a, rows, cols, x, y, c0);
  switch ((whole - c0) / 4) {
    case 3:
      MatTVecColumns<3>(a, rows, cols, x, y, c0);
      break;
    case 2:
      MatTVecColumns<2>(a, rows, cols, x, y, c0);
      break;
    case 1:
      MatTVecColumns<1>(a, rows, cols, x, y, c0);
      break;
    default:
      break;
  }
  if (whole == cols) return;
  // The tail columns, in the same order.
  for (size_t r = 0; r + 4 <= rows; r += 4) {
    const double x0 = x[r], x1 = x[r + 1], x2 = x[r + 2], x3 = x[r + 3];
    if (x0 == 0.0 && x1 == 0.0 && x2 == 0.0 && x3 == 0.0) continue;
    const double* r0 = a + r * cols;
    const double* r1 = r0 + cols;
    const double* r2 = r1 + cols;
    const double* r3 = r2 + cols;
    for (size_t c = whole; c < cols; ++c) {
      y[c] += (x0 * r0[c] + x1 * r1[c]) + (x2 * r2[c] + x3 * r3[c]);
    }
  }
  for (size_t r = rows / 4 * 4; r < rows; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    const double* row = a + r * cols;
    for (size_t c = whole; c < cols; ++c) y[c] += row[c] * xr;
  }
}

void ExpAvx2(const double* x, size_t n, double* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, Exp4(_mm256_loadu_pd(x + i)));
  }
  if (i < n) ExpPortable(x + i, n - i, out + i);
}

void SigmoidAvx2(const double* x, size_t n, double* out) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sign = _mm256_set1_pd(-0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d e = Exp4(_mm256_xor_pd(_mm256_loadu_pd(x + i), sign));
    _mm256_storeu_pd(out + i, _mm256_div_pd(one, _mm256_add_pd(one, e)));
  }
  if (i < n) SigmoidPortable(x + i, n - i, out + i);
}

void TanhAvx2(const double* x, size_t n, double* out) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    const __m256d e = Exp4(_mm256_add_pd(v, v));
    _mm256_storeu_pd(
        out + i,
        _mm256_sub_pd(one, _mm256_div_pd(two, _mm256_add_pd(e, one))));
  }
  if (i < n) TanhPortable(x + i, n - i, out + i);
}

}  // namespace neutraj::nn::internal

#else  // !__AVX2__

namespace neutraj::nn::internal {

// Unreachable through dispatch (Avx2Available() is false); kept defined so
// the symbols exist on every platform.
void MatVecAccumAvx2(const double* a, size_t rows, size_t cols,
                     const double* x, double* y) {
  MatVecAccumPortable(a, rows, cols, x, y);
}
void MatTVecAccumAvx2(const double* a, size_t rows, size_t cols,
                      const double* x, double* y) {
  MatTVecAccumPortable(a, rows, cols, x, y);
}
void ExpAvx2(const double* x, size_t n, double* out) {
  ExpPortable(x, n, out);
}
void SigmoidAvx2(const double* x, size_t n, double* out) {
  SigmoidPortable(x, n, out);
}
void TanhAvx2(const double* x, size_t n, double* out) {
  TanhPortable(x, n, out);
}

}  // namespace neutraj::nn::internal

#endif  // __AVX2__
