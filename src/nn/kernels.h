// The two forms of the dispatched dense nn kernels: a portable one
// (nn/matrix.cc) and an AVX2 one (nn/kernels_avx2.cc, compiled with -mavx2
// and never with -mfma). nn/matrix.h's MatVecAccum, MatTVecAccum, ExpInto,
// SigmoidInto, TanhInto and SoftmaxInPlace pick one per call through the
// process-wide decision of common/simd_dispatch.h.
//
// The two forms of each kernel perform the same IEEE operations in the same
// order, so their results are identical bit for bit; both TUs are built
// with -ffp-contract=off, so a -march=native build cannot fuse a multiply
// and an add in one form and not in the other. The orders:
//
//   - MatVecAccum: each row is summed in four lanes, lane l taking the
//     columns c ≡ l (mod 4) of the whole 4-column chunks left to right; the
//     tail columns go to lane 0 in order; then y[r] += (l0 + l1) + (l2 + l3).
//     The AVX2 form runs four rows at once, one vector of lanes per row.
//   - MatTVecAccum: for each block of four rows (skipped when its four x
//     entries are zero), y[c] += (x0·a0c + x1·a1c) + (x2·a2c + x3·a3c); then
//     each remaining row with x_r ≠ 0 adds a_rc·x_r. Elementwise over c, so
//     vectorizing over columns, and keeping a run of columns of y in
//     registers across all rows, changes nothing.
//   - Exp: the input is clamped to [kExpMin, kExpMax] (NaN passes through);
//     k = nearest-even(x·log2e) by the 1.5·2^52 rounding trick; r = (x −
//     k·ln2_hi) − k·ln2_lo; p = the degree-13 Taylor polynomial of e^r by
//     Horner from the highest coefficient; the result is p·2^k with 2^k
//     built in the exponent bits, and 0 where the input was below kExpMin
//     (so exp(−inf) = 0, as a masked softmax logit needs). Within 2 ulp of
//     std::exp on [kExpMin, kExpMax]; above kExpMax it saturates at
//     exp(kExpMax) instead of overflowing.
//   - Sigmoid: 1 / (1 + exp(−x)). Tanh: 1 − 2 / (exp(x + x) + 1).
//
// Tails shorter than a vector, in either dimension, reuse the portable
// kernels or repeat their scalar expressions, so they match by construction.

#ifndef NEUTRAJ_NN_KERNELS_H_
#define NEUTRAJ_NN_KERNELS_H_

#include <cstddef>

namespace neutraj::nn::internal {

inline constexpr double kExpMin = -708.0;
inline constexpr double kExpMax = 709.0;
inline constexpr double kLog2e = 0x1.71547652b82fep0;
/// 1.5·2^52: adding it rounds a double of magnitude < 2^51 to an integer,
/// nearest-even, and leaves that integer in the low mantissa bits.
inline constexpr double kRoundMagic = 0x1.8p52;
/// ln 2 split so that k·kLn2Hi is exact for |k| < 2^21.
inline constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
/// 1/i! for i = 0..13: index i is the coefficient of r^i.
inline constexpr double kExpPoly[14] = {
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362880.0,
    1.0 / 3628800.0,
    1.0 / 39916800.0,
    1.0 / 479001600.0,
    1.0 / 6227020800.0,
};
inline constexpr size_t kExpDegree = 13;

/// y[r] += Σ_c a[r·cols + c] · x[c] for r < rows, in the order above.
void MatVecAccumPortable(const double* a, size_t rows, size_t cols,
                         const double* x, double* y);
void MatVecAccumAvx2(const double* a, size_t rows, size_t cols,
                     const double* x, double* y);

/// y[c] += Σ_r a[r·cols + c] · x[r] for c < cols, in the order above.
void MatTVecAccumPortable(const double* a, size_t rows, size_t cols,
                          const double* x, double* y);
void MatTVecAccumAvx2(const double* a, size_t rows, size_t cols,
                      const double* x, double* y);

/// out[i] = f(x[i]) for i < n; `out` may equal `x`.
void ExpPortable(const double* x, size_t n, double* out);
void ExpAvx2(const double* x, size_t n, double* out);
void SigmoidPortable(const double* x, size_t n, double* out);
void SigmoidAvx2(const double* x, size_t n, double* out);
void TanhPortable(const double* x, size_t n, double* out);
void TanhAvx2(const double* x, size_t n, double* out);

}  // namespace neutraj::nn::internal

#endif  // NEUTRAJ_NN_KERNELS_H_
