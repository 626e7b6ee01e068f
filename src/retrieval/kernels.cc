#include "retrieval/kernels.h"

#include <algorithm>
#include <cmath>

#include "common/simd_dispatch.h"

namespace neutraj::retrieval {

double ExactSquaredL2(const double* a, const double* b, size_t dim) {
  // Same accumulation order as nn::L2Distance: one left-to-right sum of
  // squared diffs. Do not "optimize" into blocked partial sums — the exact
  // tier's contract is bit-identity with the core scan.
  double acc = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double diff = a[d] - b[d];
    acc += diff * diff;
  }
  return acc;
}

double RoundedUpSqrt(double squared) {
  return std::sqrt(squared) * (1.0 + 0x1p-30);
}

namespace internal {

namespace {

/// The low (dimension 2p) or high (2p + 1) int16 half of a packed pair.
int32_t Low(int32_t pair) { return static_cast<int16_t>(pair & 0xffff); }
int32_t High(int32_t pair) {
  return static_cast<int16_t>(static_cast<uint32_t>(pair) >> 16);
}

/// Adds the block's sums over pairs [begin, end) to `sums`, in i32 runs of
/// at most kBlockRunPairs pairs.
void AccumulateBlock(const int8_t* block, const int32_t* q_pairs,
                     const int32_t* w_pairs, size_t begin, size_t end,
                     int64_t* sums) {
  while (begin < end) {
    const size_t run_end = std::min(end, begin + kBlockRunPairs);
    int32_t acc[kCodeBlockRows] = {};
    for (size_t p = begin; p < run_end; ++p) {
      const int8_t* codes = block + p * 2 * kCodeBlockRows;
      const int32_t q0 = Low(q_pairs[p]), q1 = High(q_pairs[p]);
      const int32_t w0 = Low(w_pairs[p]), w1 = High(w_pairs[p]);
      for (size_t r = 0; r < kCodeBlockRows; ++r) {
        const int32_t d0 = codes[2 * r] - q0;
        const int32_t d1 = codes[2 * r + 1] - q1;
        acc[r] += d0 * (w0 * d0) + d1 * (w1 * d1);
      }
    }
    for (size_t r = 0; r < kCodeBlockRows; ++r) sums[r] += acc[r];
    begin = run_end;
  }
}

bool AllExceed(const int64_t* sums, int64_t limit) {
  for (size_t r = 0; r < kCodeBlockRows; ++r) {
    if (sums[r] <= limit) return false;
  }
  return true;
}

}  // namespace

bool BlockCodeSquaredL2Portable(const int8_t* block, const int32_t* q_pairs,
                                const int32_t* w_pairs, size_t pairs,
                                int64_t limit, int64_t* sums) {
  std::fill(sums, sums + kCodeBlockRows, int64_t{0});
  const size_t half = pairs / 2;
  AccumulateBlock(block, q_pairs, w_pairs, 0, half, sums);
  if (half > 0 && AllExceed(sums, limit)) return false;
  AccumulateBlock(block, q_pairs, w_pairs, half, pairs, sums);
  return !AllExceed(sums, limit);
}

}  // namespace internal

double QuantizeRow(const double* v, const double* scales, size_t dim,
                   int8_t* code) {
  double sq = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    // std::lround without the library call or a branch: for a finite
    // value in [-127, 127], truncation and the fraction it drops are exact,
    // and truncating twice the fraction adds ±1 exactly when the fraction
    // is at least one half away from zero. The clamp's operand order sends
    // a NaN to -127, so the conversions below stay defined.
    const double scaled = std::min(127.0, std::max(-127.0, v[d] / scales[d]));
    const int whole = static_cast<int>(scaled);
    const double frac = scaled - static_cast<double>(whole);
    const int c = whole + static_cast<int>(frac + frac);
    code[d] = static_cast<int8_t>(c);
    const double diff = v[d] - scales[d] * static_cast<double>(c);
    sq += diff * diff;
  }
  return sq;
}

bool BlockCodeSquaredL2(const int8_t* block, const int32_t* q_pairs,
                        const int32_t* w_pairs, size_t pairs, int64_t limit,
                        int64_t* sums) {
  return Avx2Active() ? internal::BlockCodeSquaredL2Avx2(block, q_pairs, w_pairs,
                                                        pairs, limit, sums)
                      : internal::BlockCodeSquaredL2Portable(
                            block, q_pairs, w_pairs, pairs, limit, sums);
}

const char* QuantizedKernelName() {
  return Avx2Active() ? "avx2" : "portable";
}

}  // namespace neutraj::retrieval
