// The AVX2 form of the block kernel, isolated in its own translation unit so
// the build can compile exactly this file with -mavx2 (see src/CMakeLists)
// while the rest of the tree keeps the baseline ISA. Callers never reach
// the Avx2 entry point directly — dispatch in kernels.cc checks Avx2Active()
// (common/simd_dispatch.h: compiled-in AND cpuid) first, so a binary built
// here runs correctly on a CPU without AVX2.
//
// When the toolchain cannot target AVX2 at all (non-x86, or a compiler
// without -mavx2), the #else branch keeps the symbol defined: the Avx2
// entry point degrades to the portable kernel, which dispatch never selects
// anyway.

#include "retrieval/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace neutraj::retrieval::internal {

namespace {

/// Adds the block's sums over pairs [begin, end) to the i64 lanes `lo`
/// (rows 0-3) and `hi` (rows 4-7), in i32 runs of at most kBlockRunPairs
/// pairs. Per pair: the 16 codes widen to int16 (row r's two codes in
/// lanes 2r and 2r + 1), the query's pair is subtracted, and
/// madd(diff, w · diff) leaves row r's w_0 · diff_0² + w_1 · diff_1² in i32
/// lane r.
void AccumulateBlock(const int8_t* block, const int32_t* q_pairs,
                     const int32_t* w_pairs, size_t begin, size_t end,
                     __m256i* lo, __m256i* hi) {
  while (begin < end) {
    const size_t run_end = std::min(end, begin + kBlockRunPairs);
    __m256i acc = _mm256_setzero_si256();
    for (size_t p = begin; p < run_end; ++p) {
      const __m256i codes = _mm256_cvtepi8_epi16(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(block + p * 2 * kCodeBlockRows)));
      const __m256i diff =
          _mm256_sub_epi16(codes, _mm256_set1_epi32(q_pairs[p]));
      const __m256i weighted =
          _mm256_mullo_epi16(diff, _mm256_set1_epi32(w_pairs[p]));
      acc = _mm256_add_epi32(acc, _mm256_madd_epi16(diff, weighted));
    }
    *lo = _mm256_add_epi64(
        *lo, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc)));
    *hi = _mm256_add_epi64(
        *hi, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc, 1)));
    begin = run_end;
  }
}

/// True when all eight lanes exceed `limit`.
bool AllExceed(__m256i lo, __m256i hi, __m256i limit) {
  const __m256i gt = _mm256_and_si256(_mm256_cmpgt_epi64(lo, limit),
                                      _mm256_cmpgt_epi64(hi, limit));
  return _mm256_movemask_epi8(gt) == -1;
}

}  // namespace

bool BlockCodeSquaredL2Avx2(const int8_t* block, const int32_t* q_pairs,
                            const int32_t* w_pairs, size_t pairs,
                            int64_t limit, int64_t* sums) {
  const __m256i lim = _mm256_set1_epi64x(limit);
  __m256i lo = _mm256_setzero_si256();
  __m256i hi = _mm256_setzero_si256();
  const size_t half = pairs / 2;
  AccumulateBlock(block, q_pairs, w_pairs, 0, half, &lo, &hi);
  if (half > 0 && AllExceed(lo, hi, lim)) return false;
  AccumulateBlock(block, q_pairs, w_pairs, half, pairs, &lo, &hi);
  if (AllExceed(lo, hi, lim)) return false;
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(sums), lo);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(sums + 4), hi);
  return true;
}

}  // namespace neutraj::retrieval::internal

#else  // !__AVX2__

namespace neutraj::retrieval::internal {

bool BlockCodeSquaredL2Avx2(const int8_t* block, const int32_t* q_pairs,
                            const int32_t* w_pairs, size_t pairs,
                            int64_t limit, int64_t* sums) {
  // Unreachable through dispatch (Avx2Available() is false); kept
  // defined so the symbol exists on every platform.
  return BlockCodeSquaredL2Portable(block, q_pairs, w_pairs, pairs, limit,
                                    sums);
}

}  // namespace neutraj::retrieval::internal

#endif  // __AVX2__
