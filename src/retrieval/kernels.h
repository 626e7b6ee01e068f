// Distance kernels of the retrieval subsystem — the ONLY sanctioned site
// for distance loops inside src/retrieval/ (tools/lint.sh rule 8).
//
// Two tiers share this header so every caller is explicit about which
// accuracy it is buying:
//
//   - Exact kernel (double): bit-identical to the core scan path
//     (nn::L2Distance), used by k-means training, centroid assignment and
//     every distance a TopK returns. ExactSquaredL2 is the monotone form
//     (no sqrt); its sqrt is bit-identical to nn::L2Distance.
//
//   - One int8 kernel, BlockCodeSquaredL2: the lower-bound pass of every
//     TopK (retrieval/quantized.h) over 8 rows of codes at a time, with the
//     bound's integer weights. It is integer-only — subtract, weight,
//     multiply-add into i32 runs summed in i64 — so its sums, and the
//     blocks it lets through, are bit-identical between the AVX2 and
//     portable implementations. The AVX2 path is RUNTIME-dispatched: its
//     translation unit (kernels_avx2.cc) is compiled with -mavx2 whenever
//     the toolchain supports the flag on x86, and engages only when the
//     process-wide decision of common/simd_dispatch.h selects AVX2.

#ifndef NEUTRAJ_RETRIEVAL_KERNELS_H_
#define NEUTRAJ_RETRIEVAL_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace neutraj::retrieval {

/// Σ (a_d - b_d)² in double precision. Same FP operation order as
/// nn::L2Distance minus the final sqrt, so sqrt(ExactSquaredL2(a, b, d))
/// is bit-identical to the core scan's distance.
double ExactSquaredL2(const double* a, const double* b, size_t dim);

/// The int8 quantizer's encode of one row (retrieval/quantized.h):
/// code_d = lround(clamp(v_d / s_d, −127, 127)) for each d < dim. Returns
/// the squared reconstruction error Σ_d (v_d − s_d · code_d)², which a
/// bound rounds up (RoundedUpSqrt) before it subtracts it.
double QuantizeRow(const double* v, const double* scales, size_t dim,
                   int8_t* code);

/// sqrt(squared) rounded up past what a double sum of squares and its sqrt
/// can lose (relatively 2^-30, far above their few ulps): a distance that
/// a lower bound subtracts, such as a quantizer's reconstruction error.
double RoundedUpSqrt(double squared);

/// Rows per block of the code layout (retrieval/quantized.h CodeBlocks).
inline constexpr size_t kCodeBlockRows = 8;

/// The block layout: dimensions go in pairs (2p, 2p + 1), the last one
/// padded with a zero code when dim is odd, and each pair holds its 8 rows'
/// two codes side by side. Row r's code for dimension d sits at
/// BlockCodeOffset(r, d); a block takes BlockBytes(dim) bytes.
inline size_t BlockCodeOffset(size_t r, size_t d) {
  return (d / 2) * 2 * kCodeBlockRows + 2 * r + d % 2;
}
inline size_t BlockBytes(size_t dim) {
  return (dim + 1) / 2 * 2 * kCodeBlockRows;
}

/// Packs per-dimension values into the int16 pairs BlockCodeSquaredL2
/// reads: entry p holds v[2p] in its low 16 bits and v[2p + 1] (0 past
/// dim) in its high 16 bits. Values must fit int16.
template <typename T>
std::vector<int32_t> PackDimensionPairs(const T* v, size_t dim) {
  std::vector<int32_t> pairs((dim + 1) / 2);
  for (size_t d = 0; d < dim; ++d) {
    const uint32_t bits = static_cast<uint16_t>(static_cast<int16_t>(v[d]));
    pairs[d / 2] = static_cast<int32_t>(static_cast<uint32_t>(pairs[d / 2]) |
                                        bits << (16 * (d % 2)));
  }
  return pairs;
}

/// A TopK's int8 pass over one block in the layout above:
/// sums[r] = Σ_d w_d · (a_rd − q_d)², with the query's codes q and the
/// weights w packed by PackDimensionPairs over `pairs` = ceil(dim / 2)
/// entries. Codes lie in [−127, 127] and weights in [0, 128], so
/// w_d · (a_rd − q_d) fits int16 and the AVX2 form needs one int16 multiply
/// and one multiply-add per pair of dimensions for all 8 rows. The sum runs
/// in i32 over at most 128 pairs at a time (256 · 128 · 254² < 2³¹) and in
/// i64 across them, so it is exact at any dim, and the portable and AVX2
/// forms agree bit for bit.
///
/// A partial sum is a lower bound of the full one, so the kernel tests the
/// block twice against `limit`: after the first pairs / 2 pairs and at the
/// end. When every row's sum exceeds `limit` at either test it returns
/// false (and `sums` is unspecified); otherwise it returns true with the
/// full sums in `sums`.
bool BlockCodeSquaredL2(const int8_t* block, const int32_t* q_pairs,
                        const int32_t* w_pairs, size_t pairs, int64_t limit,
                        int64_t* sums);

/// Name of the active quantized-kernel implementation ("avx2" or
/// "portable") — surfaced in benchmarks so results name their kernel.
/// Reflects the process-wide dispatch decision (common/simd_dispatch.h:
/// cpuid, or a SetSimdKernel override).
const char* QuantizedKernelName();

namespace internal {

/// The two forms of BlockCodeSquaredL2. The portable one is always
/// available and is the bit-identity baseline; call the AVX2 one
/// (kernels_avx2.cc, compiled with -mavx2) only when Avx2Available(): on
/// builds without the AVX2 TU it falls back to the portable kernel.
bool BlockCodeSquaredL2Portable(const int8_t* block, const int32_t* q_pairs,
                                const int32_t* w_pairs, size_t pairs,
                                int64_t limit, int64_t* sums);
bool BlockCodeSquaredL2Avx2(const int8_t* block, const int32_t* q_pairs,
                            const int32_t* w_pairs, size_t pairs,
                            int64_t limit, int64_t* sums);

/// Most dimension pairs one i32 run of BlockCodeSquaredL2 may cover.
inline constexpr size_t kBlockRunPairs = 128;

}  // namespace internal

}  // namespace neutraj::retrieval

#endif  // NEUTRAJ_RETRIEVAL_KERNELS_H_
