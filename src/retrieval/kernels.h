// Distance kernels of the retrieval subsystem — the ONLY sanctioned site
// for distance loops inside src/retrieval/ (tools/lint.sh rule 8).
//
// Two tiers share this header so every caller is explicit about which
// accuracy it is buying:
//
//   - Exact kernel (double): bit-identical to the core scan path
//     (nn::L2Distance), used by k-means training and centroid assignment.
//     ExactSquaredL2 is the monotone form (no sqrt) for argmin searches;
//     its sqrt is bit-identical to the distance the serving TopK returns.
//
//   - Quantized kernels (int8 codes): integer-only inner loops — subtract,
//     square, weighted i32 products accumulated into i64 — so the candidate
//     scan is cheap, SIMD-friendly and bit-identical between the vector and
//     portable fallback implementations: integer arithmetic has no
//     rounding, so kernel choice can never change which candidates survive
//     to the exact re-rank. The AVX2 path is RUNTIME-dispatched: its
//     translation unit (kernels_avx2.cc) is compiled with -mavx2 whenever
//     the toolchain supports the flag on x86, and engages only when cpuid
//     reports AVX2 — so CI builds and tests it on any x86 runner instead of
//     depending on a compile-time -mavx2 gate nobody sets.
//
// The weighted form implements per-dimension symmetric quantization scales
// (see quantized.h): with codes a_d = round(x_d / s_d) and integer weights
// w_d ∝ s_d², Σ w_d (a_d - b_d)² is proportional to the true squared L2 up
// to quantization error. Weights and codes are both integers, so the whole
// scan is exact integer arithmetic; the caller applies one float factor at
// the end to map the accumulator back to L2 units.

#ifndef NEUTRAJ_RETRIEVAL_KERNELS_H_
#define NEUTRAJ_RETRIEVAL_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace neutraj::retrieval {

/// Σ (a_d - b_d)² in double precision. Same FP operation order as
/// nn::L2Distance minus the final sqrt, so sqrt(ExactSquaredL2(a, b, d))
/// is bit-identical to the core scan's distance.
double ExactSquaredL2(const double* a, const double* b, size_t dim);

/// Σ w_d · (a_d - b_d)² over int8 codes with int32 weights, accumulated in
/// int64. Exact for any dim ≤ 2^31 / (254² · max_w) per partial block —
/// with w_d ≤ 256 a single (a-b)²·w product fits comfortably in i32 and
/// the i64 accumulator never overflows for any realistic dim. Deterministic
/// and identical across the portable and SIMD implementations.
int64_t WeightedCodeSquaredL2(const int8_t* a, const int8_t* b,
                              const int32_t* w, size_t dim);

/// Unweighted Σ (a_d - b_d)² over int8 codes (uniform-scale quantizers).
int64_t CodeSquaredL2(const int8_t* a, const int8_t* b, size_t dim);

/// Name of the active quantized-kernel implementation ("avx2" or
/// "portable") — surfaced in benchmarks so results name their kernel.
/// Reflects the runtime dispatch decision (cpuid) and any SetQuantizedKernel
/// override.
const char* QuantizedKernelName();

/// Quantized-kernel selection for tests and benches. kAuto (the startup
/// state) dispatches on cpuid; kPortable / kAvx2 pin one implementation so
/// the bit-identity test can run both on the same machine and a bench can
/// name which kernel it measured.
enum class QuantizedKernel { kAuto, kPortable, kAvx2 };

/// Overrides the dispatch. Throws std::runtime_error for kAvx2 when the
/// AVX2 kernel is unavailable (not compiled in, or cpuid says no). Not
/// thread-safe against concurrent scans — a test/bench knob, not a serving
/// one.
void SetQuantizedKernel(QuantizedKernel choice);

namespace internal {

/// Portable reference implementation — always available, the bit-identity
/// baseline.
int64_t WeightedCodeSquaredL2Portable(const int8_t* a, const int8_t* b,
                                      const int32_t* w, size_t dim);

/// AVX2 implementation (kernels_avx2.cc, compiled with -mavx2). Call only
/// when QuantizedAvx2Available(); on builds without the AVX2 TU it falls
/// back to the portable kernel.
int64_t WeightedCodeSquaredL2Avx2(const int8_t* a, const int8_t* b,
                                  const int32_t* w, size_t dim);

/// True when the AVX2 translation unit was compiled with AVX2 enabled
/// (irrespective of what the current CPU supports).
bool QuantizedAvx2CompiledIn();

/// True when the AVX2 kernel is both compiled in and supported by the
/// running CPU (cpuid) — the runtime dispatch predicate.
bool QuantizedAvx2Available();

}  // namespace internal

}  // namespace neutraj::retrieval

#endif  // NEUTRAJ_RETRIEVAL_KERNELS_H_
