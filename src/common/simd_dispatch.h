// The one runtime SIMD decision of the process.
//
// Two kernel families have an AVX2 form beside their portable one: the
// dense nn kernels (nn/kernels_avx2.cc: MatVecAccum, MatTVecAccum and the
// exp behind sigmoid, tanh and softmax) and the int8 bound kernel
// (retrieval/kernels_avx2.cc). Each AVX2 translation unit is compiled with
// -mavx2 whenever the toolchain supports the flag on x86, so CI builds and
// tests it on any x86 runner; which form runs is decided here, once, from
// cpuid — and one override pins both families, so a forced-kernel test or
// bench measures one consistent configuration.
//
// Every dispatched kernel's two forms produce identical bits (the nn
// kernels by using the same operations in the same order, the int8 one by
// being integer-only), so the decision changes speed only.

#ifndef NEUTRAJ_COMMON_SIMD_DISPATCH_H_
#define NEUTRAJ_COMMON_SIMD_DISPATCH_H_

#include <atomic>

namespace neutraj {

/// Kernel selection. kAuto (the startup state) dispatches on cpuid;
/// kPortable / kAvx2 pin one form of every dispatched kernel.
enum class SimdKernel { kAuto, kPortable, kAvx2 };

/// True when the AVX2 translation units were compiled with AVX2 enabled and
/// the running CPU supports it (cpuid) — what kAuto selects.
bool Avx2Available();

/// Overrides the dispatch of every kernel family. Throws std::runtime_error
/// for kAvx2 when !Avx2Available(). Not thread-safe against kernels running
/// concurrently — a test/bench knob, not a serving one.
void SetSimdKernel(SimdKernel choice);

namespace internal {

/// -1 until first use, then 0 (portable) or 1 (AVX2). Resolved lazily (not
/// at static init) so SetSimdKernel in a test harness and the cpuid probe
/// cannot race static construction order.
extern std::atomic<int> g_simd_avx2;

/// Resolves g_simd_avx2 from cpuid and returns it.
bool ResolveSimdKernel();

}  // namespace internal

/// Whether the dispatched kernels run their AVX2 forms: one relaxed load on
/// the hot path.
inline bool Avx2Active() {
  const int state = internal::g_simd_avx2.load(std::memory_order_relaxed);
  return state < 0 ? internal::ResolveSimdKernel() : state != 0;
}

}  // namespace neutraj

#endif  // NEUTRAJ_COMMON_SIMD_DISPATCH_H_
