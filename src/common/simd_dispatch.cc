#include "common/simd_dispatch.h"

#include <stdexcept>

namespace neutraj {

namespace internal {

std::atomic<int> g_simd_avx2{-1};

bool ResolveSimdKernel() {
  const bool avx2 = Avx2Available();
  g_simd_avx2.store(avx2 ? 1 : 0, std::memory_order_relaxed);
  return avx2;
}

}  // namespace internal

bool Avx2Available() {
  // NEUTRAJ_AVX2_KERNELS is defined by src/CMakeLists.txt under the same
  // condition that adds -mavx2 to the AVX2 translation units.
#if defined(NEUTRAJ_AVX2_KERNELS) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

void SetSimdKernel(SimdKernel choice) {
  switch (choice) {
    case SimdKernel::kAuto:
      internal::ResolveSimdKernel();
      return;
    case SimdKernel::kPortable:
      internal::g_simd_avx2.store(0, std::memory_order_relaxed);
      return;
    case SimdKernel::kAvx2:
      if (!Avx2Available()) {
        throw std::runtime_error(
            "SetSimdKernel: AVX2 kernels unavailable on this machine");
      }
      internal::g_simd_avx2.store(1, std::memory_order_relaxed);
      return;
  }
}

}  // namespace neutraj
