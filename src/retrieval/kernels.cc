#include "retrieval/kernels.h"

#include <atomic>
#include <stdexcept>

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

namespace internal {

int64_t WeightedCodeSquaredL2Portable(const int8_t* a, const int8_t* b,
                                      const int32_t* w, size_t dim) {
  // 4-way unrolled so the compiler's auto-vectorizer has independent
  // accumulation chains; every product is exact integer math, so the
  // unroll cannot change the result.
  int64_t acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
  size_t d = 0;
  for (; d + 4 <= dim; d += 4) {
    const int32_t d0 = static_cast<int32_t>(a[d]) - b[d];
    const int32_t d1 = static_cast<int32_t>(a[d + 1]) - b[d + 1];
    const int32_t d2 = static_cast<int32_t>(a[d + 2]) - b[d + 2];
    const int32_t d3 = static_cast<int32_t>(a[d + 3]) - b[d + 3];
    acc0 += w[d] * (d0 * d0);
    acc1 += w[d + 1] * (d1 * d1);
    acc2 += w[d + 2] * (d2 * d2);
    acc3 += w[d + 3] * (d3 * d3);
  }
  int64_t acc = acc0 + acc1 + acc2 + acc3;
  for (; d < dim; ++d) {
    const int32_t diff = static_cast<int32_t>(a[d]) - b[d];
    acc += w[d] * (diff * diff);
  }
  return acc;
}

bool QuantizedAvx2Available() {
#if defined(__x86_64__) || defined(__i386__)
  return QuantizedAvx2CompiledIn() && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace internal

namespace {

using WeightedFn = int64_t (*)(const int8_t*, const int8_t*, const int32_t*,
                               size_t);

/// The dispatch slot. Null until first use; resolved lazily (not at static
/// init) so SetQuantizedKernel in a test harness and the cpuid probe
/// cannot race static construction order.
std::atomic<WeightedFn> g_weighted{nullptr};

WeightedFn ResolveAuto() {
  return internal::QuantizedAvx2Available()
             ? &internal::WeightedCodeSquaredL2Avx2
             : &internal::WeightedCodeSquaredL2Portable;
}

WeightedFn ActiveWeighted() {
  WeightedFn fn = g_weighted.load(std::memory_order_relaxed);
  if (fn == nullptr) {
    fn = ResolveAuto();
    g_weighted.store(fn, std::memory_order_relaxed);
  }
  return fn;
}

}  // namespace

void SetQuantizedKernel(QuantizedKernel choice) {
  switch (choice) {
    case QuantizedKernel::kAuto:
      g_weighted.store(ResolveAuto(), std::memory_order_relaxed);
      return;
    case QuantizedKernel::kPortable:
      g_weighted.store(&internal::WeightedCodeSquaredL2Portable,
                       std::memory_order_relaxed);
      return;
    case QuantizedKernel::kAvx2:
      if (!internal::QuantizedAvx2Available()) {
        throw std::runtime_error(
            "SetQuantizedKernel: AVX2 kernel unavailable on this machine");
      }
      g_weighted.store(&internal::WeightedCodeSquaredL2Avx2,
                       std::memory_order_relaxed);
      return;
  }
}

int64_t WeightedCodeSquaredL2(const int8_t* a, const int8_t* b,
                              const int32_t* w, size_t dim) {
  return ActiveWeighted()(a, b, w, dim);
}

int64_t CodeSquaredL2(const int8_t* a, const int8_t* b, size_t dim) {
  int64_t acc = 0;
  for (size_t d = 0; d < dim; ++d) {
    const int32_t diff = static_cast<int32_t>(a[d]) - b[d];
    acc += diff * diff;
  }
  return acc;
}

const char* QuantizedKernelName() {
  return ActiveWeighted() == &internal::WeightedCodeSquaredL2Avx2 ? "avx2"
                                                                  : "portable";
}

}  // namespace neutraj::retrieval
