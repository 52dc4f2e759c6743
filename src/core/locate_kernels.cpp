#include "core/locate_kernels.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

namespace vire::core::detail {

namespace baseline {
#define VIRE_KERNEL_TARGET
#define VIRE_KERNEL_ISA "baseline"
#include "core/locate_kernels.inc"
#undef VIRE_KERNEL_ISA
#undef VIRE_KERNEL_TARGET
}  // namespace baseline

#if defined(__x86_64__) || defined(__i386__)
#define VIRE_HAVE_AVX2_KERNELS 1
// AVX2 alone: the target brings no FMA, so nothing can be fused here even
// where -ffp-contract would allow it.
namespace avx2 {
#define VIRE_KERNEL_TARGET [[gnu::target("avx2")]]
#define VIRE_KERNEL_ISA "avx2"
#include "core/locate_kernels.inc"
#undef VIRE_KERNEL_ISA
#undef VIRE_KERNEL_TARGET
}  // namespace avx2
#endif

const LocateKernels& baseline_kernels() noexcept { return baseline::kKernels; }

const LocateKernels* avx2_kernels() noexcept {
#ifdef VIRE_HAVE_AVX2_KERNELS
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return &avx2::kKernels;
#endif
  return nullptr;
}

const LocateKernels& kernels() noexcept {
  static const LocateKernels& chosen = []() -> const LocateKernels& {
    const LocateKernels* const avx2 = avx2_kernels();
    return avx2 != nullptr ? *avx2 : baseline_kernels();
  }();
  return chosen;
}

}  // namespace vire::core::detail
