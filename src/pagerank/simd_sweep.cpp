#include "pagerank/simd_sweep.hpp"

#include "util/check.hpp"

namespace pmpr {

SpmmSweep* select_spmm_sweep(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return detail::spmm_sweep_scalar;
    case SimdIsa::kAvx2:
#if defined(PMPR_HAVE_AVX2_SWEEP)
      return detail::spmm_sweep_avx2;
#else
      break;
#endif
    case SimdIsa::kAvx512:
#if defined(PMPR_HAVE_AVX512_SWEEP)
      return detail::spmm_sweep_avx512;
#else
      break;
#endif
  }
  PMPR_CHECK_MSG(false, "sweep ISA '" << to_string(isa)
                                      << "' not built into this binary");
  return nullptr;  // unreachable
}

}  // namespace pmpr
