#include "pagerank/simd_sweep.hpp"

#include "util/check.hpp"

namespace pmpr {

SpmmKernel select_spmm_kernel(SimdIsa isa, std::size_t lanes) {
  if (lanes == 1) {
    return {detail::spmm_sweep_one_lane, detail::spmm_dangling_one_lane};
  }
  switch (isa) {
    case SimdIsa::kScalar:
      return {detail::spmm_sweep_scalar, detail::spmm_dangling_scalar};
    case SimdIsa::kAvx2:
#if defined(PMPR_HAVE_AVX2_SWEEP)
      return {detail::spmm_sweep_avx2, detail::spmm_dangling_avx2};
#else
      break;
#endif
    case SimdIsa::kAvx512:
#if defined(PMPR_HAVE_AVX512_SWEEP)
      return {detail::spmm_sweep_avx512, detail::spmm_dangling_avx512};
#else
      break;
#endif
  }
  PMPR_CHECK_MSG(false, "sweep ISA '" << to_string(isa)
                                      << "' not built into this binary");
  return {};  // unreachable
}

}  // namespace pmpr
