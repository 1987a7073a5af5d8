// AVX-512 SpMM sweep and dangling scan: 8 lanes per vector op; each mask
// byte is used directly as an __mmask8, so lane-group selection is free.
// Both are templates over the 8-lane group count G ∈ {1, 2, 4, 8}, picked
// once per call from the batch's lane count (with_group_count), so a row's
// accumulators, the call's residual and dangling sums, the base vector and
// the tail masks are __m512d / __mmask8 locals that stay in registers: an
// entry's update reads only the neighbor's x and degree rows. Compiled
// with the -mavx512* flags (see src/CMakeLists.txt) and only invoked after
// runtime dispatch confirmed CPU support (simd_dispatch.cpp).
//
// Bit-identity with the scalar kernels: per-lane accumulators are
// independent, the multiply-add is a masked vfmadd (matching the scalar
// std::fma), and unselected lanes merge through the instruction's own
// masking — each lane sees exactly the scalar kernel's operation
// sequence. Masked-off lanes of a group may compute 0/0 inside the
// discarded div result; the merge-masked fmadd never reads those bits.
#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "pagerank/simd_sweep.hpp"
#include "util/bits.hpp"

namespace pmpr::detail {

namespace {

constexpr std::size_t kPrefetchEntries = 8;  // matches the scalar kernel
constexpr std::size_t kRowTile = 64;

/// Lanes g*8 .. g*8+7 of `mask` as an __mmask8.
inline __mmask8 group_bits(std::uint64_t mask, std::size_t g) {
  return static_cast<__mmask8>(mask >> (g * 8));
}

/// Calls fn(G) with the group count as a constant: ceil(lanes / 8) rounded
/// up to the next instantiation.
template <typename Fn>
decltype(auto) with_group_count(std::size_t lanes, Fn&& fn) {
  switch (std::bit_ceil((lanes + 7) / 8)) {
    case 1:
      return fn(std::integral_constant<std::size_t, 1>{});
    case 2:
      return fn(std::integral_constant<std::size_t, 2>{});
    case 4:
      return fn(std::integral_constant<std::size_t, 4>{});
    default:
      return fn(std::integral_constant<std::size_t, 8>{});
  }
}

template <std::size_t G>
std::uint64_t sweep_groups(const CompiledBatchCsr& compiled,
                           const SpmmWindowState& state, const double* x,
                           double* x_next, const double* base,
                           double one_minus_alpha, std::uint64_t live_mask,
                           double* diff, std::size_t lo, std::size_t hi) {
  const std::size_t lanes = compiled.lanes;
  const std::uint32_t* deg = state.out_degree.data();
  const VertexId* nbr = compiled.nbr.data();
  const std::uint64_t* masks = compiled.mask.data();
  const __m512d omav = _mm512_set1_pd(one_minus_alpha);
  const std::uint64_t valid = lane_range_mask(0, lanes - 1);
  __m512d basev[G];
  __m512d diffv[G];
  for (std::size_t g = 0; g < G; ++g) {
    // maskz loads are fault-suppressing per element, so group tails past
    // `lanes` never touch memory (their bits are 0).
    basev[g] = _mm512_maskz_loadu_pd(group_bits(valid, g), base + g * 8);
    diffv[g] = _mm512_maskz_loadu_pd(group_bits(valid, g), diff + g * 8);
  }
  std::uint64_t edges = 0;
  for (std::size_t tile = lo; tile < hi; tile += kRowTile) {
    const std::size_t tile_hi = std::min(hi, tile + kRowTile);
    if (tile_hi < hi) {
      __builtin_prefetch(&compiled.active_rows[tile_hi]);
      __builtin_prefetch(&compiled.row_ptr[compiled.active_rows[tile_hi]]);
    }
    for (std::size_t r = tile; r < tile_hi; ++r) {
      const VertexId v = compiled.active_rows[r];
      const std::uint64_t v_active = state.active_mask[v];
      const std::uint64_t v_update = v_active & live_mask;
      __m512d acc[G];
      for (std::size_t g = 0; g < G; ++g) acc[g] = basev[g];

      if (v_update != 0) {
        const std::size_t e_lo = compiled.row_ptr[v];
        const std::size_t e_hi = compiled.row_ptr[v + 1];
        edges += e_hi - e_lo;
        for (std::size_t i = e_lo; i < e_hi; ++i) {
          if (i + kPrefetchEntries < e_hi) {
            // Every cache line of the neighbor's x row (G lines from its
            // start plus the one its last lane ends in: a row need not be
            // line-aligned) and of its degree row.
            const std::size_t up = nbr[i + kPrefetchEntries];
            const double* xp = x + up * lanes;
            for (std::size_t g = 0; g < G; ++g) __builtin_prefetch(xp + g * 8);
            __builtin_prefetch(xp + lanes - 1);
            __builtin_prefetch(deg + up * lanes);
            __builtin_prefetch(deg + up * lanes + lanes - 1);
          }
          const std::size_t u = nbr[i];
          const double* xu = x + u * lanes;
          const std::uint32_t* du = deg + u * lanes;
          const std::uint64_t m = masks[i] & v_update;
          for (std::size_t g = 0; g < G; ++g) {
            const __mmask8 bits = group_bits(m, g);
            if (bits == 0) continue;
            const __m512d xv = _mm512_maskz_loadu_pd(bits, xu + g * 8);
            const __m256i dv32 = _mm256_maskz_loadu_epi32(bits, du + g * 8);
            // maskz (not the unmasked cvt): inactive-lane degrees become
            // 0.0 instead of GCC's _mm512_undefined_pd() merge source,
            // which -Wmaybe-uninitialized rejects in sanitizer builds.
            // The fmadd's write mask discards those lanes either way.
            const __m512d dv = _mm512_maskz_cvtepu32_pd(bits, dv32);
            acc[g] = _mm512_mask3_fmadd_pd(omav, _mm512_div_pd(xv, dv),
                                           acc[g], bits);
          }
        }
      }

      for (std::size_t g = 0; g < G; ++g) {
        const __mmask8 valid8 = group_bits(valid, g);
        const __mmask8 a8 = group_bits(v_active, g);
        const __mmask8 al8 = a8 & group_bits(live_mask, g);
        const __m512d cur =
            _mm512_maskz_loadu_pd(valid8, x + v * lanes + g * 8);
        // !active -> 0.0; active & frozen -> cur; active & live -> acc.
        __m512d next = _mm512_maskz_mov_pd(a8, cur);
        next = _mm512_mask_mov_pd(next, al8, acc[g]);
        _mm512_mask_storeu_pd(x_next + v * lanes + g * 8, valid8, next);
        const __m512d d = _mm512_abs_pd(_mm512_sub_pd(acc[g], cur));
        diffv[g] = _mm512_mask_add_pd(diffv[g], al8, diffv[g], d);
      }
    }
  }
  for (std::size_t g = 0; g < G; ++g) {
    _mm512_mask_storeu_pd(diff + g * 8, group_bits(valid, g), diffv[g]);
  }
  return edges;
}

template <std::size_t G>
void dangling_groups(const CompiledBatchCsr& compiled, const double* cur,
                     std::uint64_t live_mask, double* dangling,
                     std::size_t lo, std::size_t hi) {
  const std::size_t lanes = compiled.lanes;
  const std::uint64_t valid = lane_range_mask(0, lanes - 1);
  __m512d sum[G];
  for (std::size_t g = 0; g < G; ++g) {
    sum[g] = _mm512_maskz_loadu_pd(group_bits(valid, g), dangling + g * 8);
  }
  for (std::size_t i = lo; i < hi; ++i) {
    const double* row = cur + compiled.dangling_rows[i] * lanes;
    const std::uint64_t m = compiled.dangling_mask[i] & live_mask;
    for (std::size_t g = 0; g < G; ++g) {
      const __mmask8 bits = group_bits(m, g);
      sum[g] = _mm512_mask_add_pd(sum[g], bits, sum[g],
                                  _mm512_maskz_loadu_pd(bits, row + g * 8));
    }
  }
  for (std::size_t g = 0; g < G; ++g) {
    _mm512_mask_storeu_pd(dangling + g * 8, group_bits(valid, g), sum[g]);
  }
}

}  // namespace

std::uint64_t spmm_sweep_avx512(const CompiledBatchCsr& compiled,
                                const SpmmWindowState& state, const double* x,
                                double* x_next, const double* base,
                                double one_minus_alpha,
                                std::uint64_t live_mask, double* diff,
                                std::size_t lo, std::size_t hi) {
  return with_group_count(compiled.lanes, [&](auto groups) {
    return sweep_groups<groups()>(compiled, state, x, x_next, base,
                                  one_minus_alpha, live_mask, diff, lo, hi);
  });
}

void spmm_dangling_avx512(const CompiledBatchCsr& compiled, const double* cur,
                          std::uint64_t live_mask, double* dangling,
                          std::size_t lo, std::size_t hi) {
  with_group_count(compiled.lanes, [&](auto groups) {
    dangling_groups<groups()>(compiled, cur, live_mask, dangling, lo, hi);
  });
}

}  // namespace pmpr::detail
