// AVX2 + FMA SpMM sweep and dangling scan: 4 lanes per vector op, one
// mask nibble per lane group. Both are templates over the 4-lane group
// count G ∈ {1, 2, 4, 8, 16}, picked once per call from the batch's lane
// count (with_group_count), so a row's accumulators, the call's residual
// and dangling sums, the base vector and the tail masks are __m256d
// locals (AVX2 has 16 ymm registers, so at 32 and 64 lanes the compiler
// keeps what fits and spills the rest). Compiled with -mavx2 -mfma (see
// src/CMakeLists.txt) and only invoked after runtime dispatch confirmed
// CPU support (simd_dispatch.cpp).
//
// Bit-identity with the scalar kernels: per-lane accumulators are
// independent, every multiply-add is a vfmadd (matching the scalar
// std::fma), and lanes not selected by a mask nibble are merged back
// untouched with blendv — so each lane sees exactly the scalar kernel's
// operation sequence. Masked-off lanes of a group may compute 0/0 inside
// the discarded div result; the blend throws those bits away.
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

/// Per-element all-ones/zero expansion of every 4-bit lane-group pattern.
/// blendv / maskload / maskstore read each 64-bit element's sign bit.
alignas(32) constexpr std::uint64_t kGroupMask64[16][4] = {
    {0, 0, 0, 0},
    {~0ULL, 0, 0, 0},
    {0, ~0ULL, 0, 0},
    {~0ULL, ~0ULL, 0, 0},
    {0, 0, ~0ULL, 0},
    {~0ULL, 0, ~0ULL, 0},
    {0, ~0ULL, ~0ULL, 0},
    {~0ULL, ~0ULL, ~0ULL, 0},
    {0, 0, 0, ~0ULL},
    {~0ULL, 0, 0, ~0ULL},
    {0, ~0ULL, 0, ~0ULL},
    {~0ULL, ~0ULL, 0, ~0ULL},
    {0, 0, ~0ULL, ~0ULL},
    {~0ULL, 0, ~0ULL, ~0ULL},
    {0, ~0ULL, ~0ULL, ~0ULL},
    {~0ULL, ~0ULL, ~0ULL, ~0ULL},
};

/// 32-bit variant for the _mm_maskload_epi32 of the degree row.
alignas(16) constexpr std::uint32_t kGroupMask32[16][4] = {
    {0, 0, 0, 0},
    {~0U, 0, 0, 0},
    {0, ~0U, 0, 0},
    {~0U, ~0U, 0, 0},
    {0, 0, ~0U, 0},
    {~0U, 0, ~0U, 0},
    {0, ~0U, ~0U, 0},
    {~0U, ~0U, ~0U, 0},
    {0, 0, 0, ~0U},
    {~0U, 0, 0, ~0U},
    {0, ~0U, 0, ~0U},
    {~0U, ~0U, 0, ~0U},
    {0, 0, ~0U, ~0U},
    {~0U, 0, ~0U, ~0U},
    {0, ~0U, ~0U, ~0U},
    {~0U, ~0U, ~0U, ~0U},
};

inline __m256i group_mask_si(unsigned nib) {
  return _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kGroupMask64[nib]));
}
inline __m256d group_mask_pd(unsigned nib) {
  return _mm256_castsi256_pd(group_mask_si(nib));
}
inline __m128i group_mask_si32(unsigned nib) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(kGroupMask32[nib]));
}

/// Lanes g*4 .. g*4+3 of `mask` as a nibble.
inline unsigned group_nib(std::uint64_t mask, std::size_t g) {
  return static_cast<unsigned>(mask >> (g * 4)) & 0xFU;
}

/// Calls fn(G) with the group count as a constant: ceil(lanes / 4) rounded
/// up to the next instantiation.
template <typename Fn>
decltype(auto) with_group_count(std::size_t lanes, Fn&& fn) {
  switch (std::bit_ceil((lanes + 3) / 4)) {
    case 1:
      return fn(std::integral_constant<std::size_t, 1>{});
    case 2:
      return fn(std::integral_constant<std::size_t, 2>{});
    case 4:
      return fn(std::integral_constant<std::size_t, 4>{});
    case 8:
      return fn(std::integral_constant<std::size_t, 8>{});
    default:
      return fn(std::integral_constant<std::size_t, 16>{});
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
  const __m256d omav = _mm256_set1_pd(one_minus_alpha);
  const __m256d signv = _mm256_set1_pd(-0.0);
  const std::uint64_t valid = lane_range_mask(0, lanes - 1);
  __m256i valid_si[G];
  __m256d basev[G];
  __m256d diffv[G];
  for (std::size_t g = 0; g < G; ++g) {
    // maskload is fault-suppressing per element, so group tails past
    // `lanes` never touch memory.
    valid_si[g] = group_mask_si(group_nib(valid, g));
    basev[g] = _mm256_maskload_pd(base + g * 4, valid_si[g]);
    diffv[g] = _mm256_maskload_pd(diff + g * 4, valid_si[g]);
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
      __m256d acc[G];
      for (std::size_t g = 0; g < G; ++g) acc[g] = basev[g];

      if (v_update != 0) {
        const std::size_t e_lo = compiled.row_ptr[v];
        const std::size_t e_hi = compiled.row_ptr[v + 1];
        edges += e_hi - e_lo;
        for (std::size_t i = e_lo; i < e_hi; ++i) {
          if (i + kPrefetchEntries < e_hi) {
            // Every cache line of the neighbor's x row (one per two groups
            // from its start plus the one its last lane ends in: a row
            // need not be line-aligned) and of its degree row.
            const std::size_t up = nbr[i + kPrefetchEntries];
            const double* xp = x + up * lanes;
            for (std::size_t g = 0; g < G; g += 2) {
              __builtin_prefetch(xp + g * 4);
            }
            __builtin_prefetch(xp + lanes - 1);
            __builtin_prefetch(deg + up * lanes);
            __builtin_prefetch(deg + up * lanes + lanes - 1);
          }
          const std::size_t u = nbr[i];
          const double* xu = x + u * lanes;
          const std::uint32_t* du = deg + u * lanes;
          const std::uint64_t m = masks[i] & v_update;
          for (std::size_t g = 0; g < G; ++g) {
            const unsigned nib = group_nib(m, g);
            if (nib == 0) continue;
            const __m256i lane_si = group_mask_si(nib);
            const __m256d xv = _mm256_maskload_pd(xu + g * 4, lane_si);
            const __m128i dv32 = _mm_maskload_epi32(
                reinterpret_cast<const int*>(du + g * 4),
                group_mask_si32(nib));
            // Signed cvt (AVX2 has no unsigned u32->f64): requires
            // per-window degrees < 2^31, i.e. fewer than 2B events out of
            // one vertex inside one window.
            const __m256d dv = _mm256_cvtepi32_pd(dv32);
            const __m256d contrib =
                _mm256_fmadd_pd(omav, _mm256_div_pd(xv, dv), acc[g]);
            acc[g] = _mm256_blendv_pd(acc[g], contrib,
                                      _mm256_castsi256_pd(lane_si));
          }
        }
      }

      for (std::size_t g = 0; g < G; ++g) {
        const unsigned a_nib = group_nib(v_active, g);
        const __m256d al = group_mask_pd(a_nib & group_nib(live_mask, g));
        const __m256d cur =
            _mm256_maskload_pd(x + v * lanes + g * 4, valid_si[g]);
        // !active -> 0.0; active & frozen -> cur; active & live -> acc.
        __m256d next = _mm256_and_pd(cur, group_mask_pd(a_nib));
        next = _mm256_blendv_pd(next, acc[g], al);
        _mm256_maskstore_pd(x_next + v * lanes + g * 4, valid_si[g], next);
        // Lanes outside active & live add +0.0: exact, since a residual
        // partial sum is never -0.0.
        const __m256d d = _mm256_andnot_pd(signv, _mm256_sub_pd(acc[g], cur));
        diffv[g] = _mm256_add_pd(diffv[g], _mm256_and_pd(d, al));
      }
    }
  }
  for (std::size_t g = 0; g < G; ++g) {
    _mm256_maskstore_pd(diff + g * 4, valid_si[g], diffv[g]);
  }
  return edges;
}

template <std::size_t G>
void dangling_groups(const CompiledBatchCsr& compiled, const double* cur,
                     std::uint64_t live_mask, double* dangling,
                     std::size_t lo, std::size_t hi) {
  const std::size_t lanes = compiled.lanes;
  const std::uint64_t valid = lane_range_mask(0, lanes - 1);
  __m256d sum[G];
  for (std::size_t g = 0; g < G; ++g) {
    sum[g] = _mm256_maskload_pd(dangling + g * 4,
                                group_mask_si(group_nib(valid, g)));
  }
  for (std::size_t i = lo; i < hi; ++i) {
    const double* row = cur + compiled.dangling_rows[i] * lanes;
    const std::uint64_t m = compiled.dangling_mask[i] & live_mask;
    for (std::size_t g = 0; g < G; ++g) {
      const __m256i lane_si = group_mask_si(group_nib(m, g));
      const __m256d add = _mm256_add_pd(
          sum[g], _mm256_maskload_pd(row + g * 4, lane_si));
      sum[g] = _mm256_blendv_pd(sum[g], add, _mm256_castsi256_pd(lane_si));
    }
  }
  for (std::size_t g = 0; g < G; ++g) {
    _mm256_maskstore_pd(dangling + g * 4, group_mask_si(group_nib(valid, g)),
                        sum[g]);
  }
}

}  // namespace

std::uint64_t spmm_sweep_avx2(const CompiledBatchCsr& compiled,
                              const SpmmWindowState& state, const double* x,
                              double* x_next, const double* base,
                              double one_minus_alpha, std::uint64_t live_mask,
                              double* diff, std::size_t lo, std::size_t hi) {
  return with_group_count(compiled.lanes, [&](auto groups) {
    return sweep_groups<groups()>(compiled, state, x, x_next, base,
                                  one_minus_alpha, live_mask, diff, lo, hi);
  });
}

void spmm_dangling_avx2(const CompiledBatchCsr& compiled, const double* cur,
                        std::uint64_t live_mask, double* dangling,
                        std::size_t lo, std::size_t hi) {
  with_group_count(compiled.lanes, [&](auto groups) {
    dangling_groups<groups()>(compiled, cur, live_mask, dangling, lo, hi);
  });
}

}  // namespace pmpr::detail
