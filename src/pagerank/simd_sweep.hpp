// Compiled SpMM kernels, one sweep and one dangling-mass scan per ISA.
//
// A sweep advances every live lane of rows active_rows[lo, hi) by one
// power iteration over the batch-compiled adjacency; a dangling scan sums
// the live lanes of dangling_rows[lo, hi). All implementations perform
// the *same floating-point operations per lane in the same order* —
// per-lane accumulators are independent, so vectorizing across lanes
// changes nothing about any single lane's add sequence — which is what
// keeps scalar, AVX2, and AVX-512 results bit-identical, serially and in
// every leaf of a parallel reduction (the differential dispatch tests rely
// on this). The wide ISAs hold a call's per-lane sums (a row's
// accumulators, the residual and dangling sums) in vector registers, one
// per lane group, through a template over the group count picked once per
// call from the batch's lane count. Every multiply-add is an explicit
// fused multiply-add (std::fma / vfmadd) so the contraction the vector
// kernels perform is also what the scalar and reference kernels perform,
// independent of compiler flags.
#pragma once

#include <cstddef>
#include <cstdint>

#include "pagerank/batch_csr.hpp"
#include "pagerank/simd_dispatch.hpp"
#include "pagerank/window_state.hpp"

namespace pmpr {

/// One compiled sweep over active_rows[lo, hi).
///   x / x_next   n*lanes lane-interleaved current / next iterate
///   base         per-lane teleport + dangling base term (lanes doubles)
///   live_mask    mask of the still-iterating lanes
///   diff         per-lane L1 change accumulator (lanes doubles), added to
/// Returns the number of compiled entries traversed (for the
/// edges-traversed counter, flushed once per chunk by the caller).
using SpmmSweep = std::uint64_t(const CompiledBatchCsr& compiled,
                                const SpmmWindowState& state, const double* x,
                                double* x_next, const double* base,
                                double one_minus_alpha,
                                std::uint64_t live_mask, double* diff,
                                std::size_t lo, std::size_t hi);

/// One dangling-mass scan over dangling_rows[lo, hi): adds each listed
/// row's value in its dangling and live lanes (dangling_mask & live_mask)
/// of `cur` to `dangling` (lanes doubles), in list order.
using SpmmDanglingScan = void(const CompiledBatchCsr& compiled,
                              const double* cur, std::uint64_t live_mask,
                              double* dangling, std::size_t lo,
                              std::size_t hi);

/// The sweep and the dangling scan of one batch, from one ISA choice.
struct SpmmKernel {
  SpmmSweep* sweep;
  SpmmDanglingScan* dangling;
};

/// The kernel for a batch of `lanes` lanes: the one-lane pair on every ISA
/// when lanes == 1, `isa`'s pair otherwise. The caller resolves `isa`
/// through resolve_simd first; asking for an ISA that is not built into
/// the binary throws InvariantError.
[[nodiscard]] SpmmKernel select_spmm_kernel(SimdIsa isa, std::size_t lanes);

namespace detail {
// The kernels, defined in simd_sweep_{scalar,avx2,avx512}.cpp. The wide
// TUs are compiled only when CMake found the -m flags; they are referenced
// behind the matching PMPR_HAVE_*_SWEEP guards.
SpmmSweep spmm_sweep_scalar;
SpmmSweep spmm_sweep_avx2;
SpmmSweep spmm_sweep_avx512;
SpmmDanglingScan spmm_dangling_scalar;
SpmmDanglingScan spmm_dangling_avx2;
SpmmDanglingScan spmm_dangling_avx512;
/// One-lane batches only: one accumulator per row and no mask reads, and a
/// plain dangling sum. They perform the scalar pair's operations at one
/// lane, so every ISA runs them for one-lane batches.
SpmmSweep spmm_sweep_one_lane;
SpmmDanglingScan spmm_dangling_one_lane;
}  // namespace detail

}  // namespace pmpr
