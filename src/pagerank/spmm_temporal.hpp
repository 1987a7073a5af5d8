// SpMM-inspired postmortem PageRank kernel (paper §4.4).
//
// Computes PageRank for up to kMaxSpmmLanes (64) windows ("lanes") of the
// same multi-window graph simultaneously: each power iteration traverses
// the batch's compiled adjacency once and advances every live lane's
// vector. The PageRank vectors are lane-interleaved (x[v*lanes + k]),
// turning the mostly-random per-window vector accesses into mostly-regular
// ones — the SpMM memory-traffic win the paper borrows from linear algebra.
//
// The postmortem runner's lanes are adjacent windows (G_jL .. G_jL+L-1), so
// the lanes of one batch share most of their edges and a compiled entry
// updates most of its lanes. Each batch after a part's first starts every
// lane from the previous batch's last window (partial_init.hpp). Paper
// §4.4 strides its lanes instead, to seed each from its direct
// predecessor; DESIGN.md §2 records the departure.
#pragma once

#include <span>
#include <vector>

#include "pagerank/batch_csr.hpp"
#include "pagerank/pagerank.hpp"
#include "pagerank/simd_dispatch.hpp"
#include "pagerank/window_state.hpp"

namespace pmpr {

struct SpmmStats {
  int iterations = 0;  ///< Shared traversals executed (max over lanes).
  std::vector<PagerankStats> lane_stats;
};

/// Runs one SpMM batch over the batch-compiled adjacency (precomputed lane
/// masks, run compression, active-row and dangling-row compaction) built by
/// compile_spmm_batch, so each sweep does no timestamp arithmetic and
/// touches only active rows. `x` and `scratch` are n*lanes,
/// lane-interleaved; lane k's slice of `x` holds its initial guess on entry
/// and its result on exit. `state` must come from the same
/// compile_spmm_batch call. Non-null `parallel` runs each shared sweep as a
/// parallel_for over rows. `simd` picks the sweep ISA (kAuto = best the CPU
/// supports; forced modes throw InvariantError when unsupported — see
/// simd_dispatch.hpp). Every ISA gives bit-identical results, residuals,
/// and iteration counts to the reference kernel kept as a test oracle
/// (tests/oracle/) when run serially.
SpmmStats pagerank_spmm(const SpmmWindowState& state,
                        const CompiledBatchCsr& compiled, std::span<double> x,
                        std::span<double> scratch,
                        const PagerankParams& params,
                        const par::ForOptions* parallel = nullptr,
                        SimdMode simd = SimdMode::kAuto);

}  // namespace pmpr
