// Reference postmortem kernels, kept as a test and bench oracle (library
// pmpr_oracle; the pmpr library does not contain them).
//
// They are the paper-literal time-filtered form of §4.3–4.4: every power
// iteration walks the part's raw reverse temporal CSR and re-derives each
// event's window (SpMV) or lane membership (SpMM). The compiled kernels
// that the postmortem runner executes (pagerank/spmv_temporal.hpp,
// pagerank/spmm_temporal.hpp over pagerank/batch_csr.hpp) must match them
// bit for bit when run serially (tests/pagerank/oracle_differential_test.cpp).
// They read the raw arrays: compute_spmm_state, like compute_window_state,
// throws InvariantError on a compressed part. spmm_partial_init_lane is
// the per-lane form of Eq. 4 that pagerank/partial_init.hpp's batch-wide
// spmm_partial_init must match bit for bit. compile_spmm_batch is the
// per-event compile every cut from a window-run index
// (pagerank/batch_csr.hpp) must match bit for bit.
#pragma once

#include <cstdint>
#include <span>

#include "graph/multi_window.hpp"
#include "pagerank/batch_csr.hpp"
#include "pagerank/pagerank.hpp"
#include "pagerank/spmm_temporal.hpp"
#include "pagerank/window_state.hpp"

namespace pmpr::oracle {

/// Mask of the lanes of `batch` whose window contains timestamp `t`.
/// A batch's lanes are evenly spaced windows of one spec, so they form one
/// contiguous run.
/// Precondition: batch.lanes <= kMaxSpmmLanes.
[[nodiscard]] std::uint64_t lanes_containing(const WindowSpec& spec,
                                             const SpmmBatch& batch,
                                             Timestamp t);

/// Compiles `batch` of `part` per event, serially: each <neighbor, time>
/// run of a row becomes one entry whose mask is the OR of lanes_containing
/// over its events (mask-0 runs dropped), with the degrees, activity and
/// compaction lists of that form. A compressed part is decompressed first.
void compile_spmm_batch(const MultiWindowGraph& part, const WindowSpec& spec,
                        const SpmmBatch& batch, SpmmWindowState& state,
                        CompiledBatchCsr& out);

/// Computes degrees/activity for all lanes of `batch` in one pass over the
/// part's temporal CSR (this shared pass is the SpMM saving).
/// compile_spmm_batch must produce the same state.
void compute_spmm_state(const MultiWindowGraph& part, const WindowSpec& spec,
                        const SpmmBatch& batch, SpmmWindowState& out,
                        const par::ForOptions* parallel = nullptr);

/// Runs PageRank for window [ts, te] of `part`. `x` (size = part locals)
/// holds the initial guess on entry and the result on exit; `scratch`
/// matches x. `state` must have been computed for the same window.
/// Non-null `parallel` runs each sweep as a parallel_for. The traversal
/// visits every stored event of the part once per iteration — Θ(|E_w|).
PagerankStats pagerank_window_spmv(const MultiWindowGraph& part, Timestamp ts,
                                   Timestamp te, const WindowState& state,
                                   std::span<double> x,
                                   std::span<double> scratch,
                                   const PagerankParams& params,
                                   const par::ForOptions* parallel = nullptr);

/// Runs one SpMM batch. `x` and `scratch` are n*lanes, lane-interleaved;
/// lane k's slice of `x` holds its initial guess on entry and its result on
/// exit. `state` must match (part, spec, batch). Non-null `parallel` runs
/// each shared sweep as a parallel_for over rows.
SpmmStats pagerank_spmm(const MultiWindowGraph& part, const WindowSpec& spec,
                        const SpmmBatch& batch, const SpmmWindowState& state,
                        std::span<double> x, std::span<double> scratch,
                        const PagerankParams& params,
                        const par::ForOptions* parallel = nullptr);

/// Eq. 4 for lane k of a batch over lane-interleaved storage, seeded from
/// lane kp of `prev_x` (n * prev_lanes). One mask word per vertex in
/// `prev_mask` and `cur_mask`; `cur_x` is n * cur_lanes. Three passes over
/// all n vertices: clear an empty lane, or gather the shared count and
/// mass, then write the lane. Counts kVerticesReused / kVerticesReseeded.
void spmm_partial_init_lane(std::span<const double> prev_x,
                            std::size_t prev_lanes, std::size_t kp,
                            std::span<const std::uint64_t> prev_mask,
                            std::span<double> cur_x, std::size_t cur_lanes,
                            std::size_t k,
                            std::span<const std::uint64_t> cur_mask,
                            std::size_t cur_num_active);

}  // namespace pmpr::oracle
