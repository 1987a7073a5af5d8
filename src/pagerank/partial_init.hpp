// Partial initialization (paper §4.2, Eq. 4).
//
// Two consecutive sliding windows share most vertices and edges, so the
// previous window's converged PageRank is a much better starting point than
// the uniform vector. For u ∈ V_i ∩ V_{i-1}:
//
//   PR_i[u] = (|V_i ∩ V_{i-1}| / |V_i|) · PR_{i-1}[u] / Σ_{v ∈ V_i ∩ V_{i-1}} PR_{i-1}[v]
//
// i.e. the shared vertices are rescaled to carry |shared|/|V_i| of the total
// mass; vertices new to V_i receive the uniform 1/|V_i|, so the initial
// vector is a distribution. Falls back to full initialization when the
// windows share nothing. Only applied within one multi-window graph — the
// local vertex spaces of different parts differ, and the paper skips
// cross-part initialization for the same reason.
//
// The SpMM forms initialize a whole batch over lane-interleaved storage
// (x[v*lanes + k]) with one lane mask word per vertex (bit k names lane k).
// A batch is adjacent windows, so every lane is seeded from the same
// source: the last lane of the previous batch, the nearest finished window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace pmpr {

/// `prev_x` / `prev_active`: the previous window's result and active set.
/// `cur_active` / `cur_num_active`: the new window's active set.
/// Writes the initial guess for the new window into `out` (may alias
/// prev_x). All spans share one local vertex space.
void partial_init(std::span<const double> prev_x,
                  std::span<const std::uint8_t> prev_active,
                  std::span<const std::uint8_t> cur_active,
                  std::size_t cur_num_active, std::span<double> out);

/// Eq. 4 for every lane of a batch, each seeded from lane prev_lanes - 1 of
/// `prev_x` (n * prev_lanes, with activity `prev_mask`). `cur_mask` holds
/// the batch's n mask words and `cur_num_active` one count per lane, so
/// lanes = cur_num_active.size() and `x` is n * lanes. One vertex-major
/// pass gathers every lane's shared count and mass (each lane's sum in
/// ascending v, like partial_init's), a second writes `x` row by row. A
/// lane that shares nothing with the source, or only zero mass, starts
/// uniform over its active set; an empty lane is all zero.
void spmm_partial_init(std::span<const double> prev_x, std::size_t prev_lanes,
                       std::span<const std::uint64_t> prev_mask,
                       std::span<const std::uint64_t> cur_mask,
                       std::span<const std::size_t> cur_num_active,
                       std::span<double> x);

/// Full initialization of every lane of a batch (1/|V_k| over lane k's
/// active set, zero elsewhere) in one row-wise pass. Arguments as for
/// spmm_partial_init.
void spmm_full_init(std::span<const std::uint64_t> cur_mask,
                    std::span<const std::size_t> cur_num_active,
                    std::span<double> x);

}  // namespace pmpr
