#include "pagerank/batch_csr.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <numeric>

#include "obs/counters.hpp"
#include "util/check.hpp"

namespace pmpr {

namespace {

using RunMask = std::array<std::uint64_t, mask_words_for(kMaxSpmmLanes)>;

/// Conservative chunk prune: the chunk's entry time extent misses
/// [prune_lo, prune_hi] entirely, so every lanes_containing_into /
/// window-membership test on its events would come back empty. Empty
/// chunks (extent fields zeroed) prune trivially.
bool chunk_pruned(const io::ChunkMeta& m, Timestamp prune_lo,
                  Timestamp prune_hi) {
  return m.num_entries == 0 || m.time_max < prune_lo || m.time_min > prune_hi;
}

/// The one reader of a part's storage: calls `row(v, cols, times)` for
/// every local row v whose events may touch [prune_lo, prune_hi], with the
/// row's ⟨neighbor, time⟩ entries as parallel spans.
///
///   * Raw parts visit every row straight from the in-CSR.
///   * Compressed parts decode one chunk at a time into a DecodeScratch —
///     the raw CSR is never materialized — and skip chunks whose time
///     extent misses the range. A pruned chunk's rows are never visited,
///     so whatever the caller pre-set for them must equal the empty-row
///     result (an out-of-extent event joins no lane or window). Decoded and
///     pruned chunks and decoded bytes go to the obs counters once per
///     range, never per chunk.
///
/// The same per-row callback sees raw and decoded rows alike, which is
/// what makes the two storage forms compile bit-identically. Non-null
/// `parallel` splits rows (or chunks: rows never span chunks, so
/// chunk-parallel is row-parallel) over a parallel_for_range with one
/// scratch per callback; `row` must then write row-owned slots only, or
/// scatter atomically. Null runs serially on `scratch` (or a local one).
template <typename Row>
void for_each_row(const MultiWindowGraph& part, Timestamp prune_lo,
                  Timestamp prune_hi, const par::ForOptions* parallel,
                  io::DecodeScratch* scratch, Row&& row) {
  const io::CompressedTemporalCsr* packed = part.in_compressed.get();
  PMPR_CHECK_MSG(packed == nullptr || packed->num_rows() == part.num_local(),
                 "compressed part covers " << packed->num_rows()
                                           << " rows, local space has "
                                           << part.num_local());
  const auto range = [&](std::size_t lo, std::size_t hi,
                         io::DecodeScratch& sc) {
    if (packed == nullptr) {
      for (std::size_t v = lo; v < hi; ++v) {
        const auto u = static_cast<VertexId>(v);
        row(v, part.in.row_cols(u), part.in.row_times(u));
      }
      return;
    }
    std::uint64_t decoded = 0;
    std::uint64_t pruned = 0;
    std::uint64_t bytes = 0;
    for (std::size_t c = lo; c < hi; ++c) {
      const io::ChunkMeta& m = packed->chunk(c);
      if (chunk_pruned(m, prune_lo, prune_hi)) {
        ++pruned;
        continue;
      }
      ++decoded;
      bytes += m.byte_size;
      packed->decode_chunk(c, sc);
      for (std::size_t r = 0; r < m.num_rows; ++r) {
        const std::size_t b = sc.row_ptr[r];
        const std::size_t len = sc.row_ptr[r + 1] - b;
        row(m.first_row + r,
            std::span<const VertexId>(sc.cols.data() + b, len),
            std::span<const Timestamp>(sc.times.data() + b, len));
      }
    }
    obs::count(obs::Counter::kChunksDecoded, decoded);
    obs::count(obs::Counter::kChunksPruned, pruned);
    obs::count(obs::Counter::kBytesDecoded, bytes);
  };
  const std::size_t units =
      packed != nullptr ? packed->num_chunks() : part.num_local();
  if (parallel != nullptr) {
    par::parallel_for_range(0, units, *parallel,
                            [&](std::size_t lo, std::size_t hi) {
                              io::DecodeScratch local;
                              range(lo, hi, local);
                            });
  } else {
    io::DecodeScratch local;
    range(0, units, scratch != nullptr ? *scratch : local);
  }
}

/// Exclusive prefix sum: the per-row counts in row_ptr[1..n] become
/// offsets (row_ptr[0] is 0). Returns the entry total.
std::size_t counts_to_offsets(std::vector<std::size_t>& row_ptr) {
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());
  return row_ptr.back();
}

/// Run compression for one SpMM row: calls `fn(u, run_mask)` once per
/// distinct neighbor u whose run of events joins at least one lane, with
/// the union of those events' lanes.
template <typename Fn>
void for_each_lane_run(const WindowSpec& spec, const SpmmBatch& batch,
                       std::size_t words, std::span<const VertexId> cols,
                       std::span<const Timestamp> times, Fn&& fn) {
  std::size_t i = 0;
  while (i < cols.size()) {
    const VertexId u = cols[i];
    RunMask run_mask{};
    while (i < cols.size() && cols[i] == u) {
      lanes_containing_into(spec, batch, times[i], run_mask.data());
      ++i;
    }
    if (mask_any(run_mask.data(), words)) fn(u, run_mask);
  }
}

/// Pass A of the SpMM compile for one row: counts the surviving runs and
/// scatters degrees and activity exactly like the oracle's
/// compute_spmm_state.
///
/// Atomicity ownership (audited for the serial/parallel split; the
/// TSan-gated stress in tests/pagerank/batch_csr_parallel_test.cpp guards
/// it):
///   * the returned entry count — consumed only by the thread sweeping
///     row v, in both paths. Never atomic.
///   * state.out_degree[u * lanes + k] and state.active_mask[u ...] —
///     cross-row scatter targets: row v bumps arbitrary u's slots. The
///     parallel path (Atomic = true) must use std::atomic_ref for *every*
///     one of these; the serial path (Atomic = false) owns the whole array
///     on one thread and uses plain increments — the two `if constexpr`
///     arms below are the same write routed per path, not a mixed mode.
///   * state.active_mask[v ...] (the row's own activity) is also a shared
///     slot: other rows scatter into v as a neighbor, so the parallel path
///     ORs it atomically too.
template <bool Atomic>
std::size_t scatter_row(const WindowSpec& spec, const SpmmBatch& batch,
                        SpmmWindowState& state, std::size_t v,
                        std::span<const VertexId> cols,
                        std::span<const Timestamp> times) {
  const std::size_t lanes = batch.lanes;
  const std::size_t words = state.mask_words;
  RunMask v_mask{};
  std::size_t entries = 0;
  for_each_lane_run(spec, batch, words, cols, times,
                    [&](VertexId u, const RunMask& run_mask) {
    ++entries;
    for_each_set_lane(run_mask.data(), words, [&](std::size_t k) {
      if constexpr (Atomic) {
        std::atomic_ref<std::uint32_t> deg(state.out_degree[u * lanes + k]);
        // relaxed: pure commutative count; published by the join.
        deg.fetch_add(1, std::memory_order_relaxed);
      } else {
        ++state.out_degree[u * lanes + k];
      }
    });
    for (std::size_t w = 0; w < words; ++w) {
      v_mask[w] |= run_mask[w];
      if (run_mask[w] == 0) continue;
      if constexpr (Atomic) {
        std::atomic_ref<std::uint64_t> am(state.active_mask[u * words + w]);
        // relaxed: commutative bit-set; published by the join.
        am.fetch_or(run_mask[w], std::memory_order_relaxed);
      } else {
        state.active_mask[u * words + w] |= run_mask[w];
      }
    }
  });
  for (std::size_t w = 0; w < words; ++w) {
    if (v_mask[w] == 0) continue;
    if constexpr (Atomic) {
      std::atomic_ref<std::uint64_t> am(state.active_mask[v * words + w]);
      // relaxed: commutative bit-set; published by the join.
      am.fetch_or(v_mask[w], std::memory_order_relaxed);
    } else {
      state.active_mask[v * words + w] |= v_mask[w];
    }
  }
  return entries;
}

/// SpMV pass A for one row (same atomicity split as scatter_row).
template <bool Atomic>
std::size_t scatter_window_row(Timestamp ts, Timestamp te, WindowState& state,
                               std::size_t v, std::span<const VertexId> cols,
                               std::span<const Timestamp> times) {
  std::size_t entries = 0;
  for_each_active_neighbor_in_row(cols, times, ts, te, [&](VertexId u) {
    ++entries;
    if constexpr (Atomic) {
      std::atomic_ref<std::uint32_t> deg(state.out_degree[u]);
      // relaxed: pure commutative count; published by the join.
      deg.fetch_add(1, std::memory_order_relaxed);
      std::atomic_ref<std::uint8_t> act(state.active[u]);
      // relaxed: idempotent flag; published by the join.
      act.store(1, std::memory_order_relaxed);
    } else {
      ++state.out_degree[u];
      state.active[u] = 1;
    }
  });
  if (entries > 0) {
    if constexpr (Atomic) {
      std::atomic_ref<std::uint8_t> act(state.active[v]);
      // relaxed: idempotent flag; published by the join.
      act.store(1, std::memory_order_relaxed);
    } else {
      state.active[v] = 1;
    }
  }
  return entries;
}

}  // namespace

void compile_spmm_batch(const MultiWindowGraph& part, const WindowSpec& spec,
                        const SpmmBatch& batch, SpmmWindowState& state,
                        CompiledBatchCsr& out, const par::ForOptions* parallel,
                        io::DecodeScratch* scratch) {
  // Release-mode check (was a debug assert): with -DNDEBUG an oversized
  // batch would silently shift lane bits out of the mask words — UB plus a
  // corrupt compiled form.
  PMPR_CHECK_MSG(batch.lanes >= 1 && batch.lanes <= kMaxSpmmLanes,
                 "SpMM batch lanes " << batch.lanes << " outside [1, "
                                     << kMaxSpmmLanes << "]");
  const std::size_t n = part.num_local();
  state.resize(n, batch.lanes);
  out.lanes = batch.lanes;
  out.mask_words = state.mask_words;
  out.row_ptr.assign(n + 1, 0);
  out.active_rows.clear();
  out.dangling_rows.clear();
  out.dangling_mask.clear();

  // Union of the batch's lane windows: lanes are strided windows of one
  // spec, so coverage is [start(first lane), end(last lane)].
  const Timestamp lo = spec.start(batch.first_window);
  const Timestamp hi = spec.end(batch.window_of_lane(batch.lanes - 1));
  const std::size_t words = out.mask_words;
  for_each_row(part, lo, hi, parallel, scratch,
               [&](std::size_t v, auto cols, auto times) {
                 out.row_ptr[v + 1] =
                     parallel != nullptr
                         ? scatter_row<true>(spec, batch, state, v, cols, times)
                         : scatter_row<false>(spec, batch, state, v, cols,
                                              times);
               });
  const std::size_t total = counts_to_offsets(out.row_ptr);
  out.nbr.resize(total);
  out.mask.resize(total * words);
  // Pass B re-runs the row-local run scan and fills nbr/mask at the
  // prefix-summed offsets: no cross-row writes, so no atomics.
  for_each_row(part, lo, hi, parallel, scratch,
               [&](std::size_t v, auto cols, auto times) {
                 std::size_t at = out.row_ptr[v];
                 for_each_lane_run(spec, batch, words, cols, times,
                                   [&](VertexId u, const RunMask& run_mask) {
                                     out.nbr[at] = u;
                                     std::copy_n(run_mask.data(), words,
                                                 out.mask.data() + at * words);
                                     ++at;
                                   });
                 assert(at == out.row_ptr[v + 1]);
               });

  // Compaction lists + per-lane population (needs the complete degrees).
  const std::size_t lanes = batch.lanes;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t* m = state.mask_of(v);
    if (!mask_any(m, words)) continue;
    out.active_rows.push_back(static_cast<VertexId>(v));
    RunMask dangling{};
    bool any_dangling = false;
    for_each_set_lane(m, words, [&](std::size_t k) {
      ++state.num_active[k];
      if (state.out_degree[v * lanes + k] == 0) {
        mask_set(dangling.data(), k);
        any_dangling = true;
      }
    });
    if (any_dangling) {
      out.dangling_rows.push_back(static_cast<VertexId>(v));
      out.dangling_mask.insert(out.dangling_mask.end(), dangling.begin(),
                               dangling.begin() + words);
    }
  }
  out.charge.reset(obs::MemTag::kCompiledKernel, out.memory_bytes());
}

void compile_window(const MultiWindowGraph& part, Timestamp ts, Timestamp te,
                    WindowState& state, CompiledWindowCsr& out,
                    const par::ForOptions* parallel,
                    io::DecodeScratch* scratch) {
  const std::size_t n = part.num_local();
  state.resize(n);
  out.row_ptr.assign(n + 1, 0);
  out.active_rows.clear();
  out.dangling_rows.clear();

  for_each_row(part, ts, te, parallel, scratch,
               [&](std::size_t v, auto cols, auto times) {
                 out.row_ptr[v + 1] =
                     parallel != nullptr
                         ? scatter_window_row<true>(ts, te, state, v, cols,
                                                    times)
                         : scatter_window_row<false>(ts, te, state, v, cols,
                                                     times);
               });
  out.nbr.resize(counts_to_offsets(out.row_ptr));
  for_each_row(part, ts, te, parallel, scratch,
               [&](std::size_t v, auto cols, auto times) {
                 std::size_t at = out.row_ptr[v];
                 for_each_active_neighbor_in_row(
                     cols, times, ts, te,
                     [&](VertexId u) { out.nbr[at++] = u; });
                 assert(at == out.row_ptr[v + 1]);
               });

  for (std::size_t v = 0; v < n; ++v) {
    if (state.active[v] == 0) continue;
    ++state.num_active;
    out.active_rows.push_back(static_cast<VertexId>(v));
    if (state.out_degree[v] == 0) {
      out.dangling_rows.push_back(static_cast<VertexId>(v));
    }
  }
  out.charge.reset(obs::MemTag::kCompiledKernel, out.memory_bytes());
}

}  // namespace pmpr
