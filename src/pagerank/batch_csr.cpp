#include "pagerank/batch_csr.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <numeric>

#include "obs/counters.hpp"
#include "util/check.hpp"

namespace pmpr {

namespace {

/// Conservative chunk prune: the chunk's entry time extent misses
/// [prune_lo, prune_hi] entirely, so every window-membership test on its
/// events would come back empty. Empty
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

/// `parallel` when a row loop over `units` would split into more than one
/// chunk under it, null otherwise. A loop of one chunk runs on the caller
/// anyway, so the compiles then take their serial form: plain stores
/// instead of atomics (and one pass for the cut).
const par::ForOptions* split_options(const par::ForOptions* parallel,
                                     std::size_t units) {
  return parallel != nullptr && par::chunk_width(*parallel, units) < units
             ? parallel
             : nullptr;
}

/// Exclusive prefix sum: the per-row counts in row_ptr[1..n] become
/// offsets (row_ptr[0] is 0). Returns the entry total.
std::size_t counts_to_offsets(std::vector<std::size_t>& row_ptr) {
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());
  return row_ptr.back();
}

/// Appends one row's WindowRun records to `runs`: per <neighbor, time>
/// run, the union of WindowSpec::windows_containing over its events,
/// clipped to [first, end). Ranges that overlap or touch merge, so a run's
/// records are disjoint when its times ascend; a gap (or, in an unsorted
/// run, an earlier range) starts a kSameRun record. Every record comes
/// from a distinct event.
void index_row(const WindowSpec& spec, std::size_t first, std::size_t end,
               std::span<const VertexId> cols,
               std::span<const Timestamp> times,
               std::vector<WindowRun>& runs) {
  std::size_t i = 0;
  while (i < cols.size()) {
    const VertexId u = cols[i];
    VertexId tag = u;
    std::size_t lo = 0;  // [lo, hi): the range being merged; empty at first
    std::size_t hi = 0;
    for (; i < cols.size() && cols[i] == u; ++i) {
      auto [a, b] = spec.windows_containing(times[i]);
      a = std::max(a, first);
      b = std::min(b, end);
      if (a >= b) continue;
      if (lo < hi && a <= hi && b >= lo) {
        lo = std::min(lo, a);
        hi = std::max(hi, b);
        continue;
      }
      if (lo < hi) {
        runs.push_back({tag, static_cast<std::uint32_t>(lo - first),
                        static_cast<std::uint32_t>(hi - first)});
        tag = kSameRun;
      }
      lo = a;
      hi = b;
    }
    if (lo < hi) {
      runs.push_back({tag, static_cast<std::uint32_t>(lo - first),
                      static_cast<std::uint32_t>(hi - first)});
    }
  }
}

/// The lanes of a batch whose window lies in a record's index-relative
/// window range [lo, hi). Lane k holds window first + k·stride, so they
/// are one contiguous lane range; Unit skips the divisions of stride 1.
template <bool Unit>
struct LaneCut {
  std::int64_t first;
  std::int64_t stride;
  std::int64_t lanes;

  std::uint64_t operator()(const WindowRun& r) const {
    std::int64_t k_lo = static_cast<std::int64_t>(r.lo) - first;
    std::int64_t k_hi = static_cast<std::int64_t>(r.hi) - first;
    if constexpr (!Unit) {
      k_lo = k_lo <= 0 ? 0 : (k_lo + stride - 1) / stride;
      k_hi = k_hi <= 0 ? 0 : (k_hi - 1) / stride + 1;
    }
    k_lo = std::max<std::int64_t>(k_lo, 0);
    k_hi = std::min(k_hi, lanes);
    return k_lo < k_hi ? lane_range_mask(static_cast<std::size_t>(k_lo),
                                         static_cast<std::size_t>(k_hi - 1))
                       : 0;
  }
};

/// Calls `fn(u, mask)` once per run of index row v whose lane mask (the OR
/// of `cut` over its records) is nonzero, in row order.
template <typename Cut, typename Fn>
void for_each_cut_run(const WindowRunIndex& index, std::size_t v,
                      const Cut& cut, Fn&& fn) {
  const WindowRun* r = index.runs.data() + index.row_ptr[v];
  const WindowRun* const end = index.runs.data() + index.row_ptr[v + 1];
  while (r != end) {
    const VertexId u = r->nbr;
    std::uint64_t mask = cut(*r);
    for (++r; r != end && r->nbr == kSameRun; ++r) mask |= cut(*r);
    if (mask != 0) fn(u, mask);
  }
}

/// The serial cut: one pass over the rows appends each row's entries and
/// scatters degrees and activity with plain stores. The degree scatter
/// walks the span of the mask's set lanes and adds each lane's bit, so no
/// lane's bit is tested (a mask is almost always one lane range).
template <typename Cut>
void cut_serial(const WindowRunIndex& index, const Cut& cut,
                SpmmWindowState& state, CompiledBatchCsr& out) {
  const std::size_t lanes = state.lanes;
  out.nbr.clear();
  out.mask.clear();
  for (std::size_t v = 0; v < index.num_rows(); ++v) {
    std::uint64_t v_mask = 0;
    for_each_cut_run(index, v, cut, [&](VertexId u, std::uint64_t mask) {
      out.nbr.push_back(u);
      out.mask.push_back(mask);
      std::uint32_t* deg = state.out_degree.data() + u * lanes;
      for (std::size_t k = ctz64(mask), e = lane_end(mask); k < e; ++k) {
        deg[k] += static_cast<std::uint32_t>(mask >> k & 1);
      }
      state.active_mask[u] |= mask;
      v_mask |= mask;
    });
    state.active_mask[v] |= v_mask;
    out.row_ptr[v + 1] = out.nbr.size();
  }
}

/// The parallel cut: pass A counts each row's entries and scatters the
/// degrees and activity, the prefix sum places the rows, and pass B fills
/// nbr/mask at those offsets.
///
/// Atomicity ownership (the TSan-gated stress in
/// tests/pagerank/batch_csr_parallel_test.cpp guards it):
///   * row_ptr[v + 1], the row's entry count, and the row's nbr/mask
///     slots — written only by the thread that cuts row v. Never atomic.
///   * state.out_degree[u * lanes + k] and state.active_mask[u] —
///     cross-row scatter targets: row v bumps arbitrary u's slots, so
///     every write is a relaxed std::atomic_ref operation.
///   * state.active_mask[v] (the row's own activity) is also a shared
///     slot: other rows scatter into v as a neighbor, so it is ORed
///     atomically too.
template <typename Cut>
void cut_parallel(const WindowRunIndex& index, const Cut& cut,
                  SpmmWindowState& state, CompiledBatchCsr& out,
                  const par::ForOptions& parallel) {
  const std::size_t lanes = state.lanes;
  par::parallel_for_range(
      0, index.num_rows(), parallel, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t v = lo; v < hi; ++v) {
          std::size_t entries = 0;
          std::uint64_t v_mask = 0;
          for_each_cut_run(
              index, v, cut, [&](VertexId u, std::uint64_t mask) {
                ++entries;
                for_each_set_lane(mask, [&](std::size_t k) {
                  std::atomic_ref<std::uint32_t> deg(
                      state.out_degree[u * lanes + k]);
                  // relaxed: pure commutative count; published by the join.
                  deg.fetch_add(1, std::memory_order_relaxed);
                });
                std::atomic_ref<std::uint64_t> am(state.active_mask[u]);
                // relaxed: commutative bit-set; published by the join.
                am.fetch_or(mask, std::memory_order_relaxed);
                v_mask |= mask;
              });
          if (v_mask != 0) {
            std::atomic_ref<std::uint64_t> am(state.active_mask[v]);
            // relaxed: commutative bit-set; published by the join.
            am.fetch_or(v_mask, std::memory_order_relaxed);
          }
          out.row_ptr[v + 1] = entries;
        }
      });
  const std::size_t total = counts_to_offsets(out.row_ptr);
  out.nbr.resize(total);
  out.mask.resize(total);
  par::parallel_for_range(
      0, index.num_rows(), parallel, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t v = lo; v < hi; ++v) {
          std::size_t at = out.row_ptr[v];
          for_each_cut_run(index, v, cut,
                           [&](VertexId u, std::uint64_t mask) {
                             out.nbr[at] = u;
                             out.mask[at] = mask;
                             ++at;
                           });
          assert(at == out.row_ptr[v + 1]);
        }
      });
}

void check_lanes(const SpmmBatch& batch) {
  // Release-mode check: an oversized batch would shift lane bits past the
  // mask word — UB plus a corrupt compiled form.
  PMPR_CHECK_MSG(batch.lanes >= 1 && batch.lanes <= kMaxSpmmLanes,
                 "SpMM batch lanes " << batch.lanes << " outside [1, "
                                     << kMaxSpmmLanes << "]");
}

/// SpMV pass A for one row: plain stores on the serial path, relaxed
/// atomics on the parallel one (the ownership split of cut_parallel).
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

void build_window_run_index(const MultiWindowGraph& part,
                            const WindowSpec& spec, std::size_t first_window,
                            std::size_t num_windows, WindowRunIndex& out,
                            io::DecodeScratch* scratch) {
  PMPR_CHECK_MSG(num_windows >= 1 &&
                     num_windows <= std::numeric_limits<std::uint32_t>::max(),
                 "window-run index over " << num_windows
                                          << " windows; its records hold "
                                             "u32 window offsets");
  out.first_window = first_window;
  out.num_windows = num_windows;
  out.row_ptr.assign(static_cast<std::size_t>(part.num_local()) + 1, 0);
  out.runs.clear();
  out.runs.reserve(part.num_events);
  const std::size_t end = first_window + num_windows;
  // Rows of a pruned chunk are never visited: their counts stay 0.
  for_each_row(part, spec.start(first_window), spec.end(end - 1), nullptr,
               scratch, [&](std::size_t v, auto cols, auto times) {
                 const std::size_t before = out.runs.size();
                 index_row(spec, first_window, end, cols, times, out.runs);
                 out.row_ptr[v + 1] = out.runs.size() - before;
               });
  counts_to_offsets(out.row_ptr);
}

void compile_spmm_batch(const WindowRunIndex& index, const SpmmBatch& batch,
                        SpmmWindowState& state, CompiledBatchCsr& out,
                        const par::ForOptions* parallel) {
  check_lanes(batch);
  const std::size_t last = batch.window_of_lane(batch.lanes - 1);
  PMPR_CHECK_MSG(batch.window_stride >= 1 &&
                     batch.first_window >= index.first_window &&
                     last < index.first_window + index.num_windows,
                 "SpMM batch windows " << batch.first_window << ".." << last
                                       << " (stride " << batch.window_stride
                                       << ") outside the index's "
                                       << index.first_window << ".."
                                       << index.first_window +
                                              index.num_windows - 1);
  const std::size_t n = index.num_rows();
  state.resize(n, batch.lanes);
  out.lanes = batch.lanes;
  out.row_ptr.assign(n + 1, 0);
  out.active_rows.clear();
  out.dangling_rows.clear();
  out.dangling_mask.clear();

  const par::ForOptions* split = split_options(parallel, n);
  const auto cut_rows = [&](const auto& cut) {
    if (split != nullptr) {
      cut_parallel(index, cut, state, out, *split);
    } else {
      cut_serial(index, cut, state, out);
    }
  };
  const auto first =
      static_cast<std::int64_t>(batch.first_window - index.first_window);
  const auto lanes = static_cast<std::int64_t>(batch.lanes);
  if (batch.window_stride == 1) {
    cut_rows(LaneCut<true>{first, 1, lanes});
  } else {
    cut_rows(LaneCut<false>{
        first, static_cast<std::int64_t>(batch.window_stride), lanes});
  }

  // Compaction lists + per-lane population (needs the complete degrees).
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t m = state.active_mask[v];
    if (m == 0) continue;
    out.active_rows.push_back(static_cast<VertexId>(v));
    std::uint64_t dangling = 0;
    for_each_set_lane(m, [&](std::size_t k) {
      ++state.num_active[k];
      if (state.out_degree[v * batch.lanes + k] == 0) dangling |= lane_bit(k);
    });
    if (dangling != 0) {
      out.dangling_rows.push_back(static_cast<VertexId>(v));
      out.dangling_mask.push_back(dangling);
    }
  }
}

void compile_spmm_batch(const MultiWindowGraph& part, const WindowSpec& spec,
                        const SpmmBatch& batch, SpmmWindowState& state,
                        CompiledBatchCsr& out, const par::ForOptions* parallel,
                        io::DecodeScratch* scratch) {
  check_lanes(batch);
  WindowRunIndex index;
  build_window_run_index(
      part, spec, batch.first_window,
      batch.window_of_lane(batch.lanes - 1) + 1 - batch.first_window, index,
      scratch);
  compile_spmm_batch(index, batch, state, out, parallel);
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

  const par::ForOptions* split = split_options(
      parallel, part.is_compressed() ? part.in_compressed->num_chunks() : n);
  for_each_row(part, ts, te, split, scratch,
               [&](std::size_t v, auto cols, auto times) {
                 out.row_ptr[v + 1] =
                     split != nullptr
                         ? scatter_window_row<true>(ts, te, state, v, cols,
                                                    times)
                         : scatter_window_row<false>(ts, te, state, v, cols,
                                                     times);
               });
  out.nbr.resize(counts_to_offsets(out.row_ptr));
  for_each_row(part, ts, te, split, scratch,
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
}

}  // namespace pmpr
