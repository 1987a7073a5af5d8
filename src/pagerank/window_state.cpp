#include "pagerank/window_state.hpp"

#include <algorithm>
#include <atomic>

#include "util/check.hpp"

namespace pmpr {

namespace {

/// Scatter pass over rows [lo, hi): every active in-edge (u -> v) marks both
/// endpoints active and bumps u's distinct out-degree. `Atomic` selects
/// std::atomic_ref increments for the parallel path.
template <bool Atomic>
void scatter_window_rows(const MultiWindowGraph& part, Timestamp ts,
                         Timestamp te, WindowState& out, std::size_t lo,
                         std::size_t hi) {
  for (std::size_t v = lo; v < hi; ++v) {
    bool v_active = false;
    part.in.for_each_active_neighbor(
        static_cast<VertexId>(v), ts, te, [&](VertexId u) {
          v_active = true;
          if constexpr (Atomic) {
            std::atomic_ref<std::uint32_t> deg(out.out_degree[u]);
            // relaxed: pure commutative count; published by the join.
            deg.fetch_add(1, std::memory_order_relaxed);
            std::atomic_ref<std::uint8_t> act(out.active[u]);
            // relaxed: idempotent flag; published by the join.
            act.store(1, std::memory_order_relaxed);
          } else {
            ++out.out_degree[u];
            out.active[u] = 1;
          }
        });
    if (v_active) {
      if constexpr (Atomic) {
        std::atomic_ref<std::uint8_t> act(out.active[v]);
        // relaxed: idempotent flag; published by the join.
        act.store(1, std::memory_order_relaxed);
      } else {
        out.active[v] = 1;
      }
    }
  }
}

}  // namespace

void compute_window_state(const MultiWindowGraph& part, Timestamp ts,
                          Timestamp te, WindowState& out,
                          const par::ForOptions* parallel) {
  PMPR_CHECK_MSG(!part.is_compressed(),
                 "compute_window_state reads the raw in-CSR; compressed "
                 "parts require the streaming compile (compile_window)");
  const std::size_t n = part.num_local();
  out.resize(n);
  if (parallel != nullptr) {
    par::parallel_for_range(0, n, *parallel,
                            [&](std::size_t lo, std::size_t hi) {
                              scatter_window_rows<true>(part, ts, te, out, lo,
                                                        hi);
                            });
    out.num_active = par::parallel_reduce(
        0, n, std::size_t{0}, *parallel,
        [&](std::size_t lo, std::size_t hi) {
          std::size_t c = 0;
          for (std::size_t v = lo; v < hi; ++v) c += out.active[v];
          return c;
        },
        [](std::size_t a, std::size_t b) { return a + b; });
  } else {
    scatter_window_rows<false>(part, ts, te, out, 0, n);
    out.num_active = 0;
    for (std::size_t v = 0; v < n; ++v) out.num_active += out.active[v];
  }
}

LaneSpan lane_span_containing(const WindowSpec& spec, const SpmmBatch& batch,
                              Timestamp t) {
  const auto [wlo, whi] = spec.windows_containing(t);  // [wlo, whi)
  if (wlo >= whi) return {};
  // Lane k holds window first_window + k*stride; find the k range
  // intersecting [wlo, whi). The range is contiguous in k.
  const auto first = static_cast<std::int64_t>(batch.first_window);
  const auto stride = static_cast<std::int64_t>(batch.window_stride);
  const auto lo_num = static_cast<std::int64_t>(wlo) - first;
  const auto hi_num = static_cast<std::int64_t>(whi) - 1 - first;
  if (hi_num < 0) return {};
  const std::int64_t k_lo = lo_num <= 0 ? 0 : (lo_num + stride - 1) / stride;
  std::int64_t k_hi = hi_num / stride;
  k_hi = std::min<std::int64_t>(k_hi,
                                static_cast<std::int64_t>(batch.lanes) - 1);
  if (k_lo > k_hi) return {};
  return {static_cast<std::size_t>(k_lo), static_cast<std::size_t>(k_hi)};
}

void lanes_containing_into(const WindowSpec& spec, const SpmmBatch& batch,
                           Timestamp t, std::uint64_t* words) {
  const LaneSpan span = lane_span_containing(spec, batch, t);
  if (!span.empty()) mask_set_range(words, span.lo, span.hi);
}

}  // namespace pmpr
