// Shared fixtures for the pmpr test suite:
//   * the paper's worked example (Fig. 2: 7 vertices, 14 dated events,
//     three overlapping analysis windows),
//   * random temporal-event generation for property tests,
//   * compressed multi-window parts, taken from an out-of-core store whose
//     budget holds every part,
//   * brute-force reference implementations (window edge filter, dense
//     PageRank) that the optimized paths are checked against.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/multi_window.hpp"
#include "graph/paged_multi_window.hpp"
#include "graph/types.hpp"
#include "graph/window.hpp"
#include "util/rng.hpp"

namespace pmpr::test {

/// Days -> timestamp (the paper example uses dates; we use day numbers
/// since 2021-01-01).
constexpr Timestamp day(int d) { return static_cast<Timestamp>(d); }

/// Fig. 2a's edge list. Vertices are renumbered 1..7 -> 0..6. Dates are day
/// numbers: 06/21=171, 06/25=175, 07/11=191, 08/01=212, 08/11=222,
/// 09/13=255, 10/02=274, 10/05=277, 10/06=278, 10/09=281, 11/05=308,
/// 11/06=309, 11/09=312, 11/12=315.
inline TemporalEdgeList paper_example_directed() {
  TemporalEdgeList list;
  list.add(0, 1, day(171));
  list.add(2, 4, day(175));
  list.add(3, 5, day(191));
  list.add(1, 2, day(212));
  list.add(1, 3, day(222));
  list.add(4, 5, day(255));
  list.add(1, 6, day(274));
  list.add(3, 6, day(277));
  list.add(4, 6, day(278));
  list.add(5, 6, day(281));
  list.add(0, 1, day(308));
  list.add(0, 2, day(309));
  list.add(1, 4, day(312));
  list.add(2, 4, day(315));
  return list;
}

/// Same events inserted in both directions (the paper's Fig. 3 temporal CSR
/// stores 28 entries, i.e. the symmetrized graph).
inline TemporalEdgeList paper_example_symmetric() {
  const TemporalEdgeList d = paper_example_directed();
  TemporalEdgeList list;
  for (const auto& e : d.events()) {
    list.add(e.src, e.dst, e.time);
    list.add(e.dst, e.src, e.time);
  }
  list.sort_by_time();
  return list;
}

/// The paper's three analysis intervals: T1 = 6/1..9/15 (151..258),
/// T2 = 7/1..10/15 (181..288), T3 = 8/1..1/15/22 (212..380).
/// As a WindowSpec: t0=151, delta=107, sw=30 does not reproduce the exact
/// ends, so tests that need the exact intervals use these pairs directly.
struct PaperIntervals {
  static constexpr Timestamp t1_start = 151, t1_end = 258;
  static constexpr Timestamp t2_start = 181, t2_end = 288;
  static constexpr Timestamp t3_start = 212, t3_end = 380;
};

/// Uniform random temporal events over `n` vertices and [0, t_max].
inline TemporalEdgeList random_events(std::uint64_t seed, VertexId n,
                                      std::size_t count, Timestamp t_max) {
  Xoshiro256 rng(seed);
  TemporalEdgeList list;
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<VertexId>(rng.bounded(n));
    const auto v = static_cast<VertexId>(rng.bounded(n));
    const auto t = static_cast<Timestamp>(rng.bounded(
        static_cast<std::uint64_t>(t_max) + 1));
    list.add(u, v, t);
  }
  list.ensure_vertices(n);
  list.sort_by_time();
  return list;
}

/// Every part of an out-of-core store, pinned for the object's lifetime.
/// The budget holds the whole store, so the parts stay compressed in RAM
/// and nothing is evicted: the compressed-part input of the compile tests.
struct PinnedStore {
  std::unique_ptr<PagedMultiWindowSet> store;
  std::vector<PagedMultiWindowSet::Lease> leases;

  PinnedStore(const TemporalEdgeList& events, const WindowSpec& spec,
              std::size_t num_parts, std::size_t chunk_entries) {
    PagedMultiWindowSet::Options opts;
    opts.num_parts = num_parts;
    opts.target_chunk_entries = chunk_entries;
    opts.budget_bytes = std::size_t{1} << 30;
    store = PagedMultiWindowSet::build(events, spec, opts);
    for (std::size_t p = 0; p < store->num_parts(); ++p) {
      leases.push_back(store->acquire(p));
    }
  }

  [[nodiscard]] std::size_t num_parts() const { return leases.size(); }
  [[nodiscard]] const MultiWindowGraph& part(std::size_t p) const {
    return leases[p].part();
  }
};

/// Brute force: distinct directed edges of G(ts, te).
inline std::set<std::pair<VertexId, VertexId>> brute_window_edges(
    const TemporalEdgeList& events, Timestamp ts, Timestamp te) {
  std::set<std::pair<VertexId, VertexId>> out;
  for (const auto& e : events.events()) {
    if (e.time >= ts && e.time <= te) out.emplace(e.src, e.dst);
  }
  return out;
}

/// Brute-force dense PageRank matching the library's definition: Eq. 1 with
/// active-set |V|, dangling redistribution, L1 tolerance.
inline std::vector<double> brute_pagerank(
    const std::set<std::pair<VertexId, VertexId>>& edges, VertexId n,
    double alpha = 0.15, double tol = 1e-9, int max_iters = 100) {
  std::vector<std::uint8_t> active(n, 0);
  std::vector<std::uint32_t> out_deg(n, 0);
  for (const auto& [u, v] : edges) {
    active[u] = 1;
    active[v] = 1;
    ++out_deg[u];
  }
  std::size_t n_active = 0;
  for (VertexId v = 0; v < n; ++v) n_active += active[v];
  std::vector<double> x(n, 0.0);
  if (n_active == 0) return x;
  for (VertexId v = 0; v < n; ++v) {
    x[v] = active[v] ? 1.0 / static_cast<double>(n_active) : 0.0;
  }
  std::vector<double> next(n, 0.0);
  for (int iter = 0; iter < max_iters; ++iter) {
    double dangling = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      if (active[v] && out_deg[v] == 0) dangling += x[v];
    }
    const double base = (alpha + (1.0 - alpha) * dangling) /
                        static_cast<double>(n_active);
    for (VertexId v = 0; v < n; ++v) next[v] = active[v] ? base : 0.0;
    for (const auto& [u, v] : edges) {
      next[v] += (1.0 - alpha) * x[u] / static_cast<double>(out_deg[u]);
    }
    double diff = 0.0;
    for (VertexId v = 0; v < n; ++v) diff += std::abs(next[v] - x[v]);
    x.swap(next);
    if (diff < tol) break;
  }
  return x;
}

/// Max absolute difference between two vectors.
inline double linf_diff(const std::vector<double>& a,
                        const std::vector<double>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

}  // namespace pmpr::test
