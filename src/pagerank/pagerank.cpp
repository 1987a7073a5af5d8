#include "pagerank/pagerank.hpp"

#include <cassert>

#include "obs/counters.hpp"
#include "pagerank/power_iterate.hpp"

namespace pmpr {

void full_init(std::span<const std::uint8_t> active, std::size_t num_active,
               std::span<double> x) {
  assert(active.size() == x.size());
  const double value =
      num_active > 0 ? 1.0 / static_cast<double>(num_active) : 0.0;
  for (std::size_t v = 0; v < x.size(); ++v) {
    x[v] = active[v] != 0 ? value : 0.0;
  }
  obs::count(obs::Counter::kVerticesReseeded, num_active);
}

namespace {

/// A window's CSR through the graph interface power_iterate reads.
struct WindowView {
  const WindowGraph& g;

  [[nodiscard]] std::size_t num_active() const { return g.num_active; }
  [[nodiscard]] bool is_active(VertexId v) const {
    return g.is_active[v] != 0;
  }
  [[nodiscard]] std::uint32_t out_degree(VertexId u) const {
    return g.out_degree[u];
  }
  template <typename Fn>
  void for_each_in(VertexId v, Fn&& fn) const {
    for (const VertexId u : g.in.neighbors(v)) fn(u);
  }
};

}  // namespace

PagerankStats pagerank(const WindowGraph& g, std::span<double> x,
                       std::span<double> scratch,
                       const PagerankParams& params,
                       const par::ForOptions* parallel) {
  assert(x.size() == g.num_vertices);
  return power_iterate(WindowView{g}, x, scratch, params, parallel);
}

}  // namespace pmpr
