// Output check behind the benchmark's failure count.
//
// Every window of the spec is one operation. CheckingSink sees each
// delivery while the run is timed and keeps only what the check needs:
// a delivery count, the rank mass and a finite/non-negative flag per
// window, and the full vector of a fixed spread of sampled windows (the
// first and the last among them). finish() runs after the timed region and
// compares each sampled window with an independent oracle: the window's
// graph rebuilt from the raw events (build_window_graph) and solved by the
// static pagerank() to a tolerance 1000x tighter than the run's.
//
// Calls for different windows arrive concurrently (see ResultSink), so all
// per-window state is indexed by window and only the first delivery of a
// window writes it; later deliveries just raise the count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/result_sink.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/window.hpp"
#include "pagerank/pagerank.hpp"
#include "spans.hpp"

namespace perfbench {

/// |mass - 1| allowed for a non-empty window. Power iteration with
/// dangling redistribution keeps the mass at 1 up to rounding (|mass - 1|
/// stays near 1e-13 on this input), so a real loss of mass shows at once.
inline constexpr double kMassTolerance = 1e-10;
/// Convergence threshold of the oracle solve.
inline constexpr double kOracleTol = 1e-12;

struct CheckReport {
  std::size_t windows = 0;          ///< Windows in the spec.
  std::size_t failed = 0;           ///< Windows failing any check below.
  std::size_t missing = 0;          ///< Delivered zero times.
  std::size_t duplicated = 0;       ///< Delivered more than once.
  std::size_t stray = 0;            ///< Deliveries for an index >= windows.
  std::size_t bad_values = 0;       ///< A rank not finite or negative.
  std::size_t bad_mass = 0;         ///< |mass - 1| too large (or != 0 if empty).
  std::size_t oracle_checked = 0;   ///< Sampled windows compared.
  std::size_t oracle_mismatch = 0;  ///< Sampled windows off the oracle.
  double max_mass_error = 0.0;
  double max_oracle_l1 = 0.0;
  double oracle_l1_bound = 0.0;

  [[nodiscard]] double fail_frac() const {
    return windows == 0 ? 1.0
                        : static_cast<double>(failed) /
                              static_cast<double>(windows);
  }
};

/// `count` windows spread evenly over [0, num_windows), first and last
/// included.
inline std::vector<std::size_t> spread_windows(std::size_t num_windows,
                                               std::size_t count) {
  std::vector<std::size_t> out;
  if (num_windows == 0 || count == 0) return out;
  if (count == 1 || num_windows == 1) return {0};
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(i * (num_windows - 1) / (count - 1));
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// L1 distance from the true fixed point is at most residual * (1-α)/α
/// for the run and for the oracle; twice their sum leaves room for
/// rounding.
inline double oracle_l1_bound(const pmpr::PagerankParams& run) {
  return 2.0 * (run.tol + kOracleTol) * (1.0 - run.alpha) / run.alpha;
}

/// Window `w`'s PageRank computed from scratch: the oracle.
inline std::vector<double> oracle_ranks(const pmpr::TemporalEdgeList& events,
                                        const pmpr::WindowSpec& spec,
                                        std::size_t w,
                                        const pmpr::PagerankParams& run) {
  const pmpr::VertexId n = events.num_vertices();
  const pmpr::WindowGraph g =
      pmpr::build_window_graph(events.slice(spec.start(w), spec.end(w)), n);
  std::vector<double> x(n, 0.0);
  std::vector<double> scratch(n, 0.0);
  pmpr::full_init(g.is_active, g.num_active, x);
  pmpr::PagerankParams params = run;
  params.tol = kOracleTol;
  params.max_iters = 10'000;
  pmpr::pagerank(g, x, scratch, params);
  return x;
}

class CheckingSink final : public pmpr::ResultSink {
 public:
  /// `spans` (nullable) receives one span per consume_* call, parented to
  /// `parent_span`.
  CheckingSink(const pmpr::WindowSpec& spec, pmpr::VertexId num_vertices,
               std::size_t num_samples, SpanLog* spans = nullptr,
               int parent_span = -1)
      : spec_(spec),
        n_(num_vertices),
        deliveries_(spec.count),
        bad_values_(spec.count),
        mass_(spec.count, 0.0),
        sample_slot_(spec.count, -1),
        spans_(spans),
        parent_span_(parent_span) {
    sampled_ = spread_windows(spec.count, num_samples);
    samples_.resize(sampled_.size());
    for (std::size_t i = 0; i < sampled_.size(); ++i) {
      sample_slot_[sampled_[i]] = static_cast<int>(i);
    }
  }

  void consume_dense(std::size_t window,
                     std::span<const double> pr) override {
    ScopedSpan span(spans_, "sink.consume_dense", parent_span_,
                    static_cast<std::int64_t>(window));
    if (!first_delivery(window)) return;
    std::vector<double>* sample = sample_for(window);
    bool bad = pr.size() > n_;
    double mass = 0.0;
    for (std::size_t v = 0; v < pr.size(); ++v) {
      bad |= !(std::isfinite(pr[v]) && pr[v] >= 0.0);
      mass += pr[v];
      if (sample != nullptr && v < n_) (*sample)[v] = pr[v];
    }
    record(window, mass, bad);
  }

  void consume_mapped(std::size_t window, std::span<const pmpr::VertexId> ids,
                      std::span<const double> pr) override {
    ScopedSpan span(spans_, "sink.consume_mapped", parent_span_,
                    static_cast<std::int64_t>(window));
    if (!first_delivery(window)) return;
    std::vector<double>* sample = sample_for(window);
    bool bad = ids.size() != pr.size();
    double mass = 0.0;
    for (std::size_t i = 0; i < std::min(ids.size(), pr.size()); ++i) {
      bad |= !(std::isfinite(pr[i]) && pr[i] >= 0.0) || ids[i] >= n_;
      mass += pr[i];
      if (sample != nullptr && ids[i] < n_) (*sample)[ids[i]] = pr[i];
    }
    record(window, mass, bad);
  }

  [[nodiscard]] const std::vector<std::size_t>& sampled_windows() const {
    return sampled_;
  }

  /// Tallies every window and compares the sampled ones with the oracle.
  /// Call once the run has returned (no delivery may still be in flight).
  [[nodiscard]] CheckReport finish(const pmpr::TemporalEdgeList& events,
                                   const pmpr::PagerankParams& run) const {
    CheckReport r;
    r.windows = spec_.count;
    r.stray = stray_.load(std::memory_order_relaxed);
    r.oracle_l1_bound = oracle_l1_bound(run);
    for (std::size_t w = 0; w < spec_.count; ++w) {
      const std::uint32_t d = deliveries_[w].load(std::memory_order_relaxed);
      bool fail = d != 1;
      r.missing += d == 0 ? 1 : 0;
      r.duplicated += d > 1 ? 1 : 0;
      if (d == 0) {
        ++r.failed;
        continue;
      }
      if (bad_values_[w].load(std::memory_order_relaxed) != 0) {
        ++r.bad_values;
        fail = true;
      }
      double err = std::abs(mass_[w] - 1.0);
      // An empty window has no active vertex: its vector is all zeros.
      if (err > kMassTolerance &&
          events.slice(spec_.start(w), spec_.end(w)).empty()) {
        err = std::abs(mass_[w]);
      }
      r.max_mass_error = std::max(r.max_mass_error, err);
      if (err > kMassTolerance) {
        ++r.bad_mass;
        fail = true;
      }
      const int slot = sample_slot_[w];
      if (slot >= 0) {
        ++r.oracle_checked;
        const std::vector<double> want = oracle_ranks(events, spec_, w, run);
        const std::vector<double>& got = samples_[static_cast<std::size_t>(slot)];
        double l1 = 0.0;
        for (std::size_t v = 0; v < want.size(); ++v) {
          l1 += std::abs(got[v] - want[v]);
        }
        r.max_oracle_l1 = std::max(r.max_oracle_l1, l1);
        if (!(l1 <= r.oracle_l1_bound)) {
          ++r.oracle_mismatch;
          fail = true;
        }
      }
      r.failed += fail ? 1 : 0;
    }
    r.failed = std::min(r.windows, r.failed + r.stray);
    return r;
  }

 private:
  /// Counts the delivery; true for the first one of an in-range window.
  bool first_delivery(std::size_t window) {
    if (window >= spec_.count) {
      // relaxed: tallied after the run has joined every worker.
      stray_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // relaxed: exactly one caller sees 0 whatever the order; the tallies
    // are read after the run has joined every worker.
    return deliveries_[window].fetch_add(1, std::memory_order_relaxed) == 0;
  }

  std::vector<double>* sample_for(std::size_t window) {
    const int slot = sample_slot_[window];
    if (slot < 0) return nullptr;
    std::vector<double>& s = samples_[static_cast<std::size_t>(slot)];
    s.assign(n_, 0.0);
    return &s;
  }

  void record(std::size_t window, double mass, bool bad) {
    mass_[window] = mass;
    // relaxed: read after the run has joined every worker.
    bad_values_[window].store(bad ? 1 : 0, std::memory_order_relaxed);
  }

  pmpr::WindowSpec spec_;
  pmpr::VertexId n_;
  std::vector<std::atomic<std::uint32_t>> deliveries_;
  std::vector<std::atomic<std::uint8_t>> bad_values_;
  std::vector<double> mass_;
  std::atomic<std::size_t> stray_{0};
  std::vector<std::size_t> sampled_;
  std::vector<int> sample_slot_;
  std::vector<std::vector<double>> samples_;
  SpanLog* spans_;
  int parent_span_;
};

}  // namespace perfbench
