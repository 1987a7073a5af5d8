// Per-window result consumption — the downstream-analysis interface.
//
// Runners hand every window's converged vector to a ResultSink. Sinks let
// benchmarks avoid materializing all m vectors (ChecksumSink) while tests
// and applications keep them (StoreAllSink) — the paper notes downstream
// analyses consume the whole time series (§2.2). Lives in analysis/ (below
// exec/ in the module DAG, ci/layers.toml), so a sink never depends on the
// runners.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace pmpr {

/// Receives one converged PageRank vector per window. consume_* is called
/// exactly once per window; calls for *different* windows may be concurrent.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// `pr` is indexed by global vertex id (offline / streaming models).
  virtual void consume_dense(std::size_t window,
                             std::span<const double> pr) = 0;

  /// `pr[i]` belongs to global vertex `ids[i]` (postmortem model: the part's
  /// local→global map). Vertices absent from `ids` have PageRank 0.
  virtual void consume_mapped(std::size_t window,
                              std::span<const VertexId> ids,
                              std::span<const double> pr) = 0;
};

/// Discards results (pure-timing benchmarks where even a checksum is noise).
class NullSink final : public ResultSink {
 public:
  void consume_dense(std::size_t, std::span<const double>) override {}
  void consume_mapped(std::size_t, std::span<const VertexId>,
                      std::span<const double>) override {}
};

/// Keeps a model-independent fingerprint per window: Σ_v pr[v]·(v+1) and
/// Σ_v pr[v]. Equal across execution models up to float tolerance — used by
/// the equivalence tests and to keep benchmark kernels honest.
class ChecksumSink final : public ResultSink {
 public:
  explicit ChecksumSink(std::size_t num_windows)
      : weighted_(num_windows, 0.0), mass_(num_windows, 0.0) {}

  void consume_dense(std::size_t window, std::span<const double> pr) override {
    double weighted = 0.0;
    double mass = 0.0;
    for (std::size_t v = 0; v < pr.size(); ++v) {
      weighted += pr[v] * static_cast<double>(v + 1);
      mass += pr[v];
    }
    weighted_[window] = weighted;
    mass_[window] = mass;
  }

  void consume_mapped(std::size_t window, std::span<const VertexId> ids,
                      std::span<const double> pr) override {
    double weighted = 0.0;
    double mass = 0.0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      weighted += pr[i] * static_cast<double>(ids[i] + 1);
      mass += pr[i];
    }
    weighted_[window] = weighted;
    mass_[window] = mass;
  }

  [[nodiscard]] const std::vector<double>& weighted() const {
    return weighted_;
  }
  [[nodiscard]] const std::vector<double>& mass() const { return mass_; }

 private:
  std::vector<double> weighted_;
  std::vector<double> mass_;
};

/// Stores every window's vector as sorted (global id, value) pairs.
class StoreAllSink final : public ResultSink {
 public:
  explicit StoreAllSink(std::size_t num_windows) : windows_(num_windows) {}

  void consume_dense(std::size_t window, std::span<const double> pr) override {
    auto& out = windows_[window];
    out.clear();
    for (std::size_t v = 0; v < pr.size(); ++v) {
      if (pr[v] != 0.0) out.emplace_back(static_cast<VertexId>(v), pr[v]);
    }
  }

  void consume_mapped(std::size_t window, std::span<const VertexId> ids,
                      std::span<const double> pr) override {
    auto& out = windows_[window];
    out.clear();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (pr[i] != 0.0) out.emplace_back(ids[i], pr[i]);
    }
  }

  [[nodiscard]] std::size_t num_windows() const { return windows_.size(); }
  [[nodiscard]] const std::vector<std::pair<VertexId, double>>& window(
      std::size_t w) const {
    return windows_[w];
  }

  /// Expands window `w` to a dense vector over [0, n).
  [[nodiscard]] std::vector<double> dense(std::size_t w, VertexId n) const {
    std::vector<double> out(n, 0.0);
    for (const auto& [v, value] : windows_[w]) out[v] = value;
    return out;
  }

 private:
  std::vector<std::vector<std::pair<VertexId, double>>> windows_;
};

}  // namespace pmpr
