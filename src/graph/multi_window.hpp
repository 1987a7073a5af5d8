// Multi-window graphs (paper §4.1).
//
// The single temporal CSR over all events makes one SpMV cost Θ(|Events|)
// even when the window holds few edges. The fix: partition the window
// sequence into `num_parts` contiguous groups ("multi-window graphs"), each
// storing only the events relevant to its windows, over its own compacted
// local vertex space V_w. Events spanning a part boundary are duplicated
// into both parts (Σ|E_w| >= |Events|) — memory traded for per-window work
// proportional to Θ(|E_w|).
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/temporal_csr.hpp"
#include "graph/types.hpp"
#include "graph/window.hpp"
#include "io/compressed_csr.hpp"

namespace pmpr {

/// One multi-window graph: a contiguous run of windows plus the in-adjacency
/// temporal CSR over the local (compacted) vertex space.
struct MultiWindowGraph {
  std::size_t first_window = 0;  ///< Global index of the first window held.
  std::size_t num_windows = 0;   ///< Contiguous windows [first, first+num).
  Timestamp span_start = 0;      ///< Earliest time any held window covers.
  Timestamp span_end = 0;        ///< Latest time any held window covers.
  std::size_t num_events = 0;    ///< Events stored (duplicates across parts).

  /// Sorted global ids of the vertices that occur in this part; local id i
  /// corresponds to global id local_to_global[i].
  std::vector<VertexId> local_to_global;

  /// Reverse (in-neighbor) temporal CSR in local ids — the layout the
  /// pull-style PageRank kernels traverse. Empty when the part is
  /// compressed (in_compressed replaces it).
  TemporalCsr in;

  /// Chunked delta+varint form of `in` (io/compressed_csr.hpp): a
  /// zero-copy view into the paged store's mmap, set only on the store's
  /// leased parts (graph/paged_multi_window.hpp). When set, `in` is empty
  /// and the batch compile's row walker streams from the chunks; code that
  /// reads `in` directly (the test oracle's reference kernels) rejects
  /// such a part.
  std::shared_ptr<const io::CompressedTemporalCsr> in_compressed;

  [[nodiscard]] bool is_compressed() const { return in_compressed != nullptr; }

  [[nodiscard]] VertexId num_local() const {
    return static_cast<VertexId>(local_to_global.size());
  }
  [[nodiscard]] VertexId global_of(VertexId local) const {
    return local_to_global[local];
  }
  /// Binary search; kInvalidVertex if the global vertex never occurs here.
  [[nodiscard]] VertexId local_of(VertexId global) const;

  [[nodiscard]] std::size_t memory_bytes() const {
    return (is_compressed() ? in_compressed->memory_bytes()
                            : in.memory_bytes()) +
           local_to_global.size() * sizeof(VertexId);
  }

  /// Deep structural audit: window range non-empty, span ordered,
  /// local_to_global strictly sorted (the local_of binary search depends on
  /// it), CSR sized to the local space, stored events within the span, plus
  /// the CSR's own validate(). Throws pmpr::InvariantError.
  void validate() const;
};

/// How the window sequence is split into multi-window parts.
enum class PartitionPolicy {
  /// Equal window counts per part — the paper's scheme ("we distribute the
  /// graphs uniformly to the multi-window graphs").
  kUniformWindows,
  /// Near-equal *event* counts per part — the alternative the paper's
  /// conclusion raises as future work ("this may not be the decomposition
  /// that minimize memory and work overheads"). Balances per-part work for
  /// spike-shaped datasets at the cost of uneven window counts.
  kBalancedEvents,
};

[[nodiscard]] std::string_view to_string(PartitionPolicy p);

/// Window-range boundaries per part under `policy`: boundaries[p] ..
/// boundaries[p+1] is the half-open window range of part p (num_parts + 1
/// values). Shared by MultiWindowSet::build and the out-of-core
/// PagedMultiWindowSet so both decompose identically.
std::vector<std::size_t> partition_boundaries(const TemporalEdgeList& events,
                                              const WindowSpec& spec,
                                              std::size_t num_parts,
                                              PartitionPolicy policy);

/// Builds one part from its event slice (already restricted to the span).
MultiWindowGraph build_multi_window_part(std::span<const TemporalEdge> slice,
                                         std::size_t first_window,
                                         std::size_t num_windows,
                                         Timestamp span_start,
                                         Timestamp span_end);

/// The full postmortem representation: spec + all multi-window parts.
class MultiWindowSet {
 public:
  /// Builds `num_parts` parts (clamped to [1, spec.count]); window-to-part
  /// assignment follows `policy`. `events` must be time-sorted and `spec`
  /// well-formed (sw > 0, delta >= 0, count >= 1) — both are verified up
  /// front (also in release builds) and violations throw
  /// pmpr::InvariantError. Parts build in parallel.
  static MultiWindowSet build(
      const TemporalEdgeList& events, const WindowSpec& spec,
      std::size_t num_parts,
      PartitionPolicy policy = PartitionPolicy::kUniformWindows);

  [[nodiscard]] const WindowSpec& spec() const { return spec_; }
  [[nodiscard]] VertexId num_global_vertices() const { return num_global_; }
  [[nodiscard]] std::size_t num_parts() const { return parts_.size(); }
  [[nodiscard]] const MultiWindowGraph& part(std::size_t p) const {
    return parts_[p];
  }

  /// Which part holds window `w`.
  [[nodiscard]] std::size_t part_index_for_window(std::size_t w) const;
  [[nodiscard]] const MultiWindowGraph& part_for_window(std::size_t w) const {
    return parts_[part_index_for_window(w)];
  }

  /// Σ_w |E_w| over parts — the duplication-aware event total.
  [[nodiscard]] std::size_t total_events() const;
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Audits the whole set: parts cover the window sequence contiguously
  /// without gaps or overlap, every part's global ids stay inside the
  /// global vertex space, spans match the spec, and each part passes its
  /// own validate(). Throws pmpr::InvariantError.
  void validate() const;

 private:
  WindowSpec spec_;
  VertexId num_global_ = 0;
  std::vector<MultiWindowGraph> parts_;
};

}  // namespace pmpr
