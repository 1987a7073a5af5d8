// Memory accounting for the postmortem representation (paper §4.1).
//
// The paper sizes the multi-window decomposition by memory: "we propose
// that a window graph should be accommodated by the system memory when
// computing Pagerank" with a total representation cost of
// encoding·(Σ_w |V_w| + 2·|E_w|) plus the intermediate PageRank vectors.
// These helpers estimate both terms and pick the smallest part count whose
// largest part (graph + working vectors) fits a byte budget.
#pragma once

#include <cstddef>

#include "graph/edge_list.hpp"
#include "graph/multi_window.hpp"
#include "graph/window.hpp"

namespace pmpr {

struct MemoryEstimate {
  /// Bytes of the encoded representation across all parts
  /// (row pointers + colA + timeA + vertex maps).
  std::size_t representation_bytes = 0;
  /// Bytes of the largest single part (the unit that must be resident
  /// while its windows compute).
  std::size_t largest_part_bytes = 0;
  /// Per-execution-context working set for the largest part: PageRank
  /// vector, scratch, partial-init carry, degrees and activity — times the
  /// SpMM vector length — plus the batch-compiled adjacency
  /// (pagerank/batch_csr.hpp; entries bounded by the part's stored
  /// events).
  std::size_t working_bytes_per_context = 0;

  /// Peak bytes with `contexts` simultaneously active parts/kernels.
  [[nodiscard]] std::size_t peak_bytes(std::size_t contexts) const {
    return representation_bytes + contexts * working_bytes_per_context;
  }
};

/// Measures an already-built set.
MemoryEstimate estimate_memory(const MultiWindowSet& set,
                               std::size_t vector_length);

/// Predicts the estimate for a hypothetical uniform-windows decomposition
/// into `num_parts`, without building it (event counts come from binary
/// searches on the sorted list; vertex counts are upper-bounded by
/// min(2·events, |V|)).
MemoryEstimate predict_memory(const TemporalEdgeList& events,
                              const WindowSpec& spec, std::size_t num_parts,
                              std::size_t vector_length);

/// §4.1's sizing rule: the smallest number of multi-window graphs whose
/// predicted peak (with `contexts` concurrent kernels) fits
/// `budget_bytes`. Returns spec.count (maximum decomposition) if even that
/// does not fit — the caller should then shrink the dataset or the budget.
std::size_t suggest_num_multi_windows(const TemporalEdgeList& events,
                                      const WindowSpec& spec,
                                      std::size_t budget_bytes,
                                      std::size_t vector_length,
                                      std::size_t contexts);

}  // namespace pmpr
