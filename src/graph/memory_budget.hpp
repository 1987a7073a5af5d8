// Memory accounting for the postmortem representation (paper §4.1).
//
// The paper sizes the multi-window decomposition by memory: "we propose
// that a window graph should be accommodated by the system memory when
// computing Pagerank" with a total representation cost of
// encoding·(Σ_w |V_w| + 2·|E_w|) plus the intermediate PageRank vectors.
// estimate_memory measures both terms for a built set; the postmortem
// runner reports them as RunResult::representation_bytes and
// peak_memory_bytes. SpMM runs also hold window-run indexes
// (pagerank/batch_csr.hpp): all parts' in RAM, the pinned part's when
// paged. Paged runs add working_bytes' term and the largest part's index
// to their measured resident peak, so both storage kinds report
// comparable peaks.
#pragma once

#include <cstddef>

#include "graph/multi_window.hpp"

namespace pmpr {

struct MemoryEstimate {
  /// Bytes of the encoded representation across all parts
  /// (row pointers + colA + timeA + vertex maps).
  std::size_t representation_bytes = 0;
  /// Bytes of the largest single part (the unit that must be resident
  /// while its windows compute).
  std::size_t largest_part_bytes = 0;
  /// Σ over parts of window_run_index_bytes: an in-RAM SpMM run holds
  /// every part's index at once. The runner drops it for SpMV, which
  /// builds none.
  std::size_t index_bytes = 0;
  /// The largest per-execution-context working set over the parts
  /// (working_bytes).
  std::size_t working_bytes_per_context = 0;

  /// Peak bytes with `contexts` simultaneously active parts/kernels.
  [[nodiscard]] std::size_t peak_bytes(std::size_t contexts) const {
    return representation_bytes + index_bytes +
           contexts * working_bytes_per_context;
  }
};

/// Per-execution-context working set of a part with `vertices` locals and
/// `events` stored events: PageRank vector and scratch times the SpMM
/// vector length, the one-lane partial-init seed, degrees and activity,
/// plus the batch-compiled adjacency (pagerank/batch_csr.hpp; entries
/// bounded by the part's stored events).
std::size_t working_bytes(std::size_t vertices, std::size_t events,
                          std::size_t vector_length);

/// Bound on a part's window-run index (pagerank/batch_csr.hpp): at most
/// one 12-byte record per stored event, plus its row offsets.
std::size_t window_run_index_bytes(std::size_t vertices, std::size_t events);

/// Measures an already-built set.
MemoryEstimate estimate_memory(const MultiWindowSet& set,
                               std::size_t vector_length);

}  // namespace pmpr
