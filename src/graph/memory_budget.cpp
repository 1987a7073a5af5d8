#include "graph/memory_budget.hpp"

#include <algorithm>
#include <cstdint>

namespace pmpr {

// Vectors: x + scratch (2 doubles) and degrees (u32) per lane, the one-lane
// seed (a double) and one activity mask word. Plus the batch-compiled
// adjacency: row pointers, run-compressed neighbor + lane mask entries
// (bounded by the part's stored events — run compression and mask-0
// dropping only shrink it), and the compacted active/dangling lists (a
// dangling row also carries a mask word).
std::size_t working_bytes(std::size_t vertices, std::size_t events,
                          std::size_t vector_length) {
  const std::size_t lanes = std::max<std::size_t>(1, vector_length);
  const std::size_t mask_bytes = sizeof(std::uint64_t);
  const std::size_t vectors =
      vertices * (2 * sizeof(double) * lanes + sizeof(double) +
                  sizeof(std::uint32_t) * lanes + mask_bytes);
  const std::size_t compiled =
      (vertices + 1) * sizeof(std::size_t)               // row_ptr
      + events * (sizeof(VertexId) + mask_bytes)         // nbr + mask
      + vertices * (2 * sizeof(VertexId) + mask_bytes);  // lists
  return vectors + compiled;
}

// A record is a neighbor and a window range [lo, hi): three u32 values.
std::size_t window_run_index_bytes(std::size_t vertices, std::size_t events) {
  return events * (sizeof(VertexId) + 2 * sizeof(std::uint32_t)) +
         (vertices + 1) * sizeof(std::size_t);
}

MemoryEstimate estimate_memory(const MultiWindowSet& set,
                               std::size_t vector_length) {
  MemoryEstimate est;
  for (std::size_t p = 0; p < set.num_parts(); ++p) {
    const auto& part = set.part(p);
    const std::size_t bytes = part.memory_bytes();
    est.representation_bytes += bytes;
    est.largest_part_bytes = std::max(est.largest_part_bytes, bytes);
    est.index_bytes +=
        window_run_index_bytes(part.num_local(), part.num_events);
    est.working_bytes_per_context = std::max(
        est.working_bytes_per_context,
        working_bytes(part.num_local(), part.num_events, vector_length));
  }
  return est;
}

}  // namespace pmpr
