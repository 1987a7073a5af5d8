// Temporal CSR (paper §4.1, Fig. 3): the postmortem graph representation.
//
// Like CSR, but each adjacency entry carries the event timestamp (timeA).
// The entries of a row are sorted by ⟨neighbor, time⟩, so all events between
// the same vertex pair form a consecutive *run*. An edge (v, u) exists in
// window [ts, te] iff the run for u contains at least one timestamp in
// [ts, te]; iterating the distinct active neighbors of v is a single scan
// of the row with run skipping.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "io/compressed_csr.hpp"

namespace pmpr {

/// Calls `fn(u)` once per distinct neighbor u in a ⟨neighbor, time⟩-sorted
/// row (given as parallel col/time spans) with at least one event in
/// [ts, te]. Shared by TemporalCsr::for_each_active_neighbor and the
/// window compile (pagerank/batch_csr.cpp), whose row walker also hands it
/// rows decoded into io::DecodeScratch without materializing a CSR.
template <typename Fn>
void for_each_active_neighbor_in_row(std::span<const VertexId> cols,
                                     std::span<const Timestamp> times,
                                     Timestamp ts, Timestamp te, Fn&& fn) {
  std::size_t i = 0;
  const std::size_t n = cols.size();
  while (i < n) {
    const VertexId u = cols[i];
    bool active = false;
    // Scan this run; timestamps within a run are ascending, so we could
    // stop testing once past te (later events in the run are later).
    while (i < n && cols[i] == u) {
      const Timestamp t = times[i];
      if (t >= ts && t <= te) active = true;
      ++i;
    }
    if (active) fn(u);
  }
}

class TemporalCsr {
 public:
  TemporalCsr() = default;

  /// Adopts pre-built arrays (row_ptr.size() == rows + 1; col/time
  /// parallel). For the io bridge (decompress_temporal_csr) and tests that
  /// construct exact layouts; throws pmpr::InvariantError when the sizes
  /// disagree. Does NOT verify row sort order — call validate() for that.
  static TemporalCsr adopt(std::vector<std::size_t> row_ptr,
                           std::vector<VertexId> col,
                           std::vector<Timestamp> time);

  /// Builds over vertex space [0, n). If `reverse`, rows are destinations
  /// and columns are sources (the layout the pull-style PageRank reads).
  /// Throws pmpr::InvariantError if any event endpoint is >= num_vertices
  /// (also in release builds; a bad endpoint would otherwise write out of
  /// bounds).
  static TemporalCsr build(std::span<const TemporalEdge> events,
                           VertexId num_vertices, bool reverse);

  /// Deep structural audit, O(V + E): row_ptr monotone and consistent with
  /// the entry arrays, every column id in range, every row sorted by
  /// ⟨neighbor, time⟩. Throws pmpr::InvariantError naming the first
  /// violation. Cheap enough for tests and validate-mode runs, not for
  /// per-query use.
  void validate() const;

  [[nodiscard]] VertexId num_vertices() const {
    return row_ptr_.empty() ? 0 : static_cast<VertexId>(row_ptr_.size() - 1);
  }
  /// Number of stored events (= |Events| of the slice it was built from).
  [[nodiscard]] std::size_t num_entries() const { return col_.size(); }

  [[nodiscard]] std::span<const VertexId> row_cols(VertexId v) const {
    return {col_.data() + row_ptr_[v], col_.data() + row_ptr_[v + 1]};
  }
  [[nodiscard]] std::span<const Timestamp> row_times(VertexId v) const {
    return {time_.data() + row_ptr_[v], time_.data() + row_ptr_[v + 1]};
  }

  // Read-only views (spans, not container references: the backing vectors
  // are an implementation detail and must not leak a mutable-size handle).
  [[nodiscard]] std::span<const std::size_t> row_ptr() const {
    return row_ptr_;
  }
  [[nodiscard]] std::span<const VertexId> col() const { return col_; }
  [[nodiscard]] std::span<const Timestamp> time() const { return time_; }

  /// Calls `fn(u)` once per distinct neighbor u of v that has at least one
  /// event in [ts, te]. This is the SpMV inner loop of the paper.
  template <typename Fn>
  void for_each_active_neighbor(VertexId v, Timestamp ts, Timestamp te,
                                Fn&& fn) const {
    for_each_active_neighbor_in_row(row_cols(v), row_times(v), ts, te,
                                    std::forward<Fn>(fn));
  }

  /// Variant of for_each_active_neighbor that binary-searches each
  /// ⟨v,u⟩ run for the first event >= ts instead of scanning it. Wins only
  /// when runs are long (many repeated events between the same pair);
  /// `pmpr_bench timescan` quantifies the crossover. Results identical.
  template <typename Fn>
  void for_each_active_neighbor_binsearch(VertexId v, Timestamp ts,
                                          Timestamp te, Fn&& fn) const {
    const std::size_t lo = row_ptr_[v];
    const std::size_t hi = row_ptr_[v + 1];
    std::size_t i = lo;
    while (i < hi) {
      const VertexId u = col_[i];
      // Find the end of the run.
      std::size_t j = i + 1;
      while (j < hi && col_[j] == u) ++j;
      // First event in the run with time >= ts.
      const Timestamp* first = time_.data() + i;
      const Timestamp* last = time_.data() + j;
      const Timestamp* it = std::lower_bound(first, last, ts);
      if (it != last && *it <= te) fn(u);
      i = j;
    }
  }

  /// Approximate bytes used by the representation (the paper's memory-cost
  /// discussion: encoding * (V + 2E) per direction with 64-bit time and
  /// 32-bit ids here).
  [[nodiscard]] std::size_t memory_bytes() const {
    return row_ptr_.size() * sizeof(std::size_t) +
           col_.size() * sizeof(VertexId) + time_.size() * sizeof(Timestamp);
  }

 private:
  std::vector<std::size_t> row_ptr_;  // n + 1
  std::vector<VertexId> col_;         // |Events| entries (rowA order)
  std::vector<Timestamp> time_;       // parallel to col_
};

/// Re-encodes the CSR with the chunked delta+varint codec
/// (io/compressed_csr.hpp). Lossless: decompress_temporal_csr round-trips
/// every row bit-exactly, including adversarial timestamp patterns.
io::CompressedTemporalCsr compress_temporal_csr(
    const TemporalCsr& csr,
    std::size_t target_chunk_entries = io::kDefaultChunkEntries);

/// Inverse of compress_temporal_csr (materializes the raw arrays).
TemporalCsr decompress_temporal_csr(const io::CompressedTemporalCsr& packed);

}  // namespace pmpr
