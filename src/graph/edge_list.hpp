// Temporal edge set (paper §2.1): the postmortem input — the full event
// database ⟨u, v, t⟩, known in advance and sorted by non-decreasing time.
//
// Provides construction, validation, text/binary IO, and the time-range
// queries the execution models are built on (events of one window / one
// multi-window span are a contiguous slice of the sorted list).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace pmpr {

class TemporalEdgeList {
 public:
  TemporalEdgeList() = default;
  /// Adopts `edges`. Throws pmpr::InvariantError if any endpoint uses the
  /// reserved id kInvalidVertex (which would overflow num_vertices()).
  explicit TemporalEdgeList(std::vector<TemporalEdge> edges);

  /// Appends an event. Invalidates sortedness if out of order. Throws
  /// pmpr::InvariantError on a reserved endpoint id.
  void add(VertexId src, VertexId dst, Timestamp time);

  [[nodiscard]] std::size_t size() const { return edges_.size(); }
  [[nodiscard]] bool empty() const { return edges_.empty(); }
  [[nodiscard]] std::span<const TemporalEdge> events() const { return edges_; }
  [[nodiscard]] const TemporalEdge& operator[](std::size_t i) const {
    return edges_[i];
  }

  /// Number of vertices = max endpoint id + 1 (0 if empty). O(1); maintained
  /// incrementally.
  [[nodiscard]] VertexId num_vertices() const { return num_vertices_; }

  /// Raises the vertex-space size (ids are global even if some never occur).
  void ensure_vertices(VertexId n);

  [[nodiscard]] bool is_sorted_by_time() const;

  /// Stable-sorts events by timestamp (postmortem precondition). A sorted
  /// list costs one O(E) check.
  void sort_by_time();

  /// Earliest / latest event time. Requires a non-empty, time-sorted list.
  [[nodiscard]] Timestamp min_time() const;
  [[nodiscard]] Timestamp max_time() const;

  /// Contiguous slice of events with ts <= t <= te. Requires time-sorted.
  [[nodiscard]] std::span<const TemporalEdge> slice(Timestamp ts,
                                                    Timestamp te) const;

  /// load_text reads its file in blocks of this many bytes, whatever the
  /// file's size; a line may be longer than a block. Below glibc's 128 KiB
  /// mmap threshold, so the block comes from the heap and later set-up
  /// allocations reuse it: a 1 MiB block raised set-up peak RSS.
  static constexpr std::size_t kTextBlockBytes = std::size_t{64} << 10;

  /// Text IO: one event per line, lines split at '\n'.
  ///   * An empty line, or one whose first byte is '#', is skipped. Every
  ///     other line is "src dst time", and only blanks may follow the time.
  ///   * Each field may be preceded by blanks: space, \t, \r, \v or \f.
  ///   * src and dst are decimal ids below kInvalidVertex, with an optional
  ///     '+'. time is a decimal int64, with an optional '+' or '-'.
  /// Throws std::runtime_error naming path:line for a line that breaks
  /// these rules, and naming the path when it cannot be opened or read
  /// (a directory, say). tests/graph/text_loader_differential_test.cpp
  /// checks it against the line-at-a-time loader it replaced
  /// (oracle::load_text_reference).
  static TemporalEdgeList load_text(const std::string& path);
  void save_text(const std::string& path) const;

  /// Binary IO (little-endian, magic-tagged). Throws on failure.
  static TemporalEdgeList load_binary(const std::string& path);
  void save_binary(const std::string& path) const;

 private:
  std::vector<TemporalEdge> edges_;
  VertexId num_vertices_ = 0;
};

}  // namespace pmpr
