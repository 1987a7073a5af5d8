// Chunked delta+varint compression of the temporal CSR adjacency — the
// storage format of the mmap-backed out-of-core multi-window store
// (graph/paged_multi_window.hpp).
//
// Rows are grouped into *chunks* of roughly target_chunk_entries adjacency
// entries (whole rows, never split). Each chunk records its entry-count /
// row-range extents plus the min/max timestamp of its entries, so a
// window-compile pass can skip chunks whose time range misses the window
// entirely (batch_csr.cpp's pruning). Within a chunk, rows are encoded
// back-to-back:
//
//   varint(entry_count)
//   per entry, interleaved:
//     column:    varint(first col), then zigzag varints of wrapping
//                32-bit deltas (rows sorted by ⟨neighbor, time⟩ make the
//                deltas small and non-negative; the zigzag keeps
//                adversarial unsorted input exact)
//     timestamp: zigzag varint of the wrapping delta vs. the chunk's
//                time_min for the row's first event, then vs. the previous
//                event — exact for the full int64 range (io/varint.hpp).
//
// Chunks are sequentially decodable only (no random access within), so
// consumers parallelize over chunks, each decoding into a reusable
// DecodeScratch.
//
// The on-disk form is a versioned little-header + chunk table + payload;
// map()/map_at() create zero-copy views over an MmapFile so the paged
// store can evict a part's payload with one madvise(DONTNEED).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "io/mmap_file.hpp"
#include "obs/memory.hpp"

namespace pmpr::io {

// Scalar aliases local to the io layer: io sits *below* graph in the layer
// DAG (ci/layers.toml) so it cannot include graph/types.hpp. The widths
// match VertexId / Timestamp; the bridge in graph/temporal_csr.cpp
// static_asserts the equivalence.
using ColId = std::uint32_t;
using TimeValue = std::int64_t;

/// Default chunk granularity: big enough to amortize per-chunk metadata
/// and parallel-for overhead, small enough that window pruning has
/// resolution (≈48 KiB of raw adjacency per chunk).
inline constexpr std::size_t kDefaultChunkEntries = 4096;

struct ChunkMeta {
  std::uint64_t byte_offset = 0;  ///< Into the payload stream.
  std::uint64_t byte_size = 0;
  std::uint64_t first_row = 0;
  std::uint64_t num_rows = 0;
  std::uint64_t first_entry = 0;
  std::uint64_t num_entries = 0;
  TimeValue time_min = 0;  ///< Over the chunk's entries; 0 when empty.
  TimeValue time_max = 0;
};

/// Reusable decode target: one chunk's rows as plain arrays. row_ptr has
/// num_rows + 1 offsets into cols/times (chunk-local, starting at 0).
struct DecodeScratch {
  std::vector<ColId> cols;
  std::vector<TimeValue> times;
  std::vector<std::size_t> row_ptr;
  /// Tagged accounting of the buffers' capacity (MemTag::kDecodeScratch),
  /// refreshed by decode_chunk/decode_all via recharge().
  obs::MemCharge charge;

  /// Re-charges the current capacity. Cheap when nothing grew (one
  /// comparison) — callable per decode without breaking cost discipline.
  void recharge() {
    const std::size_t bytes = cols.capacity() * sizeof(ColId) +
                              times.capacity() * sizeof(TimeValue) +
                              row_ptr.capacity() * sizeof(std::size_t);
    if (bytes != charge.bytes()) {
      charge.reset(obs::MemTag::kDecodeScratch, bytes);
    }
  }
};

class CompressedTemporalCsr {
 public:
  CompressedTemporalCsr() = default;

  /// Encodes plain CSR arrays (row_ptr.size() == rows + 1, cols/times
  /// parallel). Accepts arbitrary values — the codec round-trips
  /// non-monotone times and unsorted columns bit-exactly; only the
  /// structural shape (monotone row_ptr bounded by the entry count) is
  /// checked. The result owns its payload in RAM.
  static CompressedTemporalCsr encode(
      std::span<const std::size_t> row_ptr, std::span<const ColId> cols,
      std::span<const TimeValue> times,
      std::size_t target_chunk_entries = kDefaultChunkEntries);

  [[nodiscard]] std::size_t num_rows() const { return num_rows_; }
  [[nodiscard]] std::size_t num_entries() const { return num_entries_; }
  [[nodiscard]] std::size_t num_chunks() const { return chunks_.size(); }
  [[nodiscard]] const ChunkMeta& chunk(std::size_t c) const {
    return chunks_[c];
  }

  /// Decodes chunk `c` into `scratch` (overwritten, capacity reused).
  /// Throws pmpr::InvariantError when the payload is corrupt (counts
  /// disagree with the chunk table, truncated varints).
  void decode_chunk(std::size_t c, DecodeScratch& scratch) const;

  /// Decodes the whole CSR into `scratch` (row_ptr spans all rows).
  void decode_all(DecodeScratch& scratch) const;

  /// Encoded payload bytes (the compressed col+time stream).
  [[nodiscard]] std::size_t encoded_bytes() const { return payload().size(); }
  /// What the raw TemporalCsr this stream replaces occupies: the
  /// row_ptr_[] array plus the parallel col_[] + time_[] arrays (row
  /// lengths live inside the stream, so the encoded form stands in for
  /// all three) — the compression-ratio denominator against
  /// memory_bytes().
  [[nodiscard]] std::size_t raw_adjacency_bytes() const {
    const std::size_t row_ptr_words = num_rows_ == 0 ? 0 : num_rows_ + 1;
    return row_ptr_words * sizeof(std::size_t) +
           num_entries_ * (sizeof(ColId) + sizeof(TimeValue));
  }
  /// Bytes this object keeps addressable: chunk table plus the payload
  /// (owned or mapped — mapped pages count because decoding touches them;
  /// the paged store reclaims them via advise(kDontNeed)).
  [[nodiscard]] std::size_t memory_bytes() const {
    return chunks_.size() * sizeof(ChunkMeta) + payload().size();
  }
  /// True for map()/map_at() views (payload lives in the mapped file).
  [[nodiscard]] bool is_mapped_view() const { return file_ != nullptr; }

  // --- on-disk form ------------------------------------------------------

  /// Appends the serialized form (header + chunk table + payload) to
  /// `out`. save() writes exactly these bytes.
  void serialize_to(std::vector<std::uint8_t>& out) const;
  [[nodiscard]] std::size_t serialized_bytes() const;

  void save(const std::string& path) const;
  /// Parses a serialized blob into an owning (RAM) instance.
  static CompressedTemporalCsr load(const std::string& path);
  /// Zero-copy view over a whole mapped file.
  static CompressedTemporalCsr map(std::shared_ptr<MmapFile> file) {
    const std::size_t size = file->bytes().size();
    return map_at(std::move(file), 0, size);
  }
  /// Zero-copy view over [offset, offset + size) of `file` — the paged
  /// store packs one serialized part per section of a single store file.
  /// The header and chunk table are validated and copied to RAM; the
  /// payload stays in the mapping.
  static CompressedTemporalCsr map_at(std::shared_ptr<MmapFile> file,
                                      std::size_t offset, std::size_t size);

  /// Applies a paging hint to the payload's byte range (no-op for owning
  /// instances and unmapped fallbacks).
  void advise(Advice advice) const;

  /// Appends raw bytes to a binary stream. Lives here so the byte-level
  /// reinterpret_cast stays inside src/io/ (lint rule
  /// reinterpret-cast-outside-io); the paged store streams serialized
  /// parts through it.
  static void write_bytes(std::ostream& out,
                          std::span<const std::uint8_t> bytes);

 private:
  [[nodiscard]] std::span<const std::uint8_t> payload() const {
    return file_ != nullptr ? view_
                            : std::span<const std::uint8_t>(owned_payload_);
  }
  static CompressedTemporalCsr parse(std::span<const std::uint8_t> bytes,
                                     std::shared_ptr<MmapFile> file,
                                     std::size_t file_offset,
                                     const std::string& origin);
  void validate_chunk_table(const std::string& origin) const;

  std::size_t num_rows_ = 0;
  std::size_t num_entries_ = 0;
  std::vector<ChunkMeta> chunks_;
  std::vector<std::uint8_t> owned_payload_;
  // Mapped-view state: view_ spans the payload inside *file_;
  // payload_file_offset_ feeds advise().
  std::span<const std::uint8_t> view_;
  std::shared_ptr<MmapFile> file_;
  std::size_t payload_file_offset_ = 0;
};

}  // namespace pmpr::io
