#include "graph/edge_list.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "util/check.hpp"
#include "par/parallel_sort.hpp"

namespace pmpr {

TemporalEdgeList::TemporalEdgeList(std::vector<TemporalEdge> edges)
    : edges_(std::move(edges)) {
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const TemporalEdge& e = edges_[i];
    PMPR_CHECK_MSG(e.src != kInvalidVertex && e.dst != kInvalidVertex,
                   "event " << i << " uses the reserved vertex id "
                            << kInvalidVertex);
    num_vertices_ = std::max({num_vertices_, e.src + 1, e.dst + 1});
  }
}

void TemporalEdgeList::add(VertexId src, VertexId dst, Timestamp time) {
  PMPR_CHECK_MSG(src != kInvalidVertex && dst != kInvalidVertex,
                 "event <" << src << ", " << dst
                           << "> uses the reserved vertex id "
                           << kInvalidVertex);
  edges_.push_back({src, dst, time});
  num_vertices_ = std::max({num_vertices_, src + 1, dst + 1});
}

void TemporalEdgeList::ensure_vertices(VertexId n) {
  num_vertices_ = std::max(num_vertices_, n);
}

bool TemporalEdgeList::is_sorted_by_time() const {
  return std::is_sorted(
      edges_.begin(), edges_.end(),
      [](const TemporalEdge& a, const TemporalEdge& b) { return a.time < b.time; });
}

void TemporalEdgeList::sort_by_time() {
  // A stable sort of a sorted list is the list itself, and inputs usually
  // arrive sorted.
  if (is_sorted_by_time()) return;
  // Parallel stable merge sort above its sequential cutoff; plain
  // stable_sort below it (see par/parallel_sort.hpp).
  parallel_sort(edges_, [](const TemporalEdge& a, const TemporalEdge& b) {
    return a.time < b.time;
  });
}

Timestamp TemporalEdgeList::min_time() const {
  PMPR_CHECK_MSG(!edges_.empty(), "min_time() of an empty event list");
  return edges_.front().time;
}

Timestamp TemporalEdgeList::max_time() const {
  PMPR_CHECK_MSG(!edges_.empty(), "max_time() of an empty event list");
  return edges_.back().time;
}

std::span<const TemporalEdge> TemporalEdgeList::slice(Timestamp ts,
                                                      Timestamp te) const {
  // Sortedness is a precondition; the O(E) scan is debug-only because
  // slice() runs once per window.
  PMPR_DCHECK(is_sorted_by_time());
  const auto lo = std::lower_bound(
      edges_.begin(), edges_.end(), ts,
      [](const TemporalEdge& e, Timestamp t) { return e.time < t; });
  const auto hi = std::upper_bound(
      lo, edges_.end(), te,
      [](Timestamp t, const TemporalEdge& e) { return t < e.time; });
  return {std::to_address(lo), static_cast<std::size_t>(hi - lo)};
}

namespace {

/// The blanks operator>> skips before a number; '\n' never occurs here
/// because it ends the line.
bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

const char* skip_blanks(const char* p, const char* end) {
  while (p != end && is_blank(*p)) ++p;
  return p;
}

/// Parses blanks, an optional '+' (or '-' if `Int` is signed) and decimal
/// digits into `out`. Returns the end of the digits, or nullptr if there
/// are none or the value does not fit `Int`.
template <class Int>
const char* parse_field(const char* p, const char* end, Int& out) {
  p = skip_blanks(p, end);
  if (p != end && *p == '+') {
    ++p;
    if (p != end && *p == '-') return nullptr;  // from_chars would take "-3"
  }
  const auto [next, ec] = std::from_chars(p, end, out);
  return ec == std::errc{} ? next : nullptr;
}

[[noreturn]] void throw_line_error(const std::string& path, std::size_t lineno,
                                   const char* what, const char* begin,
                                   const char* end) {
  throw std::runtime_error(path + ":" + std::to_string(lineno) + ": " + what +
                           ": '" + std::string(begin, end) + "'");
}

/// Adds the event on line [begin, end) (no '\n') unless the line is empty
/// or a comment.
void add_event_line(TemporalEdgeList& list, const char* begin,
                    const char* end, const std::string& path,
                    std::size_t lineno) {
  if (begin == end || *begin == '#') return;
  std::uint64_t u = 0;
  std::uint64_t v = 0;
  Timestamp t = 0;
  const char* p = parse_field(begin, end, u);
  if (p != nullptr) p = parse_field(p, end, v);
  if (p != nullptr) p = parse_field(p, end, t);
  if (p == nullptr || skip_blanks(p, end) != end) {
    throw_line_error(path, lineno, "malformed event line", begin, end);
  }
  // Reject ids that would wrap when narrowed to VertexId instead of
  // silently aliasing distinct vertices (kInvalidVertex is reserved).
  if (u >= kInvalidVertex || v >= kInvalidVertex) {
    throw_line_error(path, lineno, "vertex id out of range", begin, end);
  }
  list.add(static_cast<VertexId>(u), static_cast<VertexId>(v), t);
}

/// Drops the bytes of line [begin, end) that cannot change what it parses
/// to: all but the first blank of a run, and all but the first of the
/// zeros that start a number. Returns the new end. An event line, however
/// long, is then under 80 bytes.
char* squeeze_line(char* begin, const char* end) {
  char* out = begin;
  for (const char* q = begin; q != end; ++q) {
    const auto kept = out - begin;
    const bool repeated_blank = kept > 0 && is_blank(*q) && is_blank(out[-1]);
    const bool leading_zero =
        kept > 0 && *q == '0' && out[-1] == '0' &&
        (kept == 1 || std::isdigit(static_cast<unsigned char>(out[-2])) == 0);
    if (!repeated_blank && !leading_zero) *out++ = *q;
  }
  return out;
}

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

}  // namespace

TemporalEdgeList TemporalEdgeList::load_text(const std::string& path) {
  const std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(path.c_str(), "rb"));
  if (!file) {
    throw std::runtime_error("cannot open " + path + ": " +
                             std::strerror(errno));
  }
  // The partial line at the end of a block moves to the front, and the
  // next read appends to it.
  const auto block = std::make_unique_for_overwrite<char[]>(kTextBlockBytes);
  TemporalEdgeList list;
  std::size_t lineno = 0;
  std::size_t carried = 0;
  bool in_long_comment = false;
  for (;;) {
    const std::size_t want = kTextBlockBytes - carried;
    const std::size_t got =
        std::fread(block.get() + carried, 1, want, file.get());
    if (got < want && std::ferror(file.get())) {
      throw std::runtime_error("cannot read " + path + ": " +
                               std::strerror(errno));
    }
    const char* p = block.get();
    const char* const end = p + carried + got;
    if (got == 0) {  // end of file; a last line may lack its '\n'
      if (p != end && !in_long_comment) {
        add_event_line(list, p, end, path, lineno + 1);
      }
      return list;
    }
    while (const auto* nl = static_cast<const char*>(
               std::memchr(p, '\n', static_cast<std::size_t>(end - p)))) {
      ++lineno;
      if (!in_long_comment) add_event_line(list, p, nl, path, lineno);
      in_long_comment = false;
      p = nl + 1;
    }
    carried = static_cast<std::size_t>(end - p);
    if (carried < kTextBlockBytes) {
      std::memmove(block.get(), p, carried);
    } else if (in_long_comment || *p == '#') {
      // The block holds part of one line. A comment is dropped up to its
      // '\n'.
      in_long_comment = true;
      carried = 0;
    } else {
      // Any other line is squeezed; if that frees less than half the
      // block, it is no event.
      char* const line = block.get();
      carried = static_cast<std::size_t>(
          squeeze_line(line, line + carried) - line);
      if (carried > kTextBlockBytes / 2) {
        throw_line_error(path, lineno + 1, "malformed event line", line,
                         line + carried);
      }
    }
  }
}

void TemporalEdgeList::save_text(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << "# pmpr temporal edge list: src dst time\n";
  for (const auto& e : edges_) {
    out << e.src << ' ' << e.dst << ' ' << e.time << '\n';
  }
  if (!out) throw std::runtime_error("write failure on " + path);
}

namespace {
constexpr char kMagic[8] = {'P', 'M', 'P', 'R', 'E', 'L', '0', '1'};
}

TemporalEdgeList TemporalEdgeList::load_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error(path + ": not a pmpr edge-list file");
  }
  std::uint64_t count = 0;
  std::uint64_t vertices = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  in.read(reinterpret_cast<char*>(&vertices), sizeof(vertices));
  if (!in) throw std::runtime_error(path + ": truncated header");
  if (vertices > kInvalidVertex) {
    throw std::runtime_error(path + ": vertex count " +
                             std::to_string(vertices) +
                             " exceeds the 32-bit vertex space");
  }
  // Check the declared payload against the real file size before the
  // allocation: a corrupt count must neither truncate silently nor drive a
  // multi-GB resize.
  const std::streamoff payload_begin = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  const auto available =
      static_cast<std::uint64_t>(file_end - payload_begin);
  if (count != available / sizeof(TemporalEdge) ||
      available % sizeof(TemporalEdge) != 0) {
    throw std::runtime_error(
        path + ": header declares " + std::to_string(count) +
        " events but the payload holds " + std::to_string(available) +
        " bytes (truncated or corrupt)");
  }
  in.seekg(payload_begin);
  std::vector<TemporalEdge> edges(count);
  in.read(reinterpret_cast<char*>(edges.data()),
          static_cast<std::streamsize>(count * sizeof(TemporalEdge)));
  if (!in) throw std::runtime_error(path + ": truncated payload");
  // The constructor rejects reserved vertex ids in the payload.
  TemporalEdgeList list(std::move(edges));
  list.ensure_vertices(static_cast<VertexId>(vertices));
  return list;
}

void TemporalEdgeList::save_binary(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out.write(kMagic, sizeof(kMagic));
  const std::uint64_t count = edges_.size();
  const std::uint64_t vertices = num_vertices_;
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(&vertices), sizeof(vertices));
  out.write(reinterpret_cast<const char*>(edges_.data()),
            static_cast<std::streamsize>(count * sizeof(TemporalEdge)));
  if (!out) throw std::runtime_error("write failure on " + path);
}

}  // namespace pmpr
