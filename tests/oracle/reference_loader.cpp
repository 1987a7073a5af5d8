#include "oracle/reference_loader.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pmpr::oracle {

TemporalEdgeList load_text_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  TemporalEdgeList list;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    Timestamp t = 0;
    if (!(ss >> u >> v >> t)) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": malformed event line: '" + line + "'");
    }
    // Reject ids that would wrap when narrowed to VertexId instead of
    // silently aliasing distinct vertices (kInvalidVertex is reserved).
    if (u >= kInvalidVertex || v >= kInvalidVertex) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": vertex id out of range: '" + line + "'");
    }
    list.add(static_cast<VertexId>(u), static_cast<VertexId>(v), t);
  }
  return list;
}

}  // namespace pmpr::oracle
