// Reference text loader, kept as a test oracle (library pmpr_oracle; the
// pmpr library does not contain it).
//
// It is the line-at-a-time loader TemporalEdgeList::load_text replaced:
// std::getline plus one std::istringstream per line. It accepts two kinds
// of line that load_text rejects as malformed, because operator>> stops at
// the first character it cannot use: text after the third field
// ("1 2 3x", "1 2 0x10", a fourth column) and a '-' on a vertex id ("-0 1 2"
// loads vertex 0). tests/graph/text_loader_differential_test.cpp checks
// that the two loaders agree on every other input.
#pragma once

#include <string>

#include "graph/edge_list.hpp"

namespace pmpr::oracle {

/// Loads "src dst time" lines. Throws std::runtime_error naming path:line
/// on a malformed line or an id >= kInvalidVertex, and when `path` cannot
/// be opened.
TemporalEdgeList load_text_reference(const std::string& path);

}  // namespace pmpr::oracle
