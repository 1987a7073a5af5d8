// Runtime telemetry: the process's peak resident set size.
//
// Run results report the §4.1 memory model (graph/memory_budget.hpp) and
// the paged store's charged and mincore-measured residency
// (graph/paged_multi_window.hpp); this reader adds what the kernel saw.
#pragma once

#include <cstdint>

namespace pmpr::obs {

/// Process-lifetime peak resident set size in bytes (getrusage ru_maxrss,
/// normalized to bytes across platforms). Returns 0 on failure.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace pmpr::obs
