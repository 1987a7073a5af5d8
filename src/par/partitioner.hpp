// Partitioner policies mirroring the three Intel TBB partitioners evaluated
// in the paper (Fig. 7): auto_partitioner, simple_partitioner and
// static_partitioner, plus the grain-size knob.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>

namespace pmpr::par {

enum class Partitioner {
  /// Splits until chunks reach max(grain, range / (8 * threads)). Adaptive
  /// enough for most workloads; the paper's recommended default.
  kAuto,
  /// Splits all the way down to `grain` exactly. Small grains expose maximum
  /// parallelism at maximum scheduling overhead.
  kSimple,
  /// Divides the range into at most `threads` equal contiguous chunks
  /// (never smaller than `grain`); no adaptive re-splitting, so skewed work
  /// distributions lead to load imbalance — the effect the paper observes.
  kStatic,
};

[[nodiscard]] constexpr std::string_view to_string(Partitioner p) {
  switch (p) {
    case Partitioner::kAuto:
      return "auto";
    case Partitioner::kSimple:
      return "simple";
    case Partitioner::kStatic:
      return "static";
  }
  return "?";
}

/// The chunk size a partitioner actually splits down to, for a range of `n`
/// items on `threads` workers with requested grain `grain`.
[[nodiscard]] inline std::size_t effective_grain(Partitioner p, std::size_t n,
                                                 std::size_t grain,
                                                 std::size_t threads) {
  grain = std::max<std::size_t>(grain, 1);
  threads = std::max<std::size_t>(threads, 1);
  switch (p) {
    case Partitioner::kSimple:
      return grain;
    case Partitioner::kAuto: {
      const std::size_t adaptive = (n + 8 * threads - 1) / (8 * threads);
      return std::max(grain, std::max<std::size_t>(adaptive, 1));
    }
    case Partitioner::kStatic: {
      const std::size_t per_thread = (n + threads - 1) / threads;
      return std::max(grain, std::max<std::size_t>(per_thread, 1));
    }
  }
  return grain;
}

}  // namespace pmpr::par
