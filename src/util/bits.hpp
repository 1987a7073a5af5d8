// Bit-manipulation helpers for the SpMM lane masks.
//
// A lane mask is one std::uint64_t: bit k names lane k of a batch of at
// most 64 lanes (kMaxSpmmLanes, pagerank/window_state.hpp). Lane indices
// are std::size_t everywhere, and ctz64 and lane_end are the only spots
// that convert a mask into a lane index.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace pmpr {

/// Index of the lowest set bit of `x` as std::size_t. Precondition: the
/// callers' loops guarantee x != 0 (countr_zero(0) would return 64, which
/// is never a valid lane).
[[nodiscard]] constexpr std::size_t ctz64(std::uint64_t x) {
  return static_cast<std::size_t>(std::countr_zero(x));
}

/// One past the highest set bit of `x` as std::size_t. Precondition:
/// x != 0.
[[nodiscard]] constexpr std::size_t lane_end(std::uint64_t x) {
  return 64 - static_cast<std::size_t>(std::countl_zero(x));
}

/// The mask of lane `lane` alone. Precondition: lane < 64.
[[nodiscard]] constexpr std::uint64_t lane_bit(std::size_t lane) {
  return std::uint64_t{1} << lane;
}

[[nodiscard]] constexpr bool mask_test(std::uint64_t mask, std::size_t lane) {
  return (mask & lane_bit(lane)) != 0;
}

/// The mask of the inclusive lane range [lo, hi]. Precondition:
/// lo <= hi < 64. A full-width range yields ~0 without shifting by 64.
[[nodiscard]] constexpr std::uint64_t lane_range_mask(std::size_t lo,
                                                      std::size_t hi) {
  return (~std::uint64_t{0} >> (63 - (hi - lo))) << lo;
}

/// Invokes `fn(lane)` for every set lane of `mask`, ascending.
template <typename Fn>
constexpr void for_each_set_lane(std::uint64_t mask, Fn&& fn) {
  while (mask != 0) {
    fn(ctz64(mask));
    mask &= mask - 1;
  }
}

}  // namespace pmpr
