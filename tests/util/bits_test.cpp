// util/bits.hpp: the one-word lane-mask primitives underneath the SpMM
// batch kernels. These are all constexpr, so a good chunk of the contract
// is enforced at compile time via static_assert.
#include "util/bits.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace pmpr {
namespace {

TEST(Bits, Ctz64) {
  EXPECT_EQ(ctz64(1), 0u);
  EXPECT_EQ(ctz64(0b1000), 3u);
  EXPECT_EQ(ctz64(std::uint64_t{1} << 63), 63u);
  EXPECT_EQ(ctz64(~std::uint64_t{0}), 0u);
  static_assert(ctz64(std::uint64_t{1} << 17) == 17);
}

TEST(Bits, SetRangeWithinOneWord) {
  EXPECT_EQ(lane_range_mask(3, 5), 0b111000u);
  EXPECT_EQ(lane_range_mask(0, 0), 1u);
  EXPECT_EQ(lane_range_mask(63, 63), std::uint64_t{1} << 63);
  // The full-width range must not shift by 64 (UB).
  EXPECT_EQ(lane_range_mask(0, 63), ~std::uint64_t{0});
  static_assert(lane_range_mask(1, 62) ==
                ((~std::uint64_t{0} >> 1) & ~std::uint64_t{1}));
  for (std::size_t lane = 0; lane < 64; ++lane) {
    EXPECT_EQ(mask_test(lane_range_mask(10, 40), lane),
              lane >= 10 && lane <= 40)
        << lane;
  }
}

TEST(Bits, ForEachSetLaneAscending) {
  const std::vector<std::size_t> lanes = {0, 1, 31, 32, 62, 63};
  std::uint64_t mask = 0;
  for (const std::size_t lane : lanes) mask |= lane_bit(lane);
  std::vector<std::size_t> seen;
  for_each_set_lane(mask, [&](std::size_t k) { seen.push_back(k); });
  EXPECT_EQ(seen, lanes);
}

}  // namespace
}  // namespace pmpr
