#include "pagerank/partial_init.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "obs/counters.hpp"
#include "oracle/reference_kernels.hpp"
#include "pagerank/pagerank.hpp"
#include "pagerank/window_state.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace pmpr {
namespace {

double sum(const std::vector<double>& x) {
  return std::accumulate(x.begin(), x.end(), 0.0);
}

TEST(PartialInit, IdenticalActiveSetPreservesValues) {
  // V_i == V_{i-1}: shared/|V_i| = 1 and the previous vector sums to 1, so
  // Eq. 4 is the identity.
  const std::vector<double> prev{0.5, 0.3, 0.2};
  const std::vector<std::uint8_t> active{1, 1, 1};
  std::vector<double> out(3);
  partial_init(prev, active, active, 3, out);
  EXPECT_NEAR(out[0], 0.5, 1e-15);
  EXPECT_NEAR(out[1], 0.3, 1e-15);
  EXPECT_NEAR(out[2], 0.2, 1e-15);
}

TEST(PartialInit, OutputIsAlwaysDistribution) {
  Xoshiro256 rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.bounded(50);
    std::vector<std::uint8_t> prev_active(n);
    std::vector<std::uint8_t> cur_active(n);
    std::vector<double> prev(n, 0.0);
    std::size_t prev_count = 0;
    for (std::size_t v = 0; v < n; ++v) {
      prev_active[v] = rng.uniform() < 0.6 ? 1 : 0;
      cur_active[v] = rng.uniform() < 0.6 ? 1 : 0;
      prev_count += prev_active[v];
    }
    // Previous vector: random distribution over prev_active.
    double mass = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      if (prev_active[v]) {
        prev[v] = rng.uniform() + 0.01;
        mass += prev[v];
      }
    }
    for (auto& p : prev) p /= (mass > 0 ? mass : 1.0);

    std::size_t cur_count = 0;
    for (const auto a : cur_active) cur_count += a;

    std::vector<double> out(n);
    partial_init(prev, prev_active, cur_active, cur_count, out);

    if (cur_count == 0) {
      EXPECT_EQ(sum(out), 0.0);
      continue;
    }
    EXPECT_NEAR(sum(out), 1.0, 1e-12) << "trial " << trial;
    for (std::size_t v = 0; v < n; ++v) {
      if (cur_active[v] == 0) {
        ASSERT_EQ(out[v], 0.0);
      } else {
        ASSERT_GE(out[v], 0.0);
      }
    }
  }
}

TEST(PartialInit, NewVerticesGetUniformShare) {
  // prev active {0,1}, cur active {0,1,2,3}. New vertices 2,3 get 1/4.
  const std::vector<double> prev{0.6, 0.4, 0.0, 0.0};
  const std::vector<std::uint8_t> prev_active{1, 1, 0, 0};
  const std::vector<std::uint8_t> cur_active{1, 1, 1, 1};
  std::vector<double> out(4);
  partial_init(prev, prev_active, cur_active, 4, out);
  EXPECT_DOUBLE_EQ(out[2], 0.25);
  EXPECT_DOUBLE_EQ(out[3], 0.25);
  // Shared vertices keep their ratio and carry |shared|/|V_i| = 1/2 mass.
  EXPECT_NEAR(out[0] + out[1], 0.5, 1e-12);
  EXPECT_NEAR(out[0] / out[1], 0.6 / 0.4, 1e-12);
}

TEST(PartialInit, DisjointActiveSetsFallBackToFullInit) {
  const std::vector<double> prev{1.0, 0.0, 0.0, 0.0};
  const std::vector<std::uint8_t> prev_active{1, 0, 0, 0};
  const std::vector<std::uint8_t> cur_active{0, 1, 1, 0};
  std::vector<double> out(4);
  partial_init(prev, prev_active, cur_active, 2, out);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.5);
  EXPECT_DOUBLE_EQ(out[2], 0.5);
}

TEST(PartialInit, ZeroSharedMassFallsBackToFullInit) {
  // Vertices overlap but the previous vector carries no mass there.
  const std::vector<double> prev{0.0, 1.0};
  const std::vector<std::uint8_t> prev_active{1, 1};
  const std::vector<std::uint8_t> cur_active{1, 0};
  std::vector<double> out(2);
  partial_init(prev, prev_active, cur_active, 1, out);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_EQ(out[1], 0.0);
}

TEST(PartialInit, EmptyCurrentWindowAllZero) {
  const std::vector<double> prev{0.5, 0.5};
  const std::vector<std::uint8_t> prev_active{1, 1};
  const std::vector<std::uint8_t> cur_active{0, 0};
  std::vector<double> out(2, 9.0);
  partial_init(prev, prev_active, cur_active, 0, out);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
}

TEST(PartialInit, AliasingPrevAndOutIsSafe) {
  std::vector<double> x{0.6, 0.4, 0.0};
  const std::vector<std::uint8_t> prev_active{1, 1, 0};
  const std::vector<std::uint8_t> cur_active{1, 1, 1};
  partial_init(x, prev_active, cur_active, 3, x);
  EXPECT_NEAR(sum(x), 1.0, 1e-12);
  EXPECT_NEAR(x[2], 1.0 / 3, 1e-12);
}

TEST(PartialInit, Eq4ScaleFactorExact) {
  // 4 current-active vertices, 2 shared with prev. Shared mass in prev =
  // 0.8. Scale = (2/4)/0.8 = 0.625.
  const std::vector<double> prev{0.5, 0.3, 0.2, 0.0};
  const std::vector<std::uint8_t> prev_active{1, 1, 1, 0};
  const std::vector<std::uint8_t> cur_active{1, 1, 0, 1};
  std::vector<double> out(4);
  partial_init(prev, prev_active, cur_active, 3, out);
  const double scale = (2.0 / 3.0) / 0.8;
  EXPECT_NEAR(out[0], 0.5 * scale, 1e-12);
  EXPECT_NEAR(out[1], 0.3 * scale, 1e-12);
  EXPECT_EQ(out[2], 0.0);
  EXPECT_NEAR(out[3], 1.0 / 3, 1e-12);
  EXPECT_NEAR(sum(out), 1.0, 1e-12);
}

/// Batch widths the SpMM init tests cover: 1, both ends of the 64-lane cap,
/// and widths on either side of a power of two.
constexpr std::size_t kLaneCounts[] = {1, 2, 7, 16, 33, 63, 64};

/// One SpMM batch-init case: the previous batch (prev_lanes lanes) and the
/// current batch's masks and per-lane active counts.
struct BatchInitCase {
  std::size_t n = 0;
  std::size_t prev_lanes = 0;
  std::size_t lanes = 0;
  std::vector<double> prev_x;
  std::vector<std::uint64_t> prev_mask;
  std::vector<std::uint64_t> cur_mask;
  std::vector<std::size_t> num_active;
};

/// Draws a case whose lanes are each one of: random density, empty, all
/// vertices, sharing no vertex with the source lane (prev_lanes - 1), or
/// sharing only vertices where the source carries zero mass.
BatchInitCase draw_case(Xoshiro256& rng, std::size_t lanes) {
  BatchInitCase c;
  c.n = 1 + rng.bounded(120);
  c.prev_lanes = 1 + rng.bounded(kMaxSpmmLanes);
  c.lanes = lanes;
  const std::size_t src = c.prev_lanes - 1;
  c.prev_x.assign(c.n * c.prev_lanes, 0.0);
  c.prev_mask.assign(c.n, 0);
  for (std::size_t v = 0; v < c.n; ++v) {
    for (std::size_t k = 0; k < c.prev_lanes; ++k) {
      if (rng.uniform() < 0.6) {
        c.prev_mask[v] |= lane_bit(k);
        // A fifth of the active source entries carry zero mass.
        c.prev_x[v * c.prev_lanes + k] =
            k == src && rng.uniform() < 0.2 ? 0.0 : rng.uniform() + 0.01;
      }
    }
  }
  const auto src_has = [&](std::size_t v) {
    return mask_test(c.prev_mask[v], src);
  };
  c.cur_mask.assign(c.n, 0);
  c.num_active.assign(lanes, 0);
  for (std::size_t k = 0; k < lanes; ++k) {
    const std::uint64_t kind = rng.bounded(5);
    const double density = rng.uniform();
    for (std::size_t v = 0; v < c.n; ++v) {
      const double src_value = c.prev_x[v * c.prev_lanes + src];
      bool on = false;
      switch (kind) {
        case 0: on = rng.uniform() < density; break;
        case 1: on = false; break;
        case 2: on = true; break;
        case 3: on = !src_has(v) && rng.uniform() < density; break;
        default: on = (!src_has(v) || src_value == 0.0) && rng.uniform() < 0.7;
      }
      if (on) {
        c.cur_mask[v] |= lane_bit(k);
        ++c.num_active[k];
      }
    }
  }
  return c;
}

TEST(SpmmPartialInit, BatchPassMatchesPerLaneOracleBitForBit) {
  // The batch-wide pass seeds every lane from the source lane exactly as
  // the per-lane oracle does with kp = prev_lanes - 1: same bits in x,
  // same reused and reseeded counts.
  const bool counters = obs::set_counters_enabled(true);
  Xoshiro256 rng(7);
  for (const std::size_t lanes : kLaneCounts) {
    for (int trial = 0; trial < 40; ++trial) {
      const BatchInitCase c = draw_case(rng, lanes);
      std::vector<double> want(c.n * lanes, -1.0);
      const obs::CounterSnapshot t0 = obs::counters_snapshot();
      for (std::size_t k = 0; k < lanes; ++k) {
        oracle::spmm_partial_init_lane(c.prev_x, c.prev_lanes,
                                       c.prev_lanes - 1, c.prev_mask, want,
                                       lanes, k, c.cur_mask, c.num_active[k]);
      }
      const obs::CounterSnapshot t1 = obs::counters_snapshot();
      std::vector<double> got(c.n * lanes, -1.0);
      spmm_partial_init(c.prev_x, c.prev_lanes, c.prev_mask, c.cur_mask,
                        c.num_active, got);
      const obs::CounterSnapshot t2 = obs::counters_snapshot();

      ASSERT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(double)),
                0)
          << "lanes " << lanes << " trial " << trial;
      for (const auto counter : {obs::Counter::kVerticesReused,
                                 obs::Counter::kVerticesReseeded}) {
        ASSERT_EQ((t2 - t1)[counter], (t1 - t0)[counter])
            << obs::to_string(counter) << " lanes " << lanes << " trial "
            << trial;
      }
    }
  }
  obs::set_counters_enabled(counters);
}

TEST(SpmmPartialInit, FullInitIsUniformPerLane) {
  const bool counters = obs::set_counters_enabled(true);
  Xoshiro256 rng(11);
  for (const std::size_t lanes : kLaneCounts) {
    const BatchInitCase c = draw_case(rng, lanes);
    std::vector<double> x(c.n * lanes, -1.0);
    const obs::CounterSnapshot t0 = obs::counters_snapshot();
    spmm_full_init(c.cur_mask, c.num_active, x);
    const obs::CounterSnapshot t1 = obs::counters_snapshot();
    std::size_t active = 0;
    for (std::size_t k = 0; k < lanes; ++k) {
      active += c.num_active[k];
      for (std::size_t v = 0; v < c.n; ++v) {
        const double want =
            mask_test(c.cur_mask[v], k)
                ? 1.0 / static_cast<double>(c.num_active[k])
                : 0.0;
        ASSERT_EQ(x[v * lanes + k], want) << "lanes " << lanes;
      }
    }
    EXPECT_EQ((t1 - t0)[obs::Counter::kVerticesReseeded], active);
  }
  obs::set_counters_enabled(counters);
}

}  // namespace
}  // namespace pmpr
