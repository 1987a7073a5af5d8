#include "pagerank/partial_init.hpp"

#include <array>
#include <cassert>

#include "obs/counters.hpp"
#include "pagerank/pagerank.hpp"
#include "pagerank/window_state.hpp"
#include "util/bits.hpp"

namespace pmpr {

void partial_init(std::span<const double> prev_x,
                  std::span<const std::uint8_t> prev_active,
                  std::span<const std::uint8_t> cur_active,
                  std::size_t cur_num_active, std::span<double> out) {
  const std::size_t n = out.size();
  assert(prev_x.size() == n && prev_active.size() == n &&
         cur_active.size() == n);
  if (cur_num_active == 0) {
    for (auto& v : out) v = 0.0;
    return;
  }

  std::size_t shared = 0;
  double shared_mass = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    if (prev_active[v] != 0 && cur_active[v] != 0) {
      ++shared;
      shared_mass += prev_x[v];
    }
  }
  if (shared == 0 || shared_mass <= 0.0) {
    // full_init counts every active vertex as re-seeded.
    full_init(cur_active, cur_num_active, out);
    return;
  }
  obs::count(obs::Counter::kVerticesReused, shared);
  obs::count(obs::Counter::kVerticesReseeded, cur_num_active - shared);

  const double uniform = 1.0 / static_cast<double>(cur_num_active);
  const double scale = (static_cast<double>(shared) /
                        static_cast<double>(cur_num_active)) /
                       shared_mass;
  for (std::size_t v = 0; v < n; ++v) {
    if (cur_active[v] == 0) {
      out[v] = 0.0;
    } else if (prev_active[v] != 0) {
      out[v] = prev_x[v] * scale;
    } else {
      out[v] = uniform;
    }
  }
}

void spmm_partial_init(std::span<const double> prev_x, std::size_t prev_lanes,
                       std::span<const std::uint64_t> prev_mask,
                       std::span<const std::uint64_t> cur_mask,
                       std::span<const std::size_t> cur_num_active,
                       std::span<double> x) {
  const std::size_t lanes = cur_num_active.size();
  const std::size_t n = cur_mask.size();
  assert(lanes >= 1 && lanes <= kMaxSpmmLanes && prev_lanes >= 1);
  assert(prev_x.size() == n * prev_lanes && prev_mask.size() == n &&
         x.size() == n * lanes);
  const std::size_t src = prev_lanes - 1;

  std::array<std::size_t, kMaxSpmmLanes> shared{};
  std::array<double, kMaxSpmmLanes> mass{};
  for (std::size_t v = 0; v < n; ++v) {
    if (!mask_test(prev_mask[v], src)) continue;
    const double p = prev_x[v * prev_lanes + src];
    for_each_set_lane(cur_mask[v], [&](std::size_t k) {
      ++shared[k];
      mass[k] += p;
    });
  }

  // Per lane: nonempty lanes in `live`, lanes that rescale the source in
  // `reuse` (the others start uniform).
  std::uint64_t live = 0;
  std::uint64_t reuse = 0;
  std::array<double, kMaxSpmmLanes> uniform{};
  std::array<double, kMaxSpmmLanes> scale{};
  std::size_t reused = 0;
  std::size_t reseeded = 0;
  for (std::size_t k = 0; k < lanes; ++k) {
    const std::size_t active = cur_num_active[k];
    if (active == 0) continue;
    live |= lane_bit(k);
    uniform[k] = 1.0 / static_cast<double>(active);
    if (shared[k] == 0 || mass[k] <= 0.0) {
      reseeded += active;
      continue;
    }
    reuse |= lane_bit(k);
    scale[k] = (static_cast<double>(shared[k]) / static_cast<double>(active)) /
               mass[k];
    reused += shared[k];
    reseeded += active - shared[k];
  }
  obs::count(obs::Counter::kVerticesReused, reused);
  obs::count(obs::Counter::kVerticesReseeded, reseeded);

  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t cur = cur_mask[v] & live;
    const std::uint64_t from_src =
        mask_test(prev_mask[v], src) ? cur & reuse : 0;
    const double p = from_src != 0 ? prev_x[v * prev_lanes + src] : 0.0;
    double* row = x.data() + v * lanes;
    for (std::size_t k = 0; k < lanes; ++k) {
      row[k] = mask_test(from_src, k) ? p * scale[k]
               : mask_test(cur, k)    ? uniform[k]
                                      : 0.0;
    }
  }
}

void spmm_full_init(std::span<const std::uint64_t> cur_mask,
                    std::span<const std::size_t> cur_num_active,
                    std::span<double> x) {
  const std::size_t lanes = cur_num_active.size();
  const std::size_t n = cur_mask.size();
  assert(lanes <= kMaxSpmmLanes && x.size() == n * lanes);
  std::array<double, kMaxSpmmLanes> uniform{};
  std::size_t reseeded = 0;
  for (std::size_t k = 0; k < lanes; ++k) {
    const std::size_t active = cur_num_active[k];
    uniform[k] = active > 0 ? 1.0 / static_cast<double>(active) : 0.0;
    reseeded += active;
  }
  obs::count(obs::Counter::kVerticesReseeded, reseeded);
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t cur = cur_mask[v];
    double* row = x.data() + v * lanes;
    for (std::size_t k = 0; k < lanes; ++k) {
      row[k] = mask_test(cur, k) ? uniform[k] : 0.0;
    }
  }
}

}  // namespace pmpr
