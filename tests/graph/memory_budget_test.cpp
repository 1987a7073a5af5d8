#include "graph/memory_budget.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace pmpr {
namespace {

struct Fixture {
  TemporalEdgeList events = test::random_events(5, 100, 5000, 50000);
  WindowSpec spec = WindowSpec::cover(0, 50000, 8000, 1000);
};

TEST(MemoryBudget, EstimateMatchesSetAccounting) {
  Fixture f;
  const MultiWindowSet set = MultiWindowSet::build(f.events, f.spec, 4);
  const MemoryEstimate est = estimate_memory(set, 16);
  EXPECT_GE(est.representation_bytes, set.memory_bytes());
  EXPECT_GT(est.largest_part_bytes, 0u);
  EXPECT_GT(est.working_bytes_per_context, 0u);
  EXPECT_GT(est.peak_bytes(2), est.peak_bytes(1));
}

}  // namespace
}  // namespace pmpr
