// Cross-model equivalence: offline, streaming (warm restart and ∆-push) and
// postmortem must compute the same PageRank time series — the paper's fairness premise ("the code
// bases produce the same results and makes the comparison fair", §5.1).
#include <gtest/gtest.h>

#include "exec/offline_runner.hpp"
#include "exec/postmortem_runner.hpp"
#include "exec/streaming_runner.hpp"
#include "gen/surrogates.hpp"
#include "test_helpers.hpp"

namespace pmpr {
namespace {

struct Scenario {
  const char* name;
  TemporalEdgeList events;
  WindowSpec spec;
};

Scenario random_scenario() {
  Scenario s;
  s.name = "random";
  s.events = test::random_events(61, 50, 3000, 30000);
  s.spec = WindowSpec::cover(0, 30000, 8000, 1500);
  return s;
}

Scenario surrogate_scenario() {
  Scenario s;
  s.name = "surrogate";
  gen::DatasetSpec spec = gen::dataset_by_name("wiki-talk");
  spec.events = 15000;
  spec.topology.scale = 9;
  s.events = gen::generate(spec, 5);
  s.spec = WindowSpec::cover_capped(s.events.min_time(), s.events.max_time(),
                                    90 * duration::kDay, 30 * duration::kDay,
                                    20);
  return s;
}

Scenario paper_example_scenario() {
  Scenario s;
  s.name = "paper-example";
  s.events = test::paper_example_symmetric();
  s.spec = WindowSpec{.t0 = 151, .delta = 107, .sw = 30, .count = 3};
  return s;
}

void expect_all_models_agree(const Scenario& s) {
  PagerankParams pr;
  pr.tol = 1e-12;
  pr.max_iters = 500;

  OfflineOptions off;
  off.pr = pr;
  StoreAllSink offline_sink(s.spec.count);
  run_offline(s.events, s.spec, offline_sink, off);

  StreamingOptions str;
  str.pr = pr;
  StoreAllSink streaming_sink(s.spec.count);
  run_streaming(s.events, s.spec, streaming_sink, str);

  StreamingOptions delta = str;
  delta.algorithm = StreamingAlgorithm::kDeltaPush;
  StoreAllSink delta_sink(s.spec.count);
  run_streaming(s.events, s.spec, delta_sink, delta);

  PostmortemConfig pm;
  pm.pr = pr;
  pm.num_multi_windows = 3;
  pm.vector_length = 8;
  StoreAllSink postmortem_sink(s.spec.count);
  run_postmortem(s.events, s.spec, postmortem_sink, pm);

  const VertexId n = s.events.num_vertices();
  for (std::size_t w = 0; w < s.spec.count; ++w) {
    const auto off_x = offline_sink.dense(w, n);
    const auto str_x = streaming_sink.dense(w, n);
    const auto delta_x = delta_sink.dense(w, n);
    const auto pm_x = postmortem_sink.dense(w, n);
    ASSERT_LT(test::linf_diff(off_x, str_x), 1e-8)
        << s.name << " offline vs streaming, window " << w;
    ASSERT_LT(test::linf_diff(off_x, delta_x), 1e-8)
        << s.name << " offline vs streaming delta-push, window " << w;
    ASSERT_LT(test::linf_diff(off_x, pm_x), 1e-8)
        << s.name << " offline vs postmortem, window " << w;
  }
}

TEST(Equivalence, RandomEvents) { expect_all_models_agree(random_scenario()); }

TEST(Equivalence, WikiTalkSurrogate) {
  expect_all_models_agree(surrogate_scenario());
}

TEST(Equivalence, PaperWorkedExample) {
  expect_all_models_agree(paper_example_scenario());
}

TEST(Equivalence, DisjointWindows) {
  Scenario s;
  s.name = "disjoint";
  s.events = test::random_events(71, 30, 2000, 20000);
  s.spec = WindowSpec{.t0 = 0, .delta = 1000, .sw = 4000, .count = 5};
  expect_all_models_agree(s);
}

TEST(Equivalence, SparseEmptyWindows) {
  // Events clustered so some windows are empty: all models must agree that
  // those windows have zero vectors.
  Scenario s;
  s.name = "sparse";
  TemporalEdgeList events;
  Xoshiro256 rng(5);
  for (int i = 0; i < 300; ++i) {
    events.add(static_cast<VertexId>(rng.bounded(20)),
               static_cast<VertexId>(rng.bounded(20)),
               static_cast<Timestamp>(rng.bounded(1000)));
  }
  for (int i = 0; i < 300; ++i) {
    events.add(static_cast<VertexId>(rng.bounded(20)),
               static_cast<VertexId>(rng.bounded(20)),
               static_cast<Timestamp>(50000 + rng.bounded(1000)));
  }
  events.sort_by_time();
  s.events = std::move(events);
  s.spec = WindowSpec::cover(0, 51000, 800, 3000);
  expect_all_models_agree(s);
}

}  // namespace
}  // namespace pmpr
