// Malformed-input and invariant-layer coverage (DESIGN.md §6: failure
// injection). Every loader/builder entry point must reject bad data with a
// thrown pmpr::InvariantError (or std::runtime_error for IO) in *release*
// builds — never silently corrupt memory. The happy-path validate() calls
// double as regression tests for the structural invariants themselves.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "exec/offline_runner.hpp"
#include "exec/results.hpp"
#include "exec/postmortem_runner.hpp"
#include "exec/streaming_runner.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/multi_window.hpp"
#include "graph/temporal_csr.hpp"
#include "graph/window.hpp"
#include "streaming/dynamic_graph.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace pmpr {
namespace {

// ---------------------------------------------------------------- macros

TEST(CheckMacros, PassingCheckIsSilent) {
  EXPECT_NO_THROW(PMPR_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(PMPR_CHECK_MSG(true, "never built"));
}

TEST(CheckMacros, FailingCheckThrowsWithContext) {
  try {
    PMPR_CHECK(2 + 2 == 5);
    FAIL() << "PMPR_CHECK did not throw";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
    EXPECT_NE(what.find("validation_test.cpp"), std::string::npos) << what;
  }
}

TEST(CheckMacros, MessageIsStreamedIntoException) {
  try {
    const int v = 41;
    PMPR_CHECK_MSG(v == 42, "vertex " << v << " is wrong");
    FAIL() << "PMPR_CHECK_MSG did not throw";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("vertex 41 is wrong"),
              std::string::npos);
  }
}

TEST(CheckMacros, InvariantErrorIsALogicError) {
  // Callers may catch std::logic_error (or std::exception) generically.
  EXPECT_THROW(PMPR_CHECK(false), std::logic_error);
}

// ---------------------------------------------------- TemporalCsr / Csr

TEST(TemporalCsrValidation, BuildRejectsOutOfRangeSource) {
  // Regression: this was an assert() that compiled away under NDEBUG and
  // corrupted memory in release builds.
  const std::vector<TemporalEdge> events{{0, 1, 5}, {7, 1, 6}};
  EXPECT_THROW(TemporalCsr::build(events, /*num_vertices=*/4, false),
               InvariantError);
}

TEST(TemporalCsrValidation, BuildRejectsOutOfRangeDestination) {
  const std::vector<TemporalEdge> events{{0, 1, 5}, {1, 4, 6}};
  EXPECT_THROW(TemporalCsr::build(events, /*num_vertices=*/4, false),
               InvariantError);
  EXPECT_THROW(TemporalCsr::build(events, /*num_vertices=*/4, true),
               InvariantError);
}

TEST(TemporalCsrValidation, BuildAcceptsBoundaryVertex) {
  const std::vector<TemporalEdge> events{{3, 0, 1}};
  const TemporalCsr g = TemporalCsr::build(events, 4, false);
  EXPECT_EQ(g.num_entries(), 1u);
  EXPECT_NO_THROW(g.validate());
}

TEST(TemporalCsrValidation, ValidatePassesOnPaperExample) {
  const TemporalEdgeList list = test::paper_example_symmetric();
  const TemporalCsr g =
      TemporalCsr::build(list.events(), list.num_vertices(), true);
  EXPECT_NO_THROW(g.validate());
}

TEST(TemporalCsrValidation, ValidatePassesOnUnsortedDuplicateEvents) {
  // build() sorts rows itself; unsorted and duplicated input is legal.
  const std::vector<TemporalEdge> events{
      {1, 0, 9}, {1, 0, 3}, {1, 0, 9}, {0, 1, 7}, {0, 1, 1}};
  const TemporalCsr g = TemporalCsr::build(events, 2, false);
  EXPECT_EQ(g.num_entries(), 5u);
  EXPECT_NO_THROW(g.validate());
}

TEST(TemporalCsrValidation, ZeroVertexGraphValidates) {
  const TemporalCsr empty = TemporalCsr::build({}, 0, false);
  EXPECT_EQ(empty.num_vertices(), 0u);
  EXPECT_NO_THROW(empty.validate());
  const TemporalCsr untouched;  // default-constructed
  EXPECT_NO_THROW(untouched.validate());
}

TEST(CsrValidation, FromPairsRejectsOutOfRangeEndpoint) {
  const std::vector<std::pair<VertexId, VertexId>> edges{{0, 1}, {2, 9}};
  EXPECT_THROW(Csr::from_pairs(edges, 3, /*dedup=*/true), InvariantError);
}

TEST(CsrValidation, WindowGraphValidates) {
  const TemporalEdgeList list = test::paper_example_directed();
  const WindowGraph g =
      build_window_graph(list.events(), list.num_vertices());
  EXPECT_NO_THROW(g.validate());
  const WindowGraph empty = build_window_graph({}, 0);
  EXPECT_NO_THROW(empty.validate());
}

// ----------------------------------------------------------- WindowSpec

TEST(WindowSpecValidation, CoverRejectsNonPositiveSlide) {
  EXPECT_THROW(WindowSpec::cover(0, 100, 10, 0), InvariantError);
  EXPECT_THROW(WindowSpec::cover(0, 100, 10, -5), InvariantError);
  EXPECT_THROW(WindowSpec::cover_capped(0, 100, 10, 0, 6), InvariantError);
}

TEST(WindowSpecValidation, CoverRejectsNegativeDelta) {
  EXPECT_THROW(WindowSpec::cover(0, 100, -1, 10), InvariantError);
}

TEST(WindowSpecValidation, ValidateCatchesHandBuiltBadSpec) {
  WindowSpec spec;
  spec.sw = 0;
  EXPECT_THROW(spec.validate(), InvariantError);
  spec.sw = 10;
  spec.delta = -3;
  EXPECT_THROW(spec.validate(), InvariantError);
  spec.delta = 0;
  EXPECT_NO_THROW(spec.validate());
}

// ------------------------------------------------------- MultiWindowSet

TEST(MultiWindowValidation, BuildRejectsUnsortedEvents) {
  TemporalEdgeList list;
  list.add(0, 1, 50);
  list.add(1, 2, 10);  // out of order
  const WindowSpec spec = WindowSpec::cover(10, 50, 20, 10);
  EXPECT_THROW(MultiWindowSet::build(list, spec, 2), InvariantError);
}

TEST(MultiWindowValidation, BuildRejectsBadSpec) {
  TemporalEdgeList list = test::paper_example_directed();
  list.sort_by_time();
  WindowSpec spec = WindowSpec::cover(list.min_time(), list.max_time(), 30, 30);
  spec.sw = 0;
  EXPECT_THROW(MultiWindowSet::build(list, spec, 2), InvariantError);
}

TEST(MultiWindowValidation, ValidatePassesAcrossPartCountsAndPolicies) {
  TemporalEdgeList list = test::random_events(11, 60, 3000, 5000);
  const WindowSpec spec = WindowSpec::cover(0, 5000, 400, 200);
  for (const auto policy : {PartitionPolicy::kUniformWindows,
                            PartitionPolicy::kBalancedEvents}) {
    for (const std::size_t parts : {1u, 3u, 7u, 1000u}) {
      const MultiWindowSet set = MultiWindowSet::build(list, spec, parts,
                                                       policy);
      EXPECT_NO_THROW(set.validate())
          << to_string(policy) << " with " << parts << " parts";
    }
  }
}

// --------------------------------------------------------- EdgeList IO

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("pmpr_validation_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

TEST(EdgeListValidation, AddRejectsReservedVertexId) {
  TemporalEdgeList list;
  EXPECT_THROW(list.add(kInvalidVertex, 0, 1), InvariantError);
  EXPECT_THROW(list.add(0, kInvalidVertex, 1), InvariantError);
}

TEST(EdgeListValidation, ConstructorRejectsReservedVertexId) {
  std::vector<TemporalEdge> edges{{0, 1, 1}, {kInvalidVertex, 2, 2}};
  EXPECT_THROW(TemporalEdgeList{std::move(edges)}, InvariantError);
}

TEST(EdgeListValidation, MinMaxTimeOfEmptyListThrow) {
  const TemporalEdgeList list;
  EXPECT_THROW((void)list.min_time(), InvariantError);
  EXPECT_THROW((void)list.max_time(), InvariantError);
}

TEST(EdgeListValidation, TextLoadRejectsOverflowingVertexId) {
  TempDir dir;
  {
    std::ofstream out(dir.file("wide.txt"));
    // 5000000000 > 2^32: would alias another vertex after the uint32 cast.
    out << "1 2 3\n5000000000 2 4\n";
  }
  EXPECT_THROW(TemporalEdgeList::load_text(dir.file("wide.txt")),
               std::runtime_error);
}

TEST(EdgeListValidation, TextLoadRejectsReservedVertexId) {
  TempDir dir;
  {
    std::ofstream out(dir.file("res.txt"));
    out << "4294967295 2 4\n";
  }
  EXPECT_THROW(TemporalEdgeList::load_text(dir.file("res.txt")),
               std::runtime_error);
}

testing::AssertionResult has_text(const std::string& error,
                                  const std::string& part) {
  if (error.find(part) != std::string::npos) return testing::AssertionSuccess();
  return testing::AssertionFailure() << "'" << error << "' lacks '" << part
                                     << "'";
}

/// Loads `text` from a file named t.txt; returns the error message, or ""
/// if it loaded.
std::string text_load_error(const TempDir& dir, const std::string& text) {
  {
    std::ofstream out(dir.file("t.txt"), std::ios::binary);
    out << text;
  }
  try {
    (void)TemporalEdgeList::load_text(dir.file("t.txt"));
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// operator>> stopped at the first character it could not use, so each of
// these lines once loaded with the rest of the line ignored.
TEST(EdgeListValidation, TextLoadRejectsHexTime) {
  TempDir dir;
  EXPECT_TRUE(has_text(text_load_error(dir, "1 2 3\n1 2 0x10\n"),
                       "t.txt:2: malformed event line: '1 2 0x10'"));
}

TEST(EdgeListValidation, TextLoadRejectsFractionalTime) {
  TempDir dir;
  EXPECT_TRUE(has_text(text_load_error(dir, "1 2 3.5\n"),
                       "t.txt:1: malformed event line"));
}

TEST(EdgeListValidation, TextLoadRejectsFourthColumn) {
  TempDir dir;
  // A "src dst weight time" file would load its weights as times.
  EXPECT_TRUE(has_text(text_load_error(dir, "# src dst w t\n1 2 5 100\n"),
                       "t.txt:2: malformed event line"));
}

TEST(EdgeListValidation, TextLoadRejectsSignedVertexId) {
  TempDir dir;
  EXPECT_TRUE(has_text(text_load_error(dir, "-0 1 2\n"),
                       "t.txt:1: malformed event line"));
  // Wrapped to vertex 1 under operator>>.
  EXPECT_TRUE(has_text(text_load_error(dir, "1 -18446744073709551615 2\n"),
                       "t.txt:1: malformed event line"));
}

TEST(EdgeListValidation, TextLoadOfDirectoryThrows) {
  TempDir dir;
  const std::string path = dir.file("events.d");
  std::filesystem::create_directory(path);
  try {
    (void)TemporalEdgeList::load_text(path);
    ADD_FAILURE() << "loaded a directory";
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(has_text(e.what(), path));
  }
}

TEST(EdgeListValidation, BinaryLoadRejectsInflatedEventCount) {
  TempDir dir;
  TemporalEdgeList orig = test::paper_example_directed();
  orig.save_binary(dir.file("c.bin"));
  {
    // Patch the count field (bytes 8..16) to claim more events than the
    // payload holds; the loader must not trust it for the allocation.
    std::fstream f(dir.file("c.bin"),
                   std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t huge = ~std::uint64_t{0} / sizeof(TemporalEdge);
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  EXPECT_THROW(TemporalEdgeList::load_binary(dir.file("c.bin")),
               std::runtime_error);
}

TEST(EdgeListValidation, BinaryLoadRejectsTruncatedHeader) {
  TempDir dir;
  TemporalEdgeList orig = test::paper_example_directed();
  orig.save_binary(dir.file("h.bin"));
  std::filesystem::resize_file(dir.file("h.bin"), 12);  // inside the header
  EXPECT_THROW(TemporalEdgeList::load_binary(dir.file("h.bin")),
               std::runtime_error);
}

TEST(EdgeListValidation, BinaryLoadRejectsOversizedVertexCount) {
  TempDir dir;
  TemporalEdgeList orig = test::paper_example_directed();
  orig.save_binary(dir.file("v.bin"));
  {
    std::fstream f(dir.file("v.bin"),
                   std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t too_many = std::uint64_t{1} << 33;
    f.seekp(16);  // vertices field
    f.write(reinterpret_cast<const char*>(&too_many), sizeof(too_many));
  }
  EXPECT_THROW(TemporalEdgeList::load_binary(dir.file("v.bin")),
               std::runtime_error);
}

TEST(EdgeListValidation, BinaryRoundTripOfEmptyListStillWorks) {
  TempDir dir;
  const TemporalEdgeList empty;
  empty.save_binary(dir.file("e.bin"));
  const TemporalEdgeList loaded =
      TemporalEdgeList::load_binary(dir.file("e.bin"));
  EXPECT_TRUE(loaded.empty());
  EXPECT_EQ(loaded.num_vertices(), 0u);
}

// --------------------------------------------------------- DynamicGraph

TEST(DynamicGraphValidation, InsertRejectsOutOfRangeEndpoint) {
  streaming::DynamicGraph g(4);
  EXPECT_THROW(g.insert_event(4, 0), InvariantError);
  EXPECT_THROW(g.insert_event(0, 100), InvariantError);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_NO_THROW(g.validate());
}

TEST(DynamicGraphValidation, BatchInsertRejectedWholeBeforeMutation) {
  streaming::DynamicGraph g(4);
  const std::vector<TemporalEdge> batch{{0, 1, 1}, {2, 3, 2}, {9, 0, 3}};
  EXPECT_THROW(g.insert_batch(batch), InvariantError);
  // The valid prefix must not have been applied.
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.num_active(), 0u);
  EXPECT_NO_THROW(g.validate());
}

TEST(DynamicGraphValidation, RemoveOfUnknownEventThrows) {
  streaming::DynamicGraph g(4);
  g.insert_event(0, 1);
  EXPECT_THROW(g.remove_event(1, 0), InvariantError);  // reversed pair
  EXPECT_THROW(g.remove_event(2, 3), InvariantError);  // never inserted
}

TEST(DynamicGraphValidation, ValidateTracksRandomChurn) {
  const TemporalEdgeList list = test::random_events(23, 40, 2000, 1000);
  streaming::DynamicGraph g(40);
  g.insert_batch(list.events());
  EXPECT_NO_THROW(g.validate());
  // Remove the first half again; caches must stay consistent.
  g.remove_batch(list.events().subspan(0, 1000));
  EXPECT_NO_THROW(g.validate());
  g.remove_batch(list.events().subspan(1000));
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.num_active(), 0u);
  EXPECT_NO_THROW(g.validate());
}

TEST(DynamicGraphValidation, ZeroVertexGraphValidates) {
  streaming::DynamicGraph g(0);
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_NO_THROW(g.validate());
}

// ------------------------------------------------- runner validate flags

TEST(RunnerValidation, AllThreeRunnersPassWithValidateEnabled) {
  TemporalEdgeList list = test::paper_example_symmetric();
  const WindowSpec spec =
      WindowSpec::cover(list.min_time(), list.max_time(), 107, 30);

  NullSink sink;
  PostmortemConfig pm;
  pm.validate = true;
  pm.num_multi_windows = 2;
  EXPECT_NO_THROW(run_postmortem(list, spec, sink, pm));

  StreamingOptions st;
  st.validate = true;
  EXPECT_NO_THROW(run_streaming(list, spec, sink, st));

  OfflineOptions off;
  off.validate = true;
  EXPECT_NO_THROW(run_offline(list, spec, sink, off));
}

TEST(RunnerValidation, RunnersRejectUnsortedEvents) {
  TemporalEdgeList list;
  list.add(0, 1, 50);
  list.add(1, 2, 10);
  const WindowSpec spec = WindowSpec::cover(10, 50, 20, 10);
  NullSink sink;
  EXPECT_THROW(run_postmortem(list, spec, sink, PostmortemConfig{}),
               InvariantError);
  EXPECT_THROW(run_streaming(list, spec, sink, StreamingOptions{}),
               InvariantError);
  EXPECT_THROW(run_offline(list, spec, sink, OfflineOptions{}),
               InvariantError);
}

}  // namespace
}  // namespace pmpr
