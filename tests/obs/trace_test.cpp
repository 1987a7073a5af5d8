#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace pmpr {
namespace {

/// Restores the tracing gate and empties the span buffers around each test
/// (the registry is process-global and shared with sibling tests).
struct TraceGuard {
  const bool was_enabled = obs::set_tracing_enabled(false);
  TraceGuard() { obs::clear_trace(); }
  ~TraceGuard() {
    obs::set_tracing_enabled(was_enabled);
    obs::clear_trace();
  }
};

TEST(Trace, DisabledSpanRecordsNothing) {
  TraceGuard guard;
  ASSERT_FALSE(obs::tracing_enabled());
  {
    PMPR_TRACE_SPAN("should.not.appear");
  }
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(Trace, SetEnabledReturnsPrevious) {
  TraceGuard guard;
  EXPECT_FALSE(obs::set_tracing_enabled(true));
  EXPECT_TRUE(obs::set_tracing_enabled(false));
}

TEST(Trace, NestedSpansAreContained) {
  TraceGuard guard;
  obs::set_tracing_enabled(true);
  {
    PMPR_TRACE_SPAN("outer");
    {
      PMPR_TRACE_SPAN("inner");
    }
  }
  obs::set_tracing_enabled(false);
  const std::vector<obs::TraceEvent> events = obs::collect_trace();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start: the outer span opened first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[0].tid, events[1].tid);
  // Containment is what lets the Perfetto viewer re-nest "X" events.
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  EXPECT_GE(events[0].end_ns, events[1].end_ns);
  EXPECT_LE(events[1].start_ns, events[1].end_ns);
}

TEST(Trace, SequentialSpansSortByStartTime) {
  TraceGuard guard;
  obs::set_tracing_enabled(true);
  {
    PMPR_TRACE_SPAN("first");
  }
  {
    PMPR_TRACE_SPAN("second");
  }
  {
    PMPR_TRACE_SPAN("third");
  }
  obs::set_tracing_enabled(false);
  const std::vector<obs::TraceEvent> events = obs::collect_trace();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "first");
  EXPECT_EQ(events[1].name, "second");
  EXPECT_EQ(events[2].name, "third");
  EXPECT_LE(events[0].end_ns, events[1].start_ns);
  EXPECT_LE(events[1].end_ns, events[2].start_ns);
}

TEST(Trace, ClearTraceDropsBufferedSpans) {
  TraceGuard guard;
  obs::set_tracing_enabled(true);
  {
    PMPR_TRACE_SPAN("doomed");
  }
  obs::set_tracing_enabled(false);
  ASSERT_EQ(obs::trace_event_count(), 1u);
  obs::clear_trace();
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(Trace, ChromeJsonShape) {
  TraceGuard guard;
  obs::set_tracing_enabled(true);
  {
    PMPR_TRACE_SPAN("phase.a");
    {
      PMPR_TRACE_SPAN("phase.b");
    }
  }
  obs::set_tracing_enabled(false);
  std::ostringstream out;
  obs::write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"phase.a\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"phase.b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"pmpr\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": "), std::string::npos);
  EXPECT_NE(json.find("\"dur\": "), std::string::npos);
  // Braces/brackets must balance — the file has to load in Perfetto.
  int braces = 0;
  int brackets = 0;
  for (const char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Trace, EmptyTraceStillValidJson) {
  TraceGuard guard;
  std::ostringstream out;
  obs::write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_EQ(json.find("\"name\""), std::string::npos);
}

TEST(Trace, NowIsMonotonic) {
  const std::int64_t a = obs::trace_now_ns();
  const std::int64_t b = obs::trace_now_ns();
  EXPECT_LE(a, b);
}

TEST(Trace, ChromeJsonEmitsMetadataWithEvents) {
  TraceGuard guard;
  obs::set_thread_name("test.main");
  obs::set_tracing_enabled(true);
  {
    PMPR_TRACE_SPAN("phase.meta");
  }
  obs::set_tracing_enabled(false);
  std::ostringstream out;
  obs::write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"name\": \"pmpr\"}"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"name\": \"test.main\"}"),
            std::string::npos);
  // Metadata events must precede the span payload so Perfetto labels
  // tracks before populating them.
  EXPECT_LT(json.find("\"process_name\""), json.find("\"phase.meta\""));
  // Still balanced JSON.
  int braces = 0;
  for (const char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    ASSERT_GE(braces, 0);
  }
  EXPECT_EQ(braces, 0);
}

TEST(Trace, SetThreadNameLastCallWins) {
  TraceGuard guard;
  obs::set_thread_name("first.name");
  obs::set_thread_name("second.name");
  obs::set_tracing_enabled(true);
  {
    PMPR_TRACE_SPAN("named.span");
  }
  obs::set_tracing_enabled(false);
  std::ostringstream out;
  obs::write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.find("\"first.name\""), std::string::npos);
  EXPECT_NE(json.find("\"second.name\""), std::string::npos);
}

}  // namespace
}  // namespace pmpr
