#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "obs/plane.h"

namespace {

using ftc::obs::Category;
using ftc::obs::category_bit;
using ftc::obs::NameId;
using ftc::obs::parse_category;
using ftc::obs::parse_severity;
using ftc::obs::Severity;
using ftc::obs::SpanTimer;
using ftc::obs::Trace;
using ftc::obs::TraceEvent;

TraceEvent make_event(std::int64_t round, Category cat = Category::kEngine,
                      Severity sev = Severity::kInfo, NameId name = 0) {
  TraceEvent e;
  e.round = round;
  e.category = cat;
  e.severity = sev;
  e.name = name;
  return e;
}

TEST(TraceNames, ParseRoundTrips) {
  Category c;
  EXPECT_TRUE(parse_category("repair", c));
  EXPECT_EQ(c, Category::kRepair);
  EXPECT_FALSE(parse_category("bogus", c));
  Severity s;
  EXPECT_TRUE(parse_severity("warn", s));
  EXPECT_EQ(s, Severity::kWarn);
  EXPECT_FALSE(parse_severity("loud", s));
}

TEST(TraceFilter, SeverityAndCategoryMask) {
  Trace::Options options;
  options.min_severity = Severity::kInfo;
  options.category_mask = category_bit(Category::kFault);
  Trace trace(options);
  trace.emit(make_event(1, Category::kFault, Severity::kDebug));  // too quiet
  trace.emit(make_event(2, Category::kEngine, Severity::kWarn));  // masked cat
  trace.emit(make_event(3, Category::kFault, Severity::kInfo));   // kept
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.events()[0].round, 3);
  EXPECT_EQ(trace.dropped(), 0);  // filtered ≠ dropped (ring eviction)
}

TEST(TraceRing, EvictsOldestAndCountsDrops) {
  Trace::Options options;
  options.capacity = 4;
  Trace trace(options);
  for (int i = 0; i < 10; ++i) trace.emit(make_event(i));
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 6);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].round, 6 + i);  // oldest first
  }
}

TEST(TraceShards, MergeAppendsInAscendingShardOrder) {
  ftc::obs::Plane plane;
  plane.set_shards(3);
  auto emit = [&](int shard, std::int64_t round) {
    plane.recorder(shard).event(Category::kUser, Severity::kInfo, 0, round, -1);
  };
  emit(2, 102);
  emit(0, 100);
  emit(1, 101);
  emit(0, 110);
  const Trace& trace = plane.trace();
  EXPECT_EQ(trace.size(), 0u);  // staged, not yet visible
  // Events carry their emission time: let the clock move past it before
  // the fold, so a merge-time stamp would be caught.
  const std::int64_t emitted_by = trace.now_ns();
  while (trace.now_ns() <= emitted_by) {
  }
  plane.merge_shards();
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].round, 100);
  EXPECT_EQ(events[1].round, 110);  // within-shard emission order kept
  EXPECT_EQ(events[2].round, 101);
  EXPECT_EQ(events[3].round, 102);
  for (const TraceEvent& e : events) {
    EXPECT_GT(e.wall_ns, 0);
    EXPECT_LE(e.wall_ns, emitted_by);
  }
  plane.merge_shards();  // the fold drained the recorders
  EXPECT_EQ(trace.size(), 4u);
}

TEST(TraceExport, JsonlHasLogicalFieldsOnly) {
  Trace trace;
  const NameId name = trace.intern("crash");
  TraceEvent e = make_event(7, Category::kFault, Severity::kWarn, name);
  e.node = 3;
  e.a0 = 42;
  e.a1 = -1;
  trace.emit(e);
  std::ostringstream os;
  trace.export_jsonl(os);
  EXPECT_EQ(os.str(),
            "{\"round\":7,\"node\":3,\"cat\":\"fault\",\"sev\":\"warn\","
            "\"name\":\"crash\",\"a0\":42,\"a1\":-1}\n");
  // The wall clock must never leak into the deterministic stream.
  EXPECT_EQ(os.str().find("wall"), std::string::npos);
  EXPECT_EQ(os.str().find("dur"), std::string::npos);
  EXPECT_EQ(os.str().find("ts"), std::string::npos);
}

TEST(TraceExport, ChromeShape) {
  Trace trace;
  const NameId span_name = trace.intern("engine.execute");
  {
    SpanTimer span(&trace, Category::kEngine, Severity::kDebug, span_name, 5);
  }
  trace.emit(make_event(6, Category::kFault, Severity::kInfo,
                        trace.intern("crash")));
  std::ostringstream os;
  trace.export_chrome(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // the span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // the instant
  EXPECT_NE(json.find("\"name\":\"engine.execute\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST(TraceSpan, FilteredOrNullSpanIsNoop) {
  Trace::Options options;
  options.min_severity = Severity::kWarn;
  Trace trace(options);
  {
    SpanTimer null_span(nullptr, Category::kEngine, Severity::kError, 0, 1);
    SpanTimer filtered(&trace, Category::kEngine, Severity::kDebug, 0, 1);
  }
  EXPECT_EQ(trace.size(), 0u);
}

TEST(TraceSpan, RecordsArgsAndPositiveDuration) {
  Trace trace;
  const NameId name = trace.intern("phase");
  {
    SpanTimer span(&trace, Category::kEngine, Severity::kInfo, name, 9, 4);
    span.set_args(11, 22);
  }
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].round, 9);
  EXPECT_EQ(events[0].node, 4);
  EXPECT_EQ(events[0].a0, 11);
  EXPECT_EQ(events[0].a1, 22);
  EXPECT_GT(events[0].dur_ns, 0);
}

TEST(TraceSpan, MovedFromSpanIsInert) {
  Trace trace;
  const NameId name = trace.intern("phase");
  {
    SpanTimer outer(&trace, Category::kEngine, Severity::kInfo, name, 1);
    {
      SpanTimer inner(std::move(outer));
    }  // the moved-to span emits here
    // The moved-from span must not emit a second event (or touch the
    // finished event) when it is destroyed.
  }
  EXPECT_EQ(trace.size(), 1u);
}

TEST(TraceSpan, NonPositiveDurationClampsAndCounts) {
  Trace trace;
  TraceEvent zero = make_event(4);
  zero.dur_ns = 0;  // clock could not resolve the interval
  trace.finish_span(zero);
  TraceEvent negative = make_event(5);
  negative.dur_ns = -7;  // e.g. a clock-domain hiccup
  trace.finish_span(negative);
  TraceEvent fine = make_event(6);
  fine.dur_ns = 50;
  trace.finish_span(fine);
  // Clamped spans still render (dur 1 ns), and only the clamped ones count.
  EXPECT_EQ(trace.clamped_spans(), 2);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 3u);
  for (const auto& e : events) {
    EXPECT_GT(e.dur_ns, 0);
  }
}

TEST(TraceNames, InternIsIdempotent) {
  Trace trace;
  const NameId a = trace.intern("x");
  EXPECT_EQ(trace.intern("x"), a);
  EXPECT_EQ(trace.name(a), "x");
  EXPECT_NE(trace.intern("y"), a);
  EXPECT_EQ(trace.name(0), "?");  // reserved un-interned name
}

}  // namespace
