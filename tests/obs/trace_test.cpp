#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "obs/plane.h"

namespace {

using ftc::obs::Category;
using ftc::obs::category_bit;
using ftc::obs::NameId;
using ftc::obs::parse_category;
using ftc::obs::parse_severity;
using ftc::obs::Severity;
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
  plane.merge_shards();
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].round, 100);
  EXPECT_EQ(events[1].round, 110);  // within-shard emission order kept
  EXPECT_EQ(events[2].round, 101);
  EXPECT_EQ(events[3].round, 102);
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
  // The Perfetto view runs on the logical clock: every event is an instant
  // at ts = round ms (ts is in µs), on tid = node + 1 (0 = engine).
  Trace trace;
  trace.emit(make_event(5, Category::kEngine, Severity::kDebug,
                        trace.intern("round")));
  TraceEvent crash = make_event(6, Category::kFault, Severity::kInfo,
                                trace.intern("crash"));
  crash.node = 3;
  crash.a0 = 9;
  trace.emit(crash);
  std::ostringstream os;
  trace.export_chrome(os);
  EXPECT_EQ(os.str(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
            "{\"name\":\"round\",\"cat\":\"engine\",\"ph\":\"i\",\"s\":\"t\","
            "\"pid\":0,\"tid\":0,\"ts\":5000,\"args\":{\"round\":5,"
            "\"sev\":\"debug\",\"a0\":0,\"a1\":0}},\n"
            "{\"name\":\"crash\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\","
            "\"pid\":0,\"tid\":4,\"ts\":6000,\"args\":{\"round\":6,"
            "\"sev\":\"info\",\"a0\":9,\"a1\":0}}\n"
            "]}\n");
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
