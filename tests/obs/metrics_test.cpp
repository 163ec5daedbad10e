#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/plane.h"

namespace {

using ftc::obs::HistogramSnapshot;
using ftc::obs::kInvalidMetric;
using ftc::obs::MetricId;
using ftc::obs::MetricKind;
using ftc::obs::Plane;
using ftc::obs::pow2_bounds;
using ftc::obs::Registry;

TEST(MetricsRegistry, RegistrationIsIdempotentAndTyped) {
  Registry reg;
  const MetricId a = reg.counter("sim.messages");
  EXPECT_EQ(reg.counter("sim.messages"), a);
  EXPECT_EQ(reg.find("sim.messages"), a);
  EXPECT_EQ(reg.kind(a), MetricKind::kCounter);
  EXPECT_EQ(reg.find("nope"), kInvalidMetric);
  EXPECT_THROW(reg.gauge("sim.messages"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("sim.messages", {1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, CountersAccumulateAndGaugesOverwrite) {
  Registry reg;
  const MetricId c = reg.counter("c");
  const MetricId g = reg.gauge("g");
  reg.add(c, 3);
  reg.add(c, 4);
  reg.set(g, 10);
  reg.set(g, 7);
  EXPECT_EQ(reg.value(c), 7);
  EXPECT_EQ(reg.value(g), 7);
}

TEST(MetricsRegistry, BucketOfUsesHalfOpenUpperEdges) {
  // Buckets over bounds {1, 2, 4}: [-inf,1) [1,2) [2,4) [4,inf).
  const std::vector<double> bounds{1.0, 2.0, 4.0};
  EXPECT_EQ(Registry::bucket_of(bounds, 0.0), 0u);   // below first bound
  EXPECT_EQ(Registry::bucket_of(bounds, 0.99), 0u);
  EXPECT_EQ(Registry::bucket_of(bounds, 1.0), 1u);   // exact edge → upper
  EXPECT_EQ(Registry::bucket_of(bounds, 1.5), 1u);
  EXPECT_EQ(Registry::bucket_of(bounds, 2.0), 2u);   // exact edge → upper
  EXPECT_EQ(Registry::bucket_of(bounds, 3.999), 2u);
  EXPECT_EQ(Registry::bucket_of(bounds, 4.0), 3u);   // overflow bucket
  EXPECT_EQ(Registry::bucket_of(bounds, 1e18), 3u);
}

TEST(MetricsRegistry, HistogramRecordsIntoExpectedBuckets) {
  Registry reg;
  const MetricId h = reg.histogram("h", {1.0, 2.0, 4.0});
  reg.record(h, 0.5);   // bucket 0
  reg.record(h, 1.0);   // bucket 1 (edge)
  reg.record(h, 3.0);   // bucket 2
  reg.record(h, 4.0);   // overflow
  reg.record(h, 100.0); // overflow
  const HistogramSnapshot snap = reg.histogram_snapshot(h);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 1);
  EXPECT_EQ(snap.counts[1], 1);
  EXPECT_EQ(snap.counts[2], 1);
  EXPECT_EQ(snap.counts[3], 2);
  EXPECT_EQ(snap.total(), 5);
}

TEST(MetricsRegistry, Pow2BoundsShape) {
  const auto bounds = pow2_bounds(0, 3);  // 1, 2, 4, 8
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

/// Workers stage metrics through their shard's Recorder; the fold at
/// Plane::merge_shards() must be associative: any partition of the same
/// emissions across shards — including all-in-one-shard — yields the same
/// registry.
TEST(MetricsRegistry, ShardMergeIsPartitionInvariant) {
  auto run = [](int shards, const std::vector<int>& shard_of_emission) {
    Plane plane;
    const MetricId c = plane.metrics().counter("c");
    const MetricId h = plane.metrics().histogram("h", {2.0, 8.0});
    plane.set_shards(shards);
    for (std::size_t i = 0; i < shard_of_emission.size(); ++i) {
      ftc::obs::Recorder& rec = plane.recorder(shard_of_emission[i]);
      rec.count(c, static_cast<std::int64_t>(i) + 1);
      rec.record(h, static_cast<double>(i));
    }
    plane.merge_shards();
    std::ostringstream os;
    plane.metrics().write_json(os);
    return os.str();
  };

  const std::string one = run(1, {0, 0, 0, 0, 0, 0});
  const std::string two = run(2, {0, 1, 0, 1, 1, 0});
  const std::string four = run(4, {3, 2, 1, 0, 3, 1});
  EXPECT_NE(one.find("\"c\": 21"), std::string::npos);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

TEST(MetricsRegistry, MergeClearsStagingForReuse) {
  Plane plane;
  const MetricId c = plane.metrics().counter("c");
  const MetricId h = plane.metrics().histogram("h", {1.0});
  plane.set_shards(2);
  plane.recorder(0).count(c, 5);
  plane.recorder(1).count(c, 6);
  plane.recorder(1).record(h, 0.5);
  EXPECT_EQ(plane.metrics().value(c), 0);  // staged, not yet visible
  plane.merge_shards();
  EXPECT_EQ(plane.metrics().value(c), 11);
  plane.merge_shards();  // nothing staged: no double counting
  EXPECT_EQ(plane.metrics().value(c), 11);
  EXPECT_EQ(plane.metrics().histogram_snapshot(h).total(), 1);
  plane.recorder(1).count(c, 1);
  plane.merge_shards();
  EXPECT_EQ(plane.metrics().value(c), 12);
}

TEST(MetricsRegistry, WriteJsonRendersEmptyHistograms) {
  // A histogram nothing ever recorded into still exports its full shape:
  // ftc-trace summarize and diff-based determinism checks both depend on
  // the all-zero counts row being present rather than omitted.
  Registry reg;
  reg.histogram("empty.hist", {1.0, 4.0});
  std::ostringstream os;
  reg.write_json(os);
  EXPECT_NE(os.str().find(
                "\"empty.hist\": {\"bounds\": [1, 4], \"counts\": [0, 0, 0]}"),
            std::string::npos);
}

TEST(MetricsRegistry, WriteJsonShape) {
  Registry reg;
  reg.add(reg.counter("a.count"), 3);
  reg.record(reg.histogram("b.hist", {1.0}), 2.0);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"a.count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"b.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"bounds\""), std::string::npos);
  EXPECT_NE(json.find("\"counts\""), std::string::npos);
}

}  // namespace
