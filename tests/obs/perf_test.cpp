// Perf-attribution plane (obs/perf.h, DESIGN.md §12): the end_round fold of
// per-shard samples, derived imbalance/straggler/coverage statistics,
// the ring buffer and the JSONL side channel, plus end-to-end wiring through
// SyncNetwork and the LP solver — which must leave the registry and the
// trace exactly as a perf-off run writes them.
#include "obs/perf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algo/lp/lp_kmds.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "graph/generators.h"
#include "obs/plane.h"
#include "sim/network.h"
#include "util/rng.h"

namespace {

using namespace ftc;
using graph::NodeId;
using obs::kPerfPhaseCount;
using obs::PerfPhase;
using obs::PerfPlane;
using obs::PerfShardSample;

TEST(PerfPhases, NamesAndClassificationAreConsistent) {
  // Every phase has a stable snake_case name (these are JSONL keys the
  // ftc-trace analytics parse — renames are format breaks).
  for (int p = 0; p < kPerfPhaseCount; ++p) {
    EXPECT_FALSE(obs::perf_phase_name(static_cast<PerfPhase>(p)).empty());
  }
  EXPECT_EQ(obs::perf_phase_name(PerfPhase::kCompute), "compute");
  EXPECT_EQ(obs::perf_phase_name(PerfPhase::kChannelDecide), "channel_decide");
  // Nested/overlapping phases must never count toward coverage.
  EXPECT_TRUE(obs::perf_phase_top_level(PerfPhase::kCompute));
  EXPECT_TRUE(obs::perf_phase_top_level(PerfPhase::kLpZPass));
  EXPECT_FALSE(obs::perf_phase_top_level(PerfPhase::kChannelDecide));
  EXPECT_FALSE(obs::perf_phase_top_level(PerfPhase::kBarrierWait));
  EXPECT_FALSE(obs::perf_phase_top_level(PerfPhase::kClaimStall));
  // Shard slots round-trip; owner-only phases have no slot.
  for (int slot = 0; slot < obs::kPerfShardPhaseCount; ++slot) {
    EXPECT_EQ(obs::perf_shard_slot(obs::perf_shard_phase(slot)), slot);
  }
  EXPECT_EQ(obs::perf_shard_slot(PerfPhase::kFinalize), -1);
  EXPECT_EQ(obs::perf_shard_slot(PerfPhase::kDeliverPrefix), -1);
}

TEST(PerfPlane, EndRoundFoldsShardStagingAndOwnerPhases) {
  PerfPlane perf;
  // Owner-side laps: the dispatch wall time of the parallel phases plus the
  // sequential barriers. (Worker sums never enter the phase table — they
  // would double-count the dispatch wall the owner already measured.)
  perf.add(PerfPhase::kCompute, 350);
  perf.add(PerfPhase::kDeliverPrefix, 50);
  perf.add(PerfPhase::kFinalize, 25);
  // Worker-side staging, written out of shard order on purpose.
  std::vector<PerfShardSample> shards(3);
  shards[2].add(PerfPhase::kCompute, 300);
  shards[0].add(PerfPhase::kCompute, 100);
  shards[1].add(PerfPhase::kCompute, 200);
  shards[1].add(PerfPhase::kDeliverCount, 40);
  shards[2].nodes = 10;
  shards[2].messages = 70;
  perf.end_round(0, 1000, shards);

  ASSERT_EQ(perf.rounds(), 1);
  const auto recent = perf.recent();
  ASSERT_EQ(recent.size(), 1u);
  const auto& r = recent[0];
  EXPECT_EQ(r.total_ns, 1000);
  // The phase table carries the owner laps; the per-shard rows carry the
  // worker staging.
  EXPECT_EQ(r.phase_ns[static_cast<int>(PerfPhase::kCompute)], 350);
  EXPECT_EQ(r.phase_ns[static_cast<int>(PerfPhase::kDeliverPrefix)], 50);
  EXPECT_EQ(r.phase_ns[static_cast<int>(PerfPhase::kFinalize)], 25);
  ASSERT_EQ(r.shards.size(), 3u);
  EXPECT_EQ(r.shards[0].busy_ns(), 100);
  EXPECT_EQ(r.shards[1].busy_ns(), 240);
  EXPECT_EQ(r.shards[2].busy_ns(), 300);
  EXPECT_EQ(r.shards[2].nodes, 10);
  EXPECT_EQ(r.shards[2].messages, 70);
  // Imbalance = max/mean busy: 300 / ((100+240+300)/3).
  EXPECT_NEAR(r.imbalance, 300.0 / (640.0 / 3.0), 1e-9);
  EXPECT_EQ(r.straggler, 2);
  // attributed = Σ top-level owner laps = 350 + 50 + 25.
  EXPECT_EQ(r.attributed_ns(), 425);
  EXPECT_NEAR(perf.attribution_coverage(), 425.0 / 1000.0, 1e-9);

  // The owner laps were consumed: an idle follow-up round folds to zeros.
  perf.end_round(1, 500, std::vector<PerfShardSample>(3));
  EXPECT_EQ(perf.recent()[1].attributed_ns(), 0);
  EXPECT_EQ(perf.recent()[1].straggler, -1);
  EXPECT_DOUBLE_EQ(perf.recent()[1].imbalance, 1.0);
  ASSERT_EQ(perf.shard_totals().size(), 3u);
  EXPECT_EQ(perf.shard_totals()[2].busy_ns(), 300);
  EXPECT_EQ(perf.shard_totals()[2].messages, 70);
}

TEST(PerfPlane, NestedChannelDecideIsReportedButNotCovered) {
  PerfPlane perf;
  perf.add(PerfPhase::kDeliverCount, 100);  // owner dispatch lap
  std::vector<PerfShardSample> shards(2);
  shards[0].add(PerfPhase::kDeliverCount, 100);  // worker share
  shards[0].add(PerfPhase::kChannelDecide, 60);  // nested inside count
  perf.end_round(0, 200, shards);
  const auto recent = perf.recent();
  const auto& r = recent[0];
  // Channel decide has no owner lap, so its worker-staged total is folded
  // into the phase table at the barrier…
  EXPECT_EQ(r.phase_ns[static_cast<int>(PerfPhase::kChannelDecide)], 60);
  EXPECT_EQ(perf.phase_total_ns(PerfPhase::kChannelDecide), 60);
  // …but excluded from both the coverage sum and the shard busy time
  // (it already lives inside deliver_count).
  EXPECT_EQ(r.attributed_ns(), 100);
  EXPECT_EQ(r.shards[0].busy_ns(), 100);
}

TEST(PerfPlane, RingEvictsOldestButAggregatesNever) {
  PerfPlane perf;
  constexpr int kCap = static_cast<int>(PerfPlane::kRingCapacity);
  constexpr int kRounds = kCap + 6;
  for (int i = 0; i < kRounds; ++i) {
    perf.add(PerfPhase::kCompute, 10);
    perf.end_round(i, 100, {});
  }
  EXPECT_EQ(perf.rounds(), kRounds);
  const auto recent = perf.recent();
  ASSERT_EQ(recent.size(), PerfPlane::kRingCapacity);
  for (int i = 0; i < kCap; ++i) {
    ASSERT_EQ(recent[static_cast<std::size_t>(i)].round, 6 + i);  // oldest first
  }
  // Run-wide sums cover every round, not just the retained window.
  EXPECT_EQ(perf.total_ns(), 100LL * kRounds);
  EXPECT_EQ(perf.phase_total_ns(PerfPhase::kCompute), 10LL * kRounds);
  EXPECT_NEAR(perf.attribution_coverage(), 0.1, 1e-9);
}

TEST(PerfPlane, ImbalanceStatisticsAcrossRounds) {
  PerfPlane perf;
  // Round 0: perfectly balanced.
  std::vector<PerfShardSample> shards(2);
  shards[0].add(PerfPhase::kCompute, 100);
  shards[1].add(PerfPhase::kCompute, 100);
  perf.end_round(0, 200, shards);
  // Round 1: shard 1 does triple the work.
  shards[1].add(PerfPhase::kCompute, 200);
  perf.end_round(1, 400, shards);
  EXPECT_DOUBLE_EQ(perf.recent()[0].imbalance, 1.0);
  EXPECT_DOUBLE_EQ(perf.recent()[1].imbalance, 1.5);
  EXPECT_DOUBLE_EQ(perf.mean_imbalance(), 1.25);
  EXPECT_DOUBLE_EQ(perf.max_imbalance(), 1.5);
  ASSERT_EQ(perf.shard_totals().size(), 2u);
  EXPECT_EQ(perf.shard_totals()[0].busy_ns(), 200);
  EXPECT_EQ(perf.shard_totals()[1].busy_ns(), 400);
  // Round 0's tie went to the lower shard, round 1 to the slower one.
  EXPECT_EQ(perf.recent()[0].straggler, 0);
  EXPECT_EQ(perf.shard_totals()[0].straggler_rounds, 1);
  EXPECT_EQ(perf.shard_totals()[1].straggler_rounds, 1);
}

TEST(PerfPlane, ExportJsonlShape) {
  PerfPlane perf;
  perf.add(PerfPhase::kCompute, 200);  // owner dispatch lap
  std::vector<PerfShardSample> shards(2);
  shards[0].add(PerfPhase::kCompute, 120);
  shards[1].add(PerfPhase::kCompute, 80);
  perf.add(PerfPhase::kFinalize, 10);
  shards[0].nodes = 5;
  shards[0].messages = 9;
  perf.end_round(3, 250, shards);
  std::ostringstream os;
  perf.export_jsonl(os);
  const std::string out = os.str();
  // One round line, then the summary line.
  EXPECT_NE(out.find("\"type\":\"round\""), std::string::npos);
  EXPECT_NE(out.find("\"round\":3"), std::string::npos);
  EXPECT_NE(out.find("\"total_ns\":250"), std::string::npos);
  EXPECT_NE(out.find("\"compute\":200"), std::string::npos);
  EXPECT_NE(out.find("\"type\":\"summary\""), std::string::npos);
  EXPECT_NE(out.find("\"rounds\":1,\"retained\":1,\"shards\":2,"
                     "\"total_ns\":250"),
            std::string::npos);
  EXPECT_NE(out.find("\"shard_totals\""), std::string::npos);
  EXPECT_NE(out.find("\"straggler_rounds\""), std::string::npos);
  // Exactly two lines.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

/// Two-word chatter, enough rounds to exercise every engine phase.
class ChatterProcess final : public sim::Process {
 public:
  explicit ChatterProcess(std::int64_t rounds) : rounds_(rounds) {}
  void on_round(sim::Context& ctx) override {
    ctx.broadcast({sim::Word{1}, static_cast<sim::Word>(ctx.round())});
    if (ctx.round() + 1 >= rounds_) halt();
  }

 private:
  std::int64_t rounds_;
};

TEST(PerfWiring, SyncNetworkAttributesItsRounds) {
  util::Rng rng(11);
  const auto udg = geom::uniform_udg_with_degree(120, 8.0, rng);
  obs::PlaneOptions options;
  options.perf = true;
  obs::Plane plane(options);
  sim::SyncNetwork net(udg, 3);
  net.set_observability(&plane);
  net.set_threads(4);
  net.set_parallel_grain(0);  // small n: force the pool, not the fallback
  net.set_channel({.loss = 0.1});  // channel verdicts → channel_decide time
  net.set_all_processes(
      [](NodeId) { return std::make_unique<ChatterProcess>(30); });
  net.run(40);

  const PerfPlane& perf = *plane.perf();
  EXPECT_EQ(perf.rounds(), net.metrics().rounds);
  EXPECT_EQ(perf.shard_totals().size(), 4u);
  // The engine tiles each round with its top-level phases; the attribution
  // must explain most of the measured wall time (the acceptance bar on the
  // big flood bench is 95% — on a tiny graph, clock granularity bites, so
  // assert a softer floor here).
  EXPECT_GT(perf.attribution_coverage(), 0.5);
  EXPECT_LE(perf.attribution_coverage(), 1.0 + 1e-9);
  EXPECT_GT(perf.phase_total_ns(PerfPhase::kCompute), 0);
  EXPECT_GT(perf.phase_total_ns(PerfPhase::kDeliverCount), 0);
  EXPECT_GT(perf.phase_total_ns(PerfPhase::kDeliverPlace), 0);
  EXPECT_GT(perf.phase_total_ns(PerfPhase::kFinalize), 0);
  EXPECT_GE(perf.mean_imbalance(), 1.0);
  // Every shard saw work on a 120-node graph split four ways.
  for (const auto& totals : perf.shard_totals()) {
    EXPECT_GT(totals.nodes, 0);
  }
}

TEST(PerfWiring, AttachingThePerfPlaneDoesNotPerturbTheRun) {
  // Wall time stays in the perf plane: the run, the registry and both
  // trace exports are the perf-off run's, byte for byte.
  util::Rng rng(23);
  const auto udg = geom::uniform_udg_with_degree(80, 8.0, rng);
  struct Run {
    sim::Metrics metrics;
    std::string registry;
    std::string jsonl;
    std::string chrome;
  };
  auto run = [&](bool with_perf) {
    obs::PlaneOptions options;
    options.perf = with_perf;
    obs::Plane plane(options);
    sim::SyncNetwork net(udg, 9);
    net.set_observability(&plane);
    net.set_channel({.loss = 0.2});
    net.set_all_processes(
        [](NodeId) { return std::make_unique<ChatterProcess>(25); });
    net.run(30);
    std::ostringstream registry, jsonl, chrome;
    plane.metrics().write_json(registry);
    plane.trace().export_jsonl(jsonl);
    plane.trace().export_chrome(chrome);
    return Run{net.metrics(), registry.str(), jsonl.str(), chrome.str()};
  };
  const Run with_perf = run(true);
  const Run without = run(false);
  EXPECT_EQ(with_perf.metrics, without.metrics);
  EXPECT_EQ(with_perf.registry, without.registry);
  EXPECT_EQ(with_perf.jsonl, without.jsonl);
  EXPECT_EQ(with_perf.chrome, without.chrome);
}

TEST(PerfWiring, LpSolverAttributesItsInnerIterations) {
  util::Rng rng(5);
  const graph::Graph g = graph::gnp(200, 0.05, rng);
  const auto demands =
      domination::clamp_demands(g, domination::uniform_demands(g.n(), 2));
  algo::LpOptions opts;
  const algo::LpResult plain = algo::solve_fractional_kmds(g, demands, opts);

  PerfPlane perf;
  opts.perf = &perf;
  const algo::LpResult attributed = algo::solve_fractional_kmds(g, demands, opts);

  // Attaching the sink is observation only: identical solution.
  EXPECT_EQ(plain.primal.x, attributed.primal.x);
  EXPECT_EQ(plain.rounds, attributed.rounds);
  // t² inner iterations plus the final z-pass, each one perf "round".
  EXPECT_EQ(perf.rounds(),
            static_cast<std::int64_t>(opts.t) * opts.t + 1);
  EXPECT_GT(perf.phase_total_ns(PerfPhase::kLpXUpdate), 0);
  EXPECT_GT(perf.phase_total_ns(PerfPhase::kLpDualColor), 0);
  EXPECT_GT(perf.phase_total_ns(PerfPhase::kLpDegree), 0);
  EXPECT_GT(perf.phase_total_ns(PerfPhase::kLpZPass), 0);
  EXPECT_GT(perf.attribution_coverage(), 0.5);
}

}  // namespace
