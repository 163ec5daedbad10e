#include "sim/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "graph/generators.h"

namespace ftc::sim {
namespace {

using graph::NodeId;

/// Counts executed rounds; never halts.
class TickProcess final : public Process {
 public:
  void on_round(Context& ctx) override {
    ++ticks_;
    ctx.broadcast({Word{1}});
    if (ctx.round() >= 50) halt();
  }
  std::int64_t ticks_ = 0;
};

TEST(FaultPlan, CompileIsDeterministicPerSeed) {
  util::Rng rng(3);
  const graph::Graph g = graph::gnp(60, 0.1, rng);
  const FaultPlan plan = FaultPlan::churn(0.01, 2, 6);
  const auto a = compile_fault_plan(plan, g, nullptr, 100, 7);
  const auto b = compile_fault_plan(plan, g, nullptr, 100, 7);
  const auto c = compile_fault_plan(plan, g, nullptr, 100, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_FALSE(a.empty());
}

TEST(FaultPlan, IidRespectsWindowAndNeverKillsTwice) {
  util::Rng rng(4);
  const graph::Graph g = graph::gnp(80, 0.1, rng);
  const auto events =
      compile_fault_plan(FaultPlan::iid_crashes(0.2, 5, 9), g, nullptr, 50, 1);
  std::map<NodeId, int> crashes_per_node;
  for (const FaultEvent& e : events) {
    EXPECT_FALSE(e.recover);
    EXPECT_GE(e.round, 5);
    EXPECT_LT(e.round, 9);
    crashes_per_node[e.node] += 1;
  }
  for (const auto& [node, count] : crashes_per_node) EXPECT_EQ(count, 1);
}

TEST(FaultPlan, TargetedKillsHighestDegreeFirst) {
  const graph::Graph g = graph::star(8);  // center 0 has degree 7
  const auto events = compile_fault_plan(FaultPlan::targeted_by_degree(2, 3),
                                         g, nullptr, 10, 1);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].node, 0);  // the hub dies first
  EXPECT_EQ(events[1].node, 1);  // then the smallest-id leaf (degree tie)
  EXPECT_EQ(events[0].round, 3);
}

TEST(FaultPlan, RegionNeedsEmbedding) {
  const graph::Graph g = graph::path(4);
  EXPECT_THROW(compile_fault_plan(FaultPlan::region({0, 0}, 1.0, 0), g,
                                  nullptr, 10, 1),
               std::invalid_argument);
}

TEST(FaultPlan, RegionKillsExactlyTheDisk) {
  const std::vector<geom::Point> pts{{0, 0}, {0.5, 0}, {3, 0}, {3.5, 0}};
  const geom::UnitDiskGraph udg = geom::build_udg(pts, 1.0);
  const auto events = compile_fault_plan(FaultPlan::region({0, 0}, 1.0, 2),
                                         udg.graph, &udg, 10, 1);
  std::vector<NodeId> victims;
  for (const FaultEvent& e : events) victims.push_back(e.node);
  EXPECT_EQ(victims, (std::vector<NodeId>{0, 1}));
}

TEST(FaultPlan, ChurnAlternatesCrashAndRecoverPerNode) {
  util::Rng rng(5);
  const graph::Graph g = graph::gnp(60, 0.1, rng);
  const auto events = compile_fault_plan(FaultPlan::churn(0.02, 3, 9), g,
                                         nullptr, 300, 9);
  ASSERT_FALSE(events.empty());
  std::map<NodeId, std::vector<const FaultEvent*>> per_node;
  for (const FaultEvent& e : events) per_node[e.node].push_back(&e);
  bool saw_recovery = false;
  for (const auto& [node, seq] : per_node) {
    for (std::size_t i = 0; i < seq.size(); ++i) {
      // Alternating crash, recover, crash, ... with >= 1 round between.
      EXPECT_EQ(seq[i]->recover, i % 2 == 1);
      if (i > 0) {
        EXPECT_GT(seq[i]->round, seq[i - 1]->round);
      }
      saw_recovery |= seq[i]->recover;
    }
  }
  EXPECT_TRUE(saw_recovery);
}

TEST(FaultInjector, ChurnRunsOnSyncNetworkAndRevivesNodes) {
  util::Rng rng(6);
  const graph::Graph g = graph::gnp(40, 0.15, rng);
  SyncNetwork net(g, 1);
  net.set_all_processes([](NodeId) { return std::make_unique<TickProcess>(); });

  FaultInjector injector(FaultPlan::churn(0.05, 2, 5, 0, 40), 11);
  injector.install(net, 60,
                   [](NodeId) { return std::make_unique<TickProcess>(); });
  ASSERT_GT(injector.crash_count(), 0);
  ASSERT_GT(injector.recovery_count(), 0);
  net.run(60);

  // Every node whose last event is a recovery must be live again, and its
  // fresh process must have executed fewer rounds than an original one.
  std::map<NodeId, FaultEvent> last_event;
  for (const FaultEvent& e : injector.schedule()) last_event[e.node] = e;
  bool checked_revived = false;
  for (const auto& [node, e] : last_event) {
    if (e.recover) {
      EXPECT_FALSE(net.crashed(node));
      EXPECT_LT(net.process_as<TickProcess>(node).ticks_, 51 - e.round + 1);
      checked_revived = true;
    } else {
      EXPECT_TRUE(net.crashed(node));
    }
  }
  EXPECT_TRUE(checked_revived);
  EXPECT_EQ(net.live_count(),
            static_cast<NodeId>(40 - injector.crash_count() +
                                injector.recovery_count()));
}

}  // namespace
}  // namespace ftc::sim
