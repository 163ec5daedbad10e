#include "algo/extensions/repair.h"

#include <gtest/gtest.h>

#include <tuple>

#include "algo/baseline/greedy.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using domination::clamp_demands;
using domination::uniform_demands;
using graph::Graph;
using graph::NodeId;

TEST(Repair, NoFailuresIsNoOp) {
  util::Rng rng(1);
  const Graph g = graph::gnp(40, 0.15, rng);
  const auto d = clamp_demands(g, uniform_demands(40, 2));
  const auto base = greedy_kmds(g, d).set;
  const auto result = repair_after_failures(g, base, {}, d);
  EXPECT_EQ(result.set, base);
  EXPECT_EQ(result.promoted, 0);
  EXPECT_EQ(result.touched, 0);
  EXPECT_TRUE(result.fully_satisfied);
}

TEST(Repair, FailedMembersAreDropped) {
  const Graph g = graph::complete(5);
  const std::vector<NodeId> base{0, 1, 2};
  const std::vector<NodeId> failed{1};
  const auto result = repair_after_failures(g, base, failed,
                                            uniform_demands(5, 2));
  for (NodeId v : result.set) EXPECT_NE(v, 1);
}

TEST(Repair, RestoresCoverageOnClique) {
  const Graph g = graph::complete(6);
  const auto d = uniform_demands(6, 3);
  const std::vector<NodeId> base{0, 1, 2};
  const std::vector<NodeId> failed{0};
  const auto result = repair_after_failures(g, base, failed, d);
  EXPECT_TRUE(result.fully_satisfied);
  // Check on the live subgraph.
  const Graph live = g.without_nodes(failed);
  auto live_demands = d;
  live_demands[0] = 0;
  EXPECT_TRUE(domination::is_k_dominating(live, result.set, live_demands));
  EXPECT_EQ(result.promoted, 1);  // one replacement suffices on a clique
}

TEST(Repair, DetectsUnsatisfiableDamage) {
  // Path 0-1-2: with k=2, node 0 needs both 0/1-ish coverage; kill node 1
  // and node 0's live closed neighborhood shrinks below 2.
  const Graph g = graph::path(3);
  const auto d = uniform_demands(3, 2);
  const std::vector<NodeId> base{0, 1, 2};
  const std::vector<NodeId> failed{1};
  const auto result = repair_after_failures(g, base, failed, d);
  EXPECT_FALSE(result.fully_satisfied);
}

TEST(Repair, UnsatisfiableDamageStillRepairsBestEffort) {
  // Star with demand 2 everywhere: killing the hub leaves every leaf with a
  // closed neighborhood of size 1, so demand 2 is unsatisfiable — but the
  // repair must still promote each isolated leaf to get coverage 1.
  const Graph g = graph::star(5);
  const auto d = uniform_demands(5, 2);
  const std::vector<NodeId> base{0};
  const std::vector<NodeId> failed{0};
  const auto result = repair_after_failures(g, base, failed, d);
  EXPECT_FALSE(result.fully_satisfied);
  // Best effort: on the live graph with demands clamped to what is
  // achievable, the repaired set is a valid cover.
  const Graph live = g.without_nodes(failed);
  auto live_demands = clamp_demands(live, d);
  live_demands[0] = 0;
  EXPECT_TRUE(domination::is_k_dominating(live, result.set, live_demands));
  EXPECT_EQ(result.set, (std::vector<NodeId>{1, 2, 3, 4}));
}

TEST(Repair, DisconnectedResidualGraphRepairsEachComponent) {
  // Two 4-cliques joined only through a bridge node 0; the base set is {0}
  // plus one dominator per side. Killing the bridge disconnects the residual
  // graph — repair must fix both components independently.
  //
  //   component A: 1-2-3-4 (clique)     component B: 5-6-7-8 (clique)
  //   bridge 0 adjacent to 1 and 5.
  std::vector<std::pair<NodeId, NodeId>> edges{{0, 1}, {0, 5}};
  for (NodeId a = 1; a <= 4; ++a) {
    for (NodeId b = static_cast<NodeId>(a + 1); b <= 4; ++b) {
      edges.push_back({a, b});
    }
  }
  for (NodeId a = 5; a <= 8; ++a) {
    for (NodeId b = static_cast<NodeId>(a + 1); b <= 8; ++b) {
      edges.push_back({a, b});
    }
  }
  const Graph g = Graph::from_edges(9, edges);
  const auto d = clamp_demands(g, uniform_demands(9, 2));
  const std::vector<NodeId> base{0, 1, 5};
  const std::vector<NodeId> failed{0};

  const auto result = repair_after_failures(g, base, failed, d);
  const Graph live = g.without_nodes(failed);
  auto live_demands = clamp_demands(live, d);
  live_demands[0] = 0;
  EXPECT_TRUE(domination::is_k_dominating(live, result.set, live_demands));
  // Each component got its own promotion: members on both sides.
  bool left = false;
  bool right = false;
  for (NodeId v : result.set) {
    left |= v >= 1 && v <= 4;
    right |= v >= 5;
  }
  EXPECT_TRUE(left);
  EXPECT_TRUE(right);
}

TEST(Repair, AllNodesFailedYieldsEmptySet) {
  const Graph g = graph::complete(4);
  const auto d = uniform_demands(4, 1);
  const std::vector<NodeId> base{0};
  const std::vector<NodeId> failed{0, 1, 2, 3};
  const auto result = repair_after_failures(g, base, failed, d);
  EXPECT_TRUE(result.set.empty());
  EXPECT_EQ(result.promoted, 0);
}

class RepairSweep
    : public ::testing::TestWithParam<std::tuple<std::int32_t, int>> {};

TEST_P(RepairSweep, RepairedSetIsValidOnLiveGraph) {
  const auto [k, trial] = GetParam();
  util::Rng rng(8000 + static_cast<std::uint64_t>(trial));
  const geom::UnitDiskGraph udg = geom::uniform_udg_with_degree(300, 14.0, rng);
  const Graph& g = udg.graph;
  const auto d = clamp_demands(g, uniform_demands(g.n(), k));
  const auto base = greedy_kmds(g, d).set;

  // Fail 20% of the dominators.
  std::vector<NodeId> failed;
  for (std::size_t i = 0; i < base.size(); i += 5) failed.push_back(base[i]);

  const auto result = repair_after_failures(g, base, failed, d);

  const Graph live = g.without_nodes(failed);
  auto live_demands = domination::clamp_demands(live, d);
  for (NodeId f : failed) live_demands[static_cast<std::size_t>(f)] = 0;
  EXPECT_TRUE(domination::is_k_dominating(live, result.set, live_demands))
      << "k " << k << " trial " << trial;
  // fully_satisfied unless clamping was needed (it reduces demands, so a
  // false flag must coincide with a node whose demand got clamped).
  if (result.fully_satisfied) {
    auto unclamped = d;
    for (NodeId f : failed) unclamped[static_cast<std::size_t>(f)] = 0;
    EXPECT_TRUE(domination::is_k_dominating(live, result.set, unclamped));
  }
  // Repair is local: it promotes at most the damage region.
  EXPECT_LE(result.promoted, result.touched);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RepairSweep,
    ::testing::Combine(::testing::Values<std::int32_t>(1, 2, 3),
                       ::testing::Range(0, 5)));

TEST(Repair, CheaperThanRebuild) {
  util::Rng rng(6);
  const geom::UnitDiskGraph udg = geom::uniform_udg_with_degree(500, 16.0, rng);
  const Graph& g = udg.graph;
  const auto d = clamp_demands(g, uniform_demands(g.n(), 2));
  const auto base = greedy_kmds(g, d).set;
  std::vector<NodeId> failed;
  for (std::size_t i = 0; i < base.size(); i += 10) failed.push_back(base[i]);

  const auto result = repair_after_failures(g, base, failed, d);
  // Local repair touches a small fraction of the network.
  EXPECT_LT(result.touched, g.n() / 2);
  // And promotes on the order of the failures, not of the whole backbone.
  EXPECT_LE(result.promoted,
            3 * static_cast<std::int64_t>(failed.size()) + 3);
}

}  // namespace
}  // namespace ftc::algo
