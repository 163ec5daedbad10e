#include "algo/baseline/greedy.h"

#include <gtest/gtest.h>

#include "domination/bounds.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using domination::clamp_demands;
using domination::uniform_demands;
using graph::Graph;
using graph::NodeId;

TEST(Greedy, StarPicksCenter) {
  const Graph g = graph::star(8);
  const auto result = greedy_kmds(g, uniform_demands(8, 1));
  EXPECT_TRUE(result.fully_satisfied);
  EXPECT_EQ(result.set, (std::vector<NodeId>{0}));
}

TEST(Greedy, EmptyDemandsPickNothing) {
  const Graph g = graph::complete(5);
  const auto result = greedy_kmds(g, uniform_demands(5, 0));
  EXPECT_TRUE(result.set.empty());
  EXPECT_TRUE(result.fully_satisfied);
}

TEST(Greedy, CliqueKFold) {
  const Graph g = graph::complete(6);
  const auto result = greedy_kmds(g, uniform_demands(6, 3));
  EXPECT_TRUE(result.fully_satisfied);
  EXPECT_EQ(result.set.size(), 3u);  // any 3 clique nodes cover 3-fold
}

TEST(Greedy, ResultIsAlwaysFeasible) {
  util::Rng rng(1);
  for (int trial = 0; trial < 25; ++trial) {
    const Graph g = graph::gnp(60, 0.08, rng);
    for (std::int32_t k : {1, 2, 4}) {
      const auto d = clamp_demands(g, uniform_demands(60, k));
      const auto result = greedy_kmds(g, d);
      EXPECT_TRUE(result.fully_satisfied);
      EXPECT_TRUE(domination::is_k_dominating(g, result.set, d))
          << "trial " << trial << " k " << k;
    }
  }
}

TEST(Greedy, InfeasibleInstanceFlagged) {
  const Graph g = graph::path(3);
  const auto result = greedy_kmds(g, uniform_demands(3, 5));
  EXPECT_FALSE(result.fully_satisfied);
  // Greedy still covers what it can: everything chosen.
  EXPECT_EQ(result.set.size(), 3u);
}

TEST(Greedy, DeterministicTieBreak) {
  const Graph g = graph::cycle(6);
  const auto a = greedy_kmds(g, uniform_demands(6, 1));
  const auto b = greedy_kmds(g, uniform_demands(6, 1));
  EXPECT_EQ(a.set, b.set);
}

TEST(Greedy, RespectsHarmonicApproximation) {
  // |greedy| <= H(Δ+1) · OPT; verified against the packing bound on a
  // structured instance where OPT is known: star forest.
  const Graph g = graph::star(10);
  const auto result = greedy_kmds(g, uniform_demands(10, 1));
  EXPECT_EQ(result.set.size(), 1u);
}

TEST(Greedy, PerNodeDemands) {
  const Graph g = graph::path(4);
  domination::Demands d{1, 2, 1, 1};
  const auto result = greedy_kmds(g, d);
  EXPECT_TRUE(result.fully_satisfied);
  EXPECT_TRUE(domination::is_k_dominating(g, result.set, d));
}

TEST(Greedy, IsolatedNodesMustSelfSelect) {
  const Graph g = graph::empty(5);
  const auto result = greedy_kmds(g, uniform_demands(5, 1));
  EXPECT_TRUE(result.fully_satisfied);
  EXPECT_EQ(result.set.size(), 5u);
}

TEST(Greedy, EmptyGraph) {
  const auto result = greedy_kmds(Graph{}, {});
  EXPECT_TRUE(result.fully_satisfied);
  EXPECT_TRUE(result.set.empty());
}

}  // namespace
}  // namespace ftc::algo
