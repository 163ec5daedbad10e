#include "domination/bounds.h"

#include <gtest/gtest.h>

#include "algo/baseline/greedy.h"
#include "algo/exact/exact.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace ftc::domination {
namespace {

using graph::Graph;
using graph::NodeId;

TEST(PackingBound, Clique) {
  const Graph g = graph::complete(5);
  // Total demand 5, capacity Δ+1=5 -> bound 1 (indeed OPT=1 for k=1).
  EXPECT_EQ(packing_lower_bound(g, uniform_demands(5, 1)), 1);
  EXPECT_EQ(packing_lower_bound(g, uniform_demands(5, 3)), 3);
}

TEST(PackingBound, Path) {
  const Graph g = graph::path(9);  // Δ=2, capacity 3
  EXPECT_EQ(packing_lower_bound(g, uniform_demands(9, 1)), 3);
}

TEST(PackingBound, EmptyGraph) {
  EXPECT_EQ(packing_lower_bound(Graph{}, {}), 0);
}

TEST(MaxDemandBound, PicksMax) {
  EXPECT_EQ(max_demand_lower_bound(Demands{1, 3, 2}), 3);
  EXPECT_EQ(max_demand_lower_bound({}), 0);
}

TEST(DisjointPackingBound, IndependentNodes) {
  const Graph g = graph::empty(4);
  EXPECT_EQ(disjoint_packing_lower_bound(g, uniform_demands(4, 1)), 4);
}

TEST(DisjointPackingBound, CliqueGivesSingleDemand) {
  const Graph g = graph::complete(6);
  EXPECT_EQ(disjoint_packing_lower_bound(g, uniform_demands(6, 2)), 2);
}

TEST(DisjointPackingBound, PathSpacing) {
  // Path of 7: picking node 0 blocks nodes up to distance 2; a valid
  // packing of disjoint closed neighborhoods has >= 2 nodes.
  const Graph g = graph::path(7);
  EXPECT_GE(disjoint_packing_lower_bound(g, uniform_demands(7, 1)), 2);
}

TEST(DisjointPackingBound, IsSound) {
  // The bound never exceeds the true optimum on random small instances.
  util::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = graph::gnp(16, 0.2, rng);
    const Demands d = clamp_demands(g, uniform_demands(16, 2));
    const auto exact = algo::exact_kmds(g, d);
    ASSERT_TRUE(exact.optimal);
    EXPECT_LE(disjoint_packing_lower_bound(g, d),
              static_cast<std::int64_t>(exact.set.size()))
        << "trial " << trial;
  }
}

TEST(Harmonic, KnownValues) {
  EXPECT_DOUBLE_EQ(harmonic(1), 1.0);
  EXPECT_DOUBLE_EQ(harmonic(2), 1.5);
  EXPECT_NEAR(harmonic(10), 2.9289682539682538, 1e-12);
  EXPECT_DOUBLE_EQ(harmonic(0), 0.0);
}

TEST(BestLowerBound, CombinesAll) {
  const Graph g = graph::complete(4);
  const Demands d = uniform_demands(4, 2);
  // packing: ceil(8/4)=2; max demand 2; disjoint packing 2.
  EXPECT_DOUBLE_EQ(best_lower_bound(g, d), 2.0);
  // Greedy of size 8 with H(4) ~ 2.083 -> 3.84, better than 2.
  EXPECT_GT(best_lower_bound(g, d, 8), 3.5);
  // Explicit dual bound dominates when largest.
  EXPECT_DOUBLE_EQ(best_lower_bound(g, d, 0, 7.5), 7.5);
}

TEST(BestLowerBound, SoundAgainstExact) {
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = graph::gnp(14, 0.25, rng);
    const Demands d = clamp_demands(g, uniform_demands(14, 2));
    const auto greedy = algo::greedy_kmds(g, d);
    const auto exact = algo::exact_kmds(g, d);
    ASSERT_TRUE(exact.optimal);
    const double bound = best_lower_bound(
        g, d, static_cast<std::int64_t>(greedy.set.size()));
    EXPECT_LE(bound, static_cast<double>(exact.set.size()) + 1e-9)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace ftc::domination
