#include "graph/generators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "graph/properties.h"

namespace ftc::graph {
namespace {

TEST(Gnp, ZeroProbabilityGivesNoEdges) {
  util::Rng rng(1);
  const Graph g = gnp(50, 0.0, rng);
  EXPECT_EQ(g.n(), 50);
  EXPECT_EQ(g.m(), 0u);
}

TEST(Gnp, ProbabilityOneGivesClique) {
  util::Rng rng(2);
  const Graph g = gnp(20, 1.0, rng);
  EXPECT_EQ(g.m(), 20u * 19u / 2u);
}

TEST(Gnp, EdgeCountNearExpectation) {
  util::Rng rng(3);
  const int n = 400;
  const double p = 0.05;
  const Graph g = gnp(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.m()), expected, 4.0 * std::sqrt(expected));
}

TEST(Gnp, DeterministicForSeed) {
  util::Rng a(42), b(42);
  EXPECT_EQ(gnp(100, 0.1, a).edges(), gnp(100, 0.1, b).edges());
}

TEST(Gnp, TinyGraphs) {
  util::Rng rng(4);
  EXPECT_EQ(gnp(0, 0.5, rng).n(), 0);
  EXPECT_EQ(gnp(1, 0.5, rng).n(), 1);
  EXPECT_EQ(gnp(1, 0.5, rng).m(), 0u);
}

TEST(Gnm, ExactEdgeCount) {
  util::Rng rng(5);
  const Graph g = gnm(30, 100, rng);
  EXPECT_EQ(g.n(), 30);
  EXPECT_EQ(g.m(), 100u);
}

TEST(Gnm, MaxEdges) {
  util::Rng rng(6);
  const Graph g = gnm(10, 45, rng);
  EXPECT_EQ(g.m(), 45u);
}

TEST(Gnm, ZeroEdges) {
  util::Rng rng(7);
  EXPECT_EQ(gnm(10, 0, rng).m(), 0u);
}

TEST(BarabasiAlbert, NodeAndEdgeCounts) {
  util::Rng rng(8);
  const Graph g = barabasi_albert(100, 3, rng);
  EXPECT_EQ(g.n(), 100);
  // Seed clique of 4 nodes (6 edges) + 96 nodes × 3 attachments.
  EXPECT_EQ(g.m(), 6u + 96u * 3u);
}

TEST(BarabasiAlbert, IsConnected) {
  util::Rng rng(9);
  EXPECT_LE(connected_components(barabasi_albert(200, 2, rng)).count, 1);
}

TEST(BarabasiAlbert, ProducesHighDegreeHub) {
  util::Rng rng(10);
  const Graph g = barabasi_albert(500, 2, rng);
  // Preferential attachment: Δ should far exceed the average degree (~4).
  EXPECT_GT(g.max_degree(), 15);
}

TEST(RandomTree, EdgeCountAndConnectivity) {
  util::Rng rng(11);
  for (NodeId n : {2, 3, 10, 50}) {
    const Graph g = random_tree(n, rng);
    EXPECT_EQ(g.n(), n);
    EXPECT_EQ(g.m(), static_cast<std::size_t>(n - 1));
    EXPECT_LE(connected_components(g).count, 1);
  }
}

TEST(RandomTree, TinyCases) {
  util::Rng rng(12);
  EXPECT_EQ(random_tree(0, rng).n(), 0);
  EXPECT_EQ(random_tree(1, rng).m(), 0u);
}

TEST(Grid, Structure) {
  const Graph g = grid(3, 4);
  EXPECT_EQ(g.n(), 12);
  EXPECT_EQ(g.m(), 3u * 3u + 2u * 4u);  // horizontal + vertical edges
  EXPECT_LE(connected_components(g).count, 1);
  EXPECT_EQ(g.max_degree(), 4);
  EXPECT_EQ(g.degree(0), 2);  // corner
}

TEST(Path, Structure) {
  const Graph g = path(5);
  EXPECT_EQ(g.m(), 4u);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(2), 2);
  EXPECT_LE(connected_components(g).count, 1);
}

TEST(Cycle, Structure) {
  const Graph g = cycle(6);
  EXPECT_EQ(g.m(), 6u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 2);
}

TEST(Star, Structure) {
  const Graph g = star(7);
  EXPECT_EQ(g.m(), 6u);
  EXPECT_EQ(g.degree(0), 6);
  EXPECT_EQ(g.max_degree(), 6);
}

TEST(Complete, Structure) {
  const Graph g = complete(6);
  EXPECT_EQ(g.m(), 15u);
  EXPECT_EQ(g.max_degree(), 5);
}

TEST(Empty, Structure) {
  const Graph g = empty(4);
  EXPECT_EQ(g.n(), 4);
  EXPECT_EQ(g.m(), 0u);
}

TEST(RandomRegular, DegreesAreExact) {
  util::Rng rng(13);
  const Graph g = random_regular(20, 4, rng);
  EXPECT_EQ(g.n(), 20);
  for (NodeId v = 0; v < 20; ++v) EXPECT_EQ(g.degree(v), 4);
}

TEST(RandomRegular, OddProductRejectedByContract) {
  // n*d even is required; test an allowed odd-d case.
  util::Rng rng(14);
  const Graph g = random_regular(10, 3, rng);
  for (NodeId v = 0; v < 10; ++v) EXPECT_EQ(g.degree(v), 3);
}

// At these sizes the configuration model rarely yields a simple graph within
// its restarts, so most seeds exercise the swap-randomized circulant.
TEST(RandomRegular, HighDegreeIsSimpleAndRegular) {
  for (const auto& [n, d] : {std::pair<NodeId, NodeId>{20, 6}, {12, 5}}) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      SCOPED_TRACE("n=" + std::to_string(n) + " d=" + std::to_string(d) +
                   " seed=" + std::to_string(seed));
      util::Rng rng(seed);
      const Graph g = random_regular(n, d, rng);
      ASSERT_EQ(g.n(), n);
      EXPECT_EQ(g.m(), static_cast<std::size_t>(n) * d / 2);
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(g.degree(v), d);
        const auto row = g.neighbors(v);
        std::set<NodeId> distinct(row.begin(), row.end());
        EXPECT_EQ(distinct.size(), row.size()) << "multi-edge at " << v;
        EXPECT_EQ(distinct.count(v), 0u) << "self-loop at " << v;
      }
    }
  }
}

TEST(Caveman, Structure) {
  const Graph g = caveman(3, 4);
  EXPECT_EQ(g.n(), 12);
  // 3 cliques of 6 edges each + 2 bridges.
  EXPECT_EQ(g.m(), 3u * 6u + 2u);
  EXPECT_LE(connected_components(g).count, 1);
}

TEST(Caveman, SingleClique) {
  const Graph g = caveman(1, 5);
  EXPECT_EQ(g.m(), 10u);
}


TEST(WattsStrogatz, ZeroBetaIsRingLattice) {
  util::Rng rng(20);
  const Graph g = watts_strogatz(12, 4, 0.0, rng);
  EXPECT_EQ(g.m(), 12u * 2u);  // n*k/2 edges
  for (NodeId v = 0; v < 12; ++v) EXPECT_EQ(g.degree(v), 4);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(WattsStrogatz, RewiringPreservesEdgeCountApproximately) {
  util::Rng rng(21);
  const Graph g = watts_strogatz(200, 6, 0.3, rng);
  // Rewiring replaces edges one-for-one except for rare exhausted retries.
  EXPECT_GE(g.m(), 200u * 3u - 10u);
  EXPECT_LE(g.m(), 200u * 3u);
}

TEST(WattsStrogatz, FullRewireBreaksLattice) {
  util::Rng rng(22);
  const Graph g = watts_strogatz(100, 4, 1.0, rng);
  // With beta=1, the chance every node keeps both +1/+2 lattice links is nil.
  int lattice_like = 0;
  for (NodeId v = 0; v < 100; ++v) {
    if (g.has_edge(v, static_cast<NodeId>((v + 1) % 100)) &&
        g.has_edge(v, static_cast<NodeId>((v + 2) % 100))) {
      ++lattice_like;
    }
  }
  EXPECT_LT(lattice_like, 60);
}

TEST(WattsStrogatz, SimpleGraphInvariants) {
  util::Rng rng(23);
  const Graph g = watts_strogatz(150, 8, 0.5, rng);
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_FALSE(g.has_edge(v, v));
  }
  EXPECT_LE(connected_components(g).count, 1)
      << "WS with k=8 should stay connected";
}

}  // namespace
}  // namespace ftc::graph
