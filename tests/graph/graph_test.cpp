#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/generators.h"
#include "util/rng.h"

namespace ftc::graph {
namespace {

Graph triangle() {
  return Graph::from_edges(3, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}});
}

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.n(), 0);
  EXPECT_EQ(g.m(), 0u);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(Graph, IsolatedNodes) {
  const Graph g = Graph::from_edges(5, std::span<const Edge>{});
  EXPECT_EQ(g.n(), 5);
  EXPECT_EQ(g.m(), 0u);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(g.degree(v), 0);
    EXPECT_TRUE(g.neighbors(v).empty());
  }
}

TEST(Graph, TriangleBasics) {
  const Graph g = triangle();
  EXPECT_EQ(g.n(), 3);
  EXPECT_EQ(g.m(), 3u);
  EXPECT_EQ(g.max_degree(), 2);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2);
}

TEST(Graph, NeighborsAreSorted) {
  const Graph g = Graph::from_edges(
      5, std::vector<Edge>{{4, 0}, {2, 0}, {0, 3}, {1, 0}});
  const auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(std::vector<NodeId>(nbrs.begin(), nbrs.end()),
            (std::vector<NodeId>{1, 2, 3, 4}));
}

TEST(Graph, DuplicateEdgesMerged) {
  const Graph g = Graph::from_edges(
      3, std::vector<Edge>{{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.m(), 1u);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 1);
}

TEST(Graph, HasEdgeSymmetric) {
  const Graph g = triangle();
  for (NodeId u = 0; u < 3; ++u) {
    for (NodeId v = 0; v < 3; ++v) {
      EXPECT_EQ(g.has_edge(u, v), u != v);
      EXPECT_EQ(g.has_edge(u, v), g.has_edge(v, u));
    }
  }
}

TEST(Graph, HasEdgeOutOfRangeIsFalse) {
  const Graph g = triangle();
  EXPECT_FALSE(g.has_edge(-1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, EdgesRoundTrip) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}, {0, 3}};
  const Graph g = Graph::from_edges(4, edges);
  const auto out = g.edges();
  EXPECT_EQ(out.size(), 4u);
  for (const Edge& e : out) {
    EXPECT_LT(e.u, e.v);
    EXPECT_TRUE(g.has_edge(e.u, e.v));
  }
}

TEST(Graph, PairOverloadEquivalent) {
  const Graph a = Graph::from_edges(
      3, std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}});
  const Graph b =
      Graph::from_edges(3, std::vector<Edge>{{0, 1}, {1, 2}});
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(Graph, WithoutNodesDropsIncidentEdges) {
  const Graph g = triangle();
  const std::vector<NodeId> removed{0};
  const Graph h = g.without_nodes(removed);
  EXPECT_EQ(h.n(), 3);  // ids stay stable
  EXPECT_EQ(h.m(), 1u);  // only edge {1,2} survives
  EXPECT_EQ(h.degree(0), 0);
  EXPECT_TRUE(h.has_edge(1, 2));
}

TEST(Graph, WithoutNodesEmptyRemovalIsIdentity) {
  const Graph g = triangle();
  const Graph h = g.without_nodes({});
  EXPECT_EQ(h.edges(), g.edges());
}

TEST(Graph, MaxDegreeStar) {
  std::vector<Edge> edges;
  for (NodeId v = 1; v < 10; ++v) edges.push_back({0, v});
  const Graph g = Graph::from_edges(10, edges);
  EXPECT_EQ(g.max_degree(), 9);
  EXPECT_EQ(g.degree(0), 9);
  EXPECT_EQ(g.degree(5), 1);
}

TEST(GraphMemory, MemoryBytesTracksCsrFootprint) {
  const Graph g0;
  EXPECT_EQ(g0.memory_bytes(), 0u);
  util::Rng rng(11);
  const Graph g = gnp(400, 0.04, rng);
  // n+1 uint32 offsets plus 2m 32-bit ids, modulo capacity slack.
  EXPECT_GE(g.memory_bytes(), (static_cast<std::size_t>(g.n()) + 1) *
                                      sizeof(std::uint32_t) +
                                  g.m() * 2 * sizeof(NodeId));
}

}  // namespace
}  // namespace ftc::graph
