#include "graph/properties.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace ftc::graph {
namespace {

TEST(Components, SingleComponent) {
  const Components c = connected_components(path(5));
  EXPECT_EQ(c.count, 1);
  for (NodeId label : c.component) EXPECT_EQ(label, 0);
}

TEST(Components, DisjointPieces) {
  // Two triangles: {0,1,2} and {3,4,5}.
  const Graph g = Graph::from_edges(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 2);
  EXPECT_EQ(c.component[0], c.component[1]);
  EXPECT_EQ(c.component[0], c.component[2]);
  EXPECT_EQ(c.component[3], c.component[4]);
  EXPECT_NE(c.component[0], c.component[3]);
}

TEST(Components, IsolatedNodesAreOwnComponents) {
  const Components c = connected_components(empty(4));
  EXPECT_EQ(c.count, 4);
}

TEST(Components, EmptyGraph) {
  EXPECT_EQ(connected_components(Graph{}).count, 0);
}

}  // namespace
}  // namespace ftc::graph
