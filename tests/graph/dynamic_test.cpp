// MutableGraph: the dynamic companion to the immutable CSR Graph. The
// contract under test is rebuild-vs-mutate equivalence — any mutation
// sequence, frozen via to_graph(), equals Graph::from_edges over the same
// edge list — plus the shared uint32 CSR bound (csr_arcs_fit) and the
// slab that holds every row.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "graph/dynamic.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace ftc::graph {
namespace {

void expect_same_adjacency(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.n(), b.n());
  ASSERT_EQ(a.m(), b.m());
  for (NodeId v = 0; v < a.n(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "adjacency of node " << v << " differs";
  }
}

TEST(MutableGraph, ThawFreezeRoundTrips) {
  util::Rng rng(7);
  const Graph g = gnp(40, 0.2, rng);
  MutableGraph mg(g);
  EXPECT_EQ(mg.n(), g.n());
  EXPECT_EQ(mg.m(), static_cast<std::size_t>(g.m()));
  expect_same_adjacency(mg.to_graph(), g);
}

TEST(MutableGraph, AddRemoveEdgeMatchesSortedInvariant) {
  MutableGraph mg;
  for (int i = 0; i < 5; ++i) EXPECT_EQ(mg.add_node(), i);
  EXPECT_TRUE(mg.add_edge(3, 1));
  EXPECT_TRUE(mg.add_edge(1, 0));
  EXPECT_TRUE(mg.add_edge(1, 4));
  EXPECT_FALSE(mg.add_edge(1, 3));  // duplicate (either orientation)
  EXPECT_EQ(mg.m(), 3u);
  const std::vector<NodeId> expected{0, 3, 4};
  const auto nbrs = mg.neighbors(1);
  EXPECT_TRUE(std::equal(nbrs.begin(), nbrs.end(), expected.begin(),
                         expected.end()));
  EXPECT_TRUE(mg.has_edge(4, 1));
  EXPECT_FALSE(mg.has_edge(0, 4));
  EXPECT_FALSE(mg.has_edge(2, 2));

  EXPECT_TRUE(mg.remove_edge(0, 1));
  EXPECT_FALSE(mg.remove_edge(0, 1));  // already gone
  EXPECT_EQ(mg.m(), 2u);
  EXPECT_FALSE(mg.has_edge(0, 1));
}

TEST(MutableGraph, IsolateReturnsIncidentEdgesAscending) {
  MutableGraph mg;
  for (int i = 0; i < 6; ++i) mg.add_node();
  mg.add_edge(2, 5);
  mg.add_edge(2, 0);
  mg.add_edge(2, 4);
  mg.add_edge(1, 3);
  std::vector<Edge> removed{{7, 8}};  // isolate appends after what is there
  mg.isolate(2, removed);
  const std::vector<Edge> expected{{7, 8}, {0, 2}, {2, 4}, {2, 5}};
  EXPECT_EQ(removed, expected);
  EXPECT_EQ(mg.degree(2), 0);
  EXPECT_EQ(mg.m(), 1u);  // {1,3} untouched
  std::vector<Edge> again;
  mg.isolate(2, again);
  EXPECT_TRUE(again.empty());  // idempotent
}

// Differential: a random mutation sequence applied to MutableGraph must
// agree with a set-of-edges reference at every step, and the final freeze
// must equal Graph::from_edges over the surviving edges.
TEST(MutableGraph, RandomMutationsMatchReference) {
  util::Rng rng(2024);
  MutableGraph mg;
  const NodeId n = 30;
  for (NodeId i = 0; i < n; ++i) mg.add_node();
  std::vector<std::vector<std::uint8_t>> ref(
      static_cast<std::size_t>(n),
      std::vector<std::uint8_t>(static_cast<std::size_t>(n), 0));
  std::size_t m = 0;
  for (int step = 0; step < 2000; ++step) {
    const auto u = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    const auto v = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    if (u == v) continue;
    const auto ui = static_cast<std::size_t>(u);
    const auto vi = static_cast<std::size_t>(v);
    if (rng.bernoulli(0.6)) {
      const bool inserted = mg.add_edge(u, v);
      EXPECT_EQ(inserted, ref[ui][vi] == 0);
      if (inserted) ++m;
      ref[ui][vi] = ref[vi][ui] = 1;
    } else {
      const bool removed = mg.remove_edge(u, v);
      EXPECT_EQ(removed, ref[ui][vi] != 0);
      if (removed) --m;
      ref[ui][vi] = ref[vi][ui] = 0;
    }
    ASSERT_EQ(mg.m(), m);
  }
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (ref[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)]) {
        edges.push_back({u, v});
      }
    }
  }
  EXPECT_EQ(mg.edges(), edges);
  expect_same_adjacency(mg.to_graph(), Graph::from_edges(n, edges));
}

// Rebuild-vs-mutate: thaw a graph, churn it (edges and appended nodes),
// freeze, and the CSR must equal a from-scratch from_edges rebuild.
TEST(MutableGraph, FreezeAfterChurnMatchesFromEdgesRebuild) {
  util::Rng rng(29);
  MutableGraph mg(gnp(150, 0.06, rng));
  for (int step = 0; step < 600; ++step) {
    const auto u =
        static_cast<NodeId>(rng.index(static_cast<std::size_t>(mg.n())));
    const auto v =
        static_cast<NodeId>(rng.index(static_cast<std::size_t>(mg.n())));
    if (u == v) continue;
    if (rng.bernoulli(0.5)) {
      mg.add_edge(u, v);
    } else {
      mg.remove_edge(u, v);
    }
    if (step % 97 == 0) mg.add_node();
  }
  expect_same_adjacency(mg.to_graph(), Graph::from_edges(mg.n(), mg.edges()));
}

// The slab: rows that outgrow their capacity move to its tail, and dead
// slots are compacted away. Hubs pass their capacity many times; nodes
// appended after those relocations join, gain edges and leave again, which
// strands capacity until a compaction reclaims it. Every row must match a
// std::set model after each phase, a compaction must leave exactly the
// thaw footprint (2m + kRowSlack per node), and the slab must never pass
// twice the largest footprint the topology has had.
TEST(MutableGraph, SlabRelocationAndCompactionMatchReference) {
  util::Rng rng(33);
  const Graph g = gnp(60, 0.1, rng);
  MutableGraph mg(g);
  std::vector<std::set<NodeId>> model(static_cast<std::size_t>(g.n()));
  for (const Edge& e : g.edges()) {
    model[static_cast<std::size_t>(e.u)].insert(e.v);
    model[static_cast<std::size_t>(e.v)].insert(e.u);
  }
  const auto footprint = [&] {
    return mg.arcs() + std::size_t{MutableGraph::kRowSlack} *
                           static_cast<std::size_t>(mg.n());
  };
  EXPECT_EQ(mg.slab_size(), footprint()) << "a thaw leaves kRowSlack per row";

  auto expect_rows_match = [&](const char* phase) {
    SCOPED_TRACE(phase);
    ASSERT_EQ(static_cast<std::size_t>(mg.n()), model.size());
    std::size_t arcs = 0;
    for (NodeId v = 0; v < mg.n(); ++v) {
      const auto row = mg.neighbors(v);
      const auto& want = model[static_cast<std::size_t>(v)];
      ASSERT_TRUE(std::equal(row.begin(), row.end(), want.begin(), want.end()))
          << "row " << v << " differs from the model";
      arcs += want.size();
    }
    ASSERT_EQ(mg.arcs(), arcs);
  };

  std::size_t max_footprint = footprint();
  int compactions = 0;
  auto add = [&](NodeId u, NodeId v) {
    const std::size_t before = mg.slab_size();
    const bool inserted = mg.add_edge(u, v);
    EXPECT_EQ(inserted, model[static_cast<std::size_t>(u)].insert(v).second);
    model[static_cast<std::size_t>(v)].insert(u);
    max_footprint = std::max(max_footprint, footprint());
    if (mg.slab_size() < before) {
      ++compactions;
      EXPECT_LE(mg.slab_size(), footprint()) << "compaction left dead slots";
    }
    EXPECT_LE(mg.slab_size(), 2 * max_footprint);
  };
  auto leave = [&](NodeId v) {
    std::vector<Edge> removed;
    mg.isolate(v, removed);
    auto& nbrs = model[static_cast<std::size_t>(v)];
    EXPECT_EQ(removed.size(), nbrs.size());
    for (const NodeId w : nbrs) model[static_cast<std::size_t>(w)].erase(v);
    nbrs.clear();
  };
  auto random_node = [&] {
    return static_cast<NodeId>(rng.index(static_cast<std::size_t>(mg.n())));
  };

  // Hubs: three rows grow from their thawed capacity to n - 1 neighbours.
  for (NodeId hub = 0; hub < 3; ++hub) {
    for (NodeId w = 0; w < g.n(); ++w) {
      if (w != hub) add(hub, w);
    }
  }
  expect_rows_match("hubs");

  // Leave/re-add cycles: 20 fresh nodes join with ~12 edges each and
  // leave again; hub 0 leaves and re-adds 30 edges.
  for (int cycle = 0; cycle < 40; ++cycle) {
    std::vector<NodeId> fresh;
    for (int i = 0; i < 20; ++i) {
      fresh.push_back(mg.add_node());
      model.emplace_back();
    }
    for (const NodeId v : fresh) {
      for (int j = 0; j < 12; ++j) {
        const NodeId w = random_node();
        if (w != v) add(v, w);
      }
    }
    expect_rows_match("joins");
    for (const NodeId v : fresh) leave(v);
    leave(0);
    for (int j = 0; j < 30; ++j) {
      const NodeId w = random_node();
      if (w != 0) add(0, w);
    }
    expect_rows_match("leaves");
  }
  EXPECT_GE(compactions, 5) << "the cycles never forced a compaction";

  std::vector<Edge> edges;
  for (NodeId u = 0; u < mg.n(); ++u) {
    for (const NodeId v : model[static_cast<std::size_t>(u)]) {
      if (u < v) edges.push_back({u, v});
    }
  }
  EXPECT_EQ(mg.edges(), edges);
  expect_same_adjacency(mg.to_graph(), Graph::from_edges(mg.n(), mg.edges()));
}

// The uint32 CSR bound at its exact boundary: 2m == uint32max fits, one
// more arc does not. Shared predicate, so the static (from_edges) and
// dynamic (add_edge) paths reject exactly the same sizes.
TEST(CsrArcsFit, ExactBoundary) {
  const auto max32 =
      static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max());
  EXPECT_TRUE(csr_arcs_fit(0));
  EXPECT_TRUE(csr_arcs_fit(2));
  EXPECT_TRUE(csr_arcs_fit(max32));
  EXPECT_FALSE(csr_arcs_fit(max32 + 1));
  EXPECT_FALSE(csr_arcs_fit(2 * max32));
}

}  // namespace
}  // namespace ftc::graph
