// CSR construction: Graph::from_edges (counting sort + rows sorted by
// transposition), build_udg (flat cell grid writing rows straight into the
// CSR) and MutableGraph::to_graph (adopting sorted rows) must produce exactly
// the CSR of the sort-based builder kept below as a reference — same
// offsets, same adjacency, same Δ and same memory_bytes(), i.e. no slack
// capacity. build_udg is additionally checked against an O(n²) brute force
// over hostile deployments, and both builders reject malformed input with
// std::invalid_argument.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "geom/udg.h"
#include "graph/dynamic.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace ftc::graph {
namespace {

using geom::Point;

// The sort-based builder: normalize to u < v, comparison-sort and dedupe the
// edge list, count, place, then sort every row.
struct ReferenceCsr {
  std::vector<std::uint32_t> offsets;
  std::vector<NodeId> adjacency;
  NodeId max_degree = 0;
};

ReferenceCsr reference_csr(NodeId n, std::vector<Edge> edges) {
  for (Edge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  ReferenceCsr ref;
  ref.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    ++ref.offsets[static_cast<std::size_t>(e.u) + 1];
    ++ref.offsets[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t i = 1; i < ref.offsets.size(); ++i) {
    ref.offsets[i] += ref.offsets[i - 1];
  }
  ref.adjacency.resize(edges.size() * 2);
  std::vector<std::uint32_t> cursor(ref.offsets.begin(), ref.offsets.end() - 1);
  for (const Edge& e : edges) {
    ref.adjacency[cursor[static_cast<std::size_t>(e.u)]++] = e.v;
    ref.adjacency[cursor[static_cast<std::size_t>(e.v)]++] = e.u;
  }
  for (std::size_t v = 0; v + 1 < ref.offsets.size(); ++v) {
    std::sort(ref.adjacency.begin() + ref.offsets[v],
              ref.adjacency.begin() + ref.offsets[v + 1]);
    ref.max_degree =
        std::max(ref.max_degree,
                 static_cast<NodeId>(ref.offsets[v + 1] - ref.offsets[v]));
  }
  return ref;
}

void expect_same_csr(const Graph& g, const ReferenceCsr& ref) {
  ASSERT_EQ(static_cast<std::size_t>(g.n()) + 1, ref.offsets.size());
  ASSERT_EQ(g.m() * 2, ref.adjacency.size());
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto row = g.neighbors(v);
    const auto at = static_cast<std::size_t>(v);
    const auto begin = ref.adjacency.begin() + ref.offsets[at];
    const auto end = ref.adjacency.begin() + ref.offsets[at + 1];
    ASSERT_TRUE(std::equal(row.begin(), row.end(), begin, end)) << "row " << v;
  }
  EXPECT_EQ(g.max_degree(), ref.max_degree);
  EXPECT_EQ(g.memory_bytes(), ref.offsets.size() * sizeof(std::uint32_t) +
                                  ref.adjacency.size() * sizeof(NodeId));
}

// Random edge list over n nodes: random pairs, every tenth repeated in the
// other orientation, an optional hub adjacent to everyone (listed twice), and
// the top quarter of the ids left isolated.
std::vector<Edge> random_edges(NodeId n, std::size_t pairs, bool hub,
                               util::Rng& rng) {
  std::vector<Edge> edges;
  const auto reach = static_cast<std::size_t>(std::max<NodeId>(2, n - n / 4));
  for (std::size_t i = 0; n >= 2 && i < pairs; ++i) {
    const auto u = static_cast<NodeId>(rng.index(reach));
    const auto v = static_cast<NodeId>(rng.index(reach));
    if (u == v) continue;
    edges.push_back({u, v});
    if (i % 10 == 0) edges.push_back({v, u});
  }
  if (hub && n >= 2) {
    for (NodeId v = 1; v < n; ++v) edges.push_back({v, 0});
    for (NodeId v = 1; v < n; v += 3) edges.push_back({0, v});
  }
  return edges;
}

TEST(CsrBuild, FromEdgesMatchesSortReference) {
  util::Rng rng(2024);
  for (const NodeId n : {0, 1, 2, 3, 17, 64, 257, 1000}) {
    for (const std::size_t pairs : {0UL, 3UL, 40UL, 2000UL}) {
      for (const bool hub : {false, true}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " pairs=" +
                     std::to_string(pairs) + " hub=" + std::to_string(hub));
        const auto edges = random_edges(n, pairs, hub, rng);
        expect_same_csr(Graph::from_edges(n, edges), reference_csr(n, edges));
      }
    }
  }
}

TEST(CsrBuild, HubHasDegreeNMinusOne) {
  util::Rng rng(5);
  const NodeId n = 300;
  const Graph g = Graph::from_edges(n, random_edges(n, 500, true, rng));
  EXPECT_EQ(g.degree(0), n - 1);
  EXPECT_EQ(g.max_degree(), n - 1);
}

TEST(CsrBuild, ToGraphAdoptsRowsExactly) {
  util::Rng rng(77);
  const NodeId n = 200;
  MutableGraph mg(Graph::from_edges(n, random_edges(n, 600, false, rng)));
  for (int i = 0; i < 400; ++i) {
    const auto u = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    const auto v = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    if (rng.bernoulli(0.5)) {
      mg.add_edge(u, v);
    } else {
      mg.remove_edge(u, v);
    }
  }
  std::vector<Edge> removed;
  mg.isolate(3, removed);
  expect_same_csr(mg.to_graph(), reference_csr(n, mg.edges()));
  expect_same_csr(MutableGraph().to_graph(), reference_csr(0, {}));
}

TEST(CsrBuild, FromEdgesRejectsOutOfRangeEndpoints) {
  const std::vector<std::vector<Edge>> bad{
      {{0, 3}}, {{3, 0}}, {{-1, 1}}, {{1, -1}}, {{0, 1}, {2, 4}}};
  for (const auto& edges : bad) {
    EXPECT_THROW((void)Graph::from_edges(3, edges), std::invalid_argument);
  }
  EXPECT_THROW((void)Graph::from_edges(0, std::vector<Edge>{{0, 1}}),
               std::invalid_argument);
  EXPECT_THROW((void)Graph::from_edges(-1, std::span<const Edge>{}),
               std::invalid_argument);
}

TEST(CsrBuild, FromEdgesRejectsSelfLoops) {
  EXPECT_THROW((void)Graph::from_edges(3, std::vector<Edge>{{0, 1}, {2, 2}}),
               std::invalid_argument);
  EXPECT_THROW((void)Graph::from_edges(
                   1, std::vector<std::pair<NodeId, NodeId>>{{0, 0}}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// build_udg against the O(n²) definition.

void expect_udg_matches_brute_force(const std::vector<Point>& pts,
                                    double radius) {
  std::vector<Edge> edges;
  const double r_sq = radius * radius;
  for (std::size_t u = 0; u < pts.size(); ++u) {
    for (std::size_t v = u + 1; v < pts.size(); ++v) {
      if (geom::dist_sq(pts[u], pts[v]) <= r_sq) {
        edges.push_back({static_cast<NodeId>(u), static_cast<NodeId>(v)});
      }
    }
  }
  const geom::UnitDiskGraph udg = geom::build_udg(pts, radius);
  EXPECT_EQ(udg.positions, pts);
  EXPECT_EQ(udg.radius, radius);
  expect_same_csr(udg.graph,
                  reference_csr(static_cast<NodeId>(pts.size()), edges));
}

std::vector<Point> collinear_points(NodeId n, util::Rng& rng) {
  std::vector<Point> pts;
  for (NodeId v = 0; v < n; ++v) pts.push_back({rng.uniform(0.0, 40.0), 2.0});
  return pts;
}

std::vector<Point> duplicate_points(NodeId n, util::Rng& rng) {
  std::vector<Point> pts = geom::uniform_points(n / 4 + 1, 3.0, rng);
  while (static_cast<NodeId>(pts.size()) < n) {
    pts.push_back(pts[rng.index(pts.size())]);
  }
  return pts;
}

std::vector<Point> with_outliers(std::vector<Point> pts, double far) {
  pts.push_back({far, far});
  pts.push_back({-far, 0.5});
  pts.push_back({far, far});       // coincides with the first outlier
  pts.push_back({0.25, -far});
  return pts;
}

TEST(CsrBuild, BuildUdgMatchesBruteForce) {
  util::Rng rng(31337);
  for (const double radius : {0.3, 1.0, 2.5}) {
    for (const NodeId n : {1, 2, 9, 150, 600}) {
      const std::vector<std::pair<std::string, std::vector<Point>>> cases{
          {"uniform", geom::uniform_points(n, 8.0, rng)},
          {"clustered", geom::clustered_points(n, 4, 12.0, 0.6, rng)},
          {"perturbed_grid", geom::perturbed_grid_points(n, 9.0, 0.3, rng)},
          {"collinear", collinear_points(n, rng)},
          {"duplicates", duplicate_points(n, rng)},
          {"outlier_1e7",
           with_outliers(geom::uniform_points(n, 5.0, rng), 1e7)},
          {"spread_1e300",
           with_outliers(geom::uniform_points(n, 5.0, rng), 1e300)},
      };
      for (const auto& [name, pts] : cases) {
        SCOPED_TRACE(name + " n=" + std::to_string(n) +
                     " radius=" + std::to_string(radius));
        expect_udg_matches_brute_force(pts, radius);
      }
    }
  }
}

TEST(CsrBuild, BuildUdgExtremeRadii) {
  util::Rng rng(8);
  const auto spread = with_outliers(geom::uniform_points(60, 5.0, rng), 1e300);
  // radius² overflows: every pair is an edge, even 2e300 apart.
  expect_udg_matches_brute_force(spread, 1e200);
  // radius² underflows to zero: only pairs whose dist_sq underflows count.
  const std::vector<Point> tiny{{0, 0}, {1e-170, 0}, {0, 1e-300}, {1e-150, 0},
                                {1.0, 1.0}, {1.0, 1.0}};
  expect_udg_matches_brute_force(tiny, 1e-200);
  expect_udg_matches_brute_force(
      {{-1.7e308, -1.7e308}, {1.7e308, 1.7e308}, {0, 0}, {0.5, 0}}, 1.0);
}

TEST(CsrBuild, BuildUdgEmpty) {
  expect_udg_matches_brute_force({}, 1.0);
}

TEST(CsrBuild, BuildUdgRejectsNonFiniteInput) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Point> ok{{0, 0}, {0.5, 0.5}};
  for (const double radius : {0.0, -1.0, nan, inf, -inf}) {
    EXPECT_THROW((void)geom::build_udg(ok, radius), std::invalid_argument)
        << radius;
  }
  for (const Point bad : {Point{nan, 0}, Point{0, nan}, Point{inf, 0},
                          Point{0, -inf}}) {
    EXPECT_THROW((void)geom::build_udg({{0, 0}, bad, {1, 1}}, 1.0),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace ftc::graph
