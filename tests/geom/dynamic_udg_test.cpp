// DynamicUdg: incremental UDG edge maintenance under joins, departures,
// and waypoint moves. Ground truth is the brute-force O(n²) definition —
// { {u,v} : active(u) && active(v) && dist(u,v) <= radius } — recomputed
// after every mutation, plus exact edge-delta accounting.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "geom/dynamic.h"
#include "geom/point.h"
#include "geom/udg.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace ftc::geom {
namespace {

using graph::Edge;
using graph::NodeId;

std::vector<Edge> brute_force_edges(const DynamicUdg& d) {
  std::vector<Edge> edges;
  const double r_sq = d.radius() * d.radius();
  for (NodeId u = 0; u < d.n(); ++u) {
    if (!d.active(u)) continue;
    for (NodeId v = u + 1; v < d.n(); ++v) {
      if (!d.active(v)) continue;
      if (dist_sq(d.positions()[static_cast<std::size_t>(u)],
                  d.positions()[static_cast<std::size_t>(v)]) <= r_sq) {
        edges.push_back({u, v});
      }
    }
  }
  return edges;
}

TEST(DynamicUdg, StartsAsTheBuiltDeployment) {
  util::Rng rng(5);
  const UnitDiskGraph udg = build_udg(uniform_points(40, 4.0, rng), 1.0);
  const DynamicUdg dyn(udg);
  EXPECT_EQ(dyn.n(), udg.n());
  EXPECT_EQ(dyn.graph().edges(), brute_force_edges(dyn));
  EXPECT_EQ(dyn.graph().m(), static_cast<std::size_t>(udg.graph.m()));
}

TEST(DynamicUdg, JoinLinksExactlyTheInRangeNodes) {
  const UnitDiskGraph udg = build_udg(
      {{0.0, 0.0}, {0.9, 0.0}, {3.0, 3.0}}, 1.0);
  DynamicUdg dyn(udg);
  graph::EdgeDelta delta;
  const NodeId id = dyn.node_join({0.5, 0.0}, delta);
  EXPECT_EQ(id, 3);
  EXPECT_TRUE(delta.removed.empty());
  const std::vector<Edge> expected{{0, 3}, {1, 3}};
  EXPECT_EQ(delta.added, expected);
  EXPECT_EQ(dyn.graph().edges(), brute_force_edges(dyn));
}

TEST(DynamicUdg, LeaveIsolatesAndStaysIsolated) {
  const UnitDiskGraph udg = build_udg(
      {{0.0, 0.0}, {0.5, 0.0}, {1.0, 0.0}}, 1.0);
  DynamicUdg dyn(udg);
  graph::EdgeDelta delta;
  dyn.node_leave(1, delta);
  const std::vector<Edge> expected{{0, 1}, {1, 2}};
  EXPECT_EQ(delta.removed, expected);
  EXPECT_TRUE(delta.added.empty());
  EXPECT_FALSE(dyn.active(1));
  EXPECT_EQ(dyn.graph().degree(1), 0);
  EXPECT_EQ(dyn.graph().edges(), brute_force_edges(dyn));

  // Re-leaving (and leaving out-of-range ids) is a clamped no-op.
  graph::EdgeDelta again;
  dyn.node_leave(1, again);
  dyn.node_leave(-1, again);
  dyn.node_leave(99, again);
  EXPECT_TRUE(again.empty());

  // A move toward the departed node must not resurrect its edges.
  graph::EdgeDelta move_delta;
  dyn.node_move(0, {0.5, 0.01}, move_delta);
  EXPECT_FALSE(dyn.graph().has_edge(0, 1));
  EXPECT_EQ(dyn.graph().edges(), brute_force_edges(dyn));
}

TEST(DynamicUdg, MoveEmitsExactDeltas) {
  const UnitDiskGraph udg = build_udg(
      {{0.0, 0.0}, {0.8, 0.0}, {2.0, 0.0}}, 1.0);
  DynamicUdg dyn(udg);
  // 0 slides from near 1 to near 2: loses {0,1}, gains {0,2}.
  graph::EdgeDelta delta;
  dyn.node_move(0, {1.9, 0.0}, delta);
  EXPECT_EQ(delta.removed, (std::vector<Edge>{{0, 1}}));
  EXPECT_EQ(delta.added, (std::vector<Edge>{{0, 2}}));
  EXPECT_EQ(dyn.graph().edges(), brute_force_edges(dyn));

  // A move that keeps the same in-range set is a structural no-op.
  graph::EdgeDelta still;
  dyn.node_move(0, {2.1, 0.0}, still);
  EXPECT_TRUE(still.added.empty());
  EXPECT_EQ(dyn.graph().edges(), brute_force_edges(dyn));
}

// Randomized differential: hundreds of mixed mutations and brute-force
// equality after every single one. Moves intentionally cross many grid cells, and some joins and moves
// land on far outliers (1e7, ±1e300) whose cell indices hit the clamp.
TEST(DynamicUdg, RandomMutationsMatchBruteForce) {
  util::Rng rng(99);
  std::vector<Point> points = uniform_points(30, 3.0, rng);
  points.insert(points.end(),
                {{1e7, 0.0}, {1e300, 0.0}, {-1e300, 5.0}, {0.5, -1e300}});
  const UnitDiskGraph udg = build_udg(points, 1.0);
  DynamicUdg dyn(udg);
  // Pairs within one radius of each other, so outliers gain edges too.
  const std::vector<Point> outliers{
      {1e7, 0.5},     {1e7 + 0.5, 0.0}, {1e300, 0.5},   {1e300, -0.25},
      {-1e300, 5.5},  {-1e300, 4.75},   {0.0, -1e300},  {1e300, 1e300},
      {-1e300, -1e300}};
  const auto position = [&] {
    if (rng.uniform01() < 0.2) return outliers[rng.index(outliers.size())];
    return Point{rng.uniform(-0.5, 3.5), rng.uniform(-0.5, 3.5)};
  };
  for (int step = 0; step < 400; ++step) {
    graph::EdgeDelta delta;
    const double u = rng.uniform01();
    if (u < 0.25) {
      dyn.node_join(position(), delta);
    } else if (u < 0.55) {
      dyn.node_leave(
          static_cast<NodeId>(rng.index(static_cast<std::size_t>(dyn.n()))),
          delta);
    } else {
      const auto v =
          static_cast<NodeId>(rng.index(static_cast<std::size_t>(dyn.n())));
      dyn.node_move(v, position(), delta);
    }
    ASSERT_EQ(dyn.graph().edges(), brute_force_edges(dyn)) << "step " << step;
    // Deltas really are deltas: added edges exist, removed ones don't.
    for (const Edge& e : delta.added) {
      ASSERT_TRUE(dyn.graph().has_edge(e.u, e.v));
    }
    for (const Edge& e : delta.removed) {
      ASSERT_FALSE(dyn.graph().has_edge(e.u, e.v));
    }
  }
}

// The cell table is sized for the initial cells only. Joins and moves into
// cells far outside the initial bounding box (including the clamped ±1e300
// boundary cells) make it grow several times, while moves back and forth
// empty and refill cells. After every step the adjacency equals the
// brute-force rebuild and build_udg over the same positions with the
// departed nodes removed.
TEST(DynamicUdg, CellTableGrowsAndRefillsCells) {
  util::Rng rng(17);
  DynamicUdg dyn(build_udg(uniform_points(12, 1.5, rng), 1.0));
  const auto far_position = [&](int step) {
    switch (step % 5) {
      case 0: return Point{3.0 * step, rng.uniform(-0.5, 0.5)};
      case 1: return Point{rng.uniform(-0.5, 2.0), -3.0 * step};
      case 2: return Point{1e300, rng.uniform(-1.0, 1.0)};
      case 3: return Point{rng.uniform(-1.0, 1.0), -1e300};
      default: return Point{rng.uniform(-0.5, 2.0), rng.uniform(-0.5, 2.0)};
    }
  };
  for (int step = 0; step < 300; ++step) {
    graph::EdgeDelta delta;
    const auto pick = [&] {
      return static_cast<NodeId>(rng.index(static_cast<std::size_t>(dyn.n())));
    };
    const double u = rng.uniform01();
    if (u < 0.4) {
      dyn.node_join(far_position(step), delta);
    } else if (u < 0.5) {
      dyn.node_leave(pick(), delta);
    } else if (u < 0.75) {
      dyn.node_move(pick(), far_position(step), delta);
    } else {
      // Back near the origin: far cells empty, the home cells refill.
      dyn.node_move(pick(), {rng.uniform(-0.5, 2.0), rng.uniform(-0.5, 2.0)},
                    delta);
    }
    ASSERT_EQ(dyn.graph().edges(), brute_force_edges(dyn)) << "step " << step;

    std::vector<NodeId> departed;
    for (NodeId v = 0; v < dyn.n(); ++v) {
      if (!dyn.active(v)) departed.push_back(v);
    }
    const UnitDiskGraph rebuilt = build_udg(dyn.positions(), dyn.radius());
    ASSERT_EQ(dyn.graph().edges(), rebuilt.graph.without_nodes(departed).edges())
        << "step " << step;
  }
}

TEST(DynamicUdg, NonFiniteJoinOrMoveThrowsAndChangesNothing) {
  const UnitDiskGraph udg = build_udg(
      {{0.0, 0.0}, {0.5, 0.0}, {3.0, 3.0}}, 1.0);
  DynamicUdg dyn(udg);
  const auto edges = dyn.graph().edges();
  const auto positions = dyn.positions();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Point p : {Point{nan, 0.0}, Point{0.0, nan}, Point{inf, 0.0},
                        Point{0.0, -inf}}) {
    graph::EdgeDelta delta;
    EXPECT_THROW(dyn.node_join(p, delta), std::invalid_argument);
    EXPECT_THROW(dyn.node_move(0, p, delta), std::invalid_argument);
    EXPECT_TRUE(delta.empty());
    EXPECT_EQ(dyn.n(), 3);
    EXPECT_EQ(dyn.graph().edges(), edges);
    EXPECT_EQ(dyn.positions(), positions);
    EXPECT_EQ(dyn.active_flags(), (std::vector<std::uint8_t>{1, 1, 1}));
  }
}

}  // namespace
}  // namespace ftc::geom
