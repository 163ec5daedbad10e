// Mutation traces and DynamicWorld: serialization round-trips, defensive
// clamping of out-of-range / inactive targets, the active-active adjacency
// invariant in both modes, and the geometric-mode flip rejection.
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "geom/udg.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "sim/mutation.h"
#include "util/rng.h"

namespace ftc::sim {
namespace {

using graph::NodeId;

TEST(MutationTrace, SerializationRoundTripsExactly) {
  MutationTrace trace;
  trace.push_back({0, {MutationKind::kJoin, -1, -1, 0.12345678901234567, 2.5}});
  trace.push_back({3, {MutationKind::kLeave, 7, -1, 0.0, 0.0}});
  trace.push_back({3, {MutationKind::kMove, 2, -1, -1.25, 1e-17}});
  trace.push_back({9, {MutationKind::kFlip, 1, 4, 0.0, 0.0}});
  const MutationTrace parsed = parse_mutation_trace(to_string(trace));
  EXPECT_EQ(parsed, trace);
  EXPECT_TRUE(parse_mutation_trace("").empty());
  EXPECT_THROW((void)parse_mutation_trace("nonsense"), std::invalid_argument);
  EXPECT_THROW((void)parse_mutation_trace("1:9:0:0:0:0"),
               std::invalid_argument);  // unknown kind
}

// Every field must parse whole and in range: no trailing junk, no seventh
// field, no out-of-range id, no non-finite coordinate.
TEST(MutationTrace, RejectsMalformedEntries) {
  for (const char* bad : {
           "0:0:1:2:nan:3.0junk",  // NaN and trailing junk
           "0:0:1:2:nan:3.0",      // NaN coordinate
           "0:0:1:2:1.0:inf",      // infinite coordinate
           "0:0:1:2:1.0:-inf",
           "0:0:1:2:1.0:1e400",    // overflows to infinity
           "0:0:1:2:1.0:3.0junk",  // trailing junk
           "0:0:1:2:1.0:3.0:7",    // seventh field
           "0:0:1:2:1.0",          // fifth field is the last
           "0:0:99999999999:2:1.0:3.0",  // id beyond NodeId
           "0:0:1:-99999999999:1.0:3.0",
           "99999999999999999999:0:1:2:1.0:3.0",  // round beyond int64
           "0:-1:1:2:1.0:3.0",     // negative kind
           "0: 0:1:2:1.0:3.0",     // whitespace is junk
           "0:0:1:2::3.0",         // empty field
           "0:0:1:2:1.0:3.0;",     // empty trailing entry
           "0:0:1:2:1.0:3.0;;1:1:2:-1:0:0",
       }) {
    EXPECT_THROW((void)parse_mutation_trace(bad), std::invalid_argument)
        << bad;
  }
  const MutationTrace ok = parse_mutation_trace("-3:2:7:-1:-0.5:1e300");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0].round, -3);
  EXPECT_EQ(ok[0].m.kind, MutationKind::kMove);
  EXPECT_EQ(ok[0].m.node, 7);
  EXPECT_EQ(ok[0].m.peer, -1);
  EXPECT_EQ(ok[0].m.x, -0.5);
  EXPECT_EQ(ok[0].m.y, 1e300);
}

TEST(MutationKindNames, AreStable) {
  EXPECT_STREQ(mutation_kind_name(MutationKind::kJoin), "join");
  EXPECT_STREQ(mutation_kind_name(MutationKind::kLeave), "leave");
  EXPECT_STREQ(mutation_kind_name(MutationKind::kMove), "move");
  EXPECT_STREQ(mutation_kind_name(MutationKind::kFlip), "flip");
}

TEST(DynamicWorld, CombinatorialJoinAnchorsToClosedNeighborhood) {
  util::Rng rng(1);
  const graph::Graph g = graph::path(4);  // 0-1-2-3
  DynamicWorld world(g);
  EXPECT_FALSE(world.geometric());

  Mutation join;
  join.kind = MutationKind::kJoin;
  join.peer = 1;
  const AppliedMutation am = world.apply(join);
  EXPECT_TRUE(am.applied);
  EXPECT_EQ(am.m.node, 4);  // assigned id is filled in
  // Joined to N[1] = {0, 1, 2}: the anchor edge first, then its neighbors.
  const std::vector<graph::Edge> expected{{1, 4}, {0, 4}, {2, 4}};
  EXPECT_EQ(am.delta.added, expected);
  EXPECT_EQ(world.n(), 5);
  EXPECT_EQ(world.active_count(), 5);
}

TEST(DynamicWorld, LeaveIsolatesAndClampsFollowups) {
  const graph::Graph g = graph::complete(4);
  DynamicWorld world(g);

  Mutation leave;
  leave.kind = MutationKind::kLeave;
  leave.node = 2;
  const AppliedMutation am = world.apply(leave);
  EXPECT_TRUE(am.applied);
  EXPECT_EQ(am.delta.removed.size(), 3u);
  EXPECT_FALSE(world.active(2));
  EXPECT_EQ(world.active_count(), 3);
  EXPECT_EQ(world.graph().degree(2), 0);

  // Leaving again, flipping onto it, or moving it: clamped no-ops.
  EXPECT_FALSE(world.apply(leave).applied);
  Mutation flip;
  flip.kind = MutationKind::kFlip;
  flip.node = 2;
  flip.peer = 0;
  EXPECT_FALSE(world.apply(flip).applied);
  Mutation move;
  move.kind = MutationKind::kMove;
  move.node = 2;
  move.peer = 0;
  EXPECT_FALSE(world.apply(move).applied);
  EXPECT_EQ(world.graph().degree(2), 0);

  // Out-of-range targets are clamped too.
  Mutation bogus;
  bogus.kind = MutationKind::kLeave;
  bogus.node = 99;
  EXPECT_FALSE(world.apply(bogus).applied);
}

TEST(DynamicWorld, FlipTogglesAndSelfFlipIsNoop) {
  const graph::Graph g = graph::path(3);  // 0-1-2
  DynamicWorld world(g);
  Mutation flip;
  flip.kind = MutationKind::kFlip;
  flip.node = 0;
  flip.peer = 2;
  const AppliedMutation on = world.apply(flip);
  EXPECT_TRUE(on.applied);
  EXPECT_EQ(on.delta.added, (std::vector<graph::Edge>{{0, 2}}));
  const AppliedMutation off = world.apply(flip);
  EXPECT_TRUE(off.applied);
  EXPECT_EQ(off.delta.removed, (std::vector<graph::Edge>{{0, 2}}));

  Mutation self;
  self.kind = MutationKind::kFlip;
  self.node = 1;
  self.peer = 1;
  EXPECT_FALSE(world.apply(self).applied);
}

TEST(DynamicWorld, GeometricModeRejectsFlips) {
  util::Rng rng(3);
  const geom::UnitDiskGraph udg =
      geom::build_udg(geom::uniform_points(10, 2.0, rng), 1.0);
  DynamicWorld world(udg);
  ASSERT_TRUE(world.geometric());
  Mutation flip;
  flip.kind = MutationKind::kFlip;
  flip.node = 0;
  flip.peer = 1;
  const AppliedMutation am = world.apply(flip);
  EXPECT_FALSE(am.applied);
  EXPECT_TRUE(am.delta.empty());
}

TEST(DynamicWorld, GeometricModeRejectsNonFinitePositions) {
  const geom::UnitDiskGraph udg =
      geom::build_udg({{0.0, 0.0}, {0.5, 0.0}, {3.0, 3.0}}, 1.0);
  DynamicWorld world(udg);
  const auto edges = world.graph().edges();
  for (const MutationKind kind : {MutationKind::kJoin, MutationKind::kMove}) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      Mutation m;
      m.kind = kind;
      m.node = 0;
      m.x = bad;
      m.y = 0.5;
      EXPECT_THROW((void)world.apply(m), std::invalid_argument);
      std::swap(m.x, m.y);
      EXPECT_THROW((void)world.apply(m), std::invalid_argument);
      EXPECT_EQ(world.n(), 3);
      EXPECT_EQ(world.active_count(), 3);
      EXPECT_EQ(world.graph().edges(), edges);
      EXPECT_EQ(world.udg()->positions()[0], (geom::Point{0.0, 0.0}));
    }
  }
}

// The structural invariant both modes guarantee: adjacency only ever holds
// active-active edges, under any mutation stream.
TEST(DynamicWorld, AdjacencyHoldsActiveActiveEdgesOnly) {
  util::Rng rng(17);
  for (const bool geometric : {false, true}) {
    std::unique_ptr<DynamicWorld> world;
    geom::UnitDiskGraph udg;
    graph::Graph plain;
    if (geometric) {
      udg = geom::build_udg(geom::uniform_points(25, 2.5, rng), 1.0);
      world = std::make_unique<DynamicWorld>(udg);
    } else {
      plain = graph::gnp(25, 0.15, rng);
      world = std::make_unique<DynamicWorld>(plain);
    }
    for (int step = 0; step < 300; ++step) {
      Mutation m;
      const double u = rng.uniform01();
      const auto target = static_cast<NodeId>(
          rng.index(static_cast<std::size_t>(world->n())));
      if (u < 0.25) {
        m.kind = MutationKind::kJoin;
        m.peer = target;
        m.x = rng.uniform(0.0, 2.5);
        m.y = rng.uniform(0.0, 2.5);
      } else if (u < 0.6) {
        m.kind = MutationKind::kLeave;
        m.node = target;
      } else if (geometric) {
        m.kind = MutationKind::kMove;
        m.node = target;
        m.x = rng.uniform(0.0, 2.5);
        m.y = rng.uniform(0.0, 2.5);
      } else {
        m.kind = MutationKind::kFlip;
        m.node = target;
        m.peer = static_cast<NodeId>(
            rng.index(static_cast<std::size_t>(world->n())));
      }
      world->apply(m);
      for (NodeId v = 0; v < world->n(); ++v) {
        if (world->active(v)) continue;
        ASSERT_EQ(world->graph().degree(v), 0)
            << (geometric ? "geometric" : "combinatorial") << " step " << step;
      }
    }
    // snapshot() freezes to a CSR with the same arc count.
    EXPECT_EQ(static_cast<std::size_t>(world->snapshot().m()),
              world->graph().m());
  }
}

}  // namespace
}  // namespace ftc::sim
