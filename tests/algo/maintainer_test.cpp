// IncrementalMaintainer unit tests on hand-built topologies: every clause
// of the contract (coverage restoration, drops, demotion, locality,
// bounded promotion, determinism) plus the dyn.* metric publication. The
// fuzzed DynamicOracle (testing/dynamic.h) covers the same contract at
// scale; these pin exact small-case behavior.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/extensions/maintainer.h"
#include "algo/baseline/greedy.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/plane.h"
#include "sim/mutation.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using graph::NodeId;
using sim::DynamicWorld;
using sim::Mutation;
using sim::MutationKind;

std::vector<sim::AppliedMutation> apply_all(DynamicWorld& world,
                                            const std::vector<Mutation>& ms) {
  std::vector<sim::AppliedMutation> batch;
  for (const Mutation& m : ms) batch.push_back(world.apply(m));
  return batch;
}

TEST(IncrementalMaintainer, LeaveDropsAndRepromotesLocally) {
  // Path 0-1-2, k=1, the center covers everyone. When it departs, both
  // stranded endpoints must self-promote (they are isolated afterwards).
  const graph::Graph g = graph::path(3);
  DynamicWorld world(g);
  const std::vector<NodeId> initial{1};
  IncrementalMaintainer maintainer(g.n(), initial, {.k = 1});

  Mutation leave;
  leave.kind = MutationKind::kLeave;
  leave.node = 1;
  const auto batch = apply_all(world, {leave});
  const MaintainResult r =
      maintainer.apply_batch(world.graph(), world.active_flags(), batch);

  EXPECT_EQ(r.dropped, 1);
  EXPECT_EQ(r.promoted, 2);
  EXPECT_EQ(r.demoted, 0);
  EXPECT_TRUE(r.fully_satisfied);
  EXPECT_EQ(maintainer.member_set(), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(r.changed, (std::vector<NodeId>{0, 1, 2}));
}

TEST(IncrementalMaintainer, JoinTriggersDemotionOfRedundantMember) {
  // Complete(3) with two members; a join anchored at node 0 densifies the
  // neighborhood so one member becomes redundant and is released.
  const graph::Graph g = graph::complete(3);
  DynamicWorld world(g);
  const std::vector<NodeId> initial{0, 1};
  IncrementalMaintainer maintainer(g.n(), initial, {.k = 1});

  Mutation join;
  join.kind = MutationKind::kJoin;
  join.peer = 0;
  const auto batch = apply_all(world, {join});
  const MaintainResult r =
      maintainer.apply_batch(world.graph(), world.active_flags(), batch);

  EXPECT_EQ(r.promoted, 0);
  EXPECT_EQ(r.demoted, 1);
  EXPECT_EQ(maintainer.member_set(), (std::vector<NodeId>{1}));
  // Everyone is still covered.
  for (NodeId v = 0; v < world.n(); ++v) {
    bool covered = maintainer.is_member(v);
    for (NodeId w : world.graph().neighbors(v)) {
      covered = covered || maintainer.is_member(w);
    }
    EXPECT_TRUE(covered) << "node " << v;
  }
}

TEST(IncrementalMaintainer, DemotionRespectsHigherK) {
  // Complete(4), k=2, three members: still over-provisioned by one, and
  // only one may go — releasing two would break k=2 somewhere.
  const graph::Graph g = graph::complete(4);
  DynamicWorld world(g);
  const std::vector<NodeId> initial{0, 1, 2};
  IncrementalMaintainer maintainer(g.n(), initial, {.k = 2});

  Mutation flip;  // toggle {0,3} off and back on: a do-nothing batch shape
  flip.kind = MutationKind::kFlip;
  flip.node = 0;
  flip.peer = 3;
  auto batch = apply_all(world, {flip});
  batch = apply_all(world, {flip});  // restore the edge; seeds still {0,3}
  const MaintainResult r =
      maintainer.apply_batch(world.graph(), world.active_flags(), batch);
  EXPECT_EQ(r.promoted, 0);
  EXPECT_EQ(r.demoted, 1);
  EXPECT_EQ(maintainer.members(), 2);
  EXPECT_TRUE(domination::is_k_dominating(world.snapshot(),
                                          maintainer.member_set(), 2));
}

TEST(IncrementalMaintainer, MutationsOutsideComponentLeaveItUntouched) {
  // Two disjoint paths; churn in the left one must never touch the right
  // one's membership (the locality contract, exact version).
  const graph::Graph g =
      graph::Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  DynamicWorld world(g);
  const std::vector<NodeId> initial{1, 4};
  IncrementalMaintainer maintainer(g.n(), initial, {.k = 1});

  Mutation leave;
  leave.kind = MutationKind::kLeave;
  leave.node = 1;
  const auto batch = apply_all(world, {leave});
  const MaintainResult r =
      maintainer.apply_batch(world.graph(), world.active_flags(), batch);
  for (const NodeId v : r.changed) EXPECT_LT(v, 3) << "locality breached";
  EXPECT_TRUE(maintainer.is_member(4));
  EXPECT_FALSE(maintainer.is_member(1));
}

TEST(IncrementalMaintainer, NoPromotionModeReportsDeficiency) {
  const graph::Graph g = graph::path(3);
  DynamicWorld world(g);
  const std::vector<NodeId> initial{1};
  IncrementalMaintainer maintainer(g.n(), initial,
                                   {.k = 1, .promote = false});
  Mutation leave;
  leave.kind = MutationKind::kLeave;
  leave.node = 1;
  const auto batch = apply_all(world, {leave});
  const MaintainResult r =
      maintainer.apply_batch(world.graph(), world.active_flags(), batch);
  EXPECT_EQ(r.promoted, 0);
  EXPECT_FALSE(r.fully_satisfied);
  EXPECT_EQ(maintainer.members(), 0);
}

TEST(IncrementalMaintainer, IdenticalBatchesAreDeterministic) {
  const graph::Graph g = graph::cycle(12);
  auto run = [&] {
    DynamicWorld world(g);
    const std::vector<NodeId> initial{0, 3, 6, 9};
    IncrementalMaintainer maintainer(g.n(), initial, {.k = 1});
    std::vector<std::vector<NodeId>> changes;
    for (const NodeId victim : {3, 6, 0}) {
      Mutation leave;
      leave.kind = MutationKind::kLeave;
      leave.node = victim;
      const auto batch = apply_all(world, {leave});
      changes.push_back(
          maintainer
              .apply_batch(world.graph(), world.active_flags(), batch)
              .changed);
    }
    changes.push_back(maintainer.member_set());
    return changes;
  };
  EXPECT_EQ(run(), run());
}

TEST(IncrementalMaintainer, PublishesDynMetrics) {
  obs::Plane plane;
  const graph::Graph g = graph::path(3);
  DynamicWorld world(g);
  const std::vector<NodeId> initial{1};
  IncrementalMaintainer maintainer(g.n(), initial, {.k = 1});
  maintainer.bind_plane(&plane);

  Mutation leave;
  leave.kind = MutationKind::kLeave;
  leave.node = 1;
  const auto batch = apply_all(world, {leave});
  (void)maintainer.apply_batch(world.graph(), world.active_flags(), batch);

  auto& reg = plane.metrics();
  EXPECT_EQ(reg.value(reg.counter("dyn.batches")), 1);
  EXPECT_EQ(reg.value(reg.counter("dyn.mutations")), 1);
  EXPECT_EQ(reg.value(reg.counter("dyn.promotions")), 2);
  EXPECT_EQ(reg.value(reg.counter("dyn.dropped")), 1);
  EXPECT_EQ(reg.value(reg.gauge("dyn.members")), 2);
  EXPECT_EQ(maintainer.batches(), 1);
  EXPECT_EQ(maintainer.total_promoted(), 2);
}

TEST(IncrementalMaintainer, ConstructorRejectsBadArguments) {
  const std::vector<NodeId> none;
  EXPECT_THROW(IncrementalMaintainer(-1, none), std::invalid_argument);
  EXPECT_THROW(IncrementalMaintainer(3, none, {.k = 0}),
               std::invalid_argument);
  EXPECT_THROW(IncrementalMaintainer(3, none, {.k = -2}),
               std::invalid_argument);
  for (const NodeId bad : {-1, 3, 1000}) {
    const std::vector<NodeId> initial{0, bad};
    EXPECT_THROW(IncrementalMaintainer(3, initial), std::invalid_argument)
        << "initial id " << bad;
  }
  // The boundary cases themselves are fine.
  const std::vector<NodeId> edge_ids{0, 2, 2};
  const IncrementalMaintainer ok(3, edge_ids);
  EXPECT_EQ(ok.members(), 2);
  EXPECT_NO_THROW(IncrementalMaintainer(0, none));
}

TEST(IncrementalMaintainer, ApplyBatchRejectsMismatchedOrShrunkenState) {
  const graph::Graph g = graph::path(4);
  DynamicWorld world(g);
  const std::vector<NodeId> initial{1, 2};
  IncrementalMaintainer maintainer(g.n(), initial, {.k = 1});

  // active must carry one flag per node.
  const std::vector<std::uint8_t> short_flags(3, 1);
  EXPECT_THROW(
      maintainer.apply_batch(world.graph(), short_flags, {}),
      std::invalid_argument);

  // A graph smaller than the last batch's: topologies only grow.
  const graph::MutableGraph smaller(graph::path(3));
  const std::vector<std::uint8_t> three(3, 1);
  EXPECT_THROW(maintainer.apply_batch(smaller, three, {}),
               std::invalid_argument);
  EXPECT_EQ(maintainer.membership().size(), 4u) << "a rejected batch changed state";
  EXPECT_EQ(maintainer.batches(), 0);

  // After a join the old size is too small as well.
  Mutation join;
  join.kind = MutationKind::kJoin;
  join.peer = 0;
  const auto batch = apply_all(world, {join});
  (void)maintainer.apply_batch(world.graph(), world.active_flags(), batch);
  const std::vector<std::uint8_t> four(4, 1);
  const graph::MutableGraph original(g);
  EXPECT_THROW(maintainer.apply_batch(original, four, {}),
               std::invalid_argument);
}

// The maintainer's scratch is reused across batches and must be all-zero
// again after each one. Over a seeded churn trace with joins (n grows) and
// multi-mutation batches, a maintainer rebuilt from the current membership
// before every batch — fresh scratch — must produce the same result and the
// same membership as the long-lived one.
TEST(IncrementalMaintainer, ReusedScratchMatchesAFreshMaintainer) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const geom::UnitDiskGraph udg =
        geom::uniform_udg_with_degree(300, 8.0, rng);
    const auto demands = domination::clamp_demands(
        udg.graph, domination::uniform_demands(udg.n(), 2));
    DynamicWorld world(udg);
    IncrementalMaintainer lived(udg.n(), greedy_kmds(udg.graph, demands).set,
                                {.k = 2});
    for (int b = 0; b < 150; ++b) {
      std::vector<Mutation> ms(1 + rng.index(6));
      for (Mutation& m : ms) {
        const auto target = static_cast<NodeId>(
            rng.index(static_cast<std::size_t>(world.n())));
        const geom::Point at =
            world.udg()->positions()[static_cast<std::size_t>(target)];
        const double u = rng.uniform01();
        m.kind = u < 0.3    ? MutationKind::kJoin
                 : u < 0.6 ? MutationKind::kLeave
                           : MutationKind::kMove;
        m.node = target;
        m.x = at.x + rng.uniform(-1.0, 1.0);
        m.y = at.y + rng.uniform(-1.0, 1.0);
      }
      IncrementalMaintainer fresh(world.n(), lived.member_set(), {.k = 2});
      const auto batch = apply_all(world, ms);
      const MaintainResult r_lived =
          lived.apply_batch(world.graph(), world.active_flags(), batch);
      const MaintainResult r_fresh =
          fresh.apply_batch(world.graph(), world.active_flags(), batch);
      ASSERT_EQ(r_lived, r_fresh) << "batch " << b;
      ASSERT_EQ(lived.membership(), fresh.membership()) << "batch " << b;
      ASSERT_EQ(lived.members(), fresh.members()) << "batch " << b;
    }
    EXPECT_GT(world.n(), udg.n()) << "the trace must grow n";
  }
}

}  // namespace
}  // namespace ftc::algo
