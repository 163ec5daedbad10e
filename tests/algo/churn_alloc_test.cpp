// Allocation gate for the churn path: a geometric DynamicWorld feeding an
// IncrementalMaintainer one mutation at a time (the bench_dynamic and
// churn_udg workload shape). Linked into ftc_alloc_tests with the counting
// operator new of bench/alloc_hooks.cpp.
//
// After 200 warm-up batches, for every measured batch:
//  * DynamicWorld::apply of a leave allocates at most the one exact reserve
//    of delta.removed, and a move at most the two exact reserves of its
//    delta. Adjacency rows live in one slab (DESIGN.md §13), so a row that
//    outgrows its capacity moves within it and allocates nothing.
//  * apply_batch allocates at most one block — the returned `changed` list —
//    and only when that list is non-empty.
// Scratch that reaches a new high-water mark (the slab when it grows or
// compacts, the maintainer's arrays when joins push n past their capacity,
// its seed/ball/worklist vectors, the cell table, the range-query buffer)
// may allocate beyond that, but only a small total that does not depend on
// n. A per-batch assign(n), a per-row allocation or a node-allocating
// worklist breaks the gate.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "alloc_hooks.h"
#include "algo/baseline/greedy.h"
#include "algo/extensions/maintainer.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "sim/mutation.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using graph::NodeId;

constexpr std::int32_t kFold = 2;
constexpr int kWarmup = 200;
constexpr int kMeasured = 600;
/// Allocations beyond the per-batch bounds allowed over the whole measured
/// window, for scratch high-water growth.
constexpr std::uint64_t kHighWaterAllowance = 8;

/// 25% join / 35% leave / 40% move, positions jittered within one radius of
/// a random node (bench_dynamic's mix).
sim::Mutation next_mutation(const sim::DynamicWorld& world, double radius,
                            util::Rng& rng) {
  sim::Mutation m;
  const auto target =
      static_cast<NodeId>(rng.index(static_cast<std::size_t>(world.n())));
  const geom::Point anchor =
      world.udg()->positions()[static_cast<std::size_t>(target)];
  const double u = rng.uniform01();
  if (u < 0.25) {
    m.kind = sim::MutationKind::kJoin;
  } else if (u < 0.60) {
    m.kind = sim::MutationKind::kLeave;
  } else {
    m.kind = sim::MutationKind::kMove;
  }
  m.node = m.kind == sim::MutationKind::kJoin ? -1 : target;
  m.x = anchor.x + rng.uniform(-radius, radius);
  m.y = anchor.y + rng.uniform(-radius, radius);
  return m;
}

std::uint64_t allocs_now() { return bench::alloc_counts().count; }

void expect_churn_allocs_bounded(NodeId n, std::uint64_t seed) {
  util::Rng rng(seed);
  const geom::UnitDiskGraph udg = geom::uniform_udg_with_degree(n, 8.0, rng);
  const auto demands = domination::clamp_demands(
      udg.graph, domination::uniform_demands(n, kFold));
  sim::DynamicWorld world(udg);
  IncrementalMaintainer maintainer(n, greedy_kmds(udg.graph, demands).set,
                                   {.k = kFold});
  const graph::MutableGraph& g = world.graph();

  std::uint64_t world_excess = 0;
  std::uint64_t batch_excess = 0;
  auto add_excess = [](std::uint64_t& excess, std::uint64_t allocs,
                       std::uint64_t allowed) {
    if (allocs > allowed) excess += allocs - allowed;
  };
  for (int batch = 0; batch < kWarmup + kMeasured; ++batch) {
    const sim::Mutation m = next_mutation(world, udg.radius, rng);
    const std::uint64_t a0 = allocs_now();
    const sim::AppliedMutation am = world.apply(m);
    const std::uint64_t apply_allocs = allocs_now() - a0;
    const std::uint64_t a1 = allocs_now();
    const MaintainResult r =
        maintainer.apply_batch(g, world.active_flags(), {&am, 1});
    const std::uint64_t batch_allocs = allocs_now() - a1;
    ASSERT_TRUE(r.fully_satisfied);
    if (batch < kWarmup) continue;

    if (am.applied && m.kind == sim::MutationKind::kLeave) {
      add_excess(world_excess, apply_allocs, 1);
    } else if (am.applied && m.kind == sim::MutationKind::kMove) {
      add_excess(world_excess, apply_allocs, 2);
    }
    add_excess(batch_excess, batch_allocs, r.changed.empty() ? 0 : 1);
  }
  EXPECT_LE(world_excess, kHighWaterAllowance)
      << "DynamicWorld::apply allocated beyond its delta's exact reserves";
  EXPECT_LE(batch_excess, kHighWaterAllowance)
      << "apply_batch allocated beyond its returned changed list";
}

TEST(ChurnAllocs, LeaveMoveAndBatchAllocationsAreBoundedIndependentOfN) {
  for (const NodeId n : {2000, 20000}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("n " + std::to_string(n) + ", seed " + std::to_string(seed));
      expect_churn_allocs_bounded(n, seed);
    }
  }
}

}  // namespace
}  // namespace ftc::algo
