// Crash repair ≡ maintainer leave batch. repair_after_failures and
// IncrementalMaintainer share one local-repair core (repair.h); this pins the
// equivalence that sharing relies on. After crashing a node set F under a
// fully covering greedy base, the crash oracle (pre-failure graph, honest
// live coverage, live demands) and the maintainer fed one batch of kLeave
// mutations for F (post-mutation graph, cached cover, min(k, deg+1)) must
// pick the same promotions, and repair's damage region must be the
// maintainer's audit ball minus the departed nodes themselves.
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "algo/baseline/greedy.h"
#include "algo/extensions/maintainer.h"
#include "algo/extensions/repair.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "graph/generators.h"
#include "sim/mutation.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using graph::NodeId;

enum class Family { kGnp, kUdg };

class CrashRepairEqualsLeaveBatch
    : public ::testing::TestWithParam<std::tuple<Family, std::int32_t>> {};

TEST_P(CrashRepairEqualsLeaveBatch, SameSetPromotionsAndRegion) {
  const auto [family, k] = GetParam();
  std::int64_t total_promoted = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed * 1000 + static_cast<std::uint64_t>(k));
    const NodeId n = 60 + static_cast<NodeId>(rng.uniform_i64(0, 140));
    geom::UnitDiskGraph udg;
    if (family == Family::kUdg) {
      udg = geom::uniform_udg_with_degree(n, 8.0, rng);
    } else {
      udg.graph = graph::gnp(n, 6.0 / static_cast<double>(n), rng);
    }
    const graph::Graph& g = udg.graph;
    const domination::Demands demands =
        domination::clamp_demands(g, domination::uniform_demands(n, k));
    const std::vector<NodeId> base = greedy_kmds(g, demands).set;

    // Crash members and non-members alike; the heavier fractions strand
    // whole neighborhoods.
    const double p = 0.05 + 0.05 * static_cast<double>(seed % 4);
    std::vector<NodeId> failed;
    for (NodeId v = 0; v < n; ++v) {
      if (rng.bernoulli(p)) failed.push_back(v);
    }
    const std::string where = "seed " + std::to_string(seed) + " n " +
                              std::to_string(n) + " |F| " +
                              std::to_string(failed.size());

    const RepairResult repair = repair_after_failures(
        g, base, failed,
        domination::live_demands(g.without_nodes(failed), failed, demands));

    sim::DynamicWorld world = family == Family::kUdg ? sim::DynamicWorld(udg)
                                                     : sim::DynamicWorld(g);
    std::vector<sim::AppliedMutation> batch;
    for (NodeId f : failed) {
      sim::Mutation leave;
      leave.kind = sim::MutationKind::kLeave;
      leave.node = f;
      batch.push_back(world.apply(leave));
    }
    IncrementalMaintainer maintainer(n, base, {.k = k, .demote = false});
    const MaintainResult maintain =
        maintainer.apply_batch(world.graph(), world.active_flags(), batch);

    EXPECT_EQ(maintainer.member_set(), repair.set) << where;
    EXPECT_EQ(maintain.promoted, repair.promoted) << where;
    EXPECT_EQ(maintain.ball1 - static_cast<std::int64_t>(failed.size()),
              repair.touched)
        << where;
    EXPECT_TRUE(repair.fully_satisfied) << where;
    EXPECT_TRUE(maintain.fully_satisfied) << where;
    total_promoted += repair.promoted;
  }
  EXPECT_GT(total_promoted, 0) << "no crash ever needed a repair";
}

INSTANTIATE_TEST_SUITE_P(
    GnpAndUdg, CrashRepairEqualsLeaveBatch,
    ::testing::Combine(::testing::Values(Family::kGnp, Family::kUdg),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == Family::kGnp ? "Gnp"
                                                                 : "Udg") +
             "K" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace ftc::algo
