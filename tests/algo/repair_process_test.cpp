#include "algo/extensions/repair_process.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "algo/baseline/greedy.h"
#include "algo/extensions/repair.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "graph/generators.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using domination::clamp_demands;
using domination::Demands;
using domination::uniform_demands;
using graph::Graph;
using graph::NodeId;

struct DistributedRun {
  std::vector<NodeId> final_set;  ///< live members after the run, sorted
  std::int64_t promoted = 0;      ///< live members not in the base set
  std::int64_t unsatisfied = 0;   ///< live nodes stuck unsatisfiable
  std::int64_t max_message_words = 0;
};

/// Runs the self-healing daemon on every node for `rounds` rounds under the
/// installed fault schedule and reports the surviving membership.
DistributedRun run_distributed(sim::SyncNetwork& net,
                               const std::vector<std::uint8_t>& base_member,
                               std::int64_t rounds) {
  const Graph& g = net.graph();
  net.run(rounds);
  DistributedRun out;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (net.crashed(v)) continue;
    const auto& p = net.process_as<RepairProcess>(v);
    if (p.member()) {
      out.final_set.push_back(v);
      if (!base_member[static_cast<std::size_t>(v)]) ++out.promoted;
    }
    if (p.unsatisfied()) ++out.unsatisfied;
  }
  out.max_message_words = net.metrics().max_message_words;
  return out;
}

/// The differential acceptance sweep: on seeded (graph, fault-plan)
/// instances with perfect detection (no loss), the distributed repair must
/// (a) satisfy every satisfiable live demand and (b) promote no more than
/// the centralized oracle plus the 2-hop damage-region slack.
class RepairDifferential
    : public ::testing::TestWithParam<std::tuple<std::int32_t, int>> {};

TEST_P(RepairDifferential, MatchesCentralizedOracleWithinSlack) {
  const auto [k, trial] = GetParam();
  util::Rng rng(4200 + static_cast<std::uint64_t>(trial) * 17 +
                static_cast<std::uint64_t>(k));
  const geom::UnitDiskGraph udg = geom::uniform_udg_with_degree(150, 12.0, rng);
  const Graph& g = udg.graph;
  const auto d = clamp_demands(g, uniform_demands(g.n(), k));
  const auto base = greedy_kmds(g, d).set;
  std::vector<std::uint8_t> base_member(static_cast<std::size_t>(g.n()), 0);
  for (NodeId v : base) base_member[static_cast<std::size_t>(v)] = 1;

  // Rotate through the three adversaries.
  sim::FaultPlan plan = sim::FaultPlan::none();
  switch (trial % 3) {
    case 0:
      plan = sim::FaultPlan::iid_crashes(0.03, 4, 8);
      break;
    case 1:
      plan = sim::FaultPlan::targeted_by_degree(g.n() / 15, 5);
      break;
    default:
      plan = sim::FaultPlan::region(
          udg.positions[static_cast<std::size_t>(trial) % udg.positions.size()],
          1.2, 6);
      break;
  }

  RepairProcessOptions popts;
  popts.detection_timeout = 3;
  sim::SyncNetwork net(udg, 1);
  net.set_all_processes([&](NodeId v) {
    return std::make_unique<RepairProcess>(
        d[static_cast<std::size_t>(v)],
        base_member[static_cast<std::size_t>(v)] != 0, popts);
  });
  sim::FaultInjector injector(plan, 900 + static_cast<std::uint64_t>(trial));
  const auto& schedule = injector.install(net, 20);

  std::vector<NodeId> failed;
  for (const sim::FaultEvent& e : schedule) failed.push_back(e.node);

  const auto dist = run_distributed(net, base_member, 80);
  const auto oracle = repair_after_failures(g, base, failed, d);

  // (a) Every satisfiable live demand is met.
  const Graph live = g.without_nodes(failed);
  auto live_demands = clamp_demands(live, d);
  for (NodeId f : failed) live_demands[static_cast<std::size_t>(f)] = 0;
  EXPECT_TRUE(domination::is_k_dominating(live, dist.final_set, live_demands))
      << "k=" << k << " trial=" << trial << " failed=" << failed.size();

  // (b) Promotion cost: oracle + 2-hop damage-region slack.
  EXPECT_LE(dist.promoted, oracle.promoted + oracle.touched)
      << "k=" << k << " trial=" << trial;

  // When the oracle repaired everything, nobody may be left unsatisfiable.
  if (oracle.fully_satisfied) {
    EXPECT_EQ(dist.unsatisfied, 0);
  }

  // O(log n) bits: the protocol never exceeds two words per message
  // (phase tag + value).
  EXPECT_EQ(dist.max_message_words, 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RepairDifferential,
    ::testing::Combine(::testing::Values<std::int32_t>(1, 2, 3),
                       ::testing::Range(0, 7)));

TEST(RepairProcess, NoFaultsMeansNoActivity) {
  util::Rng rng(2);
  const Graph g = graph::gnp(50, 0.15, rng);
  const auto d = clamp_demands(g, uniform_demands(g.n(), 2));
  const auto base = greedy_kmds(g, d).set;
  std::vector<std::uint8_t> member(static_cast<std::size_t>(g.n()), 0);
  for (NodeId v : base) member[static_cast<std::size_t>(v)] = 1;

  sim::SyncNetwork net(g, 1);
  net.set_all_processes([&](NodeId v) {
    return std::make_unique<RepairProcess>(
        d[static_cast<std::size_t>(v)],
        member[static_cast<std::size_t>(v)] != 0);
  });
  net.run(40);
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto& p = net.process_as<RepairProcess>(v);
    EXPECT_EQ(p.joins(), 0);
    EXPECT_EQ(p.member(), member[static_cast<std::size_t>(v)] != 0);
    EXPECT_EQ(p.monitor().suspicions_raised(), 0);
    EXPECT_EQ(p.residual(), 0);
  }
}

TEST(RepairProcess, CliqueReplacementMatchesOracleExactly) {
  const Graph g = graph::complete(6);
  const auto d = uniform_demands(6, 3);
  const std::vector<NodeId> base{0, 1, 2};

  sim::SyncNetwork net(g, 1);
  net.set_all_processes([&](NodeId v) {
    return std::make_unique<RepairProcess>(3, v <= 2);
  });
  net.schedule_crash(0, 6);
  net.run(60);

  std::int64_t joins = 0;
  std::vector<NodeId> final_set;
  for (NodeId v = 1; v < 6; ++v) {
    const auto& p = net.process_as<RepairProcess>(v);
    joins += p.joins();
    if (p.member()) final_set.push_back(v);
  }
  const auto oracle = repair_after_failures(g, base, {{0}}, d);
  EXPECT_EQ(joins, oracle.promoted);  // exactly one replacement
  EXPECT_EQ(final_set, oracle.set);   // and the same one (id tie-break)
}

TEST(RepairProcess, ChurnedNodeRejoinsAndIsCoveredAgain) {
  const Graph g = graph::complete(4);
  const auto d = uniform_demands(4, 2);
  const std::vector<NodeId> base{0, 1};
  RepairProcessOptions popts;
  popts.detection_timeout = 2;

  sim::SyncNetwork net(g, 1);
  net.set_all_processes([&](NodeId v) {
    return std::make_unique<RepairProcess>(2, v <= 1, popts);
  });
  net.schedule_crash(1, 8);
  net.schedule_recovery(1, 30,
                        std::make_unique<RepairProcess>(2, false, popts));
  net.run(80);

  ASSERT_FALSE(net.crashed(1));
  std::vector<NodeId> final_set;
  for (NodeId v = 0; v < 4; ++v) {
    const auto& p = net.process_as<RepairProcess>(v);
    if (p.member()) final_set.push_back(v);
    EXPECT_EQ(p.residual(), 0) << "node " << v;
    EXPECT_FALSE(p.unsatisfied());
  }
  // The rejoined node came back as a plain non-member and the healed set
  // still covers everyone on the full live graph.
  EXPECT_TRUE(domination::is_k_dominating(g, final_set, d));
}

}  // namespace
}  // namespace ftc::algo
