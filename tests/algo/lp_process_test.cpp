// Equivalence of the distributed Algorithm 1 (sim::Process) and its
// centralized mirror: identical x, y, z for every node, across graph
// families, t, and k.
#include <gtest/gtest.h>

#include <tuple>

#include "algo/lp/lp_kmds.h"
#include "algo/lp/lp_kmds_process.h"
#include "domination/domination.h"
#include "graph/generators.h"
#include "sim/network.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using domination::clamp_demands;
using domination::uniform_demands;
using graph::Graph;
using graph::NodeId;

LpResult run_distributed(const Graph& g, const domination::Demands& demands,
                         int t) {
  sim::SyncNetwork net(g, 42);
  return run_lp_processes(net, demands, t);
}

TEST(LpProcess, RoundsMatchFormula) {
  const Graph g = graph::cycle(10);
  for (int t : {1, 2, 3}) {
    const auto run = run_distributed(g, uniform_demands(10, 1), t);
    EXPECT_EQ(run.rounds, lp_round_count(t)) << "t=" << t;
  }
}

TEST(LpProcess, MessagesAreConstantWords) {
  util::Rng rng(1);
  const Graph g = graph::gnp(40, 0.15, rng);
  sim::SyncNetwork net(g, 42);
  run_lp_processes(net, uniform_demands(40, 2), 3);
  // Largest message in Algorithm 1 carries (x, x⁺, δ̃): 3 words.
  EXPECT_LE(net.metrics().max_message_words, 3);
}

TEST(LpProcess, HaltsEvenOnEmptyGraph) {
  const Graph g = graph::empty(4);
  const auto run = run_distributed(g, uniform_demands(4, 1), 2);
  EXPECT_EQ(run.rounds, lp_round_count(2));
  for (double x : run.primal.x) EXPECT_GE(x, 1.0 - 1e-9);  // isolated: x=1
}

class LpEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::int32_t>> {};

TEST_P(LpEquivalenceSweep, ProcessMatchesMirrorExactly) {
  const auto [graph_id, t, k] = GetParam();
  util::Rng rng(100 + static_cast<std::uint64_t>(graph_id));
  Graph g;
  switch (graph_id) {
    case 0: g = graph::gnp(35, 0.12, rng); break;
    case 1: g = graph::grid(5, 7); break;
    case 2: g = graph::barabasi_albert(35, 2, rng); break;
    case 3: g = graph::star(20); break;
    case 4: g = graph::random_tree(30, rng); break;
    default: g = graph::cycle(12); break;
  }
  const auto d = clamp_demands(g, uniform_demands(g.n(), k));

  LpOptions opts;
  opts.t = t;
  const LpResult mirror = solve_fractional_kmds(g, d, opts);
  const LpResult dist = run_distributed(g, d, t);

  for (NodeId v = 0; v < g.n(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    EXPECT_DOUBLE_EQ(dist.primal.x[i], mirror.primal.x[i]) << "x of node " << v;
    EXPECT_DOUBLE_EQ(dist.dual.y[i], mirror.dual.y[i]) << "y of node " << v;
    EXPECT_DOUBLE_EQ(dist.dual.z[i], mirror.dual.z[i]) << "z of node " << v;
  }
  EXPECT_EQ(dist.kappa, mirror.kappa);
  EXPECT_EQ(dist.rounds, mirror.rounds);
}

INSTANTIATE_TEST_SUITE_P(
    GraphsTimesParams, LpEquivalenceSweep,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Values(1, 2, 4),
                       ::testing::Values<std::int32_t>(1, 2, 3)));

}  // namespace
}  // namespace ftc::algo
