// Tests for the Δ-free (two-hop degree knowledge) variant of Algorithm 1 —
// the paper's Remark at the end of Section 4.2.
#include <gtest/gtest.h>

#include <tuple>

#include "algo/lp/lp_kmds.h"
#include "algo/lp/lp_kmds_process.h"
#include "domination/domination.h"
#include "domination/fractional.h"
#include "graph/generators.h"
#include "sim/network.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using domination::clamp_demands;
using domination::uniform_demands;
using graph::Graph;
using graph::NodeId;

TEST(TwoHopD1, MatchesBruteForce) {
  util::Rng rng(1);
  const Graph g = graph::gnp(50, 0.1, rng);
  const auto d1 = two_hop_d1(g);
  for (NodeId v = 0; v < g.n(); ++v) {
    // Brute force: max degree over all nodes within distance <= 2.
    NodeId best = g.degree(v);
    for (NodeId w : g.neighbors(v)) {
      best = std::max(best, g.degree(w));
      for (NodeId u : g.neighbors(w)) {
        best = std::max(best, g.degree(u));
      }
    }
    EXPECT_DOUBLE_EQ(d1[static_cast<std::size_t>(v)],
                     static_cast<double>(best) + 1.0)
        << "node " << v;
  }
}

TEST(TwoHopD1, EqualsGlobalOnRegularGraphs) {
  const Graph g = graph::cycle(12);
  const auto d1 = two_hop_d1(g);
  for (double v : d1) EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(TwoHopVariant, AlwaysPrimalFeasible) {
  util::Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::barabasi_albert(60, 2, rng);  // skewed degrees
    for (std::int32_t k : {1, 2, 3}) {
      const auto d = clamp_demands(g, uniform_demands(g.n(), k));
      LpOptions opts;
      opts.degree_knowledge = DegreeKnowledge::kTwoHop;
      const auto lp = solve_fractional_kmds(g, d, opts);
      EXPECT_TRUE(domination::primal_feasible(g, lp.primal, d, 1e-6))
          << "trial " << trial << " k " << k;
    }
  }
}

TEST(TwoHopVariant, MatchesGlobalWhenDegreesAreUniform) {
  // On a vertex-degree-uniform graph the two-hop max equals Δ everywhere,
  // so the two variants must be identical.
  const Graph g = graph::cycle(20);
  const auto d = uniform_demands(20, 1);
  LpOptions global_opts, local_opts;
  local_opts.degree_knowledge = DegreeKnowledge::kTwoHop;
  const auto a = solve_fractional_kmds(g, d, global_opts);
  const auto b = solve_fractional_kmds(g, d, local_opts);
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_DOUBLE_EQ(a.primal.x[static_cast<std::size_t>(v)],
                     b.primal.x[static_cast<std::size_t>(v)]);
  }
}

TEST(TwoHopVariant, ObjectiveComparableToGlobal) {
  util::Rng rng(3);
  const Graph g = graph::barabasi_albert(120, 3, rng);
  const auto d = clamp_demands(g, uniform_demands(g.n(), 2));
  LpOptions global_opts, local_opts;
  global_opts.t = local_opts.t = 3;
  local_opts.degree_knowledge = DegreeKnowledge::kTwoHop;
  const auto global = solve_fractional_kmds(g, d, global_opts);
  const auto local = solve_fractional_kmds(g, d, local_opts);
  // The local variant should be in the same quality class (within 2x
  // either way on this workload).
  EXPECT_LT(local.primal.objective(), 2.0 * global.primal.objective());
  EXPECT_GT(local.primal.objective(), 0.5 * global.primal.objective());
}

class TwoHopEquivalence
    : public ::testing::TestWithParam<std::tuple<int, std::int32_t>> {};

TEST_P(TwoHopEquivalence, ProcessMatchesMirror) {
  const auto [instance, k] = GetParam();
  const std::uint64_t seed = 300 + static_cast<std::uint64_t>(instance);
  util::Rng rng(seed);
  Graph g;
  switch (instance) {
    case 0: g = graph::gnp(40, 0.12, rng); break;
    case 1: g = graph::barabasi_albert(40, 2, rng); break;
    default: g = graph::star(25); break;
  }
  const auto d = clamp_demands(g, uniform_demands(g.n(), k));
  const int t = 2;

  LpOptions opts;
  opts.t = t;
  opts.degree_knowledge = DegreeKnowledge::kTwoHop;
  const auto mirror = solve_fractional_kmds(g, d, opts);

  sim::SyncNetwork net(g, seed);
  const auto dist = run_lp_processes(net, d, t, DegreeKnowledge::kTwoHop);
  EXPECT_EQ(dist.rounds, lp_round_count(t) + 2);  // warm-up costs 2 rounds

  for (NodeId v = 0; v < g.n(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    EXPECT_DOUBLE_EQ(dist.primal.x[i], mirror.primal.x[i]) << "node " << v;
    EXPECT_DOUBLE_EQ(dist.dual.z[i], mirror.dual.z[i]) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    InstancesTimesK, TwoHopEquivalence,
    ::testing::Combine(::testing::Range(0, 3),
                       ::testing::Values<std::int32_t>(1, 2)));

}  // namespace
}  // namespace ftc::algo
