#include "algo/weighted/weighted.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algo/baseline/greedy.h"
#include "algo/exact/exact.h"
#include "algo/lp/lp_kmds.h"
#include "algo/rounding/rounding.h"
#include "domination/bounds.h"
#include "geom/udg.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using domination::clamp_demands;
using domination::uniform_demands;
using graph::Graph;
using graph::NodeId;

TEST(Weights, Constructors) {
  util::Rng rng(1);
  const auto r = random_weights(100, 0.5, 2.0, rng);
  EXPECT_EQ(r.size(), 100u);
  for (double w : r) {
    EXPECT_GE(w, 0.5);
    EXPECT_LE(w, 2.0);
  }
}

TEST(Weights, SetWeight) {
  const NodeWeights w{1.0, 2.0, 4.0};
  const std::vector<NodeId> set{0, 2};
  EXPECT_DOUBLE_EQ(set_weight(set, w), 5.0);
  EXPECT_DOUBLE_EQ(set_weight({}, w), 0.0);
}

/// Disjoint stars of 1, 2, ..., `max_size` nodes (the first node of each is
/// its hub): every star size is its own span level, one hub per level.
Graph star_union(NodeId max_size) {
  std::vector<graph::Edge> edges;
  NodeId base = 0;
  for (NodeId size = 1; size <= max_size; ++size) {
    for (NodeId leaf = 1; leaf < size; ++leaf) {
      edges.push_back({base, base + leaf});
    }
    base += size;
  }
  return Graph::from_edges(base, edges);
}

// Unit cost takes the span-level selector; all-ones weights take the lazy
// heap on cost/span = 1/span. Both must pick the same nodes (largest span
// first, ties to the smaller id) and agree on fully_satisfied, with clamped
// demands and with unclamped (infeasible) ones.
TEST(WeightedGreedy, UnweightedMatchesPlainGreedy) {
  util::Rng rng(2);
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const int degree : {2, 6, 15}) {
    graphs.emplace_back("udg_deg" + std::to_string(degree),
                        geom::uniform_udg_with_degree(300, degree, rng).graph);
  }
  graphs.emplace_back("gnp_sparse", graph::gnp(200, 0.01, rng));
  graphs.emplace_back("gnp", graph::gnp(150, 0.08, rng));
  graphs.emplace_back("ba", graph::barabasi_albert(300, 3, rng));
  graphs.emplace_back("star", graph::star(40));
  graphs.emplace_back("complete", graph::complete(25));
  graphs.emplace_back("caveman", graph::caveman(12, 6));
  graphs.emplace_back("path", graph::path(101));
  graphs.emplace_back("star_union", star_union(20));
  graphs.emplace_back("isolated", graph::empty(7));
  for (const auto& [name, g] : graphs) {
    for (const std::int32_t k : {1, 2, 3, 5}) {
      const auto raw = uniform_demands(g.n(), k);
      for (const auto& d : {clamp_demands(g, raw), raw}) {
        const auto plain = greedy_kmds(g, d);
        const auto weighted = greedy_kmds(g, d, NodeWeights(g.n(), 1.0));
        EXPECT_EQ(weighted.set, plain.set) << name << " k=" << k;
        EXPECT_EQ(weighted.fully_satisfied, plain.fully_satisfied)
            << name << " k=" << k;
      }
    }
  }
}

TEST(WeightedGreedy, AvoidsExpensiveCenter) {
  // Star where the hub is prohibitively expensive: covering the leaves via
  // the hub costs 1000; covering each leaf by itself costs 1 each.
  const Graph g = graph::star(6);
  NodeWeights w{1000, 1, 1, 1, 1, 1};
  const auto result = greedy_kmds(g, uniform_demands(6, 1), w);
  EXPECT_TRUE(result.fully_satisfied);
  EXPECT_EQ(result.set, (std::vector<NodeId>{1, 2, 3, 4, 5}));
  EXPECT_DOUBLE_EQ(set_weight(result.set, w), 5.0);
}

TEST(WeightedGreedy, PrefersCheapHub) {
  const Graph g = graph::star(6);
  NodeWeights w{1, 10, 10, 10, 10, 10};
  const auto result = greedy_kmds(g, uniform_demands(6, 1), w);
  EXPECT_EQ(result.set, (std::vector<NodeId>{0}));
}

TEST(WeightedGreedy, AlwaysFeasibleOnFeasibleInstances) {
  util::Rng rng(3);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = graph::gnp(60, 0.1, rng);
    const auto d = clamp_demands(g, uniform_demands(60, 3));
    const auto w = random_weights(60, 0.1, 5.0, rng);
    const auto result = greedy_kmds(g, d, w);
    EXPECT_TRUE(result.fully_satisfied);
    EXPECT_TRUE(domination::is_k_dominating(g, result.set, d));
  }
}

TEST(WeightedExact, MatchesUnweightedExactUnderUniformWeights) {
  util::Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::gnp(14, 0.25, rng);
    const auto d = clamp_demands(g, uniform_demands(14, 2));
    const auto unweighted = exact_kmds(g, d);
    const auto weighted = exact_kmds(g, d, {}, NodeWeights(14, 1.0));
    ASSERT_TRUE(unweighted.optimal && weighted.optimal);
    EXPECT_EQ(weighted.set, unweighted.set);
    EXPECT_EQ(weighted.nodes_explored, unweighted.nodes_explored);
  }
}

TEST(WeightedExact, FindsCheaperNonMinimumCardinalitySolution) {
  // Path 0-1-2 with k=1. Cardinality optimum is {1} (cost 100); the weight
  // optimum is {0, 2} (cost 2).
  const Graph g = graph::path(3);
  NodeWeights w{1, 100, 1};
  const auto result = exact_kmds(g, uniform_demands(3, 1), {}, w);
  ASSERT_TRUE(result.optimal);
  EXPECT_EQ(result.set, (std::vector<NodeId>{0, 2}));
  EXPECT_DOUBLE_EQ(set_weight(result.set, w), 2.0);
}

TEST(WeightedExact, InfeasibleDetected) {
  const Graph g = graph::path(3);
  const auto result =
      exact_kmds(g, uniform_demands(3, 4), {}, NodeWeights(3, 1.0));
  EXPECT_FALSE(result.feasible);
}

TEST(WeightedExact, GreedyNeverBeatsExact) {
  util::Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = graph::gnp(13, 0.3, rng);
    const auto d = clamp_demands(g, uniform_demands(13, 2));
    const auto w = random_weights(13, 0.2, 3.0, rng);
    const auto exact = exact_kmds(g, d, {}, w);
    const auto greedy = greedy_kmds(g, d, w);
    ASSERT_TRUE(exact.optimal);
    EXPECT_LE(set_weight(exact.set, w), set_weight(greedy.set, w) + 1e-9);
    EXPECT_TRUE(domination::is_k_dominating(g, exact.set, d));
  }
}

TEST(WeightedRounding, FeasibleAndAccounted) {
  util::Rng rng(6);
  const Graph g = graph::gnp(60, 0.1, rng);
  const auto d = clamp_demands(g, uniform_demands(60, 2));
  const auto w = random_weights(60, 0.5, 2.0, rng);
  LpOptions opts;
  const auto lp = solve_fractional_kmds(g, d, opts);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto result = round_fractional(g, lp.primal, d, seed, w);
    EXPECT_TRUE(domination::is_k_dominating(g, result.set, d));
    EXPECT_EQ(result.chosen_by_coin + result.chosen_by_request,
              static_cast<std::int64_t>(result.set.size()));
  }
}

TEST(WeightedRounding, RequestsPickCheapCandidates) {
  // All-zero fractional solution on a clique: coverage comes entirely from
  // requests, which should pick the k cheapest nodes.
  const Graph g = graph::complete(6);
  domination::FractionalSolution x;
  x.x.assign(6, 0.0);
  NodeWeights w{5, 1, 4, 2, 3, 6};
  const auto result = round_fractional(g, x, uniform_demands(6, 2), 3, w);
  EXPECT_EQ(result.set, (std::vector<NodeId>{1, 3}));  // cheapest two
}

TEST(WeightedRounding, EqualWeightsKeepSelfFirst) {
  // Star with zero fractional mass: every leaf is short by one and may ask
  // itself or the hub. At equal weights the leaf asks itself (the unit-cost
  // rule), so the hub, with the smaller id, is never requested.
  const Graph g = graph::star(5);
  domination::FractionalSolution x;
  x.x.assign(5, 0.0);
  const auto result =
      round_fractional(g, x, uniform_demands(5, 1), 3, NodeWeights(5, 2.0));
  EXPECT_EQ(result.set, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  const auto unit = round_fractional(g, x, uniform_demands(5, 1), 3);
  EXPECT_EQ(result.set, unit.set);
  // A strictly cheaper hub is asked before the leaf itself.
  const auto cheap_hub = round_fractional(g, x, uniform_demands(5, 1), 3,
                                          NodeWeights{1.0, 2, 2, 2, 2});
  EXPECT_EQ(cheap_hub.set, (std::vector<NodeId>{0}));
}

// Outputs of the three centralized solvers, unweighted and weighted, on
// fixed instances, recorded from the separate weighted implementations these
// solvers replaced. The rounding input is a quarter of the LP solution so
// that the request rule, not only the coins, decides the set.
TEST(SolverPins, UnitAndWeightedOutputsUnchanged) {
  struct Pin {
    std::vector<NodeId> greedy, greedy_w, exact, exact_w, round, round_w;
    std::int64_t explored, explored_w;
  };
  const std::vector<Pin> pins{
      {{0, 1, 2, 3, 5, 6, 7, 11},
       {0, 1, 2, 3, 5, 7, 11, 14},
       {0, 1, 3, 6, 7, 8, 15},
       {0, 1, 4, 7, 8, 14, 15},
       {0, 1, 2, 3, 4, 6, 7, 8, 10, 11, 12, 13, 14},
       {0, 1, 2, 3, 4, 6, 7, 11, 12, 14},
       99,
       261},
      {{0, 1, 2, 4, 7, 8, 10, 14},
       {1, 2, 7, 8, 10, 11, 14},
       {0, 7, 8, 9, 11, 14},
       {1, 2, 7, 8, 10, 11, 14},
       {0, 1, 2, 3, 4, 6, 8, 10, 11, 12, 15},
       {0, 1, 2, 4, 6, 7, 8, 10, 14},
       97,
       335},
      {{0, 5, 7, 8, 9, 13, 14, 15},
       {0, 1, 3, 4, 5, 6, 8, 9, 12, 13, 14},
       {0, 5, 7, 8, 9, 13, 14, 15},
       {0, 1, 4, 5, 6, 7, 8, 9, 13},
       {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14},
       {0, 1, 2, 3, 4, 6, 8, 9, 10, 11, 12, 13, 14},
       41,
       193},
  };
  for (std::size_t i = 0; i < pins.size(); ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    util::Rng rng(41 + i);
    const Graph g = graph::gnp(16, 0.25, rng);
    const auto d = clamp_demands(g, uniform_demands(16, 2));
    const auto w = random_weights(16, 0.5, 3.0, rng);
    const Pin& pin = pins[i];
    EXPECT_EQ(greedy_kmds(g, d).set, pin.greedy);
    EXPECT_EQ(greedy_kmds(g, d, w).set, pin.greedy_w);
    const auto exact = exact_kmds(g, d);
    const auto exact_w = exact_kmds(g, d, {}, w);
    ASSERT_TRUE(exact.optimal && exact_w.optimal);
    EXPECT_EQ(exact.set, pin.exact);
    EXPECT_EQ(exact.nodes_explored, pin.explored);
    EXPECT_EQ(exact_w.set, pin.exact_w);
    EXPECT_EQ(exact_w.nodes_explored, pin.explored_w);
    LpOptions opts;
    opts.t = 2;
    auto lp = solve_fractional_kmds(g, d, opts);
    for (double& v : lp.primal.x) v *= 0.25;
    EXPECT_EQ(round_fractional(g, lp.primal, d, 7).set, pin.round);
    EXPECT_EQ(round_fractional(g, lp.primal, d, 7, w).set, pin.round_w);
  }
}

TEST(WeightedLowerBound, SoundAgainstExact) {
  util::Rng rng(7);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = graph::gnp(14, 0.25, rng);
    const auto d = clamp_demands(g, uniform_demands(14, 2));
    const auto w = random_weights(14, 0.3, 2.5, rng);
    const auto exact = exact_kmds(g, d, {}, w);
    ASSERT_TRUE(exact.optimal);
    EXPECT_LE(weighted_lower_bound(g, d, w), set_weight(exact.set, w) + 1e-9)
        << "trial " << trial;
  }
}

TEST(WeightedLowerBound, PerNodeRefinementBeatsPacking) {
  // One node with a large demand surrounded by expensive neighbors makes
  // the per-node bound dominate.
  const Graph g = graph::star(5);
  NodeWeights w{1, 10, 10, 10, 10};
  domination::Demands d{3, 1, 1, 1, 1};
  // Cheapest 3 in N[0]: {1, 10, 10} -> 21.
  EXPECT_DOUBLE_EQ(weighted_lower_bound(g, d, w), 21.0);
}

class WeightedSweep
    : public ::testing::TestWithParam<std::tuple<std::int32_t, int>> {};

TEST_P(WeightedSweep, GreedyWithinHarmonicOfExact) {
  const auto [k, trial] = GetParam();
  util::Rng rng(900 + static_cast<std::uint64_t>(trial));
  const Graph g = graph::gnp(15, 0.3, rng);
  const auto d = clamp_demands(g, uniform_demands(15, k));
  const auto w = random_weights(15, 0.2, 4.0, rng);
  const auto exact = exact_kmds(g, d, {}, w);
  const auto greedy = greedy_kmds(g, d, w);
  ASSERT_TRUE(exact.optimal);
  const double h = domination::harmonic(g.max_degree() + 1);
  EXPECT_LE(set_weight(greedy.set, w), h * set_weight(exact.set, w) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WeightedSweep,
    ::testing::Combine(::testing::Values<std::int32_t>(1, 2, 3),
                       ::testing::Range(0, 5)));

}  // namespace
}  // namespace ftc::algo
