// Edge-case sweep: degenerate inputs every public entry point must survive
// (empty graphs, single nodes, zero demands, extreme parameters). These are
// the inputs fuzzers find first; a library release must not assert or crash
// on any of them.
#include <gtest/gtest.h>

#include "algo/baseline/greedy.h"
#include "algo/baseline/lrg.h"
#include "algo/baseline/luby.h"
#include "algo/baseline/mis_clustering.h"
#include "algo/exact/exact.h"
#include "algo/extensions/cds.h"
#include "algo/extensions/repair.h"
#include "algo/pipeline.h"
#include "algo/udg/udg_kmds.h"
#include "algo/weighted/weighted.h"
#include "domination/bounds.h"
#include "domination/lp_solver.h"
#include "geom/udg.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace ftc {
namespace {

using domination::Demands;
using domination::uniform_demands;
using graph::Graph;
using graph::NodeId;

TEST(EdgeCases, EmptyGraphEverywhere) {
  const Graph g;
  const Demands d;
  EXPECT_TRUE(algo::greedy_kmds(g, d).set.empty());
  EXPECT_TRUE(algo::lrg_kmds(g, d, 1).set.empty());
  EXPECT_TRUE(algo::exact_kmds(g, d).set.empty());
  EXPECT_TRUE(algo::mis_kfold(g, 1).set.empty());
  EXPECT_TRUE(algo::luby_mis_kfold(g, 1, 1).set.empty());
  EXPECT_TRUE(algo::connect_dominating_set(g, {}).set.empty());
  EXPECT_TRUE(algo::repair_after_failures(g, {}, {}, d).set.empty());
  algo::PipelineOptions opts;
  EXPECT_TRUE(algo::run_kmds_pipeline(g, d, opts).set().empty());
  EXPECT_TRUE(domination::solve_lp_exact(g, d).feasible);
  EXPECT_DOUBLE_EQ(domination::best_lower_bound(g, d), 0.0);
}

TEST(EdgeCases, SingleNodeEverywhere) {
  const Graph g = graph::empty(1);
  const Demands d = uniform_demands(1, 1);
  EXPECT_EQ(algo::greedy_kmds(g, d).set, (std::vector<NodeId>{0}));
  EXPECT_EQ(algo::lrg_kmds(g, d, 1).set, (std::vector<NodeId>{0}));
  EXPECT_EQ(algo::exact_kmds(g, d).set, (std::vector<NodeId>{0}));
  EXPECT_EQ(algo::luby_mis_kfold(g, 2, 1).set, (std::vector<NodeId>{0}));
  algo::PipelineOptions opts;
  EXPECT_EQ(algo::run_kmds_pipeline(g, d, opts).set(),
            (std::vector<NodeId>{0}));
  const auto weighted =
      algo::greedy_kmds(g, d, algo::NodeWeights(1, 1.0));
  EXPECT_EQ(weighted.set, (std::vector<NodeId>{0}));
}

TEST(EdgeCases, TwoIsolatedNodesDistributed) {
  const Graph g = graph::empty(2);
  const Demands d = uniform_demands(2, 1);
  algo::PipelineOptions opts;
  opts.execution = algo::Execution::kDistributed;
  const auto result = algo::run_kmds_pipeline(g, d, opts);
  EXPECT_EQ(result.set(), (std::vector<NodeId>{0, 1}));
}

TEST(EdgeCases, ZeroDemandEverywhere) {
  util::Rng rng(1);
  const Graph g = graph::gnp(20, 0.2, rng);
  const Demands d = uniform_demands(20, 0);
  EXPECT_TRUE(algo::greedy_kmds(g, d).set.empty());
  EXPECT_TRUE(algo::exact_kmds(g, d).set.empty());
  EXPECT_TRUE(algo::lrg_kmds(g, d, 1).set.empty());
  const auto lp = domination::solve_lp_exact(g, d);
  ASSERT_TRUE(lp.feasible);
  EXPECT_NEAR(lp.objective, 0.0, 1e-9);
}

TEST(EdgeCases, HugeKOnUdgAlgorithm) {
  // k far above every degree: Part II promotes aggressively but must
  // terminate with a valid open-mode set.
  util::Rng rng(2);
  const auto udg = geom::uniform_udg_with_degree(120, 6.0, rng);
  algo::UdgOptions opts;
  opts.k = 50;
  const auto result = algo::solve_udg_kmds(udg, opts, 2);
  EXPECT_TRUE(domination::is_k_dominating(
      udg.graph, result.leaders, 50, domination::Mode::kOpenForNonMembers));
}

TEST(EdgeCases, CompleteGraphPipelineDistributed) {
  const Graph g = graph::complete(12);
  const auto d = uniform_demands(12, 4);
  algo::PipelineOptions opts;
  opts.t = 2;
  opts.execution = algo::Execution::kDistributed;
  const auto result = algo::run_kmds_pipeline(g, d, opts);
  EXPECT_TRUE(domination::is_k_dominating(g, result.set(), d));
}

TEST(EdgeCases, RepairEverythingFailed) {
  // Every dominator fails: repair must rebuild coverage from scratch in
  // the damage region (which is the whole neighborhood union).
  util::Rng rng(3);
  const Graph g = graph::gnp(40, 0.2, rng);
  const auto d = domination::clamp_demands(g, uniform_demands(40, 1));
  const auto base = algo::greedy_kmds(g, d).set;
  const auto result = algo::repair_after_failures(g, base, base, d);
  const Graph live = g.without_nodes(base);
  auto live_demands = domination::clamp_demands(live, d);
  for (NodeId f : base) live_demands[static_cast<std::size_t>(f)] = 0;
  EXPECT_TRUE(domination::is_k_dominating(live, result.set, live_demands));
}

TEST(EdgeCases, CdsOnSingletonSet) {
  util::Rng rng(4);
  const Graph g = graph::gnp(30, 0.3, rng);
  const auto result =
      algo::connect_dominating_set(g, std::vector<NodeId>{5});
  EXPECT_EQ(result.set, (std::vector<NodeId>{5}));
  EXPECT_EQ(result.connectors_added, 0);
}

TEST(EdgeCases, WeightedExactZeroDemandIsEmpty) {
  const Graph g = graph::complete(5);
  const algo::NodeWeights w(5, 1.0);
  const auto result = algo::exact_kmds(g, uniform_demands(5, 0), {}, w);
  EXPECT_TRUE(result.optimal);
  EXPECT_TRUE(result.set.empty());
  EXPECT_DOUBLE_EQ(algo::set_weight(result.set, w), 0.0);
}

TEST(EdgeCases, LpSolverPathGraph) {
  // Tiny structured instance with known LP optimum: path of 3, k=1.
  // x = (0, 1, 0) is optimal with objective 1.
  const Graph g = graph::path(3);
  const auto result = domination::solve_lp_exact(g, uniform_demands(3, 1));
  ASSERT_TRUE(result.feasible);
  EXPECT_NEAR(result.objective, 1.0, 1e-9);
}

TEST(EdgeCases, GeneratorsDegenerateSizes) {
  util::Rng rng(5);
  EXPECT_EQ(graph::grid(0, 5).n(), 0);
  EXPECT_EQ(graph::grid(1, 1).n(), 1);
  EXPECT_EQ(graph::path(0).n(), 0);
  EXPECT_EQ(graph::path(1).m(), 0u);
  EXPECT_EQ(graph::star(1).m(), 0u);
  EXPECT_EQ(graph::complete(0).n(), 0);
  EXPECT_EQ(graph::complete(1).m(), 0u);
  EXPECT_EQ(graph::caveman(1, 1).n(), 1);
  EXPECT_EQ(graph::gnm(5, 0, rng).m(), 0u);
}

}  // namespace
}  // namespace ftc
