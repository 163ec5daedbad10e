// Property-based invariant sweeps: for a grid of (graph family, size,
// density, k, t, seed) configurations, every library-level invariant the
// paper's analysis relies on must hold simultaneously. These tests are the
// broadest net in the suite — each instantiation checks a dozen properties
// on a fresh random instance.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "algo/baseline/greedy.h"
#include "algo/baseline/lrg.h"
#include "algo/baseline/mis_clustering.h"
#include "algo/exact/exact.h"
#include "algo/pipeline.h"
#include "algo/udg/udg_kmds.h"
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

// ---------- General-graph invariants across the whole stack ----------

struct GeneralCase {
  int family;     // 0=gnp sparse, 1=gnp dense, 2=BA, 3=tree, 4=caveman
  std::int32_t k;
  int t;
  std::uint64_t seed;
};

class GeneralGraphInvariants
    : public ::testing::TestWithParam<std::tuple<int, std::int32_t, int>> {
 protected:
  static Graph make(int family, util::Rng& rng) {
    switch (family) {
      case 0: return graph::gnp(90, 0.05, rng);
      case 1: return graph::gnp(60, 0.2, rng);
      case 2: return graph::barabasi_albert(80, 3, rng);
      case 3: return graph::random_tree(80, rng);
      default: return graph::caveman(12, 6);
    }
  }
};

TEST_P(GeneralGraphInvariants, FullStackInvariants) {
  const auto [family, k, t] = GetParam();
  const std::uint64_t seed =
      1000 * static_cast<std::uint64_t>(family) + 10 * k + t;
  util::Rng rng(seed);
  const Graph g = make(family, rng);
  const auto d = clamp_demands(g, uniform_demands(g.n(), k));

  // (1) LP stage invariants.
  PipelineOptions opts;
  opts.t = t;
  opts.seed = seed;
  const auto pipe = run_kmds_pipeline(g, d, opts);
  EXPECT_TRUE(domination::primal_feasible(g, pipe.lp.primal, d, 1e-6));
  EXPECT_LE(pipe.lp.max_lemma41_ratio, 1.0 + 1e-9);
  EXPECT_LE(domination::max_dual_lhs(g, pipe.lp.dual),
            pipe.lp.kappa + 1e-6);

  // (2) Rounded set is feasible.
  EXPECT_TRUE(domination::is_k_dominating(g, pipe.set(), d));

  // (3) Dual bound is a genuine lower bound: never exceeds the size of any
  //     feasible solution we can construct.
  const auto greedy = greedy_kmds(g, d);
  EXPECT_TRUE(greedy.fully_satisfied);
  EXPECT_LE(pipe.lp.dual_bound(d),
            static_cast<double>(greedy.set.size()) + 1e-6);
  EXPECT_LE(pipe.lp.dual_bound(d), pipe.lp.primal.objective() + 1e-6);

  // (4) Greedy and LRG both feasible; LP-rounding never beats the dual
  //     bound from below.
  const auto lrg = lrg_kmds(g, d, seed);
  EXPECT_TRUE(lrg.fully_satisfied);
  EXPECT_TRUE(domination::is_k_dominating(g, lrg.set, d));
  EXPECT_GE(static_cast<double>(pipe.set().size()),
            pipe.lp.dual_bound(d) - 1e-6);

  // (5) Fractional objective is itself >= packing bound (it's a relaxation
  //     upper-bounded by OPT from below... i.e. OPT_f >= dual bound, and
  //     primal >= OPT_f >= any valid fractional lower bound).
  EXPECT_GE(pipe.lp.primal.objective() + 1e-6,
            pipe.lp.dual_bound(d));

  // (6) Set sizes are sane: no algorithm returns more than n nodes.
  EXPECT_LE(pipe.set().size(), static_cast<std::size_t>(g.n()));
  EXPECT_LE(greedy.set.size(), static_cast<std::size_t>(g.n()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneralGraphInvariants,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values<std::int32_t>(1, 2, 4),
                       ::testing::Values(1, 3)));

// ---------- Exactness cross-validation on small instances ----------

class ExactCrossValidation
    : public ::testing::TestWithParam<std::tuple<std::int32_t, std::uint64_t>> {
};

TEST_P(ExactCrossValidation, EverythingBracketsOptimum) {
  const auto [k, seed] = GetParam();
  util::Rng rng(seed);
  const Graph g = graph::gnp(15, 0.25, rng);
  const auto d = clamp_demands(g, uniform_demands(15, k));

  const auto exact = exact_kmds(g, d);
  ASSERT_TRUE(exact.optimal);
  const auto opt = static_cast<double>(exact.set.size());

  // Lower bounds never exceed OPT.
  EXPECT_LE(static_cast<double>(domination::packing_lower_bound(g, d)), opt);
  EXPECT_LE(static_cast<double>(domination::max_demand_lower_bound(d)), opt);
  EXPECT_LE(static_cast<double>(domination::disjoint_packing_lower_bound(g, d)),
            opt);

  // Upper bounds (feasible algorithms) never beat OPT.
  const auto greedy = greedy_kmds(g, d);
  EXPECT_GE(static_cast<double>(greedy.set.size()), opt);
  PipelineOptions opts;
  opts.seed = seed;
  const auto pipe = run_kmds_pipeline(g, d, opts);
  EXPECT_GE(static_cast<double>(pipe.set().size()), opt);
  const auto lrg = lrg_kmds(g, d, seed);
  EXPECT_GE(static_cast<double>(lrg.set.size()), opt);

  // The LP relaxation sits between the dual bound and OPT... precisely:
  // dual_bound <= OPT_f <= OPT <= primal objective is NOT guaranteed
  // (primal is approximate), but dual_bound <= OPT always.
  EXPECT_LE(pipe.lp.dual_bound(d), opt + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactCrossValidation,
    ::testing::Combine(::testing::Values<std::int32_t>(1, 2, 3),
                       ::testing::Values<std::uint64_t>(11, 22, 33, 44, 55)));

// ---------- UDG invariants ----------

class UdgInvariants
    : public ::testing::TestWithParam<std::tuple<std::int32_t, int>> {};

TEST_P(UdgInvariants, AlgorithmThreeInvariants) {
  const auto [k, deployment] = GetParam();
  const std::uint64_t seed = 7000 + 10 * static_cast<std::uint64_t>(k) +
                             static_cast<std::uint64_t>(deployment);
  util::Rng rng(seed);
  geom::UnitDiskGraph udg;
  switch (deployment) {
    case 0: udg = geom::uniform_udg_with_degree(300, 10.0, rng); break;
    case 1: udg = geom::uniform_udg_with_degree(300, 25.0, rng); break;
    default:
      udg = geom::build_udg(geom::clustered_points(250, 6, 9.0, 0.7, rng),
                            1.0);
      break;
  }

  UdgOptions opts;
  opts.k = k;
  const auto result = solve_udg_kmds(udg, opts, seed);

  // Lemma 5.1: Part I leaders dominate.
  EXPECT_TRUE(domination::is_k_dominating(
      udg.graph, result.part1_leaders, 1,
      domination::Mode::kOpenForNonMembers));

  // Theorem 5.7 feasibility: final leaders k-dominate all non-members.
  EXPECT_TRUE(result.fully_satisfied);
  EXPECT_TRUE(domination::is_k_dominating(
      udg.graph, result.leaders, k, domination::Mode::kOpenForNonMembers));

  // Part I leader set is a subset of the final set.
  for (std::size_t i = 0, j = 0; i < result.part1_leaders.size(); ++i) {
    while (j < result.leaders.size() &&
           result.leaders[j] < result.part1_leaders[i]) {
      ++j;
    }
    ASSERT_LT(j, result.leaders.size());
    EXPECT_EQ(result.leaders[j], result.part1_leaders[i]);
  }

  // Round count matches the formula.
  EXPECT_EQ(result.part1_rounds, udg_part1_rounds(udg.n()));

  // Active counts decrease and end at the Part I leader count.
  for (std::size_t i = 1; i < result.active_after_round.size(); ++i) {
    EXPECT_LE(result.active_after_round[i],
              result.active_after_round[i - 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UdgInvariants,
    ::testing::Combine(::testing::Values<std::int32_t>(1, 2, 3, 5),
                       ::testing::Range(0, 3)));

// ---------- Cross-algorithm consistency on identical inputs ----------

TEST(CrossAlgorithm, AllProduceFeasibleSetsOnSameInstance) {
  util::Rng rng(4242);
  const geom::UnitDiskGraph udg = geom::uniform_udg_with_degree(250, 14.0, rng);
  const Graph& g = udg.graph;
  const std::int32_t k = 2;
  const auto d = clamp_demands(g, uniform_demands(g.n(), k));

  PipelineOptions popts;
  popts.seed = 1;
  const auto pipe = run_kmds_pipeline(g, d, popts);
  const auto greedy = greedy_kmds(g, d);
  const auto lrg = lrg_kmds(g, d, 1);
  UdgOptions uopts;
  uopts.k = k;
  const auto udg_result = solve_udg_kmds(udg, uopts, 1);
  const auto mis = mis_kfold(g, k);

  EXPECT_TRUE(domination::is_k_dominating(g, pipe.set(), d));
  EXPECT_TRUE(domination::is_k_dominating(g, greedy.set, d));
  EXPECT_TRUE(domination::is_k_dominating(g, lrg.set, d));
  EXPECT_TRUE(domination::is_k_dominating(
      g, udg_result.leaders, k, domination::Mode::kOpenForNonMembers));
  EXPECT_TRUE(domination::is_k_dominating(
      g, mis.set, k, domination::Mode::kOpenForNonMembers));

  // Greedy is the strongest heuristic here; sanity-order the sizes loosely:
  // nothing should be more than ~20x greedy on this benign instance.
  for (std::size_t size : {pipe.set().size(), lrg.set.size(),
                           udg_result.leaders.size(), mis.set.size()}) {
    EXPECT_LE(size, greedy.set.size() * 20);
  }
}

}  // namespace
}  // namespace ftc::algo
