#include "algo/rounding/rounding.h"

#include <gtest/gtest.h>

#include <cmath>

#include "algo/lp/lp_kmds.h"
#include "algo/rounding/rounding_process.h"
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

domination::FractionalSolution lp_solution(const Graph& g,
                                           const domination::Demands& d,
                                           int t = 3) {
  LpOptions opts;
  opts.t = t;
  return solve_fractional_kmds(g, d, opts).primal;
}

TEST(Rounding, OutputIsAlwaysKDominating) {
  util::Rng rng(1);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = graph::gnp(60, 0.1, rng);
    for (std::int32_t k : {1, 2, 3}) {
      const auto d = clamp_demands(g, uniform_demands(60, k));
      const auto x = lp_solution(g, d);
      const auto result = round_fractional(g, x, d, 1000 + trial);
      EXPECT_TRUE(domination::is_k_dominating(g, result.set, d))
          << "trial " << trial << " k " << k;
    }
  }
}

TEST(Rounding, FeasibleEvenFromAllZeroFractional) {
  // The request phase alone must repair everything (the coin phase picks
  // nothing when x = 0). This stresses the REQ mechanism.
  const Graph g = graph::complete(6);
  domination::FractionalSolution x;
  x.x.assign(6, 0.0);
  const auto d = uniform_demands(6, 3);
  const auto result = round_fractional(g, x, d, 7);
  EXPECT_TRUE(domination::is_k_dominating(g, result.set, d));
  EXPECT_EQ(result.chosen_by_coin, 0);
}

TEST(Rounding, AllOnesFractionalSelectsEverything) {
  const Graph g = graph::path(5);
  domination::FractionalSolution x;
  x.x.assign(5, 1.0);
  const auto result = round_fractional(g, x, uniform_demands(5, 1), 3);
  // p_i = min(1, ln(Δ+1)) = 1 when Δ >= 2.
  EXPECT_EQ(result.set.size(), 5u);
  EXPECT_EQ(result.chosen_by_coin, 5);
}

TEST(Rounding, DeterministicForSeed) {
  util::Rng rng(2);
  const Graph g = graph::gnp(50, 0.1, rng);
  const auto d = uniform_demands(50, 1);
  const auto x = lp_solution(g, d);
  const auto a = round_fractional(g, x, d, 99);
  const auto b = round_fractional(g, x, d, 99);
  EXPECT_EQ(a.set, b.set);
}

TEST(Rounding, SeedChangesOutcome) {
  util::Rng rng(3);
  const Graph g = graph::gnp(80, 0.08, rng);
  const auto d = uniform_demands(80, 1);
  const auto x = lp_solution(g, d);
  const auto a = round_fractional(g, x, d, 1);
  const auto b = round_fractional(g, x, d, 2);
  EXPECT_NE(a.set, b.set);
}

TEST(Rounding, CountersSumToSetSize) {
  util::Rng rng(4);
  const Graph g = graph::gnp(60, 0.1, rng);
  const auto d = clamp_demands(g, uniform_demands(60, 2));
  const auto x = lp_solution(g, d);
  const auto result = round_fractional(g, x, d, 5);
  EXPECT_EQ(result.chosen_by_coin + result.chosen_by_request,
            static_cast<std::int64_t>(result.set.size()));
}

TEST(Rounding, ExpectedSizeWithinTheorem46) {
  // E[|S'|] <= ρ·ln(Δ+1)·OPT + O(OPT). We check the measurable corollary:
  // averaged over seeds, |S'| / Σx_i stays below ln(Δ+1) + c for a small
  // constant c.
  util::Rng rng(5);
  const Graph g = graph::gnp(150, 0.07, rng);
  const auto d = clamp_demands(g, uniform_demands(150, 2));
  const auto x = lp_solution(g, d);
  const double frac = [&] {
    double s = 0;
    for (double xi : x.x) s += xi;
    return s;
  }();
  double total = 0;
  const int seeds = 20;
  for (int s = 0; s < seeds; ++s) {
    total += static_cast<double>(round_fractional(g, x, d, s).set.size());
  }
  const double mean = total / seeds;
  const double ln_d1 = std::log(static_cast<double>(g.max_degree()) + 1.0);
  EXPECT_LE(mean, frac * ln_d1 + 0.35 * static_cast<double>(g.n()));
}

TEST(RoundingProcess, MatchesMirrorExactly) {
  util::Rng rng(6);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = graph::gnp(40, 0.12, rng);
    for (std::int32_t k : {1, 2}) {
      const auto d = clamp_demands(g, uniform_demands(40, k));
      const auto x = lp_solution(g, d);
      const std::uint64_t seed = 500 + static_cast<std::uint64_t>(trial);

      const auto mirror = round_fractional(g, x, d, seed);

      sim::SyncNetwork net(g, seed);
      const auto dist = run_rounding_processes(net, x.x, d);
      EXPECT_EQ(dist.rounds, kRoundingRounds);
      EXPECT_EQ(dist.set, mirror.set) << "trial " << trial << " k " << k;
      EXPECT_EQ(dist.chosen_by_coin, mirror.chosen_by_coin);
      EXPECT_EQ(dist.chosen_by_request, mirror.chosen_by_request);
    }
  }
}

TEST(RoundingProcess, MessagesAreOneWord) {
  util::Rng rng(7);
  const Graph g = graph::gnp(30, 0.2, rng);
  const auto d = uniform_demands(30, 1);
  const auto x = lp_solution(g, d);
  sim::SyncNetwork net(g, 1);
  run_rounding_processes(net, x.x, d);
  EXPECT_LE(net.metrics().max_message_words, 1);
}

TEST(Rounding, PerNodeDemands) {
  const Graph g = graph::star(8);
  domination::Demands d{4, 1, 1, 1, 1, 1, 1, 1};
  const auto x = lp_solution(g, d);
  const auto result = round_fractional(g, x, d, 11);
  EXPECT_TRUE(domination::is_k_dominating(g, result.set, d));
}


}  // namespace
}  // namespace ftc::algo
