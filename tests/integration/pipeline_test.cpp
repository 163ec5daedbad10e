// End-to-end integration: Algorithm 1 + Algorithm 2, mirror vs distributed,
// ratio sanity against lower bounds, message budget — the full contract of
// Sections 4.1 + 4.2.
#include "algo/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "algo/baseline/greedy.h"
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

TEST(Pipeline, MirrorEndToEndFeasible) {
  util::Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::gnp(80, 0.08, rng);
    for (std::int32_t k : {1, 2, 4}) {
      const auto d = clamp_demands(g, uniform_demands(80, k));
      PipelineOptions opts;
      opts.t = 3;
      opts.seed = 10 + static_cast<std::uint64_t>(trial);
      const auto result = run_kmds_pipeline(g, d, opts);
      EXPECT_TRUE(domination::is_k_dominating(g, result.set(), d))
          << "trial " << trial << " k " << k;
      EXPECT_TRUE(domination::primal_feasible(g, result.lp.primal, d, 1e-6));
    }
  }
}

TEST(Pipeline, DistributedMatchesMirror) {
  util::Rng rng(2);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = graph::gnp(40, 0.12, rng);
    const auto d = clamp_demands(g, uniform_demands(40, 2));
    PipelineOptions mirror_opts, dist_opts;
    mirror_opts.t = dist_opts.t = 2;
    mirror_opts.seed = dist_opts.seed = 77 + static_cast<std::uint64_t>(trial);
    mirror_opts.execution = Execution::kMirror;
    dist_opts.execution = Execution::kDistributed;

    const auto mirror = run_kmds_pipeline(g, d, mirror_opts);
    const auto dist = run_kmds_pipeline(g, d, dist_opts);
    EXPECT_EQ(mirror.set(), dist.set()) << "trial " << trial;
    for (NodeId v = 0; v < g.n(); ++v) {
      const auto i = static_cast<std::size_t>(v);
      EXPECT_DOUBLE_EQ(mirror.lp.primal.x[i], dist.lp.primal.x[i]);
    }
  }
}

TEST(Pipeline, DistributedRoundAndMessageBudget) {
  util::Rng rng(3);
  const Graph g = graph::gnp(50, 0.1, rng);
  const auto d = uniform_demands(50, 2);
  PipelineOptions opts;
  opts.t = 3;
  opts.execution = Execution::kDistributed;
  const auto result = run_kmds_pipeline(g, d, opts);
  EXPECT_EQ(result.total_rounds, lp_round_count(3) + 3);
  EXPECT_LE(result.metrics.max_message_words, 3);  // O(log n) bits
  EXPECT_GT(result.metrics.messages_sent, 0);
}

TEST(Pipeline, RatioWithinCombinedTheoremBound) {
  // Combined Theorems 4.5 + 4.6 bound, checked against the best lower
  // bound (which only makes the test stricter... looser: measured ratio is
  // an upper bound of the true one, so this is a sound check).
  util::Rng rng(4);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = graph::gnp(70, 0.1, rng);
    const auto d = clamp_demands(g, uniform_demands(70, 2));
    PipelineOptions opts;
    opts.t = 3;
    opts.seed = static_cast<std::uint64_t>(trial);
    const auto result = run_kmds_pipeline(g, d, opts);

    const auto greedy = greedy_kmds(g, d);
    const double lower = domination::best_lower_bound(
        g, d, static_cast<std::int64_t>(greedy.set.size()),
        result.lp.dual_bound(d));
    ASSERT_GT(lower, 0.0);
    const double ratio = static_cast<double>(result.set().size()) / lower;
    const double ln_d1 = std::log(static_cast<double>(g.max_degree()) + 1.0);
    // ρ·lnΔ + O(1) with ρ = theorem45_bound; generous O(1) slack of 4.
    const double bound =
        theorem45_bound(3, g.max_degree()) * ln_d1 + 4.0;
    EXPECT_LE(ratio, bound) << "trial " << trial;
  }
}

TEST(Pipeline, IntegralNotMuchWorseThanFractionalTimesLog) {
  util::Rng rng(5);
  const Graph g = graph::gnp(200, 0.05, rng);
  const auto d = clamp_demands(g, uniform_demands(200, 2));
  PipelineOptions opts;
  opts.t = 4;
  double worst = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    opts.seed = seed;
    const auto result = run_kmds_pipeline(g, d, opts);
    const double frac = result.lp.primal.objective();
    ASSERT_GT(frac, 0.0);
    worst = std::max(worst,
                     static_cast<double>(result.set().size()) / frac);
  }
  const double ln_d1 = std::log(static_cast<double>(g.max_degree()) + 1.0);
  // Theorem 4.6 is in expectation; across 10 seeds the worst observed ratio
  // should still sit well under 3·ln(Δ+1) + 3.
  EXPECT_LE(worst, 3.0 * ln_d1 + 3.0);
}

TEST(Pipeline, WorksOnDisconnectedGraphs) {
  // Two far-apart cliques plus isolated nodes.
  std::vector<graph::Edge> edges;
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = static_cast<NodeId>(u + 1); v < 4; ++v) {
      edges.push_back({u, v});
    }
  }
  for (NodeId u = 4; u < 8; ++u) {
    for (NodeId v = static_cast<NodeId>(u + 1); v < 8; ++v) {
      edges.push_back({u, v});
    }
  }
  const Graph g = Graph::from_edges(10, edges);  // nodes 8, 9 isolated
  const auto d = clamp_demands(g, uniform_demands(10, 2));
  PipelineOptions opts;
  const auto result = run_kmds_pipeline(g, d, opts);
  EXPECT_TRUE(domination::is_k_dominating(g, result.set(), d));
}

// Heterogeneous demand profiles, built inline: the greedy baseline and
// Alg 1 + Alg 2 must meet per-node k_i, not only a uniform k.

TEST(Profiles, HeterogeneousDemandsSolveEndToEnd) {
  // Demand max(1, round(0.3·deg)): hubs ask for more backup dominators
  // than leaves.
  util::Rng rng(4);
  const Graph g = graph::gnp(80, 0.1, rng);
  domination::Demands d(static_cast<std::size_t>(g.n()), 1);
  for (NodeId v = 0; v < g.n(); ++v) {
    d[static_cast<std::size_t>(v)] = std::max<std::int32_t>(
        1, static_cast<std::int32_t>(
               std::llround(0.3 * static_cast<double>(g.degree(v)))));
  }
  d = clamp_demands(g, d);
  const auto greedy = greedy_kmds(g, d);
  EXPECT_TRUE(greedy.fully_satisfied);
  EXPECT_TRUE(domination::is_k_dominating(g, greedy.set, d));
}

TEST(Profiles, FullPipelineHonorsHeterogeneousDemands) {
  // Nodes within 1.5 of the deployment's bounding box demand 3, the
  // interior 1: border nodes have fewer neighbors and lose coverage first.
  util::Rng rng(5);
  const auto udg = geom::uniform_udg_with_degree(200, 14.0, rng);
  double min_x = udg.positions.front().x, max_x = min_x;
  double min_y = udg.positions.front().y, max_y = min_y;
  for (const geom::Point& p : udg.positions) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  constexpr double kMargin = 1.5;
  domination::Demands d(static_cast<std::size_t>(udg.n()), 1);
  for (NodeId v = 0; v < udg.n(); ++v) {
    const geom::Point& p = udg.positions[static_cast<std::size_t>(v)];
    if (p.x - min_x < kMargin || max_x - p.x < kMargin ||
        p.y - min_y < kMargin || max_y - p.y < kMargin) {
      d[static_cast<std::size_t>(v)] = 3;
    }
  }
  d = clamp_demands(udg.graph, d);
  PipelineOptions opts;
  opts.t = 3;
  opts.seed = 5;
  const auto pipe = run_kmds_pipeline(udg.graph, d, opts);
  EXPECT_TRUE(domination::is_k_dominating(udg.graph, pipe.set(), d));
}

TEST(Pipeline, TinyGraphs) {
  for (NodeId n : {1, 2, 3}) {
    const Graph g = graph::complete(n);
    const auto d = clamp_demands(g, uniform_demands(n, 2));
    PipelineOptions opts;
    const auto result = run_kmds_pipeline(g, d, opts);
    EXPECT_TRUE(domination::is_k_dominating(g, result.set(), d)) << n;
  }
}

}  // namespace
}  // namespace ftc::algo
