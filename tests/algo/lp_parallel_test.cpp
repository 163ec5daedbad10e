// Determinism and reference-equality contract of the optimized LP mirror
// (lp_kmds.cpp): the solver's output is bitwise identical at thread widths
// {1, 2, 4, 8} — forced multi-block via the parallel_block test knob so even
// unit-test-sized graphs exercise real work division — and always matches
// the kept pre-optimization solver (lp_kmds_reference.cpp) exactly.
// DESIGN.md §11.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "algo/lp/lp_kmds.h"
#include "domination/domination.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using domination::Demands;
using graph::Graph;

void expect_bitwise_equal(const LpResult& a, const LpResult& b,
                          const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.primal.x, b.primal.x);
  EXPECT_EQ(a.dual.y, b.dual.y);
  EXPECT_EQ(a.dual.z, b.dual.z);
  EXPECT_EQ(a.kappa, b.kappa);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.max_lemma41_ratio, b.max_lemma41_ratio);
}

Demands mixed_demands(const Graph& g, std::uint64_t seed) {
  Demands d(static_cast<std::size_t>(g.n()), 1);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const auto cap = static_cast<std::int32_t>(
        g.degree(static_cast<graph::NodeId>(i)) + 1);
    d[i] = 1 + static_cast<std::int32_t>(util::splitmix64(state) % 3);
    if (d[i] > cap) d[i] = cap;
  }
  return d;
}

TEST(LpParallel, BitwiseIdenticalAtWidths1248) {
  util::Rng rng(42);
  const Graph g = graph::gnp(240, 0.04, rng);
  const Demands demands = mixed_demands(g, 99);
  for (const int t : {1, 2, 4}) {
    for (const auto dk : {DegreeKnowledge::kGlobal, DegreeKnowledge::kTwoHop}) {
      LpOptions opts;
      opts.t = t;
      opts.degree_knowledge = dk;
      const LpResult serial = solve_fractional_kmds(g, demands, opts);
      opts.parallel_block = 16;  // force many blocks at this size
      for (const int width : {1, 2, 4, 8}) {
        opts.threads = width;
        const LpResult parallel = solve_fractional_kmds(g, demands, opts);
        expect_bitwise_equal(serial, parallel, "width sweep");
      }
    }
  }
}

TEST(LpParallel, BlockSizeUnobservable) {
  // The block decomposition is a scheduling detail: any block size must
  // yield the same bits, parallel or not.
  util::Rng rng(7);
  const Graph g = graph::barabasi_albert(150, 3, rng);
  const Demands demands = mixed_demands(g, 3);
  LpOptions opts;
  opts.t = 3;
  const LpResult baseline = solve_fractional_kmds(g, demands, opts);
  for (const int block : {1, 7, 64, 1 << 20}) {
    opts.parallel_block = block;
    for (const int width : {1, 4}) {
      opts.threads = width;
      const LpResult got = solve_fractional_kmds(g, demands, opts);
      expect_bitwise_equal(baseline, got, "block sweep");
    }
  }
}

TEST(LpParallel, OptimizedMatchesReferenceSolver) {
  // The reference quantizes with libm's std::llround, the mirror with the
  // inline sim::encode_fixed. Under kTwoHop at t = 3, the sparse
  // G(400, 0.01) sends z-shares α·y − β that land on a tie (…0.5 after
  // scaling), so a codec that rounds ties any other way fails here.
  util::Rng rng(5);
  const std::vector<Graph> graphs = {
      graph::gnp(120, 0.08, rng), graph::grid(9, 13), graph::star(64),
      graph::complete(40), graph::random_tree(90, rng),
      graph::gnp(400, 0.01, rng)};
  for (const Graph& g : graphs) {
    const Demands demands = mixed_demands(g, 17);
    for (const int t : {1, 3}) {
      for (const auto dk :
           {DegreeKnowledge::kGlobal, DegreeKnowledge::kTwoHop}) {
        for (const bool quantize : {true, false}) {
          LpOptions opts;
          opts.t = t;
          opts.degree_knowledge = dk;
          opts.quantize_messages = quantize;
          const LpResult ref = solve_fractional_kmds_reference(g, demands, opts);
          const LpResult seq = solve_fractional_kmds(g, demands, opts);
          expect_bitwise_equal(ref, seq, "sequential vs reference");
          opts.threads = 8;
          opts.parallel_block = 32;
          const LpResult par = solve_fractional_kmds(g, demands, opts);
          expect_bitwise_equal(ref, par, "parallel vs reference");
        }
      }
    }
  }
}

/// G(n, p) on nodes [0, n) plus `isolated` nodes with no edges, and, when
/// `hub` is set, one more node adjacent to every G(n, p) node.
Graph gnp_with_extras(graph::NodeId n, double p, graph::NodeId isolated,
                      bool hub, util::Rng& rng) {
  std::vector<graph::Edge> edges = graph::gnp(n, p, rng).edges();
  const graph::NodeId total = n + isolated + (hub ? 1 : 0);
  if (hub) {
    for (graph::NodeId v = 0; v < n; ++v) edges.push_back({total - 1, v});
  }
  return Graph::from_edges(total, edges);
}

TEST(LpParallel, FrontierMatchesReferenceOnEdgeCases) {
  // The coloring pass walks only white nodes, skips the alpha/beta row when
  // c+ = 0 and keeps the dynamic degrees by decrements. Each case below
  // leans on one of those: isolated nodes (N[v] = {v}), zero demands (gray
  // in the first iteration through the gray test alone), demand deg+1
  // everywhere (every node needs its whole neighborhood, so the coverage
  // epsilon decides when it turns gray), and a star and a hub joined to a
  // sparse G(n, p), whose early high-threshold iterations have almost no
  // node raising x.
  util::Rng rng(11);
  const std::vector<Graph> graphs = {
      gnp_with_extras(60, 0.05, 20, false, rng), graph::star(50),
      gnp_with_extras(120, 0.03, 0, true, rng)};
  for (const Graph& g : graphs) {
    const auto n = static_cast<std::size_t>(g.n());
    Demands zero_some = mixed_demands(g, 23);
    for (std::size_t i = 0; i < n; i += 3) zero_some[i] = 0;
    Demands full(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      full[i] = g.degree(static_cast<graph::NodeId>(i)) + 1;
    }
    for (const Demands& demands : {mixed_demands(g, 19), zero_some, full}) {
      for (const int t : {1, 5}) {
        for (const auto dk :
             {DegreeKnowledge::kGlobal, DegreeKnowledge::kTwoHop}) {
          for (const bool quantize : {true, false}) {
            LpOptions opts;
            opts.t = t;
            opts.degree_knowledge = dk;
            opts.quantize_messages = quantize;
            const LpResult ref =
                solve_fractional_kmds_reference(g, demands, opts);
            for (const int block : {1, 7, 64, 1 << 20}) {
              opts.parallel_block = block;
              for (const int width : {1, 2, 4, 8}) {
                opts.threads = width;
                SCOPED_TRACE("n=" + std::to_string(n) + " t=" +
                             std::to_string(t) + " block=" +
                             std::to_string(block) + " width=" +
                             std::to_string(width));
                expect_bitwise_equal(
                    ref, solve_fractional_kmds(g, demands, opts),
                    "frontier vs reference");
              }
            }
          }
        }
      }
    }
  }
}

TEST(LpParallel, SenderSlotsMatchReference) {
  // Each raiser pushes λ_i·x⁺ into its own row after the coloring barrier,
  // gray nodes get λ := 0 after that push, and an iteration in which no
  // node raised skips the coloring pass, the push and the decrements. The
  // hub joined to a sparse G(n, p) has iterations with no raiser (once the
  // hub is full, nothing reaches the high thresholds until p drops), and
  // the hub's last raise is clipped by 1 − x; zero demands gray nodes in
  // the first iteration, so gray nodes with a stale λ sit next to later
  // raisers. G(6000, deg 10) at t = 5 has both as well, and its Δ + 1 is
  // not a power of two, so (λ·x⁺)·(Δ+1)^{-p/t} and λ·(x⁺·(Δ+1)^{-p/t})
  // differ in rounding there. Blocks of 1 and 7 nodes leave most blocks
  // without a raiser in iterations where some other block has one.
  util::Rng rng(29);
  const std::vector<std::pair<Graph, std::vector<int>>> cases = {
      {gnp_with_extras(300, 0.01, 10, true, rng), {2, 5}},
      {graph::gnp(6000, 10.0 / 5999.0, rng), {5}}};
  for (const auto& [g, ts] : cases) {
    Demands demands = mixed_demands(g, 31);
    for (std::size_t i = 0; i < demands.size(); i += 5) demands[i] = 0;
    for (const int t : ts) {
      for (const auto dk :
           {DegreeKnowledge::kGlobal, DegreeKnowledge::kTwoHop}) {
        for (const bool quantize : {true, false}) {
          LpOptions opts;
          opts.t = t;
          opts.degree_knowledge = dk;
          opts.quantize_messages = quantize;
          const LpResult ref = solve_fractional_kmds_reference(g, demands, opts);
          for (const int block : {1, 7, 1 << 20}) {
            opts.parallel_block = block;
            for (const int width : {1, 3}) {
              opts.threads = width;
              SCOPED_TRACE("n=" + std::to_string(g.n()) + " t=" +
                           std::to_string(t) + " two_hop=" +
                           std::to_string(dk == DegreeKnowledge::kTwoHop) +
                           " quantize=" + std::to_string(quantize) +
                           " block=" + std::to_string(block) +
                           " width=" + std::to_string(width));
              expect_bitwise_equal(ref, solve_fractional_kmds(g, demands, opts),
                                   "sender slots vs reference");
            }
          }
        }
      }
    }
  }
}

TEST(LpParallel, TinyGraphsAnyWidth) {
  // Degenerate sizes: fewer nodes than blocks, n == 1, n == 2.
  for (const int n : {1, 2, 3}) {
    const Graph g = graph::path(n);
    const Demands demands(static_cast<std::size_t>(n), 1);
    LpOptions opts;
    opts.t = 2;
    const LpResult serial = solve_fractional_kmds(g, demands, opts);
    opts.threads = 8;
    opts.parallel_block = 1;
    const LpResult parallel = solve_fractional_kmds(g, demands, opts);
    expect_bitwise_equal(serial, parallel, "tiny graph");
  }
}

}  // namespace
}  // namespace ftc::algo
