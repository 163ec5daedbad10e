// Allocation gates for the centralized Algorithm 1 and 2 mirrors
// (solve_fractional_kmds, round_fractional). Linked into ftc_alloc_tests with
// the counting operator new of bench/alloc_hooks.cpp.
//
// A single-thread solve sizes all of its state once: the result vectors,
// the power tables and the wire table beside them, the one α/β pair
// arena, the reverse slots, and the per-block white and gray lists. So the
// number of allocations of one solve must not depend on n (which changes
// the number of node blocks and the size of every array) or on t (which
// changes the number of inner iterations). A list grown by push_back, or
// any per-iteration or per-block allocation, breaks the gate.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "alloc_hooks.h"
#include "algo/lp/lp_kmds.h"
#include "algo/rounding/rounding.h"
#include "algo/weighted/weighted.h"
#include "domination/domination.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using graph::NodeId;

/// Allocations made by one solve_fractional_kmds call on G(n, 10/n) with
/// demand 2 at threads = 1.
std::uint64_t solve_allocs(NodeId n, int t) {
  util::Rng rng(7);
  const graph::Graph g = graph::gnp(n, 10.0 / static_cast<double>(n), rng);
  const auto demands =
      domination::clamp_demands(g, domination::uniform_demands(n, 2));
  LpOptions opts;
  opts.t = t;
  const std::uint64_t before = bench::alloc_counts().count;
  const LpResult lp = solve_fractional_kmds(g, demands, opts);
  const std::uint64_t allocs = bench::alloc_counts().count - before;
  EXPECT_EQ(lp.primal.x.size(), static_cast<std::size_t>(n));
  return allocs;
}

TEST(LpMirrorAllocs, SolveAllocationsIndependentOfTAndN) {
  const std::uint64_t baseline = solve_allocs(2000, 2);
  EXPECT_GT(baseline, 0u);
  for (const NodeId n : {2000, 20000}) {
    for (const int t : {2, 5}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " t=" + std::to_string(t));
      EXPECT_EQ(solve_allocs(n, t), baseline);
    }
  }
}

// The scratch overload of round_fractional reuses its buffers, the weighted
// request order included: after one warm-up call, trials allocate nothing.
TEST(RoundingMirrorAllocs, ScratchOverloadSteadyStateAllocatesNothing) {
  util::Rng rng(8);
  const graph::Graph g = graph::gnp(2000, 10.0 / 2000.0, rng);
  const auto demands =
      domination::clamp_demands(g, domination::uniform_demands(2000, 3));
  const NodeWeights weights = random_weights(g.n(), 1.0, 4.0, rng);
  domination::FractionalSolution x;
  x.x.assign(2000, 0.02);  // little mass: most nodes go through requests
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted ? "weighted" : "unit cost");
    const std::span<const double> w =
        weighted ? std::span<const double>(weights) : std::span<const double>{};
    RoundingScratch scratch;
    RoundingResult out;
    round_fractional(g, x, demands, 1, scratch, out, w);
    const std::uint64_t before = bench::alloc_counts().count;
    for (std::uint64_t seed = 2; seed < 10; ++seed) {
      round_fractional(g, x, demands, seed, scratch, out, w);
    }
    EXPECT_EQ(bench::alloc_counts().count - before, 0u);
    EXPECT_GT(out.chosen_by_request, 0);
  }
}

}  // namespace
}  // namespace ftc::algo
