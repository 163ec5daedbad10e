// Allocation gate for the centralized Algorithm 1 mirror
// (solve_fractional_kmds). Linked into ftc_alloc_tests with the counting
// operator new of bench/alloc_hooks.cpp.
//
// A single-thread solve sizes all of its state once: the result vectors,
// the power tables, the alpha/beta arenas, the reverse slots, and the
// per-block white and gray lists. So the number of allocations of one solve
// must not depend on n (which changes the number of node blocks and the
// size of every array) or on t (which changes the number of inner
// iterations). A list grown by push_back, or any per-iteration or per-block
// allocation, breaks the gate.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "alloc_hooks.h"
#include "algo/lp/lp_kmds.h"
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

}  // namespace
}  // namespace ftc::algo
