// Per-round allocation gate for Algorithm 3 as a protocol.
//
// Links bench/alloc_hooks.cpp, whose replacement global operator new counts
// every allocation in the process, so this binary is its own ctest target
// (the hooks would count gtest and every other suite too). Each round of an
// untraced UdgKmdsProcess run on a SyncNetwork is bracketed by counter
// reads. Round 0 may allocate at most one block per node. From the second
// Part II iteration on, the process allocates nothing (its leader set is
// reserved at construction) and the engine's buffers have reached their
// high-water mark, so a round must not allocate at all. The same holds with
// an observability plane attached: its recorders and its trace ring stop
// growing once they reach their high-water mark.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_hooks.h"
#include "algo/udg/udg_kmds.h"
#include "algo/udg/udg_kmds_process.h"
#include "geom/udg.h"
#include "obs/plane.h"
#include "sim/network.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using graph::NodeId;

/// One untraced-engine run at n = 4000, k = 2, with `options` attached as
/// a plane (none when null).
void expect_steady_rounds_allocate_nothing(const obs::PlaneOptions* options,
                                           std::uint64_t seed) {
  const NodeId n = 4000;
  const std::int32_t k = 2;
  util::Rng rng(seed);
  const auto udg = geom::uniform_udg_with_degree(n, 12.0, rng);
  const auto plane =
      options != nullptr ? std::make_unique<obs::Plane>(*options) : nullptr;
  sim::SyncNetwork net(udg, seed);
  if (plane != nullptr) net.set_observability(plane.get());
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<UdgKmdsProcess>(k); });

  const std::int64_t part2 = 2 * udg_part1_rounds(n);
  const std::int64_t steady = part2 + 3;  // second Part II iteration
  std::vector<std::uint64_t> allocs;
  bool running = true;
  while (running && net.round() < part2 + 3 * (n + 3)) {
    const std::uint64_t before = bench::alloc_counts().count;
    running = net.step();
    allocs.push_back(bench::alloc_counts().count - before);
  }
  ASSERT_FALSE(running) << "Algorithm 3 did not halt";
  ASSERT_GT(allocs.size(), static_cast<std::size_t>(steady))
      << "the run ended before a second Part II iteration";

  EXPECT_LE(allocs[0], static_cast<std::uint64_t>(n));
  for (std::size_t r = static_cast<std::size_t>(steady); r < allocs.size();
       ++r) {
    EXPECT_EQ(allocs[r], 0u) << "round " << r;
  }
}

TEST(UdgKmdsAllocs, SteadyStateRoundsAllocateNothing) {
  obs::PlaneOptions metrics_only;
  metrics_only.trace.category_mask = 0;
  obs::PlaneOptions small_trace;  // metrics plus a 16-event trace ring
  small_trace.trace.capacity = 16;
  const std::pair<const char*, const obs::PlaneOptions*> configs[] = {
      {"no plane", nullptr},
      {"metrics-only plane", &metrics_only},
      {"metrics + 16-event trace", &small_trace}};
  for (const auto& [name, options] : configs) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(name) + ", seed " + std::to_string(seed));
      expect_steady_rounds_allocate_nothing(options, seed);
    }
  }
}

}  // namespace
}  // namespace ftc::algo
