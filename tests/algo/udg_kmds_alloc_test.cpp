// Per-round allocation gate for Algorithm 3 as a protocol.
//
// Links bench/alloc_hooks.cpp, whose replacement global operator new counts
// every allocation in the process, so this binary is its own ctest target
// (the hooks would count gtest and every other suite too). Each round of an
// untraced UdgKmdsProcess run on a SyncNetwork is bracketed by counter
// reads. Round 0 may allocate at most one block per node. From the second
// Part II iteration on, the process allocates nothing (its leader set is
// reserved at construction) and the engine's buffers have reached their
// high-water mark, so a round must not allocate at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc_hooks.h"
#include "algo/udg/udg_kmds.h"
#include "algo/udg/udg_kmds_process.h"
#include "geom/udg.h"
#include "sim/network.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using graph::NodeId;

TEST(UdgKmdsAllocs, SteadyStateRoundsAllocateNothing) {
  const NodeId n = 4000;
  const std::int32_t k = 2;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const auto udg = geom::uniform_udg_with_degree(n, 12.0, rng);
    sim::SyncNetwork net(udg, seed);
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
}

}  // namespace
}  // namespace ftc::algo
