// Per-round allocation gates for the paper's three protocols.
//
// Links bench/alloc_hooks.cpp, whose replacement global operator new counts
// every allocation in the process, so this binary is its own ctest target
// (the hooks would count gtest and every other suite too). Each round of a
// run on a SyncNetwork is bracketed by counter reads, with no plane, with a
// metrics-only plane and with a 16-event trace ring (recorders and the ring
// stop growing once they reach their high-water mark):
//
//  * Algorithm 3 (UdgKmdsProcess): round 0 may allocate at most one block
//    per node. From the second Part II iteration on, the process allocates
//    nothing (its leader set is reserved at construction) and the engine's
//    buffers have reached their high-water mark, so a round must not
//    allocate at all.
//  * Algorithm 1 (LpKmdsProcess, t = 3): rounds 0 and 1 size the per-node
//    state and the engine. Round 0 may allocate one block per node (its
//    α/β row) plus an engine constant. Every later round allocates nothing
//    except round 2t², the first z-share round: it is the first with one
//    message per neighbour instead of one broadcast, so the engine's
//    transfer buffers grow once — by a handful of blocks, independent of n.
//  * Algorithm 2 (RoundingProcess): nothing after round 0.
//  * Mixed rounds (a test process): in one round some nodes broadcast and
//    others send to some neighbours, so receivers merge a pulled broadcast
//    run with a pushed unicast run. The merge is in place, so once the
//    engine's buffers have seen every traffic pattern a round allocates
//    nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_hooks.h"
#include "algo/lp/lp_kmds.h"
#include "algo/lp/lp_kmds_process.h"
#include "algo/rounding/rounding.h"
#include "algo/rounding/rounding_process.h"
#include "algo/udg/udg_kmds.h"
#include "algo/udg/udg_kmds_process.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "graph/generators.h"
#include "obs/plane.h"
#include "sim/network.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using graph::NodeId;

constexpr NodeId kNodes = 4000;

/// Blocks the engine and a plane may allocate in a network's first round,
/// independent of n (14–28 at n = 4000 with the configurations below).
constexpr std::uint64_t kEngineFirstRoundAllocs = 64;

/// Runs `body(options, seed)` for seeds 1–3 under each plane configuration
/// (options == nullptr: no plane).
template <typename Body>
void for_each_plane_and_seed(Body&& body) {
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
      body(options, seed);
    }
  }
}

/// A plane built from `options`, or null.
std::unique_ptr<obs::Plane> make_plane(const obs::PlaneOptions* options) {
  return options != nullptr ? std::make_unique<obs::Plane>(*options)
                            : nullptr;
}

/// Steps `net` until every process halts or `max_rounds` rounds have run;
/// returns the allocations of each round.
std::vector<std::uint64_t> step_counting_allocs(sim::SyncNetwork& net,
                                                std::int64_t max_rounds) {
  std::vector<std::uint64_t> allocs;
  bool running = true;
  while (running && net.round() < max_rounds) {
    const std::uint64_t before = bench::alloc_counts().count;
    running = net.step();
    allocs.push_back(bench::alloc_counts().count - before);
  }
  EXPECT_FALSE(running) << "the protocol did not halt";
  return allocs;
}

/// One Algorithm 3 run at n = 4000, k = 2.
void expect_udg_steady_rounds_allocate_nothing(
    const obs::PlaneOptions* options, std::uint64_t seed) {
  const UdgOptions udg_options{.k = 2};
  util::Rng rng(seed);
  const auto udg = geom::uniform_udg_with_degree(kNodes, 12.0, rng);
  const auto plane = make_plane(options);
  sim::SyncNetwork net(udg, seed);
  if (plane != nullptr) net.set_observability(plane.get());
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<UdgKmdsProcess>(udg_options); });

  const auto allocs =
      step_counting_allocs(net, udg_round_budget(kNodes, udg_options));
  const auto steady =  // second Part II iteration
      static_cast<std::size_t>(2 * udg_part1_rounds(kNodes) + 3);
  ASSERT_GT(allocs.size(), steady)
      << "the run ended before a second Part II iteration";

  EXPECT_LE(allocs[0], static_cast<std::uint64_t>(kNodes));
  for (std::size_t r = steady; r < allocs.size(); ++r) {
    EXPECT_EQ(allocs[r], 0u) << "round " << r;
  }
}

/// One Algorithm 1 run at t = 3, k = 2 on `g`, then Algorithm 2 on its x.
void expect_lp_and_rounding_steady_rounds(const graph::Graph& g,
                                          const obs::PlaneOptions* options,
                                          std::uint64_t seed) {
  const int t = 3;
  const auto demands = domination::clamp_demands(
      g, domination::uniform_demands(g.n(), 2));

  const auto lp_plane = make_plane(options);
  sim::SyncNetwork lp_net(g, seed);
  if (lp_plane != nullptr) lp_net.set_observability(lp_plane.get());
  lp_net.set_all_processes([&](NodeId v) {
    return std::make_unique<LpKmdsProcess>(
        demands[static_cast<std::size_t>(v)], t);
  });
  const auto lp_allocs = step_counting_allocs(lp_net, lp_round_count(t) + 1);
  ASSERT_EQ(static_cast<std::int64_t>(lp_allocs.size()), lp_round_count(t));
  EXPECT_LE(lp_allocs[0],
            static_cast<std::uint64_t>(g.n()) + kEngineFirstRoundAllocs)
      << "LP round 0 (one α/β row per node)";
  const auto z_round = static_cast<std::size_t>(2 * t * t);
  for (std::size_t r = 2; r < lp_allocs.size(); ++r) {
    if (r == z_round) {
      EXPECT_LT(lp_allocs[r], 16u) << "round " << r << " (first z-shares)";
    } else {
      EXPECT_EQ(lp_allocs[r], 0u) << "LP round " << r;
    }
  }

  std::vector<double> x;
  for (NodeId v = 0; v < g.n(); ++v) {
    x.push_back(lp_net.process_as<LpKmdsProcess>(v).x());
  }
  const auto rounding_plane = make_plane(options);
  sim::SyncNetwork rounding_net(g, seed);
  if (rounding_plane != nullptr) {
    rounding_net.set_observability(rounding_plane.get());
  }
  rounding_net.set_all_processes([&](NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    return std::make_unique<RoundingProcess>(x[i], demands[i]);
  });
  const auto rounding_allocs =
      step_counting_allocs(rounding_net, kRoundingRounds + 1);
  ASSERT_EQ(static_cast<std::int64_t>(rounding_allocs.size()),
            kRoundingRounds);
  for (std::size_t r = 1; r < rounding_allocs.size(); ++r) {
    EXPECT_EQ(rounding_allocs[r], 0u) << "rounding round " << r;
  }
}

/// Per (node, round mod 4): broadcast {self, phase}, or send {to, phase}
/// to about two thirds of the neighbours. Counts the rounds in which its
/// inbox held both kinds (a unicast payload starts with the receiver).
class MixedTrafficProcess final : public sim::Process {
 public:
  static constexpr std::int64_t kRounds = 40;

  void on_round(sim::Context& ctx) override {
    const NodeId self = ctx.self();
    bool pulled = false;
    bool pushed = false;
    for (const sim::Message& msg : ctx.inbox()) {
      (msg.words[0] == static_cast<sim::Word>(self) ? pushed : pulled) = true;
    }
    if (pulled && pushed) ++mixed_inboxes_;
    const auto phase = static_cast<std::uint64_t>(ctx.round() % 4);
    const std::uint64_t mix =
        static_cast<std::uint64_t>(self) * 0x9E3779B97F4A7C15ULL + phase;
    if ((mix >> 33) % 2 == 0) {
      ctx.broadcast(
          {static_cast<sim::Word>(self), static_cast<sim::Word>(phase)});
    } else {
      for (const NodeId w : ctx.neighbors()) {
        if ((mix ^ static_cast<std::uint64_t>(w)) % 3 != 0) {
          ctx.send(w, {static_cast<sim::Word>(w),
                       static_cast<sim::Word>(phase)});
        }
      }
    }
    if (ctx.round() + 1 >= kRounds) halt();
  }

  [[nodiscard]] std::int64_t mixed_inboxes() const { return mixed_inboxes_; }

 private:
  std::int64_t mixed_inboxes_ = 0;
};

/// Every traffic pattern has run through both arenas by round 8.
void expect_mixed_steady_rounds_allocate_nothing(
    const obs::PlaneOptions* options, std::uint64_t seed) {
  util::Rng rng(seed);
  const graph::Graph g =
      graph::gnp(kNodes, 10.0 / static_cast<double>(kNodes - 1), rng);
  const auto plane = make_plane(options);
  sim::SyncNetwork net(g, seed);
  if (plane != nullptr) net.set_observability(plane.get());
  net.set_all_processes(
      [](NodeId) { return std::make_unique<MixedTrafficProcess>(); });
  const auto allocs =
      step_counting_allocs(net, MixedTrafficProcess::kRounds + 1);
  ASSERT_EQ(static_cast<std::int64_t>(allocs.size()),
            MixedTrafficProcess::kRounds);
  for (std::size_t r = 8; r < allocs.size(); ++r) {
    EXPECT_EQ(allocs[r], 0u) << "round " << r;
  }
  std::int64_t mixed = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    mixed += net.process_as<MixedTrafficProcess>(v).mixed_inboxes();
  }
  EXPECT_GT(mixed, kNodes) << "receivers must see both kinds in one round";
}

TEST(MixedRoundAllocs, SteadyStateMixedRoundsAllocateNothing) {
  for_each_plane_and_seed(expect_mixed_steady_rounds_allocate_nothing);
}

TEST(UdgKmdsAllocs, SteadyStateRoundsAllocateNothing) {
  for_each_plane_and_seed(expect_udg_steady_rounds_allocate_nothing);
}

TEST(LpRoundingAllocs, SteadyStateRoundsAllocateNothingOnGnp) {
  for_each_plane_and_seed(
      [](const obs::PlaneOptions* options, std::uint64_t seed) {
        util::Rng rng(seed);
        const graph::Graph g = graph::gnp(
            kNodes, 10.0 / static_cast<double>(kNodes - 1), rng);
        expect_lp_and_rounding_steady_rounds(g, options, seed);
      });
}

TEST(LpRoundingAllocs, SteadyStateRoundsAllocateNothingOnUdg) {
  for_each_plane_and_seed(
      [](const obs::PlaneOptions* options, std::uint64_t seed) {
        util::Rng rng(seed);
        const auto udg = geom::uniform_udg_with_degree(kNodes, 12.0, rng);
        expect_lp_and_rounding_steady_rounds(udg.graph, options, seed);
      });
}

}  // namespace
}  // namespace ftc::algo
