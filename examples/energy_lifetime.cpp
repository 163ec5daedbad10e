// Energy-aware backbone rotation — composing the weighted k-MDS extension
// with the fault-tolerance machinery to extend network lifetime.
//
//   ./energy_lifetime [--n=1000] [--k=2] [--epochs=40]
//
// Scenario: cluster heads burn battery much faster than ordinary sensors
// (they relay traffic). Re-clustering every epoch with selection costs set
// to the inverse of remaining battery ("weighted" policy) rotates the
// backbone duty through the network; the weight-blind policy keeps
// re-electing the same topologically convenient nodes until they die.
//
// We simulate both policies on the same deployment and report the network
// lifetime (epochs until 20% of all nodes have died) and the death curve.
// The k-fold redundancy is held constant; only head selection differs.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "algo/baseline/greedy.h"
#include "algo/weighted/weighted.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using namespace ftc;
using graph::NodeId;

struct LifetimeResult {
  int epochs_survived = 0;
  std::vector<double> dead_fraction;  // per epoch
};

LifetimeResult simulate(const geom::UnitDiskGraph& udg, std::int32_t k,
                        int max_epochs, bool energy_aware,
                        std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(udg.n());
  std::vector<double> battery(n, 1.0);
  std::vector<std::uint8_t> dead(n, 0);
  constexpr double kHeadCost = 0.06;   // battery burned per epoch as head
  constexpr double kIdleCost = 0.004;  // baseline burn
  util::Rng rng(seed);

  LifetimeResult result;
  for (int epoch = 0; epoch < max_epochs; ++epoch) {
    // Live subgraph and demands.
    std::vector<NodeId> dead_list;
    for (std::size_t v = 0; v < n; ++v) {
      if (dead[v]) dead_list.push_back(static_cast<NodeId>(v));
    }
    const graph::Graph live = udg.graph.without_nodes(dead_list);
    const auto demands = domination::live_demands(
        live, dead_list, domination::uniform_demands(live.n(), k));

    // Elect cluster heads.
    std::vector<NodeId> heads;
    if (energy_aware) {
      algo::NodeWeights weights(n, 1.0);
      for (std::size_t v = 0; v < n; ++v) {
        // Inverse remaining battery (dead nodes are already isolated in
        // `live` and demand nothing).
        weights[v] = 1.0 / std::max(battery[v], 1e-3);
      }
      heads = algo::greedy_kmds(live, demands, weights).set;
    } else {
      heads = algo::greedy_kmds(live, demands).set;
    }

    // Burn energy; kill exhausted nodes.
    std::vector<std::uint8_t> is_head(n, 0);
    for (NodeId h : heads) is_head[static_cast<std::size_t>(h)] = 1;
    std::size_t dead_count = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (!dead[v]) {
        battery[v] -= is_head[v] ? kHeadCost : kIdleCost;
        battery[v] -= rng.uniform(0.0, 0.002);  // environment noise
        if (battery[v] <= 0.0) dead[v] = 1;
      }
      if (dead[v]) ++dead_count;
    }
    const double frac =
        static_cast<double>(dead_count) / static_cast<double>(n);
    result.dead_fraction.push_back(frac);
    result.epochs_survived = epoch + 1;
    if (frac >= 0.20) break;  // network considered dead
  }
  return result;
}

int run(const util::Args& args) {
  const auto n = static_cast<graph::NodeId>(
      args.get_int("n", 1000, 1, std::numeric_limits<graph::NodeId>::max()));
  const auto k = static_cast<std::int32_t>(
      args.get_int("k", 2, 1, std::numeric_limits<std::int32_t>::max()));
  const int epochs = static_cast<int>(
      args.get_int("epochs", 60, 1, std::numeric_limits<int>::max()));
  const std::uint64_t seed = args.get_u64("seed", 7);

  util::Rng rng(seed);
  const auto udg = geom::uniform_udg_with_degree(n, 14.0, rng);
  std::printf(
      "deployment: n=%d, k=%d; heads burn 15x idle power; lifetime ends "
      "when 20%% of nodes die\n\n",
      udg.n(), k);

  const auto blind = simulate(udg, k, epochs, false, seed);
  const auto aware = simulate(udg, k, epochs, true, seed);

  auto print_curve = [&](const char* name, const LifetimeResult& r) {
    std::printf("%-13s lifetime: %3d epochs; dead%% at epoch 10/20/30: ",
                name, r.epochs_survived);
    for (int e : {10, 20, 30}) {
      if (static_cast<std::size_t>(e) <= r.dead_fraction.size()) {
        std::printf("%5.1f%%",
                    100.0 * r.dead_fraction[static_cast<std::size_t>(e - 1)]);
      } else {
        std::printf("    - ");
      }
    }
    std::printf("\n");
  };
  print_curve("weight-blind", blind);
  print_curve("energy-aware", aware);

  std::printf(
      "\nRotating cluster-head duty via the weighted k-MDS extension\n"
      "(costs = 1/battery) extends lifetime by %.0f%%.\n",
      100.0 * (static_cast<double>(aware.epochs_survived) /
                   static_cast<double>(blind.epochs_survived) -
               1.0));
  return aware.epochs_survived >= blind.epochs_survived ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
