// Mobile ad hoc network: how long does a clustering stay valid under node
// motion? — the third robustness concern of the paper's introduction.
//
//   ./mobility_recluster [--n=800] [--steps=10] [--speed=0.35]
//
// Nodes perform a bounded random walk. At epoch 0 we build one k-fold
// backbone per k ∈ {1, 3} (lean greedy construction) and then NEVER update
// it while nodes move. Each epoch we rebuild the unit disk graph from the
// new positions and measure how many non-backbone nodes still have a
// backbone neighbor — i.e., how gracefully the stale clustering decays.
// The k=3 backbone decays far more slowly: a moving node must walk out of
// range of *all three* of its dominators before it is orphaned.
//
// Afterwards the network re-clusters with Algorithm 3, whose O(log log n)
// round complexity is what makes frequent re-clustering affordable.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "algo/baseline/greedy.h"
#include "algo/udg/udg_kmds.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using namespace ftc;

std::vector<graph::NodeId> greedy_backbone(const graph::Graph& g,
                                           std::int32_t k) {
  const auto demands =
      domination::clamp_demands(g, domination::uniform_demands(g.n(), k));
  return algo::greedy_kmds(g, demands).set;
}

double stale_coverage(const geom::UnitDiskGraph& now,
                      const std::vector<graph::NodeId>& backbone) {
  const auto members = domination::to_membership(now.graph, backbone);
  const auto cover = domination::closed_coverage_counts(now.graph, members);
  std::int64_t ok = 0, want = 0;
  for (graph::NodeId v = 0; v < now.n(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (members[i]) continue;
    ++want;
    if (cover[i] >= 1) ++ok;
  }
  return want == 0 ? 1.0
                   : static_cast<double>(ok) / static_cast<double>(want);
}

int run(const util::Args& args) {
  const auto n = static_cast<graph::NodeId>(
      args.get_int("n", 800, 1, std::numeric_limits<graph::NodeId>::max()));
  const int steps = static_cast<int>(
      args.get_int("steps", 10, 0, std::numeric_limits<int>::max()));
  const double speed = args.get_double("speed", 0.35);
  const std::uint64_t seed = args.get_u64("seed", 11);

  util::Rng rng(seed);
  auto udg = geom::uniform_udg_with_degree(n, 12.0, rng);
  double side = 0.0;
  for (const auto& p : udg.positions) side = std::max({side, p.x, p.y});

  const auto backbone1 = greedy_backbone(udg.graph, 1);
  const auto backbone3 = greedy_backbone(udg.graph, 3);
  std::printf(
      "mobile network: n=%d, side=%.1f, node speed=%.2f per epoch\n"
      "stale backbones built at epoch 0: k=1 -> %zu nodes, k=3 -> %zu "
      "nodes\n\n",
      n, side, speed, backbone1.size(), backbone3.size());
  std::printf("epoch | covered by stale k=1 | covered by stale k=3\n");

  for (int step = 0; step <= steps; ++step) {
    if (step > 0) {
      for (auto& p : udg.positions) {
        p.x = std::clamp(p.x + rng.uniform(-speed, speed), 0.0, side);
        p.y = std::clamp(p.y + rng.uniform(-speed, speed), 0.0, side);
      }
      udg = geom::build_udg(std::move(udg.positions), udg.radius);
    }
    std::printf("%5d | %19.1f%% | %19.1f%%\n", step,
                100.0 * stale_coverage(udg, backbone1),
                100.0 * stale_coverage(udg, backbone3));
  }

  // Re-clustering with Algorithm 3: cheap enough to run every few epochs.
  algo::UdgOptions opts;
  opts.k = 3;
  const auto fresh = algo::solve_udg_kmds(udg, opts, seed + 99);
  std::printf(
      "\nre-clustering the moved network with Algorithm 3: %zu leaders in "
      "%lld Part-I rounds\n(O(log log n) - cheap enough to repeat every few "
      "epochs)\n",
      fresh.leaders.size(), static_cast<long long>(fresh.part1_rounds));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
