// Self-healing backbone under continuous churn — the distributed answer to
// the scenario sensor_backbone.cpp handles with periodic re-clustering.
//
//   ./soak_selfheal [--n=800] [--k=2] [--rounds=3000] [--loss=0.05]
//                   [--threads=1] [--trace=soak.trace] [--metrics=soak.json]
//
// With --trace the run records the observability plane (DESIGN.md §7):
// crashes, suspicions, promotion waves and engine phases land in a Chrome
// trace_event file (open in Perfetto / about:tracing) plus a deterministic
// JSONL stream at <path>.jsonl; --metrics dumps the metric registry.
//
// Every node runs the RepairProcess daemon: heartbeats piggyback on the
// protocol's one word per round, a timeout failure detector flags dead
// neighbors, and 4-round promotion waves locally elect replacements. A
// churn fault plan crashes nodes and rejoins them (with reset state) for
// the whole run; no central coordinator ever intervenes. The printed report
// shows how long coverage holes actually lasted, whether any hole outlived
// the repair threshold (a self-healing failure), and what the backbone
// looks like at the end compared to a from-scratch re-cluster.
#include <cstdio>
#include <limits>
#include <string>

#include "algo/baseline/greedy.h"
#include "algo/extensions/soak.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "obs/plane.h"
#include "sim/fault.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

/// Cap on --threads (0 = one per hardware thread): a guard against a
/// typo asking for thousands of threads, far above any useful width.
constexpr long long kMaxThreads = 256;

int run(const ftc::util::Args& args) {
  using namespace ftc;
  const auto n = static_cast<graph::NodeId>(
      args.get_int("n", 800, 1, std::numeric_limits<graph::NodeId>::max()));
  const auto k = static_cast<std::int32_t>(
      args.get_int("k", 2, 1, std::numeric_limits<std::int32_t>::max()));
  const auto rounds =
      args.get_int("rounds", 3000, 0, std::numeric_limits<std::int64_t>::max());
  const double loss = args.get_double("loss", 0.05);
  const auto threads = static_cast<int>(
      args.get_int("threads", 1, 0, kMaxThreads));
  const util::ObsFlags obs_flags = util::parse_obs_flags(args);
  const auto plane = obs::make_plane(obs_flags);

  util::Rng rng(42);
  const auto udg = geom::uniform_udg_with_degree(n, 14.0, rng);
  const graph::Graph& g = udg.graph;
  const auto demands =
      domination::clamp_demands(g, domination::uniform_demands(g.n(), k));
  const auto base = algo::greedy_kmds(g, demands).set;

  // Nodes crash at ~0.1% per round and come back 40-200 rounds later; the
  // last 400 rounds are fault-free so the final backbone is fully healed.
  const auto plan =
      sim::FaultPlan::churn(0.001, 40, 200, 0,
                            rounds > 400 ? rounds - 400 : rounds);

  algo::SoakOptions opts;
  opts.rounds = rounds;
  opts.message_loss = loss;
  opts.threads = threads;
  opts.plane = plane.get();
  if (loss >= 0.1) {
    // Lossy radios: consecutive-timeout detection mistakes a short drop
    // streak for a crash, flooding the repair daemon with false waves.
    // M-of-N windowed detection forgives isolated drops and still bounds
    // crash-detection latency by the window.
    opts.detection.window = 12;
    opts.detection.misses_to_suspect = 9;
  }
  const auto rep = algo::run_soak(g, &udg, demands, base, plan, opts);
  if (plane != nullptr) obs::export_plane(*plane, obs_flags);

  std::printf("self-healing soak: n=%d k=%d rounds=%lld loss=%.0f%%\n",
              static_cast<int>(n), static_cast<int>(k),
              static_cast<long long>(rounds), 100.0 * loss);
  std::printf("  initial backbone          %zu nodes\n", base.size());
  std::printf("  faults                    %lld crashes, %lld rejoins\n",
              static_cast<long long>(rep.crashes),
              static_cast<long long>(rep.recoveries));
  std::printf("  coverage violations       %lld windows, mean %.1f rounds, "
              "max %lld\n",
              static_cast<long long>(rep.violation_windows),
              rep.mean_violation_window,
              static_cast<long long>(rep.max_violation_window));
  std::printf("  repair threshold          %lld rounds "
              "(timeout + wave bound)\n",
              static_cast<long long>(rep.repair_threshold));
  std::printf("  unrepaired violations     %lld%s\n",
              static_cast<long long>(rep.windows_over_threshold),
              rep.windows_over_threshold == 0 ? "  (self-healing held)"
                                              : "  (PROTOCOL FAILED)");
  std::printf("  promotions                %lld over the whole run\n",
              static_cast<long long>(rep.promotions));
  std::printf("  final backbone            %lld members on %lld live nodes "
              "(fresh re-cluster: %lld)\n",
              static_cast<long long>(rep.final_set_size),
              static_cast<long long>(rep.final_live),
              static_cast<long long>(rep.rebuild_set_size));
  std::printf("  message cost              %.2f msgs/node/round "
              "(heartbeats ride on protocol words)\n",
              rep.messages_per_live_node_round);
  std::printf("  failure detector          %lld suspicions, %lld refuted\n",
              static_cast<long long>(rep.suspicions_raised),
              static_cast<long long>(rep.refuted_suspicions));
  return rep.windows_over_threshold == 0 && rep.final_unsatisfied == 0 ? 0
                                                                       : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
