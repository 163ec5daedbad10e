// A8 (extension) — self-healing soak: long executions under continuous churn.
//
// Where A4 measures a single offline repair, A8 runs the full robustness
// stack live: every node executes the RepairProcess daemon (heartbeat
// failure detection + 4-round promotion waves) while a fault plan batters
// the network for thousands of rounds. An omniscient observer — measurement
// only, never control — records, per (k, fault regime):
//   * coverage-violation windows (count / mean / max, in rounds) — the
//     repair latency the survivors actually experienced;
//   * windows exceeding the repair threshold (detection timeout + wave
//     bound): these count as self-healing failures and should be zero;
//   * promoted-node overhead vs a full greedy re-cluster of the final live
//     graph (locality of repair);
//   * messages per live node per round — the heartbeat tax. The daemon
//     broadcasts exactly one 1-word message per round (heartbeats ride on
//     protocol words), so this sits at ≈ mean degree point-to-point
//     messages and never grows with k or the fault rate.
#include "bench_common.h"

#include "algo/baseline/greedy.h"
#include "algo/extensions/soak.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "sim/fault.h"
#include "util/rng.h"

int run(const ftc::util::Args& args) {
  using namespace ftc;
  const int seeds = static_cast<int>(args.get_int("seeds", 3, 1, INT32_MAX));
  const auto n =
      static_cast<graph::NodeId>(args.get_int("n", 600, 2, INT32_MAX));
  const auto rounds = args.get_int("rounds", 2000, 0, INT32_MAX);
  const auto k_values = args.get_int_list("k", {1, 2, 3}, 1, INT32_MAX);
  const double loss = args.get_double("loss", 0.05);

  struct Regime {
    const char* name;
    sim::FaultPlan plan;
    double message_loss;
  };
  // Faults stop at 80% of the horizon so the tail shows the healed steady
  // state; downtimes scale with the horizon so smoke configs still rejoin.
  const std::int64_t fault_until = rounds * 4 / 5;
  const std::int64_t down_max = std::max<std::int64_t>(rounds / 10, 20);
  const std::vector<Regime> regimes{
      {"iid", sim::FaultPlan::iid_crashes(0.0005, 0, rounds / 2), 0.0},
      {"churn",
       sim::FaultPlan::churn(0.001, down_max / 4 + 1, down_max, 0,
                             fault_until),
       0.0},
      {"churn+loss",
       sim::FaultPlan::churn(0.001, down_max / 4 + 1, down_max, 0,
                             fault_until),
       loss},
  };

  bench::Output out({"k", "faults", "crash", "rejoin", "viol_win",
                     "mean_w", "max_w", "over_thr", "promo", "|S|", "rebuild",
                     "msg/node/rnd", "suspect", "refuted"},
                    args);

  for (long long k : k_values) {
    for (const Regime& regime : regimes) {
      util::RunningStats crash, rejoin, windows, mean_w, max_w, over, promo,
          set_size, rebuild, msg_rate, suspect, refuted;
      for (int s = 0; s < seeds; ++s) {
        const std::uint64_t seed = 21 + static_cast<std::uint64_t>(s);
        util::Rng rng(seed);
        const auto udg = geom::uniform_udg_with_degree(n, 14.0, rng);
        const graph::Graph& g = udg.graph;
        const auto d = domination::clamp_demands(
            g, domination::uniform_demands(g.n(),
                                           static_cast<std::int32_t>(k)));
        const auto base = algo::greedy_kmds(g, d).set;

        algo::SoakOptions opts;
        opts.rounds = rounds;
        opts.message_loss = regime.message_loss;
        opts.network_seed = seed * 3;
        opts.fault_seed = seed * 7 + 1;
        const auto rep =
            algo::run_soak(g, &udg, d, base, regime.plan, opts);

        crash.add(static_cast<double>(rep.crashes));
        rejoin.add(static_cast<double>(rep.recoveries));
        windows.add(static_cast<double>(rep.violation_windows));
        mean_w.add(rep.mean_violation_window);
        max_w.add(static_cast<double>(rep.max_violation_window));
        over.add(static_cast<double>(rep.windows_over_threshold));
        promo.add(static_cast<double>(rep.promotions));
        set_size.add(static_cast<double>(rep.final_set_size));
        rebuild.add(static_cast<double>(rep.rebuild_set_size));
        msg_rate.add(rep.messages_per_live_node_round);
        suspect.add(static_cast<double>(rep.suspicions_raised));
        refuted.add(static_cast<double>(rep.refuted_suspicions));
      }
      out.row({util::fmt(k), regime.name, util::fmt(crash.mean(), 0),
               util::fmt(rejoin.mean(), 0), util::fmt(windows.mean(), 1),
               util::fmt(mean_w.mean(), 1), util::fmt(max_w.mean(), 0),
               util::fmt(over.mean(), 1), util::fmt(promo.mean(), 0),
               util::fmt(set_size.mean(), 0), util::fmt(rebuild.mean(), 0),
               util::fmt(msg_rate.mean(), 2), util::fmt(suspect.mean(), 0),
               util::fmt(refuted.mean(), 0)});
    }
    out.rule();
  }

  out.print(
      "A8 (extension) - self-healing soak under continuous churn\n"
      "uniform UDG n=" + std::to_string(n) + ", " +
      std::to_string(rounds) + " rounds, RepairProcess daemons, " +
      std::to_string(seeds) + " seeds");
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
