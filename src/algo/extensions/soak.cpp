#include "algo/extensions/soak.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "algo/baseline/greedy.h"
#include "algo/extensions/repair_process.h"
#include "sim/network.h"

namespace ftc::algo {

using graph::NodeId;

SoakReport run_soak(const graph::Graph& g, const geom::UnitDiskGraph* udg,
                    const domination::Demands& demands,
                    std::span<const NodeId> initial_set,
                    const sim::FaultPlan& plan, const SoakOptions& options) {
  assert(static_cast<NodeId>(demands.size()) == g.n());
  const auto n = static_cast<std::size_t>(g.n());

  SoakReport report;
  std::int32_t max_demand = 0;
  for (std::int32_t k : demands) max_demand = std::max(max_demand, k);
  // Detection latency: the timeout, or up to a full window when one is set
  // (a crash is suspected once the required misses accumulate, at worst
  // detection_window rounds later).
  const std::int64_t detection_latency =
      options.detection_window > 0
          ? std::max<std::int64_t>(options.detection_timeout,
                                   options.detection_window)
          : options.detection_timeout;
  report.repair_threshold =
      detection_latency +
      kRepairRoundsPerWave * (static_cast<std::int64_t>(max_demand) + 3);

  std::vector<std::uint8_t> initial_member(n, 0);
  for (NodeId v : initial_set) initial_member[static_cast<std::size_t>(v)] = 1;

  RepairProcessOptions popts;
  popts.detection_timeout = options.detection_timeout;
  popts.detection_window = options.detection_window;
  popts.detection_misses = options.detection_misses;

  // Build from the embedding when one is provided so region fault plans can
  // see it; the repair protocol itself never uses distances.
  assert(udg == nullptr || &udg->graph == &g);
  const auto net_holder =
      udg != nullptr
          ? std::make_unique<sim::SyncNetwork>(*udg, options.network_seed)
          : std::make_unique<sim::SyncNetwork>(g, options.network_seed);
  sim::SyncNetwork& net = *net_holder;
  if (options.plane != nullptr) net.set_observability(options.plane);
  if (options.threads > 1) net.set_threads(options.threads);
  if (options.message_loss > 0.0) {
    net.set_channel({.loss = options.message_loss,
                     .seed = options.fault_seed ^ 0x6C6F7373ULL});
  }
  net.set_all_processes([&](NodeId v) {
    return std::make_unique<RepairProcess>(
        demands[static_cast<std::size_t>(v)],
        initial_member[static_cast<std::size_t>(v)] != 0, popts);
  });

  // Rejoining nodes boot as fresh non-members and re-request coverage
  // through the normal deficiency path.
  sim::FaultInjector injector(plan, options.fault_seed);
  injector.install(net, options.rounds, [&](NodeId v) {
    return std::make_unique<RepairProcess>(
        demands[static_cast<std::size_t>(v)], false, popts);
  });
  report.crashes = injector.crash_count();
  report.recoveries = injector.recovery_count();

  // Omniscient per-round observation (measurement only).
  std::vector<std::uint8_t> prev_member = initial_member;
  std::vector<std::uint8_t> was_crashed(n, 0);
  std::vector<std::int64_t> seen_suspicions(n, 0);
  std::vector<std::int64_t> seen_refuted(n, 0);
  std::vector<std::uint8_t> member_now(n, 0);
  std::int64_t window_length = 0;
  double window_length_sum = 0.0;

  auto coverage_violated = [&]() {
    // Direct per-node check against demands clamped to the live closed
    // neighborhood — O(m), no graph rebuild.
    for (NodeId v = 0; v < g.n(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (net.crashed(v)) continue;
      std::int32_t live_nbrs = 0;
      std::int32_t covered = 0;
      for (NodeId w : g.neighbors(v)) {
        if (net.crashed(w)) continue;
        ++live_nbrs;
        if (member_now[static_cast<std::size_t>(w)]) ++covered;
      }
      if (member_now[vi]) ++covered;
      if (covered < std::min(demands[vi], live_nbrs + 1)) return true;
    }
    return false;
  };

  for (std::int64_t r = 0; r < options.rounds; ++r) {
    net.step();

    std::int64_t round_promotions = 0;
    for (NodeId v = 0; v < g.n(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (net.crashed(v)) {
        was_crashed[vi] = 1;
        prev_member[vi] = 0;
        member_now[vi] = 0;
        continue;
      }
      auto& p = net.process_as<RepairProcess>(v);
      if (was_crashed[vi]) {
        // Fresh process after a rejoin: its counters restarted at zero.
        was_crashed[vi] = 0;
        seen_suspicions[vi] = 0;
        seen_refuted[vi] = 0;
      }
      member_now[vi] = p.member() ? 1 : 0;
      if (member_now[vi] && !prev_member[vi]) {
        ++report.promotions;
        ++round_promotions;
      }
      prev_member[vi] = member_now[vi];
      report.suspicions_raised += p.monitor().suspicions_raised() -
                                  seen_suspicions[vi];
      seen_suspicions[vi] = p.monitor().suspicions_raised();
      report.refuted_suspicions += p.monitor().refuted_suspicions() -
                                   seen_refuted[vi];
      seen_refuted[vi] = p.monitor().refuted_suspicions();
    }

    // Promotions only land in the P0 (member) phase; a non-empty P0 round
    // is one completed repair wave. The observer sees global wave sizes the
    // per-node processes cannot, so the histogram is published from here.
    if (options.plane != nullptr && round_promotions > 0 && r % 4 == 0) {
      obs::Plane& pl = *options.plane;
      pl.metrics().add(pl.builtin().repair_waves, 1);
      pl.metrics().record(pl.builtin().wave_joins,
                          static_cast<double>(round_promotions));
    }

    if (coverage_violated()) {
      ++report.violation_rounds;
      ++window_length;
    } else if (window_length > 0) {
      ++report.violation_windows;
      report.max_violation_window =
          std::max(report.max_violation_window, window_length);
      if (window_length > report.repair_threshold) {
        ++report.windows_over_threshold;
      }
      window_length_sum += static_cast<double>(window_length);
      window_length = 0;
    }
  }
  if (window_length > 0) {
    report.violated_at_end = true;
    ++report.violation_windows;
    report.max_violation_window =
        std::max(report.max_violation_window, window_length);
    if (window_length > report.repair_threshold) {
      ++report.windows_over_threshold;
    }
    window_length_sum += static_cast<double>(window_length);
  }

  report.rounds = options.rounds;
  report.mean_violation_window =
      report.violation_windows == 0
          ? 0.0
          : window_length_sum / static_cast<double>(report.violation_windows);

  std::vector<NodeId> crashed_final;
  std::vector<NodeId> final_set;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (net.crashed(v)) {
      crashed_final.push_back(v);
      continue;
    }
    ++report.final_live;
    const auto& p = net.process_as<RepairProcess>(v);
    if (p.member()) final_set.push_back(v);
    if (p.unsatisfied()) ++report.final_unsatisfied;
  }
  report.final_set_size = static_cast<std::int64_t>(final_set.size());

  const graph::Graph live = g.without_nodes(crashed_final);
  const auto live_demands =
      domination::live_demands(live, crashed_final, demands);
  report.rebuild_set_size = static_cast<std::int64_t>(
      greedy_kmds(live, live_demands).set.size());

  report.messages_sent = net.metrics().messages_sent;
  report.words_sent = net.metrics().words_sent;
  // Every live node broadcasts one word to each neighbor per round; this is
  // the combined heartbeat + repair-protocol cost (~average live degree).
  const double node_rounds =
      static_cast<double>(report.rounds) * static_cast<double>(g.n());
  report.messages_per_live_node_round =
      node_rounds == 0.0
          ? 0.0
          : static_cast<double>(report.messages_sent) / node_rounds;

  return report;
}

}  // namespace ftc::algo
