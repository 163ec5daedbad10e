#include "testing/invariants.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "algo/baseline/greedy.h"
#include "algo/exact/exact.h"
#include "algo/extensions/repair.h"
#include "algo/extensions/repair_process.h"
#include "algo/lp/lp_kmds.h"
#include "algo/lp/lp_kmds_process.h"
#include "algo/rounding/rounding.h"
#include "algo/rounding/rounding_process.h"
#include "algo/udg/udg_kmds.h"
#include "algo/udg/udg_kmds_process.h"
#include "domination/bounds.h"
#include "domination/fractional.h"
#include "domination/kernels.h"
#include "testing/dynamic.h"
#include "util/rng.h"
#include "obs/plane.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/synchronizer.h"
#include "sim/transport.h"

namespace ftc::testing {

using domination::Demands;
using graph::Graph;
using graph::NodeId;

namespace {

constexpr double kEps = 1e-6;

void add(Violations& out, const char* invariant, std::string detail) {
  out.push_back({invariant, std::move(detail)});
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

// ---------------------------------------------------------------- LP + rounding

/// k-coverage of an integral set under the LP (closed-neighborhood)
/// definition, through the packed kernels with the case's scratch. `who`
/// labels the producing subsystem in the invariant name ("rounding",
/// "repair", ...).
void check_coverage_invariant(const Graph& g, const Demands& demands,
                              const std::vector<NodeId>& set, const char* who,
                              Violations& out,
                              domination::CoverageScratch& scratch) {
  const auto deficit = domination::deficiency(
      g, set, demands, domination::Mode::kClosedNeighborhood, scratch);
  if (deficit != 0) {
    add(out, (std::string(who) + ".coverage").c_str(),
        "total coverage shortfall " + std::to_string(deficit) + " with |set|=" +
            std::to_string(set.size()));
  }
}

/// Theorem 4.5 battery over an Algorithm 1 result.
void check_lp_invariants(const Graph& g, const Demands& demands,
                         const algo::LpResult& lp, int t, Violations& out) {
  if (!domination::primal_feasible(g, lp.primal, demands, kEps)) {
    add(out, "lp.primal_feasible",
        "max violation " + fmt(domination::max_primal_violation(
                               g, lp.primal, demands)));
  }
  if (lp.max_lemma41_ratio > 1.0 + 1e-9) {
    add(out, "lp.lemma41", "ratio " + fmt(lp.max_lemma41_ratio));
  }
  auto scaled = lp.scaled_dual();
  domination::clamp_tiny_negatives(scaled.y);
  domination::clamp_tiny_negatives(scaled.z);
  if (!domination::dual_feasible(g, scaled, kEps)) {
    add(out, "lp.dual_feasible",
        "max LHS " + fmt(domination::max_dual_lhs(g, scaled)));
  }
  const double primal_obj = lp.primal.objective();
  const double dual_obj = lp.dual_bound(demands);
  if (dual_obj > primal_obj + kEps) {
    add(out, "lp.weak_duality",
        "dual " + fmt(dual_obj) + " > primal " + fmt(primal_obj));
  }
  const double lower =
      domination::best_lower_bound(g, demands, 0, dual_obj);
  if (lower > 0.0 &&
      primal_obj > algo::theorem45_bound(t, g.max_degree()) * lower + kEps) {
    add(out, "lp.theorem45_ratio",
        "primal " + fmt(primal_obj) + " > bound*lower " +
            fmt(algo::theorem45_bound(t, g.max_degree()) * lower));
  }
}

void check_rounding_result(const Graph& g, const Demands& demands,
                           const algo::RoundingResult& r,
                           domination::CoverageScratch& scratch,
                           Violations& out) {
  check_coverage_invariant(g, demands, r.set, "rounding", out, scratch);
  if (!std::is_sorted(r.set.begin(), r.set.end()) ||
      std::adjacent_find(r.set.begin(), r.set.end()) != r.set.end()) {
    add(out, "rounding.set_canonical", "set not sorted/unique");
  }
  for (NodeId v : r.set) {
    if (v < 0 || v >= g.n()) {
      add(out, "rounding.set_canonical", "member id out of range");
      break;
    }
  }
  if (r.chosen_by_coin + r.chosen_by_request !=
      static_cast<std::int64_t>(r.set.size())) {
    add(out, "rounding.accounting",
        "coin + request != |set|: " + std::to_string(r.chosen_by_coin) + "+" +
            std::to_string(r.chosen_by_request) + " vs " +
            std::to_string(r.set.size()));
  }
}

// ------------------------------------------------------------- distributed runs

/// Returns true iff two LpResults are bitwise-identical in every field the
/// solver contract covers.
bool lp_results_equal(const algo::LpResult& a, const algo::LpResult& b) {
  return a.primal.x == b.primal.x && a.dual.y == b.dual.y &&
         a.dual.z == b.dual.z && a.kappa == b.kappa && a.rounds == b.rounds &&
         a.max_lemma41_ratio == b.max_lemma41_ratio;
}

/// Sets up `net` as every fuzz protocol run does: `threads` engine streams,
/// the pool forced (fuzz sizes are tiny), and the channel if it impairs.
void configure(sim::SyncNetwork& net, int threads,
               const sim::ChannelOptions& channel) {
  net.set_threads(threads);
  net.set_parallel_grain(0);
  if (channel.impaired()) net.set_channel(channel);
}

/// term.lp / term.rounding: Algorithms 1 and 2 are round-driven, so they
/// run exactly their closed-form round count on any channel (and as many
/// pulses under any delay schedule).
void check_rounds(const char* invariant, const char* run,
                  std::int64_t executed, std::int64_t expected,
                  Violations& out) {
  if (executed != expected) {
    add(out, invariant,
        std::string(run) + " run took " + std::to_string(executed) +
            " rounds, schedule is " + std::to_string(expected));
  }
}

void check_differential(const FuzzCase& c, const Graph& g,
                        const Demands& demands, const algo::LpResult& mirror_lp,
                        const algo::RoundingResult& mirror_rounding,
                        Violations& out) {
  const auto run_lp = [&](int threads, const sim::ChannelOptions& channel) {
    sim::SyncNetwork net(g, c.algo_seed);
    configure(net, threads, channel);
    return std::pair{algo::run_lp_processes(net, demands, c.t),
                     net.metrics()};
  };
  const auto run_rounding = [&](int threads) {
    sim::SyncNetwork net(g, c.algo_seed);
    configure(net, threads, sim::ChannelOptions{});
    return std::pair{
        algo::run_rounding_processes(net, mirror_lp.primal.x, demands),
        net.metrics()};
  };

  // Mirror vs distributed (clean-channel contract): the per-node processes
  // must reproduce the centralized mirror bit for bit.
  const sim::ChannelOptions channel = channel_from_case(c);
  if (!channel.impaired()) {
    const auto [lp, lp_metrics] = run_lp(1, sim::ChannelOptions{});
    if (lp.primal.x != mirror_lp.primal.x || lp.dual.y != mirror_lp.dual.y ||
        lp.dual.z != mirror_lp.dual.z) {
      add(out, "lp.differential", "distributed LP != centralized mirror");
    }
    check_rounds("term.lp", "clean", lp.rounds, algo::lp_round_count(c.t),
                 out);
    if (lp_metrics.max_message_words > 3) {
      add(out, "lp.message_bound",
          "LP message exceeded 3 words: " +
              std::to_string(lp_metrics.max_message_words));
    }
    if (c.threads > 1) {
      const auto [par, par_metrics] = run_lp(c.threads, sim::ChannelOptions{});
      if (!lp_results_equal(par, lp) || par_metrics != lp_metrics) {
        add(out, "engine.lp_parallel",
            "LP run differs at threads=" + std::to_string(c.threads));
      }
    }

    const auto [rounding, r_metrics] = run_rounding(1);
    if (rounding.set != mirror_rounding.set) {
      add(out, "rounding.differential",
          "distributed rounding != centralized mirror (" +
              std::to_string(rounding.set.size()) + " vs " +
              std::to_string(mirror_rounding.set.size()) + " members)");
    }
    if (r_metrics.max_message_words > 1) {
      add(out, "rounding.message_bound",
          "rounding message exceeded 1 word: " +
              std::to_string(r_metrics.max_message_words));
    }
    check_rounds("term.rounding", "clean", rounding.rounds,
                 algo::kRoundingRounds, out);
    if (c.threads > 1) {
      const auto [par, par_metrics] = run_rounding(c.threads);
      if (par.set != rounding.set || par.rounds != rounding.rounds ||
          par_metrics != r_metrics) {
        add(out, "engine.rounding_parallel",
            "rounding run differs at threads=" + std::to_string(c.threads));
      }
    }
  } else if (c.threads > 1) {
    // Under an impaired channel the outcome is channel-seed-dependent but
    // still a pure function of the case: the engine must stay
    // width-invariant through loss, duplication, and reordering, and the
    // round-driven schedule must not stretch.
    const auto [lp, lp_metrics] = run_lp(1, channel);
    const auto [par, par_metrics] = run_lp(c.threads, channel);
    check_rounds("term.lp", "impaired", lp.rounds, algo::lp_round_count(c.t),
                 out);
    if (!lp_results_equal(par, lp) || par_metrics != lp_metrics) {
      add(out, "engine.lp_parallel",
          "impaired LP run differs at threads=" + std::to_string(c.threads));
    }
  }
}

// -------------------------------------------------------------- small oracles

void check_small_oracles(const FuzzCase& /*c*/, const Graph& g,
                         const Demands& demands, const algo::LpResult& lp,
                         const algo::RoundingResult& rounding,
                         const algo::GreedyResult& greedy,
                         domination::CoverageScratch& scratch,
                         Violations& out) {
  algo::ExactOptions eopts;
  eopts.node_budget = 300'000;
  const auto exact = algo::exact_kmds(g, demands, eopts);
  if (!exact.feasible) {
    // clamp_demands guarantees feasibility; an infeasible verdict is a bug.
    add(out, "oracle.exact_feasible",
        "exact solver declared a clamped instance infeasible");
    return;
  }
  check_coverage_invariant(g, demands, exact.set, "oracle.exact", out,
                           scratch);
  check_coverage_invariant(g, demands, greedy.set, "oracle.greedy", out,
                           scratch);
  if (!exact.optimal) return;  // budget exhausted: orderings not guaranteed

  const auto opt = static_cast<double>(exact.set.size());
  if (static_cast<double>(greedy.set.size()) <
      opt - kEps) {
    add(out, "oracle.exact_optimal",
        "greedy beat the 'optimal' exact solution: " +
            std::to_string(greedy.set.size()) + " < " +
            std::to_string(exact.set.size()));
  }
  if (static_cast<double>(rounding.set.size()) < opt - kEps) {
    add(out, "oracle.exact_optimal",
        "rounding beat the 'optimal' exact solution");
  }
  // Greedy's H(Δ+1) guarantee, checked against true OPT.
  const double h_bound =
      domination::harmonic(static_cast<std::int64_t>(g.max_degree()) + 1);
  if (static_cast<double>(greedy.set.size()) > h_bound * opt + kEps) {
    add(out, "oracle.greedy_ratio",
        "greedy exceeded H(D+1)*OPT: " + std::to_string(greedy.set.size()) +
            " > " + fmt(h_bound * opt));
  }
  // Weak duality against true OPT (stronger than against the primal).
  if (lp.dual_bound(demands) > opt + 1e-4) {
    add(out, "lp.weak_duality_vs_opt",
        "dual bound " + fmt(lp.dual_bound(demands)) + " exceeds OPT " +
            fmt(opt));
  }
  // The fractional optimum lower-bounds the integral one.
  if (lp.primal.objective() > 0.0 &&
      static_cast<double>(exact.set.size()) <
          lp.dual_bound(demands) - 1e-4) {
    add(out, "oracle.bound_order", "OPT below the weak-duality bound");
  }
}

// ---------------------------------------------------------- synchronizer

/// The α-synchronizer must make the delay schedule unobservable: under any
/// (max_delay, delay_seed), at the case's engine width, Algorithms 1 and 2
/// reproduce their mirrors and Algorithm 3 its synchronous run bit for bit,
/// each in exactly the synchronous number of pulses.
void check_async(const FuzzCase& c, const Instance& inst,
                 const Demands& demands, const algo::LpResult& mirror_lp,
                 const algo::RoundingResult& mirror_rounding, Violations& out) {
  const algo::UdgOptions udg_opts{.k = c.k};
  algo::UdgResult sync_udg;
  std::int64_t sync_udg_rounds = 0;
  if (inst.has_udg) {
    sim::SyncNetwork net(inst.udg, c.algo_seed);
    configure(net, c.threads, sim::ChannelOptions{});
    sync_udg = algo::run_udg_processes(net, udg_opts);
    sync_udg_rounds = net.round();
  }
  const std::uint64_t delay_seeds[] = {c.delay_seed,
                                       c.delay_seed ^ 0x5DEECE66DULL};
  for (const std::uint64_t dseed : delay_seeds) {
    const auto network = [&](const auto& topology) {
      auto net = std::make_unique<sim::SynchronizedNetwork>(
          topology, c.algo_seed, c.max_delay, dseed);
      configure(net->network(), c.threads, sim::ChannelOptions{});
      return net;
    };
    const auto changed = [&](const char* what) {
      add(out, "engine.async_schedule",
          "synchronizer schedule (delay_seed=" + std::to_string(dseed) +
              ") changed the " + what + " output");
    };
    const auto lp =
        algo::run_lp_processes(*network(inst.graph()), demands, c.t);
    check_rounds("term.lp", "synchronized", lp.rounds,
                 algo::lp_round_count(c.t), out);
    if (lp.primal.x != mirror_lp.primal.x || lp.dual.y != mirror_lp.dual.y ||
        lp.dual.z != mirror_lp.dual.z) {
      changed("LP");
    }
    const auto rounding = algo::run_rounding_processes(
        *network(inst.graph()), mirror_lp.primal.x, demands);
    check_rounds("term.rounding", "synchronized", rounding.rounds,
                 algo::kRoundingRounds, out);
    if (rounding.set != mirror_rounding.set) changed("rounding");
    if (!inst.has_udg) continue;
    const auto udg_net = network(inst.udg);
    const auto udg = algo::run_udg_processes(*udg_net, udg_opts);
    check_rounds("term.udg", "synchronized", udg_net->metrics().pulses,
                 sync_udg_rounds, out);
    if (udg.leaders != sync_udg.leaders ||
        udg.part1_leaders != sync_udg.part1_leaders) {
      changed("Algorithm 3");
    }
  }
}

// ------------------------------------------------------------------- UDG

void check_udg(const FuzzCase& c, const geom::UnitDiskGraph& udg,
               domination::CoverageScratch& scratch, Violations& out) {
  const Graph& g = udg.graph;
  algo::UdgOptions opts;
  opts.k = c.k;
  const auto mirror = algo::solve_udg_kmds(udg, opts, c.algo_seed);

  // Lemma 5.1: Part-I leaders form an ordinary dominating set.
  if (!domination::is_k_dominating(g, mirror.part1_leaders,
                                   domination::uniform_demands(g.n(), 1),
                                   domination::Mode::kOpenForNonMembers,
                                   scratch)) {
    add(out, "udg.part1_dominates",
        "Part-I leaders are not a dominating set");
  }
  // Theorem 5.7: the extended set k-covers every non-member (paper
  // definition) whenever the instance was satisfiable.
  if (mirror.fully_satisfied &&
      !domination::is_k_dominating(g, mirror.leaders,
                                   domination::uniform_demands(g.n(), c.k),
                                   domination::Mode::kOpenForNonMembers,
                                   scratch)) {
    add(out, "udg.coverage",
        "Algorithm 3 output misses open-mode k-coverage (k=" +
            std::to_string(c.k) + ")");
  }
  // Part II only promotes: leaders ⊇ part1_leaders.
  if (!std::includes(mirror.leaders.begin(), mirror.leaders.end(),
                     mirror.part1_leaders.begin(),
                     mirror.part1_leaders.end())) {
    add(out, "udg.monotone_promotion",
        "Part II dropped a Part-I leader");
  }

  if (!c.run_differential) return;
  const std::int64_t budget = algo::udg_round_budget(g.n(), opts);
  for (const int threads : {1, c.threads}) {
    sim::SyncNetwork net(udg, c.algo_seed);
    configure(net, threads, sim::ChannelOptions{});
    const auto dist = algo::run_udg_processes(net, opts);
    if (net.round() >= budget) {
      add(out, "term.udg",
          "distributed Algorithm 3 failed to halt in " +
              std::to_string(budget) + " rounds (threads=" +
              std::to_string(threads) + ")");
      continue;
    }
    if (dist.leaders != mirror.leaders) {
      add(out, "udg.differential",
          "distributed leader set != mirror (threads=" +
              std::to_string(threads) + ")");
    }
    if (threads == c.threads) break;  // threads == 1: single iteration
  }
}

// ----------------------------------------------------------------- repair

struct RepairRun {
  std::vector<NodeId> final_set;
  std::int64_t promoted = 0;
  std::int64_t unsatisfied = 0;
  std::vector<bool> crashed;
  sim::Metrics metrics;

  friend bool operator==(const RepairRun&, const RepairRun&) = default;
};

sim::FaultPlan build_fault_plan(const FuzzCase& c,
                                const geom::UnitDiskGraph* udg) {
  switch (c.fault_kind) {
    case FaultKind::kNone:
      return sim::FaultPlan::none();
    case FaultKind::kIid:
      return sim::FaultPlan::iid_crashes(c.fault_rate, 0, c.horizon);
    case FaultKind::kTargeted:
      return sim::FaultPlan::targeted_by_degree(std::max<NodeId>(1, c.fault_count),
                                                c.horizon / 2);
    case FaultKind::kChurn:
      return sim::FaultPlan::churn(c.fault_rate, 2, 6, 0, c.horizon);
    case FaultKind::kRegion:
      if (udg == nullptr) {  // shrinker may have changed the family
        return sim::FaultPlan::targeted_by_degree(
            std::max<NodeId>(1, c.fault_count), c.horizon / 2);
      }
      return sim::FaultPlan::region(
          udg->positions[static_cast<std::size_t>(
              c.fault_seed % static_cast<std::uint64_t>(udg->n()))],
          1.0, c.horizon / 2);
  }
  return sim::FaultPlan::none();
}

RepairRun run_repair(const FuzzCase& c, const Instance& inst,
                     const std::vector<std::uint8_t>& base_member,
                     const Demands& demands, int threads,
                     std::vector<NodeId>* failed_out) {
  const Graph& g = inst.graph();
  const sim::HeartbeatMonitor::Options detection{.timeout = 3};
  auto make_process = [&](NodeId v, bool member) {
    return std::make_unique<algo::RepairProcess>(
        demands[static_cast<std::size_t>(v)], member, detection);
  };

  std::unique_ptr<sim::SyncNetwork> net;
  if (inst.has_udg) {
    net = std::make_unique<sim::SyncNetwork>(inst.udg, c.algo_seed);
  } else {
    net = std::make_unique<sim::SyncNetwork>(inst.g, c.algo_seed);
  }
  net->set_threads(threads);
  net->set_parallel_grain(0);
  sim::ChannelOptions channel = channel_from_case(c);
  if (channel.impaired()) {
    channel.seed = c.algo_seed ^ 0xC0FFEEULL;
    net->set_channel(channel);
  }
  net->set_all_processes([&](NodeId v) {
    return make_process(v, base_member[static_cast<std::size_t>(v)] != 0);
  });

  sim::FaultInjector injector(
      build_fault_plan(c, inst.has_udg ? &inst.udg : nullptr), c.fault_seed);
  const auto& schedule = injector.install(
      *net, c.horizon, [&](NodeId v) { return make_process(v, false); });
  if (failed_out != nullptr) {
    for (const sim::FaultEvent& e : schedule) {
      if (!e.recover) failed_out->push_back(e.node);
    }
  }

  net->run(c.horizon + 80);
  RepairRun run;
  for (NodeId v = 0; v < g.n(); ++v) {
    run.crashed.push_back(net->crashed(v));
    if (net->crashed(v)) continue;
    const auto& p = net->process_as<algo::RepairProcess>(v);
    if (p.member()) {
      run.final_set.push_back(v);
      if (!base_member[static_cast<std::size_t>(v)]) ++run.promoted;
    }
    if (p.unsatisfied()) ++run.unsatisfied;
  }
  run.metrics = net->metrics();
  return run;
}

void check_repair(const FuzzCase& c, const Instance& inst,
                  const std::vector<NodeId>& base,
                  domination::CoverageScratch& scratch, Violations& out) {
  const Graph& g = inst.graph();
  const Demands& demands = inst.demands;
  std::vector<std::uint8_t> base_member(static_cast<std::size_t>(g.n()), 0);
  for (NodeId v : base) base_member[static_cast<std::size_t>(v)] = 1;

  std::vector<NodeId> failed;
  const RepairRun serial = run_repair(c, inst, base_member, demands, 1, &failed);

  // Serial-vs-parallel equality holds for every fault modality and loss
  // rate — the engine contract is unconditional.
  if (c.threads > 1) {
    const RepairRun parallel =
        run_repair(c, inst, base_member, demands, c.threads, nullptr);
    if (parallel != serial) {
      add(out, "engine.repair_parallel",
          "repair run differs at threads=" + std::to_string(c.threads));
    }
  }

  // The oracle comparison needs perfect detection (a clean channel) and a
  // crash-only plan (the oracle has no churn model).
  if (channel_from_case(c).impaired() || c.fault_kind == FaultKind::kChurn) {
    return;
  }

  const auto oracle = algo::repair_after_failures(g, base, failed, demands);
  const Graph live = g.without_nodes(failed);
  const auto live_demands = domination::live_demands(live, failed, demands);
  if (!domination::is_k_dominating(live, serial.final_set, live_demands,
                                   domination::Mode::kClosedNeighborhood,
                                   scratch)) {
    add(out, "repair.coverage",
        "self-healed set misses live demands after " +
            std::to_string(failed.size()) + " crashes");
  }
  if (serial.promoted > oracle.promoted + oracle.touched) {
    add(out, "repair.over_promotion",
        "promoted " + std::to_string(serial.promoted) + " > oracle " +
            std::to_string(oracle.promoted) + " + touched " +
            std::to_string(oracle.touched));
  }
  if (oracle.fully_satisfied && serial.unsatisfied != 0) {
    add(out, "repair.unsatisfied",
        std::to_string(serial.unsatisfied) +
            " nodes stuck although the oracle repaired everything");
  }
}

// -------------------------------------------------------------- transport

/// Max-id flood where every update travels through the reliable transport:
/// the channel may drop, duplicate, and reorder frames, yet every node must
/// still converge to its component's maximum id — the end-to-end statement
/// of the transport's exactly-once, in-order delivery contract.
class TransportFloodProcess final : public sim::Process {
 public:
  void on_round(sim::Context& ctx) override {
    if (value_ < 0) {
      value_ = static_cast<sim::Word>(ctx.self());
      dirty_ = true;
    }
    for (const auto& d : transport_.receive(ctx)) {
      if (d.words.at(0) > value_) {
        value_ = d.words.at(0);
        dirty_ = true;
      }
    }
    if (dirty_) {
      transport_.broadcast(ctx, {value_});
      dirty_ = false;
    }
    transport_.flush(ctx);
  }

  [[nodiscard]] sim::Word value() const noexcept { return value_; }
  [[nodiscard]] const sim::ReliableTransport& transport() const noexcept {
    return transport_;
  }

 private:
  sim::ReliableTransport transport_;
  sim::Word value_ = -1;
  bool dirty_ = false;
};

struct TransportRun {
  std::vector<sim::Word> values;
  std::int64_t frames = 0;
  std::int64_t retransmissions = 0;
  std::int64_t duplicates = 0;
  std::int64_t delivered = 0;
  sim::Metrics metrics;

  friend bool operator==(const TransportRun&, const TransportRun&) = default;
};

TransportRun run_transport_flood(const FuzzCase& c, const Graph& g,
                                 int threads, std::int64_t budget) {
  sim::SyncNetwork net(g, c.algo_seed);
  configure(net, threads, channel_from_case(c));
  net.set_all_processes(
      [](NodeId) { return std::make_unique<TransportFloodProcess>(); });
  net.run(budget);
  TransportRun run;
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto& p = net.process_as<TransportFloodProcess>(v);
    run.values.push_back(p.value());
    run.frames += p.transport().frames_sent();
    run.retransmissions += p.transport().retransmissions();
    run.duplicates += p.transport().duplicates_suppressed();
    run.delivered += p.transport().delivered();
  }
  run.metrics = net.metrics();
  return run;
}

void check_transport(const FuzzCase& c, const Graph& g, Violations& out) {
  // Retransmission latency is geometric, so the budget is generous: the
  // flood's longest per-link backlog is O(n) payloads at a couple of rounds
  // each, inflated by loss. A failure to converge inside it is a transport
  // bug for any channel the generator can produce, not bad luck.
  const std::int64_t budget = 160 + 16 * static_cast<std::int64_t>(g.n());
  const TransportRun serial = run_transport_flood(c, g, 1, budget);

  // Reliable-equivalence: the impaired-channel flood must end exactly where
  // a clean-channel run ends — every node at its component's maximum id.
  std::vector<sim::Word> expected(static_cast<std::size_t>(g.n()), -1);
  for (NodeId v = g.n() - 1; v >= 0; --v) {
    if (expected[static_cast<std::size_t>(v)] >= 0) continue;
    std::vector<NodeId> stack{v};
    expected[static_cast<std::size_t>(v)] = v;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const NodeId w : g.neighbors(u)) {
        if (expected[static_cast<std::size_t>(w)] < 0) {
          expected[static_cast<std::size_t>(w)] = v;
          stack.push_back(w);
        }
      }
    }
  }
  if (serial.values != expected) {
    std::int64_t stuck = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (serial.values[i] != expected[i]) ++stuck;
    }
    add(out, "transport.convergence",
        std::to_string(stuck) + " nodes missed their component max over " +
            std::to_string(budget) + " rounds");
  }

  if (c.threads > 1) {
    const TransportRun parallel = run_transport_flood(c, g, c.threads, budget);
    if (parallel != serial) {
      add(out, "engine.transport_parallel",
          "transport flood differs at threads=" + std::to_string(c.threads));
    }
  }
}

// ---------------------------------------------------------------- kernels

/// kernel.* invariants: the packed coverage/deficiency kernels (kernels.h)
/// must agree exactly with the scalar references in domination.h, the
/// optimized LP solver must reproduce the kept reference solver bitwise at
/// every thread width (the same contract the simulator's parallel round
/// engine ships), and the unit-cost greedy (span levels) must make the lazy
/// heap's picks. Runs on every case — the kernels are now what the rest of
/// the invariant battery itself computes with.
void check_kernels(const FuzzCase& c, const Graph& g, const Demands& demands,
                   const algo::LpResult& lp, const algo::RoundingResult& r,
                   const algo::GreedyResult& greedy,
                   domination::CoverageScratch& scratch, Violations& out) {
  const auto n = static_cast<std::size_t>(g.n());

  // All-ones weights take the weighted selector (lazy heap on 1/span).
  const auto unit = algo::greedy_kmds(g, demands, std::vector<double>(n, 1.0));
  if (unit.set != greedy.set || unit.fully_satisfied != greedy.fully_satisfied) {
    add(out, "kernel.greedy_unit_equiv",
        "level-selector greedy != unit-weight heap greedy (" +
            std::to_string(greedy.set.size()) + " vs " +
            std::to_string(unit.set.size()) + " picks)");
  }

  // Packed vs scalar over a membership bitmap: coverage counts, fused
  // deficiency, and the node-list scratch overload, in both modes.
  const auto check_membership = [&](const std::vector<std::uint8_t>& members,
                                    const char* which) {
    const auto ref_cover = domination::closed_coverage_counts(g, members);
    domination::MembershipBits bits;
    bits.assign(members);
    std::vector<std::int32_t> packed_cover(n, 0);
    domination::closed_coverage_counts(g, bits, packed_cover);
    if (ref_cover != packed_cover) {
      add(out, "kernel.coverage_equiv",
          std::string("packed coverage counts != scalar reference (") +
              which + ")");
    }
    const auto set = domination::to_node_list(members);
    for (const auto mode : {domination::Mode::kClosedNeighborhood,
                            domination::Mode::kOpenForNonMembers}) {
      std::int64_t ref_def = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (mode == domination::Mode::kOpenForNonMembers && members[i]) {
          continue;
        }
        ref_def += std::max<std::int32_t>(
            0, demands[i] - ref_cover[i]);
      }
      if (domination::deficiency(g, bits, demands, mode) != ref_def) {
        add(out, "kernel.deficiency_equiv",
            std::string("fused packed deficiency != scalar (") + which + ")");
      }
      if (domination::deficiency(g, set, demands, mode, scratch) != ref_def) {
        add(out, "kernel.deficiency_equiv",
            std::string("scratch deficiency != scalar (") + which + ")");
      }
    }
  };
  // The rounding set is dominating-set-shaped (sparse → scatter kernel);
  // the hashed membership is ~50% dense (gather kernel). Both paths must
  // agree with the reference on every topology family.
  check_membership(domination::to_membership(g, r.set), "rounding_set");
  std::vector<std::uint8_t> dense(n, 0);
  std::uint64_t hash_state = c.case_seed ^ 0xA076'1D64'78BD'642FULL;
  for (std::size_t i = 0; i < n; ++i) {
    dense[i] = static_cast<std::uint8_t>(util::splitmix64(hash_state) & 1);
  }
  check_membership(dense, "hashed_dense");

  // Optimized LP == kept reference, sequentially and at forced-parallel
  // widths (parallel_block=2 makes even fuzz-sized graphs span many
  // blocks). Output must be bitwise identical in every case.
  algo::LpOptions opts;
  opts.t = c.t;
  const algo::LpResult ref = solve_fractional_kmds_reference(g, demands, opts);
  if (!lp_results_equal(ref, lp)) {
    add(out, "kernel.lp_reference_equiv",
        "optimized LP solver != reference solver");
  }
  opts.parallel_block = 2;
  for (const int width : {2, c.threads}) {
    if (width <= 1) continue;
    opts.threads = width;
    const algo::LpResult par = algo::solve_fractional_kmds(g, demands, opts);
    if (!lp_results_equal(par, lp)) {
      add(out, "kernel.lp_width",
          "parallel LP solve differs at threads=" + std::to_string(width));
    }
    if (width == c.threads) break;  // c.threads == 2: single iteration
  }

  // The per-node power-table rows (kTwoHop) must match the reference too.
  algo::LpOptions th_opts;
  th_opts.t = c.t;
  th_opts.degree_knowledge = algo::DegreeKnowledge::kTwoHop;
  const algo::LpResult th_ref =
      solve_fractional_kmds_reference(g, demands, th_opts);
  const algo::LpResult th_opt = algo::solve_fractional_kmds(g, demands, th_opts);
  if (!lp_results_equal(th_ref, th_opt)) {
    add(out, "kernel.lp_twohop_equiv",
        "optimized two-hop LP solver != reference solver");
  }
}

// -------------------------------------------------------------------- obs

void check_obs(const FuzzCase& c, const Graph& g, const Demands& demands,
               const algo::LpResult& mirror_lp, Violations& out) {
  // The pool is forced (parallel grain 0), so at c.threads > 1 workers
  // really stage the processes' emissions through their Recorders.
  std::string base_metrics;
  std::string base_trace;
  for (const int threads : {1, c.threads}) {
    obs::Plane plane;
    sim::SyncNetwork net(g, c.algo_seed);
    configure(net, threads, channel_from_case(c));
    net.set_observability(&plane);
    const auto rounding =
        algo::run_rounding_processes(net, mirror_lp.primal.x, demands);
    check_rounds("term.rounding", "observed", rounding.rounds,
                 algo::kRoundingRounds, out);
    const sim::Metrics& m = net.metrics();
    const auto& b = plane.builtin();
    const auto& reg = plane.metrics();
    if (reg.value(b.rounds) != m.rounds ||
        reg.value(b.messages) != m.messages_sent ||
        reg.value(b.words) != m.words_sent) {
      add(out, "obs.registry_consistency",
          "plane registry disagrees with Metrics at threads=" +
              std::to_string(threads));
    }
    std::ostringstream metrics_os;
    std::ostringstream trace_os;
    reg.write_json(metrics_os);
    plane.trace().export_jsonl(trace_os);
    if (threads == 1) {
      base_metrics = metrics_os.str();
      base_trace = trace_os.str();
    } else {
      if (metrics_os.str() != base_metrics) {
        add(out, "obs.registry_determinism",
            "registry JSON changed with engine width");
      }
      if (trace_os.str() != base_trace) {
        add(out, "obs.trace_determinism",
            "trace JSONL changed with engine width");
      }
    }
    if (threads == c.threads) break;  // threads == 1: single iteration
  }
}

}  // namespace

// ---------------------------------------------------------------- public API

Violations check_case(const FuzzCase& c, Mutation mutation) {
  Violations out;
  const Instance inst = materialize(c);
  const Graph& g = inst.graph();
  const Demands& demands = inst.demands;

  // One coverage scratch per case: every k-coverage check below reuses it,
  // so the whole battery's coverage work allocates only on high-water growth.
  domination::CoverageScratch scratch;

  // Mandatory battery: Algorithm 1 + Algorithm 2 mirrors.
  algo::LpOptions lp_opts;
  lp_opts.t = c.t;
  const algo::LpResult lp = algo::solve_fractional_kmds(g, demands, lp_opts);
  check_lp_invariants(g, demands, lp, c.t, out);

  const algo::RoundingResult rounding = round_fractional_mutant(
      g, lp.primal, demands, c.algo_seed, mutation);
  check_rounding_result(g, demands, rounding, scratch, out);

  // Mandatory kernel battery: packed kernels == scalar references, optimized
  // LP == reference LP at every thread width (DESIGN.md §11), level-selector
  // greedy == heap greedy.
  const algo::GreedyResult greedy = algo::greedy_kmds(g, demands);
  check_kernels(c, g, demands, lp, rounding, greedy, scratch, out);

  if (c.run_small_oracles) {
    check_small_oracles(c, g, demands, lp, rounding, greedy, scratch, out);
  }
  if (c.run_differential) {
    check_differential(c, g, demands, lp, rounding, out);
  }
  if (c.run_async) {
    check_async(c, inst, demands, lp, rounding, out);
  }
  if (inst.has_udg) {
    check_udg(c, inst.udg, scratch, out);
  }
  if (c.fault_kind != FaultKind::kNone) {
    check_repair(c, inst, greedy.set, scratch, out);
  }
  if (c.run_transport) {
    check_transport(c, g, out);
  }
  if (c.run_obs) {
    check_obs(c, g, demands, lp, out);
  }
  if (c.run_dynamic && c.mutations > 0) {
    check_dynamic(c, inst, mutation, out);
  }
  return out;
}

}  // namespace ftc::testing
