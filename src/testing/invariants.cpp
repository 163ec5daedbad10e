#include "testing/invariants.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
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

/// Algorithm 3's clean synchronous run at the case's width: the reference a
/// synchronized UDG run must reproduce.
struct SyncUdg {
  algo::UdgResult result;
  std::int64_t rounds = 0;
};

std::optional<SyncUdg> clean_udg_run(const FuzzCase& c, const Instance& inst) {
  if (!inst.has_udg) return std::nullopt;
  sim::SyncNetwork net(inst.udg, c.algo_seed);
  configure(net, c.threads, sim::ChannelOptions{});
  SyncUdg ref{algo::run_udg_processes(net, {.k = c.k}), 0};
  ref.rounds = net.round();
  return ref;
}

/// What one synchronized run of the protocols produced.
struct SynchronizedRun {
  algo::LpResult lp;
  algo::RoundingResult rounding;
  algo::UdgResult udg;
  std::vector<sim::SynchronizerMetrics> metrics;  ///< LP, rounding[, UDG]
};

bool same_run(const SynchronizedRun& a, const SynchronizedRun& b) {
  return lp_results_equal(a.lp, b.lp) && a.rounding.set == b.rounding.set &&
         a.rounding.rounds == b.rounding.rounds &&
         a.udg.leaders == b.udg.leaders &&
         a.udg.part1_leaders == b.udg.part1_leaders && a.metrics == b.metrics;
}

/// The α-synchronizer must make the channel unobservable: over `channel`,
/// at engine width `threads`, Algorithms 1 and 2 reproduce their mirrors and
/// Algorithm 3 its synchronous run bit for bit, each in exactly the
/// synchronous number of pulses (term.*, labelled `label`), within
/// sim::round_budget (sync.virtual_time) and in frames of at most two
/// envelopes of the protocol's own message bound (sync.frame_words). A
/// changed output is reported as `changed_invariant`.
SynchronizedRun check_synchronized(
    const FuzzCase& c, const Instance& inst, const Demands& demands,
    const algo::LpResult& mirror_lp,
    const algo::RoundingResult& mirror_rounding,
    const std::optional<SyncUdg>& sync_udg, const sim::ChannelOptions& channel,
    int threads, const char* label, const char* changed_invariant,
    Violations& out) {
  const auto network = [&](const auto& topology) {
    auto net = std::make_unique<sim::SynchronizedNetwork>(topology,
                                                          c.algo_seed, channel);
    configure(net->network(), threads, sim::ChannelOptions{});
    return net;
  };
  const auto changed = [&](const char* what) {
    add(out, changed_invariant,
        std::string(label) + " run (channel seed " +
            std::to_string(channel.seed) + ") changed the " + what +
            " output");
  };
  SynchronizedRun run;
  const auto audit = [&](sim::SynchronizedNetwork& net,
                         std::int64_t payload_words, const char* what) {
    const sim::SynchronizerMetrics& m = net.metrics();
    run.metrics.push_back(m);
    const std::int64_t budget =
        sim::round_budget(m.pulses, 2 * net.graph().m(), channel);
    if (m.virtual_time > budget) {
      add(out, "sync.virtual_time",
          std::string(label) + " " + what + " run took " +
              std::to_string(m.virtual_time) + " rounds, budget " +
              std::to_string(budget));
    }
    const std::int64_t words = net.network().metrics().max_message_words;
    if (words > sim::max_frame_words(payload_words)) {
      add(out, "sync.frame_words",
          std::string(label) + " " + what + " frame of " +
              std::to_string(words) + " words exceeds " +
              std::to_string(sim::max_frame_words(payload_words)));
    }
  };

  {
    const auto net = network(inst.graph());
    run.lp = algo::run_lp_processes(*net, demands, c.t);
    audit(*net, 3, "LP");
  }
  check_rounds("term.lp", label, run.lp.rounds, algo::lp_round_count(c.t),
               out);
  if (run.lp.primal.x != mirror_lp.primal.x ||
      run.lp.dual.y != mirror_lp.dual.y || run.lp.dual.z != mirror_lp.dual.z) {
    changed("LP");
  }
  {
    const auto net = network(inst.graph());
    run.rounding =
        algo::run_rounding_processes(*net, mirror_lp.primal.x, demands);
    audit(*net, 1, "rounding");
  }
  check_rounds("term.rounding", label, run.rounding.rounds,
               algo::kRoundingRounds, out);
  if (run.rounding.set != mirror_rounding.set) changed("rounding");
  if (!sync_udg) return run;
  const auto net = network(inst.udg);
  run.udg = algo::run_udg_processes(*net, {.k = c.k});
  audit(*net, 2, "Algorithm 3");
  check_rounds("term.udg", label, net->metrics().pulses, sync_udg->rounds,
               out);
  if (run.udg.leaders != sync_udg->result.leaders ||
      run.udg.part1_leaders != sync_udg->result.part1_leaders) {
    changed("Algorithm 3");
  }
  return run;
}

/// The delay schedule is unobservable: two delay seeds at the case's width.
void check_async(const FuzzCase& c, const Instance& inst,
                 const Demands& demands, const algo::LpResult& mirror_lp,
                 const algo::RoundingResult& mirror_rounding, Violations& out) {
  const auto sync_udg = clean_udg_run(c, inst);
  const std::uint64_t delay_seeds[] = {c.delay_seed,
                                       c.delay_seed ^ 0x5DEECE66DULL};
  for (const std::uint64_t dseed : delay_seeds) {
    (void)check_synchronized(c, inst, demands, mirror_lp, mirror_rounding,
                             sync_udg, sim::delay_channel(c.max_delay, dseed),
                             c.threads, "synchronized",
                             "engine.async_schedule", out);
  }
}

/// Loss is unobservable too: the case's loss, asymmetry, bursts and
/// duplication composed with its synchronizer delay, at width 1 and at the
/// case's width, which must agree bit for bit.
void check_lossy_sync(const FuzzCase& c, const Instance& inst,
                      const Demands& demands, const algo::LpResult& mirror_lp,
                      const algo::RoundingResult& mirror_rounding,
                      Violations& out) {
  const auto sync_udg = clean_udg_run(c, inst);
  sim::ChannelOptions channel = channel_from_case(c);
  const sim::ChannelOptions delay =
      sim::delay_channel(c.max_delay, c.delay_seed);
  channel.reorder = delay.reorder;
  channel.max_reorder_delay = delay.max_reorder_delay;
  const SynchronizedRun serial =
      check_synchronized(c, inst, demands, mirror_lp, mirror_rounding,
                         sync_udg, channel, 1, "lossy",
                         "engine.lossy_schedule", out);
  if (c.threads <= 1) return;
  Violations repeated;  // the serial run already reported these
  const SynchronizedRun parallel =
      check_synchronized(c, inst, demands, mirror_lp, mirror_rounding,
                         sync_udg, channel, c.threads, "lossy",
                         "engine.lossy_schedule", repeated);
  if (!same_run(parallel, serial)) {
    add(out, "engine.lossy_parallel",
        "lossy synchronized run differs at threads=" +
            std::to_string(c.threads));
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

  // Exact mode (no wire quantization): the 2^-40 rounding of the z-shares
  // would hide a 1-ulp error in a mirror value such as β, so the unrounded
  // solve must match the reference too, at width 1 and at the case's width.
  algo::LpOptions exact;
  exact.t = c.t;
  exact.quantize_messages = false;
  const algo::LpResult exact_ref =
      solve_fractional_kmds_reference(g, demands, exact);
  for (const int width : {1, c.threads}) {
    exact.threads = width;
    exact.parallel_block = width > 1 ? 2 : 0;
    if (!lp_results_equal(exact_ref,
                          algo::solve_fractional_kmds(g, demands, exact))) {
      add(out, "kernel.lp_exact_equiv",
          "exact-mode LP solver != reference at threads=" +
              std::to_string(width));
    }
    if (c.threads <= 1) break;
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
  if (c.run_lossy_sync) {
    check_lossy_sync(c, inst, demands, lp, rounding, out);
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
