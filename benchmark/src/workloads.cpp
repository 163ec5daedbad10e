#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <sstream>

#include "algo/baseline/greedy.h"
#include "algo/extensions/maintainer.h"
#include "algo/lp/lp_kmds.h"
#include "algo/lp/lp_kmds_process.h"
#include "algo/pipeline.h"
#include "algo/rounding/rounding.h"
#include "algo/rounding/rounding_process.h"
#include "algo/udg/udg_kmds.h"
#include "algo/udg/udg_kmds_process.h"
#include "alloc_counter.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "graph/graph.h"
#include "inputs.h"
#include "obs/plane.h"
#include "sim/mutation.h"
#include "sim/network.h"

namespace ftcbench {

namespace {

using ftc::domination::Demands;
using ftc::domination::Mode;
using ftc::graph::NodeId;
using ftc::obs::PerfPhase;
using ftc::obs::PerfPlane;
namespace algo = ftc::algo;
namespace dom = ftc::domination;
namespace geom = ftc::geom;
namespace graph = ftc::graph;
namespace obs = ftc::obs;
namespace sim = ftc::sim;

constexpr std::int32_t kFold = 2;          ///< k of every workload
constexpr int kRoundLimit = 100'000;       ///< never reached; guards run()
constexpr std::uint64_t kNetSeedSalt = 0x6E65745F73656564ULL;
/// Δ of the G(n,p) workloads: t = ⌈log₂ 32⌉ = 5, so 55 rounds. A plain
/// G(n, 10/n) with n ≤ 1e6 stays below it on more than 99% of seeds.
constexpr NodeId kHubDegree = 31;

/// ⌈log₂(Δ+1)⌉, at least 1: the t of the Thm 4.5/4.6 remark.
int t_for(const graph::Graph& g) {
  int t = 1;
  while ((std::int64_t{1} << t) < static_cast<std::int64_t>(g.max_degree()) + 1) ++t;
  return t;
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Perf attribution only: the structured trace is filtered to nothing, so
/// the traced rep pays for phase timing and nothing else.
obs::PlaneOptions perf_only_plane() {
  obs::PlaneOptions o;
  o.trace.capacity = 16;
  o.trace.min_severity = obs::Severity::kError;
  o.trace.category_mask = 0;
  o.perf = true;
  return o;
}

std::string export_perf(const PerfPlane& pf) {
  std::ostringstream os;
  pf.export_jsonl(os);
  return os.str();
}

double phase_s(const PerfPlane& pf, PerfPhase p) {
  return static_cast<double>(pf.phase_total_ns(p)) * 1e-9;
}

/// Round-engine attribution of a traced solve from its PerfPlane.
void engine_metrics(const PerfPlane& pf, double solve_s, const sim::Metrics& m,
                    std::uint64_t run_allocs, LayerValues& out) {
  out["sim.compute_share"] = phase_s(pf, PerfPhase::kCompute) / solve_s;
  out["sim.deliver_count_share"] = phase_s(pf, PerfPhase::kDeliverCount) / solve_s;
  out["sim.deliver_prefix_share"] = phase_s(pf, PerfPhase::kDeliverPrefix) / solve_s;
  out["sim.deliver_place_share"] = phase_s(pf, PerfPhase::kDeliverPlace) / solve_s;
  out["sim.other_share"] =
      (phase_s(pf, PerfPhase::kFaultApply) + phase_s(pf, PerfPhase::kStatsMerge) +
       phase_s(pf, PerfPhase::kObsMerge) + phase_s(pf, PerfPhase::kFinalize)) /
      solve_s;
  out["sim.attribution_coverage"] = pf.attribution_coverage();
  const double engine_s = static_cast<double>(pf.total_ns()) * 1e-9;
  out["sim.msgs_per_s"] =
      engine_s > 0 ? static_cast<double>(m.messages_sent) / engine_s : 0.0;
  out["sim.allocs_per_round"] =
      m.rounds > 0 ? static_cast<double>(run_allocs) / static_cast<double>(m.rounds)
                   : 0.0;
  out["sim.rounds"] = static_cast<double>(m.rounds);
  out["sim.msg_words"] = static_cast<double>(m.words_sent);
}

/// The same fold run_kmds_pipeline applies to its two networks.
sim::Metrics merge_metrics(sim::Metrics lp, const sim::Metrics& rounding) {
  lp.rounds += rounding.rounds;
  lp.messages_sent += rounding.messages_sent;
  lp.words_sent += rounding.words_sent;
  lp.max_message_words = std::max(lp.max_message_words, rounding.max_message_words);
  return lp;
}

double bytes_per_arc(const graph::Graph& g) {
  return g.m() > 0 ? static_cast<double>(g.memory_bytes()) /
                         static_cast<double>(2 * g.m())
                   : 0.0;
}

std::string fmt_config(std::string_view graph_kind, NodeId n, double degree,
                       int threads, const std::string& extra = "") {
  std::ostringstream os;
  os << "{\"graph\":\"" << graph_kind << "\",\"n\":" << n
     << ",\"avg_degree\":" << degree << ",\"k\":" << kFold
     << ",\"threads\":" << threads << extra << "}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Alg 1+2 on G(n,p): shared ingest for the protocol and the mirror workload.

class GnpWorkload : public Workload {
 protected:
  GnpWorkload(NodeId n, double degree, std::uint64_t seed)
      : n_(n), degree_(degree), net_seed_(seed ^ kNetSeedSalt) {
    SplitMix64 rng(seed);
    Fingerprint fp;
    edges_ = gnp_edges(n, degree, kHubDegree, rng, fp);
    fp.add(net_seed_);
    fingerprint_ = fp.hex();
  }

  void ingest() override {
    g_ = graph::Graph::from_edges(n_, edges_);
    demands_ = dom::clamp_demands(g_, dom::uniform_demands(n_, kFold));
    t_ = t_for(g_);
  }

  void traced_ingest(Spans& sp) {
    Spans::Scope ingest(sp, "ingest");
    {
      Spans::Scope s(sp, "graph.from_edges");
      g_ = graph::Graph::from_edges(n_, edges_);
    }
    Spans::Scope s(sp, "dom.clamp_demands");
    demands_ = dom::clamp_demands(g_, dom::uniform_demands(n_, kFold));
    t_ = t_for(g_);
  }

  bool traced_verify(Spans& sp, const std::vector<NodeId>& set) {
    Spans::Scope verify(sp, "verify");
    Spans::Scope s(sp, "dom.verify");
    return dom::is_k_dominating(g_, set, demands_, Mode::kClosedNeighborhood);
  }

  [[nodiscard]] double items() const override { return n_; }
  [[nodiscard]] std::string config_json() const override {
    return fmt_config("gnp", n_, degree_, threads(),
                      ",\"hub_degree\":" + std::to_string(kHubDegree));
  }

  NodeId n_;
  double degree_;
  std::uint64_t net_seed_;
  std::vector<graph::Edge> edges_;
  graph::Graph g_;
  Demands demands_;
  int t_ = 1;
};

/// Alg 1+2 as protocols: run_kmds_pipeline(kDistributed).
class Alg12Gnp final : public GnpWorkload {
 public:
  Alg12Gnp(NodeId n, double degree, std::uint64_t seed)
      : GnpWorkload(n, degree, seed) {}

  [[nodiscard]] std::string_view name() const override { return "alg12_gnp"; }
  [[nodiscard]] int threads() const override { return 1; }

  void solve(std::vector<double>&) override {
    algo::PipelineOptions o;
    o.t = t_;
    o.seed = net_seed_;
    o.execution = algo::Execution::kDistributed;
    result_ = algo::run_kmds_pipeline(g_, demands_, o);
  }

  Check verify(bool against_reference) override {
    Check c;
    c.expect(dom::is_k_dominating(g_, result_.set(), demands_,
                                  Mode::kClosedNeighborhood));
    if (against_reference) {
      algo::PipelineOptions o;
      o.t = t_;
      o.seed = net_seed_;
      o.execution = algo::Execution::kMirror;
      const algo::PipelineResult mirror = algo::run_kmds_pipeline(g_, demands_, o);
      c.expect(mirror.set() == result_.set() &&
               mirror.total_rounds == result_.total_rounds &&
               bitwise_equal(mirror.lp.primal.x, result_.lp.primal.x));
    }
    return c;
  }

  [[nodiscard]] Outcome outcome() const override {
    return {static_cast<double>(result_.set().size()), static_cast<double>(n_),
            result_.total_rounds, result_.metrics.words_sent};
  }

  /// Drives the LpKmdsProcess and RoundingProcess networks the way
  /// run_kmds_pipeline does, so Alg 1 and Alg 2 get their own spans.
  Check traced(Spans& sp, LayerValues& out) override {
    obs::Plane plane(perf_only_plane());
    traced_ingest(sp);
    const auto n = static_cast<std::size_t>(g_.n());
    std::vector<NodeId> set;
    std::int64_t lp_rounds = 0;
    std::int64_t rounding_rounds = 0;
    sim::Metrics lp_metrics;
    sim::Metrics rounding_metrics;
    std::uint64_t run_allocs = 0;
    const double cpu0 = cpu_seconds();
    std::int32_t solve_id = 0;
    {
      Spans::Scope solve(sp, "solve");
      solve_id = solve.id();
      std::unique_ptr<sim::SyncNetwork> lp_net;
      {
        Spans::Scope s(sp, "sim.bringup");
        lp_net = std::make_unique<sim::SyncNetwork>(g_, net_seed_);
        lp_net->set_all_processes([&](NodeId v) {
          return std::make_unique<algo::LpKmdsProcess>(
              demands_[static_cast<std::size_t>(v)], t_);
        });
        lp_net->set_observability(&plane);
      }
      {
        Spans::Scope s(sp, "algo.lp.run");
        const std::uint64_t a0 = allocations();
        lp_rounds = lp_net->run(algo::lp_round_count(t_) + 8);
        run_allocs += allocations() - a0;
      }
      std::vector<double> x(n);
      {
        Spans::Scope s(sp, "algo.lp.collect");
        for (NodeId v = 0; v < g_.n(); ++v) {
          x[static_cast<std::size_t>(v)] = lp_net->process_as<algo::LpKmdsProcess>(v).x();
        }
        lp_metrics = lp_net->metrics();
      }
      std::unique_ptr<sim::SyncNetwork> rounding_net;
      {
        Spans::Scope s(sp, "sim.bringup");
        rounding_net = std::make_unique<sim::SyncNetwork>(g_, net_seed_);
        rounding_net->set_all_processes([&](NodeId v) {
          const auto i = static_cast<std::size_t>(v);
          return std::make_unique<algo::RoundingProcess>(x[i], demands_[i]);
        });
        rounding_net->set_observability(&plane);
      }
      {
        Spans::Scope s(sp, "algo.rounding.run");
        const std::uint64_t a0 = allocations();
        rounding_rounds = rounding_net->run(8);
        run_allocs += allocations() - a0;
      }
      {
        Spans::Scope s(sp, "algo.rounding.collect");
        for (NodeId v = 0; v < g_.n(); ++v) {
          if (rounding_net->process_as<algo::RoundingProcess>(v).in_set()) {
            set.push_back(v);
          }
        }
        rounding_metrics = rounding_net->metrics();
      }
      Spans::Scope s(sp, "sim.teardown");
      rounding_net.reset();
      lp_net.reset();
    }
    const double solve_s = sp.seconds(solve_id);
    out["pool.cpu_per_wall"] = (cpu_seconds() - cpu0) / solve_s;

    Check c;
    const sim::Metrics merged = merge_metrics(lp_metrics, rounding_metrics);
    c.expect(set == result_.set() &&
             lp_rounds + rounding_rounds == result_.total_rounds &&
             merged == result_.metrics);
    c.expect(traced_verify(sp, set));

    engine_metrics(*plane.perf(), solve_s, merged, run_allocs, out);
    out["graph.bytes_per_arc"] = bytes_per_arc(g_);
    out["lp.rounds"] = static_cast<double>(lp_rounds);
    out["lp.msg_words"] = static_cast<double>(lp_metrics.words_sent);
    out["rounding.rounds"] = static_cast<double>(rounding_rounds);
    perf_jsonl_ = export_perf(*plane.perf());
    return c;
  }

 private:
  algo::PipelineResult result_;
};

/// The centralized Alg 1+2 mirror that large sweeps use. One thread: at this
/// size the LP's node loops fit in one parallel block, so a pool would sit
/// idle.
class Alg12MirrorGnp final : public GnpWorkload {
 public:
  Alg12MirrorGnp(NodeId n, double degree, std::uint64_t seed)
      : GnpWorkload(n, degree, seed) {}

  [[nodiscard]] std::string_view name() const override {
    return "alg12_mirror_gnp";
  }
  [[nodiscard]] int threads() const override { return 1; }

  void solve(std::vector<double>&) override {
    lp_ = algo::solve_fractional_kmds(g_, demands_, lp_options(nullptr));
    rounding_ = algo::round_fractional(g_, lp_.primal, demands_, net_seed_);
  }

  Check verify(bool against_reference) override {
    Check c;
    c.expect(dom::is_k_dominating(g_, rounding_.set, demands_,
                                  Mode::kClosedNeighborhood));
    if (against_reference) {
      const algo::LpResult reference =
          algo::solve_fractional_kmds_reference(g_, demands_, lp_options(nullptr));
      c.expect(bitwise_equal(reference.primal.x, lp_.primal.x) &&
               bitwise_equal(reference.dual.y, lp_.dual.y) &&
               bitwise_equal(reference.dual.z, lp_.dual.z));
    }
    return c;
  }

  [[nodiscard]] Outcome outcome() const override {
    return {static_cast<double>(rounding_.set.size()), static_cast<double>(n_),
            lp_.rounds + rounding_.rounds, 0};
  }

  Check traced(Spans& sp, LayerValues& out) override {
    PerfPlane perf;
    traced_ingest(sp);
    algo::LpResult lp;
    algo::RoundingResult rounding;
    const double cpu0 = cpu_seconds();
    std::int32_t solve_id = 0;
    std::uint64_t rounding_allocs = 0;
    {
      Spans::Scope solve(sp, "solve");
      solve_id = solve.id();
      {
        Spans::Scope s(sp, "algo.lp_mirror");
        lp = algo::solve_fractional_kmds(g_, demands_, lp_options(&perf));
      }
      Spans::Scope s(sp, "algo.rounding_mirror");
      const std::uint64_t a0 = allocations();
      rounding = algo::round_fractional(g_, lp.primal, demands_, net_seed_);
      rounding_allocs = allocations() - a0;
    }
    const double solve_s = sp.seconds(solve_id);
    out["pool.cpu_per_wall"] = (cpu_seconds() - cpu0) / solve_s;

    Check c;
    c.expect(rounding.set == rounding_.set && bitwise_equal(lp.primal.x, lp_.primal.x));
    c.expect(traced_verify(sp, rounding.set));

    out["graph.bytes_per_arc"] = bytes_per_arc(g_);
    out["lpm.x_update_share"] = phase_s(perf, PerfPhase::kLpXUpdate) / solve_s;
    out["lpm.dual_color_share"] = phase_s(perf, PerfPhase::kLpDualColor) / solve_s;
    out["lpm.degree_share"] = phase_s(perf, PerfPhase::kLpDegree) / solve_s;
    out["lpm.z_pass_share"] = phase_s(perf, PerfPhase::kLpZPass) / solve_s;
    out["lpm.iterations"] = static_cast<double>(perf.rounds());
    out["roundm.allocs"] = static_cast<double>(rounding_allocs);
    perf_jsonl_ = export_perf(perf);
    return c;
  }

 private:
  algo::LpOptions lp_options(PerfPlane* perf) const {
    algo::LpOptions o;
    o.t = t_;
    o.perf = perf;
    return o;
  }

  algo::LpResult lp_;
  algo::RoundingResult rounding_;
};

// ---------------------------------------------------------------------------
// Alg 3 on a uniform UDG, on one engine thread: at this size a shard has
// fewer than SyncNetwork::kDefaultParallelGrain nodes, so set_threads(2)
// would run inline anyway.

class Alg3Udg final : public Workload {
 public:
  Alg3Udg(NodeId n, double degree, std::uint64_t seed)
      : n_(n), degree_(degree), net_seed_(seed ^ kNetSeedSalt) {
    SplitMix64 rng(seed);
    Fingerprint fp;
    points_ = uniform_points(n, udg_side(n, degree), rng, fp);
    fp.add(net_seed_);
    fingerprint_ = fp.hex();
  }

  [[nodiscard]] std::string_view name() const override { return "alg3_udg"; }
  [[nodiscard]] int threads() const override { return 1; }
  [[nodiscard]] std::string config_json() const override {
    return fmt_config("udg", n_, degree_, threads());
  }

  void ingest() override { udg_ = geom::build_udg(points_); }

  void solve(std::vector<double>&) override {
    sim::SyncNetwork net(udg_, net_seed_);
    net.set_all_processes(
        [](NodeId) { return std::make_unique<algo::UdgKmdsProcess>(kFold); });
    net.run(kRoundLimit);
    collect(net, leaders_);
    metrics_ = net.metrics();
  }

  Check verify(bool against_reference) override {
    Check c;
    c.expect(dom::is_k_dominating(udg_.graph, leaders_, kFold,
                                  Mode::kOpenForNonMembers));
    if (against_reference) {
      algo::UdgOptions o;
      o.k = kFold;
      std::vector<NodeId> mirror = algo::solve_udg_kmds(udg_, o, net_seed_).leaders;
      std::sort(mirror.begin(), mirror.end());
      c.expect(mirror == leaders_);
    }
    return c;
  }

  [[nodiscard]] double items() const override { return n_; }
  [[nodiscard]] Outcome outcome() const override {
    return {static_cast<double>(leaders_.size()), static_cast<double>(n_),
            metrics_.rounds, metrics_.words_sent};
  }

  /// Steps the network by hand so Part I (the first 2·R rounds) and Part II
  /// get their own spans.
  Check traced(Spans& sp, LayerValues& out) override {
    obs::Plane plane(perf_only_plane());
    {
      Spans::Scope ingest(sp, "ingest");
      Spans::Scope s(sp, "geom.build_udg");
      udg_ = geom::build_udg(points_);
    }
    std::vector<NodeId> leaders;
    sim::Metrics metrics;
    std::uint64_t run_allocs = 0;
    const std::int64_t part1_rounds = 2 * algo::udg_part1_rounds(udg_.n());
    const double cpu0 = cpu_seconds();
    std::int32_t solve_id = 0;
    {
      Spans::Scope solve(sp, "solve");
      solve_id = solve.id();
      std::unique_ptr<sim::SyncNetwork> net;
      {
        Spans::Scope s(sp, "sim.bringup");
        net = std::make_unique<sim::SyncNetwork>(udg_, net_seed_);
        net->set_all_processes(
            [](NodeId) { return std::make_unique<algo::UdgKmdsProcess>(kFold); });
        net->set_observability(&plane);
      }
      const std::uint64_t a0 = allocations();
      bool running = true;
      {
        Spans::Scope s(sp, "algo.udg.part1");
        while (running && net->round() < part1_rounds) running = net->step();
      }
      {
        Spans::Scope s(sp, "algo.udg.part2");
        while (running && net->round() < kRoundLimit) running = net->step();
      }
      run_allocs = allocations() - a0;
      {
        Spans::Scope s(sp, "algo.udg.collect");
        collect(*net, leaders);
        metrics = net->metrics();
      }
      Spans::Scope s(sp, "sim.teardown");
      net.reset();
    }
    const double solve_s = sp.seconds(solve_id);
    out["pool.cpu_per_wall"] = (cpu_seconds() - cpu0) / solve_s;

    Check c;
    c.expect(leaders == leaders_ && metrics == metrics_);
    {
      Spans::Scope verify(sp, "verify");
      Spans::Scope s(sp, "dom.verify");
      c.expect(dom::is_k_dominating(udg_.graph, leaders, kFold,
                                    Mode::kOpenForNonMembers));
    }
    engine_metrics(*plane.perf(), solve_s, metrics, run_allocs, out);
    out["graph.bytes_per_arc"] = bytes_per_arc(udg_.graph);
    out["udg.part2_rounds"] =
        static_cast<double>(std::max<std::int64_t>(0, metrics.rounds - part1_rounds));
    perf_jsonl_ = export_perf(*plane.perf());
    return c;
  }

 private:
  static void collect(sim::SyncNetwork& net, std::vector<NodeId>& leaders) {
    leaders.clear();
    for (NodeId v = 0; v < net.graph().n(); ++v) {
      if (net.process_as<algo::UdgKmdsProcess>(v).leader()) leaders.push_back(v);
    }
  }

  NodeId n_;
  double degree_;
  std::uint64_t net_seed_;
  std::vector<geom::Point> points_;
  geom::UnitDiskGraph udg_;
  std::vector<NodeId> leaders_;
  sim::Metrics metrics_;
};

// ---------------------------------------------------------------------------
// Live churn: DynamicWorld + IncrementalMaintainer, one batch at a time.

class ChurnUdg final : public Workload {
 public:
  ChurnUdg(std::string_view name, NodeId n, double degree, std::size_t batches,
           std::size_t batch_size, std::uint64_t seed)
      : name_(name), n_(n), degree_(degree), batch_size_(batch_size) {
    SplitMix64 rng(seed);
    Fingerprint fp;
    const double side = udg_side(n, degree);
    points_ = uniform_points(n, side, rng, fp);
    trace_ = churn_trace(points_, side, batches, batch_size, rng, fp);
    fingerprint_ = fp.hex();
  }

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] int threads() const override { return 1; }
  [[nodiscard]] std::string config_json() const override {
    std::ostringstream extra;
    extra << ",\"batches\":" << trace_.batches() << ",\"batch_size\":" << batch_size_
          << ",\"mix\":\"join25/leave35/move40\"";
    return fmt_config("udg", n_, degree_, threads(), extra.str());
  }

  void ingest() override {
    udg_ = geom::build_udg(points_);
    const Demands demands = dom::clamp_demands(udg_.graph, dom::uniform_demands(n_, kFold));
    const std::vector<NodeId> base = algo::greedy_kmds(udg_.graph, demands).set;
    world_ = std::make_unique<sim::DynamicWorld>(udg_);
    maintainer_ = std::make_unique<algo::IncrementalMaintainer>(
        n_, base, algo::MaintainerOptions{.k = kFold});
  }

  void solve(std::vector<double>& op_seconds) override {
    stats_ = {};
    for (std::size_t b = 0; b < trace_.batches(); ++b) {
      const std::int64_t t0 = now_ns();
      applied_.clear();
      for (std::size_t i = trace_.batch_begin[b]; i < trace_.batch_begin[b + 1]; ++i) {
        applied_.push_back(world_->apply(trace_.mutations[i]));
      }
      const algo::MaintainResult r =
          maintainer_->apply_batch(world_->graph(), world_->active_flags(), applied_);
      op_seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      stats_.add(r);
    }
  }

  Check verify(bool) override {
    Check c{stats_.batches, stats_.unsatisfied};
    c.expect(final_cover_ok());
    return c;
  }

  [[nodiscard]] double items() const override {
    return static_cast<double>(trace_.mutations.size());
  }
  [[nodiscard]] Outcome outcome() const override {
    return {static_cast<double>(maintainer_->members()),
            static_cast<double>(world_->active_count()), 0, 0};
  }

  Check traced(Spans& sp, LayerValues& out) override {
    const std::vector<NodeId> untraced = maintainer_->member_set();
    {
      Spans::Scope ingest(sp, "ingest");
      {
        Spans::Scope s(sp, "geom.build_udg");
        udg_ = geom::build_udg(points_);
      }
      Demands demands;
      {
        Spans::Scope s(sp, "dom.clamp_demands");
        demands = dom::clamp_demands(udg_.graph, dom::uniform_demands(n_, kFold));
      }
      std::vector<NodeId> base;
      {
        Spans::Scope s(sp, "algo.greedy_kmds");
        base = algo::greedy_kmds(udg_.graph, demands).set;
      }
      {
        Spans::Scope s(sp, "sim.world_init");
        world_ = std::make_unique<sim::DynamicWorld>(udg_);
      }
      Spans::Scope s(sp, "algo.maintainer_init");
      maintainer_ = std::make_unique<algo::IncrementalMaintainer>(
          n_, base, algo::MaintainerOptions{.k = kFold});
    }
    stats_ = {};
    const double cpu0 = cpu_seconds();
    std::uint64_t allocs = 0;
    double maintain_s = 0.0;
    std::int32_t solve_id = 0;
    {
      Spans::Scope solve(sp, "solve");
      solve_id = solve.id();
      const std::uint64_t a0 = allocations();
      for (std::size_t b = 0; b < trace_.batches(); ++b) {
        applied_.clear();
        for (std::size_t i = trace_.batch_begin[b]; i < trace_.batch_begin[b + 1]; ++i) {
          Spans::Scope s(sp, "sim.world_apply");
          applied_.push_back(world_->apply(trace_.mutations[i]));
        }
        std::int32_t maintain_id = 0;
        algo::MaintainResult r;
        {
          Spans::Scope s(sp, "algo.maintain");
          maintain_id = s.id();
          r = maintainer_->apply_batch(world_->graph(), world_->active_flags(), applied_);
        }
        stats_.add(r);
        maintain_s += sp.seconds(maintain_id);
      }
      allocs = allocations() - a0;
    }
    const double solve_s = sp.seconds(solve_id);
    out["pool.cpu_per_wall"] = (cpu_seconds() - cpu0) / solve_s;

    Check c{stats_.batches, stats_.unsatisfied};
    c.expect(maintainer_->member_set() == untraced);
    {
      Spans::Scope verify(sp, "verify");
      Spans::Scope s(sp, "dom.verify");
      c.expect(final_cover_ok());
    }
    const auto batches = static_cast<double>(std::max<std::int64_t>(1, stats_.batches));
    const auto ball2 = static_cast<double>(stats_.ball2);
    out["graph.bytes_per_arc"] = bytes_per_arc(udg_.graph);
    out["dyn.ball2_nodes_per_s"] = maintain_s > 0 ? ball2 / maintain_s : 0.0;
    out["dyn.ball1_mean"] = static_cast<double>(stats_.ball1) / batches;
    out["dyn.ball2_mean"] = ball2 / batches;
    out["dyn.promoted_per_batch"] = static_cast<double>(stats_.promoted) / batches;
    out["dyn.demoted_per_batch"] = static_cast<double>(stats_.demoted) / batches;
    out["dyn.changed_per_ball2"] =
        ball2 > 0 ? static_cast<double>(stats_.changed) / ball2 : 0.0;
    out["dyn.allocs_per_batch"] = static_cast<double>(allocs) / batches;
    return c;
  }

 private:
  struct Stats {
    std::int64_t batches = 0;
    std::int64_t unsatisfied = 0;
    std::int64_t ball1 = 0;
    std::int64_t ball2 = 0;
    std::int64_t promoted = 0;
    std::int64_t demoted = 0;
    std::int64_t changed = 0;

    void add(const algo::MaintainResult& r) {
      ++batches;
      if (!r.fully_satisfied) ++unsatisfied;
      ball1 += r.ball1;
      ball2 += r.ball2;
      promoted += r.promoted;
      demoted += r.demoted;
      changed += static_cast<std::int64_t>(r.changed.size());
    }
  };

  /// Full k-coverage of the live topology: active nodes demand
  /// min(k, deg+1), departed ones nothing (the maintainer's contract).
  bool final_cover_ok() const {
    const graph::Graph live = world_->snapshot();
    Demands demands(static_cast<std::size_t>(live.n()), 0);
    for (NodeId v = 0; v < live.n(); ++v) {
      if (world_->active(v)) {
        demands[static_cast<std::size_t>(v)] = std::min(kFold, live.degree(v) + 1);
      }
    }
    return dom::is_k_dominating(live, maintainer_->member_set(), demands,
                                Mode::kClosedNeighborhood);
  }

  std::string name_;
  NodeId n_;
  double degree_;
  std::size_t batch_size_;
  std::vector<geom::Point> points_;
  ChurnTrace trace_;
  geom::UnitDiskGraph udg_;
  std::unique_ptr<sim::DynamicWorld> world_;
  std::unique_ptr<algo::IncrementalMaintainer> maintainer_;
  std::vector<sim::AppliedMutation> applied_;
  Stats stats_;
};

}  // namespace

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"trace.ingest_s", "s"},
      {"trace.solve_s", "s"},
      {"trace.child_coverage", "share"},
      {"obs.trace_overhead", "ratio"},
      {"dom.verify_s", "s"},
      {"graph.bytes_per_arc", "B"},
      {"graph.build_share", "share"},
      {"geom.build_udg_share", "share"},
      {"dom.clamp_share", "share"},
      {"dyn.init_share", "share"},
      {"sim.bringup_share", "share"},
      {"sim.teardown_share", "share"},
      {"sim.compute_share", "share"},
      {"sim.deliver_count_share", "share"},
      {"sim.deliver_prefix_share", "share"},
      {"sim.deliver_place_share", "share"},
      {"sim.other_share", "share"},
      {"sim.attribution_coverage", "share"},
      {"sim.msgs_per_s", "1/s"},
      {"sim.allocs_per_round", "count"},
      {"sim.rounds", "count"},
      {"sim.msg_words", "count"},
      {"pool.cpu_per_wall", "ratio"},
      {"lp.run_share", "share"},
      {"lp.rounds", "count"},
      {"lp.msg_words", "count"},
      {"rounding.run_share", "share"},
      {"rounding.rounds", "count"},
      {"lpm.solve_share", "share"},
      {"lpm.x_update_share", "share"},
      {"lpm.dual_color_share", "share"},
      {"lpm.degree_share", "share"},
      {"lpm.z_pass_share", "share"},
      {"lpm.iterations", "count"},
      {"roundm.solve_share", "share"},
      {"roundm.allocs", "count"},
      {"udg.part1_share", "share"},
      {"udg.part2_share", "share"},
      {"udg.part2_rounds", "count"},
      {"dyn.world_apply_share", "share"},
      {"dyn.maintain_share", "share"},
      {"dyn.ball2_nodes_per_s", "1/s"},
      {"dyn.ball1_mean", "count"},
      {"dyn.ball2_mean", "count"},
      {"dyn.promoted_per_batch", "count"},
      {"dyn.demoted_per_batch", "count"},
      {"dyn.changed_per_ball2", "ratio"},
      {"dyn.allocs_per_batch", "count"},
  };
  return kMetrics;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "alg12_gnp", "alg3_udg", "alg12_mirror_gnp", "churn_udg", "burst_udg"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                        bool smoke) {
  if (name == "alg12_gnp") {
    return std::make_unique<Alg12Gnp>(smoke ? 300 : 1'000, 10.0, seed);
  }
  if (name == "alg3_udg") {
    return std::make_unique<Alg3Udg>(smoke ? 1'000 : 4'000, 12.0, seed);
  }
  if (name == "alg12_mirror_gnp") {
    return std::make_unique<Alg12MirrorGnp>(smoke ? 1'500 : 6'000, 10.0, seed);
  }
  if (name == "churn_udg") {
    return std::make_unique<ChurnUdg>(name, smoke ? 500 : 2'000, 8.0,
                                      smoke ? 125 : 500, 1, seed);
  }
  if (name == "burst_udg") {
    return std::make_unique<ChurnUdg>(name, smoke ? 500 : 2'000, 8.0,
                                      smoke ? 5 : 20, 64, seed);
  }
  return nullptr;
}

}  // namespace ftcbench
