// The observability plane must not weaken the round engine's determinism
// contract: with a plane attached, a seeded churn run produces a JSONL
// trace, a Chrome trace and a metric registry that are BITWISE identical at
// every thread count, with or without the perf plane (DESIGN.md §7). Suite names matter: scripts/check.sh runs
// TraceDeterminism under TSan alongside the engine determinism suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algo/baseline/greedy.h"
#include "algo/extensions/repair_process.h"
#include "algo/extensions/soak.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "obs/plane.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "util/rng.h"

namespace {

using namespace ftc;
using graph::NodeId;

struct SoakCapture {
  std::string jsonl;
  std::string chrome;
  std::string metrics_json;
  algo::SoakReport report;
  std::int64_t perf_rounds = 0;  ///< rounds the perf plane attributed
  std::int64_t deficit_samples = 0;  ///< repair.coverage_deficit records
};

/// The plane's three exports, whole: none of them holds a wall-clock fact.
void capture_exports(const obs::Plane& plane, SoakCapture& capture) {
  std::ostringstream trace_os;
  plane.trace().export_jsonl(trace_os);
  capture.jsonl = trace_os.str();
  std::ostringstream chrome_os;
  plane.trace().export_chrome(chrome_os);
  capture.chrome = chrome_os.str();
  std::ostringstream metrics_os;
  plane.metrics().write_json(metrics_os);
  capture.metrics_json = metrics_os.str();
}

/// One seeded churn soak with an attached plane at the given thread count.
SoakCapture run_traced_soak(int threads, bool with_perf = false) {
  util::Rng rng(12345);
  const auto udg = geom::uniform_udg_with_degree(150, 10.0, rng);
  const graph::Graph& g = udg.graph;
  const auto demands =
      domination::clamp_demands(g, domination::uniform_demands(g.n(), 2));
  const auto base = algo::greedy_kmds(g, demands).set;
  const auto plan = sim::FaultPlan::churn(0.002, 20, 80, 0, 200);

  obs::PlaneOptions plane_options;
  plane_options.perf = with_perf;
  obs::Plane plane(plane_options);
  algo::SoakOptions opts;
  opts.rounds = 240;
  opts.message_loss = 0.05;
  opts.threads = threads;
  opts.plane = &plane;

  SoakCapture capture;
  capture.report = algo::run_soak(g, &udg, demands, base, plan, opts);
  capture_exports(plane, capture);
  if (plane.perf() != nullptr) capture.perf_rounds = plane.perf()->rounds();
  return capture;
}

TEST(TraceDeterminism, JsonlIdenticalAcrossThreadCounts) {
  const SoakCapture seq = run_traced_soak(1);
  ASSERT_FALSE(seq.jsonl.empty());
  // The run must actually exercise the interesting paths, or equality
  // proves nothing.
  EXPECT_GT(seq.report.crashes, 0);
  EXPECT_GT(seq.report.promotions, 0);

  for (int threads : {3, 8}) {
    const SoakCapture par = run_traced_soak(threads);
    EXPECT_EQ(seq.jsonl, par.jsonl) << "JSONL diverged at " << threads
                                    << " threads";
    EXPECT_EQ(seq.chrome, par.chrome) << "Chrome trace diverged at "
                                      << threads << " threads";
    EXPECT_EQ(seq.metrics_json, par.metrics_json)
        << "registry diverged at " << threads << " threads";
    EXPECT_EQ(seq.report.promotions, par.report.promotions);
    EXPECT_EQ(seq.report.violation_rounds, par.report.violation_rounds);
  }
}

TEST(TraceDeterminism, PerfPlaneKeepsBitwiseInvariance) {
  // The perf-attribution plane times the run with wall clocks, but its
  // staging discipline (shard-owned slots, ascending-order fold at the
  // barrier) confines every timestamp to the perf side channel: with perf
  // ON, the trace and the whole registry must stay bitwise identical to the
  // perf-OFF single-thread run at every width.
  const SoakCapture base = run_traced_soak(1, /*with_perf=*/false);
  ASSERT_FALSE(base.jsonl.empty());

  for (int threads : {1, 2, 4, 8}) {
    const SoakCapture par = run_traced_soak(threads, /*with_perf=*/true);
    ASSERT_GT(par.perf_rounds, 0) << "perf plane never engaged";
    EXPECT_EQ(base.jsonl, par.jsonl)
        << "JSONL diverged with perf on at " << threads << " threads";
    EXPECT_EQ(base.chrome, par.chrome)
        << "Chrome trace diverged with perf on at " << threads << " threads";
    EXPECT_EQ(base.metrics_json, par.metrics_json)
        << "registry diverged with perf on at " << threads << " threads";
    EXPECT_EQ(base.report.promotions, par.report.promotions);
    EXPECT_EQ(base.report.violation_rounds, par.report.violation_rounds);
  }
}

/// The soak above has 150 nodes, so at every width its shard block is below
/// the parallel grain and the engine runs it inline. This run forces the
/// pool (grain 0): workers really stage RepairProcess and heartbeat
/// emissions in their Recorders while crashes and loss keep the detector
/// and the repair waves busy — and, with perf on, time their shards.
SoakCapture run_pooled_repair(int threads, bool with_perf) {
  util::Rng rng(4242);
  const auto udg = geom::uniform_udg_with_degree(160, 9.0, rng);
  const graph::Graph& g = udg.graph;
  const auto demands =
      domination::clamp_demands(g, domination::uniform_demands(g.n(), 2));
  const auto base = algo::greedy_kmds(g, demands).set;
  std::vector<std::uint8_t> member(static_cast<std::size_t>(g.n()), 0);
  for (NodeId v : base) member[static_cast<std::size_t>(v)] = 1;

  obs::PlaneOptions plane_options;
  plane_options.perf = with_perf;
  obs::Plane plane(plane_options);
  sim::SyncNetwork net(udg, 17);
  net.set_observability(&plane);
  net.set_threads(threads);
  net.set_parallel_grain(0);
  net.set_channel({.loss = 0.25, .seed = 99});
  net.set_all_processes([&](NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    return std::make_unique<algo::RepairProcess>(demands[i], member[i] != 0);
  });
  // Crash a spread of backbone members so coverage breaks in every shard.
  for (std::size_t i = 0; i < base.size(); i += 3) {
    net.schedule_crash(base[i], 20 + static_cast<std::int64_t>(i));
  }
  net.run(200);

  SoakCapture capture;
  capture_exports(plane, capture);
  if (plane.perf() != nullptr) capture.perf_rounds = plane.perf()->rounds();
  const obs::Builtin& b = plane.builtin();
  capture.report.promotions = plane.metrics().value(b.promotions);
  capture.report.suspicions_raised = plane.metrics().value(b.suspicions);
  capture.report.refuted_suspicions = plane.metrics().value(b.refutations);
  capture.deficit_samples =
      plane.metrics().histogram_snapshot(b.coverage_deficit).total();
  return capture;
}

TEST(TraceDeterminism, PooledRecorderStagingIsWidthInvariant) {
  const SoakCapture seq = run_pooled_repair(1, /*with_perf=*/false);
  // Every Recorder path must fire, or equality proves nothing.
  EXPECT_GT(seq.report.promotions, 0);
  EXPECT_GT(seq.report.suspicions_raised, 0);
  EXPECT_GT(seq.report.refuted_suspicions, 0);
  EXPECT_GT(seq.deficit_samples, 0);

  // With the perf plane attached and the pool forced, all three exports
  // are the perf-off one-thread run's, string for string.
  for (int threads : {1, 2, 4, 8}) {
    const SoakCapture par = run_pooled_repair(threads, /*with_perf=*/true);
    ASSERT_GT(par.perf_rounds, 0) << "perf plane never engaged";
    EXPECT_EQ(seq.jsonl, par.jsonl) << "JSONL diverged at " << threads
                                    << " threads";
    EXPECT_EQ(seq.chrome, par.chrome) << "Chrome trace diverged at "
                                      << threads << " threads";
    EXPECT_EQ(seq.metrics_json, par.metrics_json)
        << "registry diverged at " << threads << " threads";
  }
}

/// Minimal process for the wiring checks: broadcast two words per round.
class ChatterProcess final : public sim::Process {
 public:
  explicit ChatterProcess(std::int64_t rounds) : rounds_(rounds) {}
  void on_round(sim::Context& ctx) override {
    ctx.broadcast({sim::Word{1}, static_cast<sim::Word>(ctx.round())});
    if (ctx.round() + 1 >= rounds_) halt();
  }

 private:
  std::int64_t rounds_;
};

TEST(ObsWiring, RegistryAgreesWithMetricsStruct) {
  util::Rng rng(7);
  const auto udg = geom::uniform_udg_with_degree(80, 8.0, rng);
  obs::Plane plane;
  sim::SyncNetwork net(udg, 99);
  net.set_observability(&plane);
  net.set_threads(4);
  net.set_parallel_grain(0);  // small n: force the pool, not the fallback
  net.set_channel({.loss = 0.1});
  net.schedule_crash(3, 5);
  net.schedule_crash(11, 9);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<ChatterProcess>(40); });
  net.run(50);

  const obs::Builtin& b = plane.builtin();
  const obs::Registry& reg = plane.metrics();
  // The registry is fed the same merged deltas, at the same barrier, as the
  // Metrics struct — they cannot drift apart.
  EXPECT_EQ(reg.value(b.rounds), net.metrics().rounds);
  EXPECT_EQ(reg.value(b.messages), net.metrics().messages_sent);
  EXPECT_EQ(reg.value(b.words), net.metrics().words_sent);
  EXPECT_EQ(reg.value(b.max_message_words), net.metrics().max_message_words);
  EXPECT_EQ(reg.value(b.messages_lost), net.messages_lost());
  EXPECT_EQ(reg.value(b.crashes), 2);
  EXPECT_GT(reg.value(b.messages), 0);
  EXPECT_GT(reg.value(b.messages_lost), 0);
  // One messages_per_round sample per executed round.
  EXPECT_EQ(reg.histogram_snapshot(b.messages_per_round).total(),
            net.metrics().rounds);
  // Gauges reflect the final round.
  EXPECT_EQ(reg.value(b.live_nodes),
            static_cast<std::int64_t>(udg.n()) - 2);
}

TEST(ObsWiring, AttachingThePlaneDoesNotPerturbTheRun) {
  util::Rng rng(21);
  const auto udg = geom::uniform_udg_with_degree(60, 8.0, rng);

  auto run = [&](obs::Plane* plane) {
    sim::SyncNetwork net(udg, 5);
    if (plane != nullptr) net.set_observability(plane);
    net.set_channel({.loss = 0.2});
    net.set_all_processes(
        [](NodeId) { return std::make_unique<ChatterProcess>(30); });
    net.run(40);
    return net.metrics();
  };

  obs::Plane plane;
  const sim::Metrics with_plane = run(&plane);
  const sim::Metrics without_plane = run(nullptr);
  EXPECT_EQ(with_plane, without_plane);
}

}  // namespace
