// Determinism contract of the parallel round engine: for the same (graph,
// processes, seed), SyncNetwork must produce bitwise-identical executions
// for every thread count — identical Metrics, identical per-node final
// states, and identical inbox orderings — including under crash and churn
// schedules compiled from a FaultPlan and impaired channels; and a network
// refuses to be reconfigured once its first round has run.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "support/luby_process.h"
#include "geom/udg.h"
#include "graph/generators.h"
#include "obs/plane.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "util/rng.h"

namespace ftc::sim {
namespace {

using graph::NodeId;

/// Records every delivered message verbatim — (round, sender, words) in
/// delivery order — so two runs can be compared for identical inbox
/// orderings, not just identical final states. Broadcasts RNG-derived
/// payloads to keep the message plane and the private streams busy.
class RecordingProcess final : public Process {
 public:
  explicit RecordingProcess(std::int64_t rounds) : rounds_(rounds) {}

  void on_round(Context& ctx) override {
    for (const Message& msg : ctx.inbox()) {
      log_.push_back(ctx.round());
      log_.push_back(msg.from);
      for (Word w : msg.words) log_.push_back(w);
    }
    const auto draw = static_cast<Word>(ctx.rng()() & 0xFFFF);
    ctx.broadcast({draw, static_cast<Word>(ctx.round())});
    if (ctx.round() + 1 >= rounds_) halt();
  }

  std::vector<std::int64_t> log_;

 private:
  std::int64_t rounds_;
};

struct RunResult {
  Metrics metrics;
  std::int64_t messages_lost = 0;
  std::int64_t rounds_executed = 0;
  NodeId live = 0;
  std::vector<bool> crashed;
  std::vector<std::vector<std::int64_t>> logs;  // per node

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

RunResult collect(SyncNetwork& net, std::int64_t executed) {
  RunResult r;
  r.metrics = net.metrics();
  r.messages_lost = net.messages_lost();
  r.rounds_executed = executed;
  r.live = net.live_count();
  for (NodeId v = 0; v < net.graph().n(); ++v) {
    r.crashed.push_back(net.crashed(v));
    r.logs.push_back(net.process_as<RecordingProcess>(v).log_);
  }
  return r;
}

constexpr std::int64_t kRounds = 25;

RunResult run_plain(const graph::Graph& g, std::uint64_t seed, int threads,
                    std::size_t grain = 0) {
  SyncNetwork net(g, seed);
  net.set_threads(threads);
  net.set_parallel_grain(grain);  // 0 = always use the pool (test sizes are
                                  // far below the production threshold)
  net.set_all_processes(
      [](NodeId) { return std::make_unique<RecordingProcess>(kRounds); });
  const auto executed = net.run(kRounds + 1);
  return collect(net, executed);
}

TEST(ParallelDeterminism, PlainRunMatchesSequentialForEveryThreadCount) {
  for (std::uint64_t seed : {1ULL, 7ULL, 1234567ULL}) {
    util::Rng rng(seed);
    const graph::Graph g = graph::gnp(120, 0.08, rng);
    const RunResult sequential = run_plain(g, seed, 1);
    EXPECT_GT(sequential.metrics.messages_sent, 0);
    for (int threads : {2, 3, 4, 8, 16}) {
      const RunResult parallel = run_plain(g, seed, threads);
      EXPECT_EQ(sequential, parallel)
          << "seed " << seed << ", threads " << threads;
    }
  }
}

RunResult run_faulted(const geom::UnitDiskGraph& udg, std::uint64_t seed,
                      int threads) {
  SyncNetwork net(udg, seed);
  net.set_threads(threads);
  net.set_parallel_grain(0);
  net.set_channel({.loss = 0.15, .seed = seed ^ 0xC0FFEE});
  net.set_all_processes(
      [](NodeId) { return std::make_unique<RecordingProcess>(kRounds); });
  // Churn: crashes and rejoins with reset state, under a lossy channel.
  FaultInjector injector(FaultPlan::churn(0.014, 2, 6, 0, 18), seed + 17);
  injector.install(net, kRounds + 1, [](NodeId) {
    return std::make_unique<RecordingProcess>(kRounds);
  });
  const auto executed = net.run(kRounds + 1);
  return collect(net, executed);
}

TEST(ParallelDeterminism, FaultPlanScheduleMatchesSequential) {
  for (std::uint64_t seed : {3ULL, 99ULL}) {
    util::Rng rng(seed);
    const auto udg = geom::uniform_udg_with_degree(150, 10.0, rng);
    const RunResult sequential = run_faulted(udg, seed, 1);
    // The fault schedule must actually bite for this test to mean anything.
    EXPECT_GT(sequential.metrics.messages_sent, 0);
    EXPECT_GT(sequential.messages_lost, 0);
    for (int threads : {2, 5}) {
      const RunResult parallel = run_faulted(udg, seed, threads);
      EXPECT_EQ(sequential, parallel)
          << "seed " << seed << ", threads " << threads;
    }
  }
}

struct LossyRunResult {
  RunResult base;
  std::int64_t duplicated = 0;
  std::int64_t reordered = 0;

  friend bool operator==(const LossyRunResult&,
                         const LossyRunResult&) = default;
};

LossyRunResult run_lossy_channel(const graph::Graph& g, std::uint64_t seed,
                                 int threads) {
  obs::Plane plane;
  SyncNetwork net(g, seed);
  net.set_observability(&plane);
  net.set_threads(threads);
  net.set_parallel_grain(0);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<RecordingProcess>(kRounds); });
  FaultInjector injector(FaultPlan::iid_crashes(0.01, 5, 15), seed ^ 0xABCDEF);
  injector.install(net, kRounds + 1);
  // One full impairment mix installed before round 0: delayed deliveries
  // stay in flight across rounds and burst chains are cached per shard, and
  // the run must replay bitwise-identically at any engine width.
  net.set_channel({.loss = 0.15,
                   .asymmetry = 0.9,
                   .duplicate = 0.3,
                   .reorder = 0.25,
                   .max_reorder_delay = 3,
                   .burst_loss = 0.8,
                   .p_enter_burst = 0.1,
                   .p_exit_burst = 0.4,
                   .seed = seed ^ 0xC4A27E1});
  const std::int64_t executed = net.run(kRounds + 1);
  LossyRunResult r{collect(net, executed)};
  const auto& reg = plane.metrics();
  r.duplicated = reg.value(plane.builtin().messages_duplicated);
  r.reordered = reg.value(plane.builtin().messages_reordered);
  return r;
}

TEST(ParallelDeterminism, LossyChannelScheduleMatchesAtWidths148) {
  for (std::uint64_t seed : {13ULL, 4096ULL}) {
    util::Rng rng(seed);
    const graph::Graph g = graph::gnp(100, 0.1, rng);
    const LossyRunResult sequential = run_lossy_channel(g, seed, 1);
    // Every impairment family must actually bite for the equality to mean
    // anything.
    EXPECT_GT(sequential.base.metrics.messages_sent, 0);
    EXPECT_GT(sequential.base.messages_lost, 0);
    EXPECT_GT(sequential.duplicated, 0);
    EXPECT_GT(sequential.reordered, 0);
    for (int threads : {2, 4, 8, 16}) {
      const LossyRunResult parallel = run_lossy_channel(g, seed, threads);
      EXPECT_EQ(sequential, parallel)
          << "seed " << seed << ", threads " << threads;
    }
  }
}

TEST(ParallelDeterminism, SettersThrowAfterTheFirstRound) {
  util::Rng rng(11);
  const graph::Graph g = graph::gnp(90, 0.1, rng);
  const RunResult reference = run_plain(g, 11, 1);
  obs::Plane plane;
  // Width, channel and plane are fixed before round 0. A late setter throws
  // and changes nothing: the run continues to the unconfigured result.
  const std::function<void(SyncNetwork&)> setters[] = {
      [](SyncNetwork& net) { net.set_threads(4); },
      [](SyncNetwork& net) { net.set_channel({.loss = 0.5}); },
      [&plane](SyncNetwork& net) { net.set_observability(&plane); },
  };
  for (const auto& setter : setters) {
    SyncNetwork net(g, 11);
    net.set_parallel_grain(0);
    net.set_all_processes(
        [](NodeId) { return std::make_unique<RecordingProcess>(kRounds); });
    ASSERT_TRUE(net.step());
    EXPECT_THROW(setter(net), std::logic_error);
    EXPECT_EQ(net.threads(), 1);
    EXPECT_FALSE(net.channel().impaired());
    EXPECT_EQ(net.observability(), nullptr);
    const std::int64_t executed = 1 + net.run(kRounds);
    EXPECT_EQ(reference, collect(net, executed));
  }
  EXPECT_EQ(plane.metrics().value(plane.builtin().rounds), 0);
}

RunResult run_crash_recover(const graph::Graph& g, std::uint64_t seed,
                            int threads) {
  SyncNetwork net(g, seed);
  net.set_threads(threads);
  net.set_parallel_grain(0);
  net.set_channel({.loss = 0.1, .seed = seed ^ 0xFA17});
  net.set_all_processes(
      [](NodeId) { return std::make_unique<RecordingProcess>(kRounds); });
  // Hand-written crash + rejoin schedule: victims fall mid-protocol with
  // messages in flight, then rejoin with reset state a few rounds later —
  // one of them twice (crash → rejoin → crash again → rejoin again).
  const auto factory = [](NodeId) {
    return std::make_unique<RecordingProcess>(kRounds);
  };
  net.schedule_crash(2, 3);
  net.schedule_crash(5, 3);
  net.schedule_crash(9, 7);
  net.schedule_recovery(5, 6, factory(5));
  net.schedule_recovery(2, 10, factory(2));
  net.schedule_crash(5, 12);
  net.schedule_recovery(5, 16, factory(5));
  net.schedule_recovery(9, 18, factory(9));
  const auto executed = net.run(kRounds + 1);
  return collect(net, executed);
}

TEST(ParallelDeterminism, CrashRecoveryScheduleMatchesForEveryThreadCount) {
  for (std::uint64_t seed : {2ULL, 31ULL}) {
    util::Rng rng(seed);
    const graph::Graph g = graph::gnp(60, 0.12, rng);
    const RunResult sequential = run_crash_recover(g, seed, 1);
    // All scheduled rejoins happened: every victim finishes alive.
    EXPECT_FALSE(sequential.crashed[2]);
    EXPECT_FALSE(sequential.crashed[5]);
    EXPECT_FALSE(sequential.crashed[9]);
    EXPECT_EQ(sequential.live, 60);
    EXPECT_GT(sequential.messages_lost, 0);
    // A rejoined node boots from a fresh process: its log restarts after
    // the recovery round instead of continuing the pre-crash history.
    ASSERT_FALSE(sequential.logs[5].empty());
    EXPECT_GE(sequential.logs[5].front(), 16);
    for (int threads : {2, 3, 4, 5, 6, 7, 8, 16}) {
      const RunResult parallel = run_crash_recover(g, seed, threads);
      EXPECT_EQ(sequential, parallel)
          << "seed " << seed << ", threads " << threads;
    }
  }
}

TEST(ParallelDeterminism, RealAlgorithmProducesIdenticalClustering) {
  util::Rng rng(21);
  const graph::Graph g = graph::gnp(200, 0.05, rng);

  auto run_luby = [&](int threads) {
    SyncNetwork net(g, 77);
    net.set_threads(threads);
    net.set_parallel_grain(0);
    net.set_all_processes(
        [](NodeId) { return std::make_unique<algo::LubyMisProcess>(2); });
    net.run(100000);
    std::vector<bool> selected;
    for (NodeId v = 0; v < g.n(); ++v) {
      selected.push_back(net.process_as<algo::LubyMisProcess>(v).selected());
    }
    return std::make_pair(selected, net.metrics());
  };

  const auto sequential = run_luby(1);
  const auto parallel = run_luby(6);
  EXPECT_EQ(sequential.first, parallel.first);
  EXPECT_EQ(sequential.second, parallel.second);
}

TEST(ParallelDeterminism, CrashDropsInFlightMessagesUnderParallelEngine) {
  // The sender-indexed in-flight drop must behave identically when the
  // messages were staged by a parallel round.
  const graph::Graph g = graph::star(8);
  auto run_with = [&](int threads) {
    SyncNetwork net(g, 5);
    net.set_threads(threads);
    net.set_parallel_grain(0);
    net.set_all_processes(
        [](NodeId) { return std::make_unique<RecordingProcess>(12); });
    net.schedule_crash(3, 4);
    net.schedule_crash(0, 7);  // the hub: silences everyone afterwards
    const auto executed = net.run(20);
    return collect(net, executed);
  };
  const RunResult sequential = run_with(1);
  EXPECT_TRUE(sequential.crashed[0]);
  EXPECT_TRUE(sequential.crashed[3]);
  EXPECT_EQ(sequential.live, 6);
  EXPECT_EQ(run_with(4), sequential);
}

TEST(ParallelDeterminism, SmallNFallbackMatchesForcedParallelBitwise) {
  // The auto-sequential fallback (per-shard work below the grain threshold)
  // must be an execution-strategy choice only: running the staged phases
  // inline has to produce bitwise-identical results to forcing them through
  // the thread pool at the same width.
  for (std::uint64_t seed : {5ULL, 23ULL}) {
    util::Rng rng(seed);
    const graph::Graph g = graph::gnp(110, 0.08, rng);
    for (int threads : {2, 4, 8, 16}) {
      const RunResult forced = run_plain(g, seed, threads, 0);
      const RunResult fallback =
          run_plain(g, seed, threads, SyncNetwork::kDefaultParallelGrain);
      EXPECT_EQ(forced, fallback)
          << "seed " << seed << ", threads " << threads;
    }
  }
}

TEST(ParallelDeterminism, BroadcastPayloadSharingKeepsAccounting) {
  // One broadcast of 3 words from the hub of a star must count one message
  // per neighbor (paper accounting) even though the payload is stored once.
  const graph::Graph g = graph::star(6);

  class OneBroadcast final : public Process {
   public:
    void on_round(Context& ctx) override {
      if (ctx.self() == 0 && ctx.round() == 0) {
        ctx.broadcast({Word{1}, Word{2}, Word{3}});
      }
      if (ctx.round() >= 1) halt();
    }
  };

  for (int threads : {1, 4}) {
    SyncNetwork net(g, 1);
    net.set_threads(threads);
    net.set_parallel_grain(0);
    net.set_all_processes(
        [](NodeId) { return std::make_unique<OneBroadcast>(); });
    net.run(4);
    EXPECT_EQ(net.metrics().messages_sent, 5);
    EXPECT_EQ(net.metrics().words_sent, 15);
    EXPECT_EQ(net.metrics().max_message_words, 3);
  }
}

}  // namespace
}  // namespace ftc::sim
