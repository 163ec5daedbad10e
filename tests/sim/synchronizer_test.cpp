// Tests for the α-synchronizer (Synchronized adapter on SynchronizedNetwork),
// including the key transfer theorem the paper invokes from Awerbuch: a
// synchronous algorithm run through the synchronizer computes the same result
// under arbitrary bounded message delays.
#include "sim/synchronizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "algo/lp/lp_kmds.h"
#include "algo/lp/lp_kmds_process.h"
#include "algo/rounding/rounding.h"
#include "algo/rounding/rounding_process.h"
#include "algo/udg/udg_kmds.h"
#include "algo/udg/udg_kmds_process.h"
#include "algo/baseline/lrg.h"
#include "support/lrg_process.h"
#include "algo/baseline/luby.h"
#include "support/luby_process.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "graph/generators.h"
#include "obs/plane.h"
#include "util/rng.h"

namespace ftc::sim {
namespace {

using graph::NodeId;

/// Broadcasts a counter for `rounds` rounds; records the sum of everything
/// received per round — a strict lockstep detector: in round r every
/// neighbor's payload must carry exactly r-1.
class LockstepProbe final : public Process {
 public:
  explicit LockstepProbe(std::int64_t rounds) : rounds_(rounds) {}

  void on_round(Context& ctx) override {
    for (const Message& msg : ctx.inbox()) {
      EXPECT_EQ(msg.words.at(0), ctx.round() - 1)
          << "node " << ctx.self() << " heard a stale/early message";
      ++heard_;
    }
    ctx.broadcast({static_cast<Word>(ctx.round())});
    if (ctx.round() + 1 >= rounds_) halt();
  }

  std::int64_t heard_ = 0;

 private:
  std::int64_t rounds_;
};

TEST(Synchronizer, PreservesLockstepSemantics) {
  util::Rng rng(1);
  const graph::Graph g = graph::gnp(40, 0.15, rng);
  SynchronizedNetwork net(g, 7, delay_channel(/*max_delay=*/13, 1));  // heavy reordering
  net.set_all_processes(
      [](NodeId) { return std::make_unique<LockstepProbe>(6); });
  const auto pulses = net.run(100);
  EXPECT_EQ(pulses, 6);
  for (NodeId v = 0; v < g.n(); ++v) {
    // 5 rounds of hearing deg messages each (round 0 hears nothing).
    EXPECT_EQ(net.process_as<LockstepProbe>(v).heard_, 5 * g.degree(v));
  }
}

TEST(Synchronizer, IsolatedNodesRunToCompletion) {
  const graph::Graph g = graph::empty(3);
  SynchronizedNetwork net(g, 1, delay_channel(8, 1));
  net.set_all_processes(
      [](NodeId) { return std::make_unique<LockstepProbe>(4); });
  EXPECT_EQ(net.run(100), 4);
}

TEST(Synchronizer, VirtualTimeScalesWithDelay) {
  util::Rng rng(2);
  const graph::Graph g = graph::gnp(30, 0.2, rng);
  auto run_with = [&](int max_delay) {
    SynchronizedNetwork net(g, 3, delay_channel(max_delay, 1));
    net.set_all_processes(
        [](NodeId) { return std::make_unique<LockstepProbe>(8); });
    net.run(100);
    return net.metrics().virtual_time;
  };
  const auto fast = run_with(1);
  const auto slow = run_with(16);
  EXPECT_EQ(fast, 8);  // unit delays: exactly one time unit per pulse
  EXPECT_GT(slow, fast);
  EXPECT_LE(slow, 8 * 16);
}

TEST(Synchronizer, EnvelopeOverheadIsPerEdgePerPulse) {
  const graph::Graph g = graph::cycle(10);
  SynchronizedNetwork net(g, 1, delay_channel(8, 1));
  net.set_all_processes(
      [](NodeId) { return std::make_unique<LockstepProbe>(5); });
  net.run(100);
  // Every pulse sends exactly one envelope per edge direction; the final
  // pulse's envelopes carry the HALT flag, so halting costs nothing extra.
  EXPECT_EQ(net.metrics().envelopes_sent, 5 * 20);
  EXPECT_EQ(net.metrics().payload_messages, 5 * 20);
}

// Processes publish through Context::obs() with or without the adapter: the
// per-process counters of LP and rounding must read the same totals.
TEST(Synchronizer, ProcessCountersReachTheAttachedPlane) {
  util::Rng rng(21);
  const graph::Graph g = graph::gnp(200, 0.05, rng);
  const auto d = domination::clamp_demands(
      g, domination::uniform_demands(g.n(), 2));
  const int t = 2;
  algo::LpOptions lp_opts;
  const auto lp = algo::solve_fractional_kmds(g, d, lp_opts);

  obs::Plane sync_plane;
  obs::Plane async_plane;
  {
    SyncNetwork lp_net(g, 42);
    lp_net.set_observability(&sync_plane);
    algo::run_lp_processes(lp_net, d, t);
    SyncNetwork r_net(g, 42);
    r_net.set_observability(&sync_plane);
    algo::run_rounding_processes(r_net, lp.primal.x, d);
  }
  {
    SynchronizedNetwork lp_net(g, 42, delay_channel(8, 1));
    lp_net.network().set_observability(&async_plane);
    algo::run_lp_processes(lp_net, d, t);
    SynchronizedNetwork r_net(g, 42, delay_channel(8, 1));
    r_net.network().set_observability(&async_plane);
    algo::run_rounding_processes(r_net, lp.primal.x, d);
  }
  for (const obs::MetricId obs::Builtin::*id :
       {&obs::Builtin::lp_iterations, &obs::Builtin::rounding_trials}) {
    const std::int64_t sync_total =
        sync_plane.metrics().value(sync_plane.builtin().*id);
    EXPECT_GT(sync_total, 0);
    EXPECT_EQ(async_plane.metrics().value(async_plane.builtin().*id),
              sync_total);
  }
}

// The adapter runs inside the parallel round engine: the three drivers'
// outputs and the synchronizer's metrics are identical at every width, with
// the pool forced on (grain 0) so a small graph still exercises it.
TEST(SynchronizerParallel, DriversMatchAcrossWidths) {
  util::Rng rng(16);
  const auto udg = geom::uniform_udg_with_degree(150, 8.0, rng);
  const auto d = domination::clamp_demands(
      udg.graph, domination::uniform_demands(udg.n(), 2));
  const algo::UdgOptions uopts{.k = 2};
  struct Run {
    algo::LpResult lp;
    algo::RoundingResult rounding;
    algo::UdgResult udg;
    std::vector<SynchronizerMetrics> metrics;
  };
  const auto run_at = [&](int threads) {
    const auto widen = [threads](SynchronizedNetwork& net) {
      net.network().set_threads(threads);
      net.network().set_parallel_grain(0);
    };
    Run run;
    SynchronizedNetwork lp_net(udg, 42, delay_channel(/*max_delay=*/5, /*delay_seed=*/9));
    widen(lp_net);
    run.lp = algo::run_lp_processes(lp_net, d, 2);
    run.metrics.push_back(lp_net.metrics());
    SynchronizedNetwork r_net(udg, 42, delay_channel(5, 9));
    widen(r_net);
    run.rounding = algo::run_rounding_processes(r_net, run.lp.primal.x, d);
    run.metrics.push_back(r_net.metrics());
    SynchronizedNetwork u_net(udg, 77, delay_channel(5, 9));
    widen(u_net);
    run.udg = algo::run_udg_processes(u_net, uopts);
    run.metrics.push_back(u_net.metrics());
    return run;
  };
  const Run base = run_at(1);
  EXPECT_EQ(base.lp.rounds, algo::lp_round_count(2));
  EXPECT_EQ(base.rounding.rounds, algo::kRoundingRounds);
  EXPECT_FALSE(base.udg.leaders.empty());
  for (const int threads : {4, 8}) {
    const Run run = run_at(threads);
    EXPECT_EQ(run.lp.primal.x, base.lp.primal.x) << "threads " << threads;
    EXPECT_EQ(run.lp.dual.y, base.lp.dual.y);
    EXPECT_EQ(run.lp.dual.z, base.lp.dual.z);
    EXPECT_EQ(run.lp.rounds, base.lp.rounds);
    EXPECT_EQ(run.rounding.set, base.rounding.set);
    EXPECT_EQ(run.rounding.rounds, base.rounding.rounds);
    EXPECT_EQ(run.udg.part1_leaders, base.udg.part1_leaders);
    EXPECT_EQ(run.udg.leaders, base.udg.leaders);
    EXPECT_EQ(run.metrics, base.metrics) << "threads " << threads;
  }
}

// ---- Loss, bursts and duplication ----

/// The three impaired channels of the lossy suite, each composed with
/// delays of up to 5 rounds: iid loss, a bursty Gilbert–Elliott mix, and
/// duplication.
std::vector<std::pair<const char*, ChannelOptions>> impaired_channels() {
  std::vector<std::pair<const char*, ChannelOptions>> channels;
  ChannelOptions iid = delay_channel(5, 9);
  iid.loss = 0.3;
  channels.emplace_back("iid loss 0.3", iid);
  ChannelOptions bursty = delay_channel(5, 9);
  bursty.burst_loss = 0.85;
  bursty.p_enter_burst = 0.17;
  bursty.p_exit_burst = 0.34;
  channels.emplace_back("burst 0.85", bursty);
  ChannelOptions dup = delay_channel(5, 9);
  dup.duplicate = 0.3;
  channels.emplace_back("duplicate 0.3", dup);
  return channels;
}

/// Alg 1+2 and Alg 3 through the adapter over `channel` at widths 1, 4 and
/// 8: every output is bitwise the synchronous run's, in as many pulses, and
/// the synchronizer's metrics agree across widths.
void expect_lossy_runs_match_sync(const char* name,
                                  const ChannelOptions& channel) {
  util::Rng rng(16);
  const auto udg = geom::uniform_udg_with_degree(120, 8.0, rng);
  const auto d = domination::clamp_demands(
      udg.graph, domination::uniform_demands(udg.n(), 2));
  const algo::UdgOptions uopts{.k = 2};

  SyncNetwork sync_lp_net(udg, 42);
  const auto sync_lp = algo::run_lp_processes(sync_lp_net, d, 2);
  SyncNetwork sync_r_net(udg, 42);
  const auto sync_rounding =
      algo::run_rounding_processes(sync_r_net, sync_lp.primal.x, d);
  SyncNetwork sync_u_net(udg, 77);
  const auto sync_udg = algo::run_udg_processes(sync_u_net, uopts);

  std::vector<SynchronizerMetrics> base;
  for (const int threads : {1, 4, 8}) {
    const auto widen = [threads](SynchronizedNetwork& net) {
      net.network().set_threads(threads);
      net.network().set_parallel_grain(0);
    };
    std::vector<SynchronizerMetrics> metrics;
    SynchronizedNetwork lp_net(udg, 42, channel);
    widen(lp_net);
    const auto lp = algo::run_lp_processes(lp_net, d, 2);
    metrics.push_back(lp_net.metrics());
    SynchronizedNetwork r_net(udg, 42, channel);
    widen(r_net);
    const auto rounding = algo::run_rounding_processes(r_net, lp.primal.x, d);
    metrics.push_back(r_net.metrics());
    SynchronizedNetwork u_net(udg, 77, channel);
    widen(u_net);
    const auto udg_run = algo::run_udg_processes(u_net, uopts);
    metrics.push_back(u_net.metrics());

    EXPECT_EQ(lp.primal.x, sync_lp.primal.x) << name << ", " << threads;
    EXPECT_EQ(lp.dual.y, sync_lp.dual.y) << name << ", " << threads;
    EXPECT_EQ(lp.dual.z, sync_lp.dual.z) << name << ", " << threads;
    EXPECT_EQ(lp.rounds, algo::lp_round_count(2)) << name;
    EXPECT_EQ(rounding.set, sync_rounding.set) << name << ", " << threads;
    EXPECT_EQ(rounding.rounds, algo::kRoundingRounds) << name;
    EXPECT_EQ(udg_run.part1_leaders, sync_udg.part1_leaders) << name;
    EXPECT_EQ(udg_run.leaders, sync_udg.leaders) << name << ", " << threads;
    EXPECT_EQ(u_net.metrics().pulses, sync_u_net.round()) << name;
    if (threads == 1) {
      base = metrics;
      // A drop costs resends; a duplicate only stale copies.
      EXPECT_EQ(metrics[0].retransmissions > 0, channel.duplicate == 0.0)
          << name;
      EXPECT_GT(metrics[0].stale_envelopes, 0) << name;
    } else {
      EXPECT_EQ(metrics, base) << name << ", threads " << threads;
    }
  }
}

TEST(SynchronizerParallel, IidLossMatchesSyncAtEveryWidth) {
  const auto [name, channel] = impaired_channels()[0];
  expect_lossy_runs_match_sync(name, channel);
}

TEST(SynchronizerParallel, BurstLossMatchesSyncAtEveryWidth) {
  const auto [name, channel] = impaired_channels()[1];
  expect_lossy_runs_match_sync(name, channel);
}

TEST(SynchronizerParallel, DuplicationMatchesSyncAtEveryWidth) {
  const auto [name, channel] = impaired_channels()[2];
  expect_lossy_runs_match_sync(name, channel);
}

// Node 0 halts in pulse 0, and the frame carrying its final (HALT)
// envelope is lost. Node 1 cannot run pulse 1 without it, so the halted
// adapter must keep resending until it gets through.
TEST(Synchronizer, HaltedNeighbourResendsItsLostFinalEnvelope) {
  ChannelOptions channel;
  channel.loss = 0.5;
  for (;; ++channel.seed) {
    Channel::ShardState state;
    if (Channel(channel).decide(0, 1, 0, state).dropped) break;
  }
  const graph::Graph g = graph::path(2);
  SynchronizedNetwork net(g, 3, channel);
  net.set_process(0, std::make_unique<LockstepProbe>(1));
  net.set_process(1, std::make_unique<LockstepProbe>(4));
  EXPECT_EQ(net.run(100), 4);
  EXPECT_TRUE(net.process_as<LockstepProbe>(1).halted());
  EXPECT_EQ(net.process_as<LockstepProbe>(1).heard_, 1);
  EXPECT_GT(net.metrics().retransmissions, 0);
  EXPECT_GT(net.network().messages_lost(), 0);
}

// A resent envelope overtaken by the pulses after it reaches a receiver two
// pulses late, where the slot for its parity holds the pulse being
// collected. It must be dropped by its exact pulse number: LockstepProbe
// fails on any envelope delivered into the wrong pulse.
TEST(Synchronizer, EnvelopeTwoPulsesLateIsDropped) {
  util::Rng rng(3);
  const graph::Graph g = graph::gnp(12, 0.4, rng);
  ChannelOptions channel = delay_channel(9, 4);
  channel.loss = 0.3;
  SynchronizedNetwork net(g, 5, channel);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<LockstepProbe>(30); });
  EXPECT_EQ(net.run(100), 30);
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_EQ(net.process_as<LockstepProbe>(v).heard_, 29 * g.degree(v));
  }
  EXPECT_GT(net.metrics().stale_envelopes, 0);
  EXPECT_LE(net.metrics().virtual_time,
            round_budget(30, 2 * g.m(), channel));
}

// ---- Sync/async equivalence for the paper's algorithms ----

class AsyncEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(AsyncEquivalence, LpProcessSameResultUnderDelays) {
  const int max_delay = GetParam();
  util::Rng rng(10);
  const graph::Graph g = graph::gnp(30, 0.15, rng);
  const auto d = domination::clamp_demands(
      g, domination::uniform_demands(g.n(), 2));
  const int t = 2;

  SyncNetwork sync_net(g, 42);
  const auto sync_lp = algo::run_lp_processes(sync_net, d, t);

  SynchronizedNetwork async_net(g, 42, delay_channel(max_delay, 1));
  const auto async_lp = algo::run_lp_processes(async_net, d, t);

  EXPECT_EQ(async_lp.primal.x, sync_lp.primal.x) << "max_delay " << max_delay;
  EXPECT_EQ(async_lp.dual.y, sync_lp.dual.y);
  EXPECT_EQ(async_lp.dual.z, sync_lp.dual.z);
  EXPECT_EQ(async_lp.rounds, algo::lp_round_count(t));  // pulses
}

TEST_P(AsyncEquivalence, RoundingProcessSameResultUnderDelays) {
  const int max_delay = GetParam();
  util::Rng rng(11);
  const graph::Graph g = graph::gnp(40, 0.12, rng);
  const auto d = domination::clamp_demands(
      g, domination::uniform_demands(g.n(), 2));
  algo::LpOptions lp_opts;
  const auto lp = algo::solve_fractional_kmds(g, d, lp_opts);

  const auto mirror = algo::round_fractional(g, lp.primal, d, 42);

  SynchronizedNetwork net(g, 42, delay_channel(max_delay, 1));
  const auto async_rounding = algo::run_rounding_processes(net, lp.primal.x, d);
  EXPECT_EQ(async_rounding.set, mirror.set);
  EXPECT_EQ(async_rounding.rounds, algo::kRoundingRounds);  // pulses
}

TEST_P(AsyncEquivalence, UdgProcessSameResultUnderDelays) {
  const int max_delay = GetParam();
  util::Rng rng(12);
  const auto udg = geom::uniform_udg_with_degree(120, 10.0, rng);
  const std::int32_t k = 2;

  algo::UdgOptions uopts;
  uopts.k = k;
  const auto mirror = algo::solve_udg_kmds(udg, uopts, 77);

  SynchronizedNetwork net(udg, 77, delay_channel(max_delay, 1));
  const auto async_udg = algo::run_udg_processes(net, uopts);
  for (NodeId v = 0; v < udg.n(); ++v) {
    EXPECT_TRUE(net.process_as<algo::UdgKmdsProcess>(v).halted())
        << "node " << v;
  }
  EXPECT_EQ(async_udg.leaders, mirror.leaders);
}


TEST_P(AsyncEquivalence, UdgProcessFastPathsMatchSyncRun) {
  // Dense clusters (nodes hear more than k leaders, so the leader set hits
  // its cap) plus one isolated node (no probe ever reaches a neighbour).
  // Delays reorder deliveries, never the sends, so every node makes the
  // same choices as in the synchronous run.
  const int max_delay = GetParam();
  util::Rng rng(15);
  auto points = geom::clustered_points(150, 3, 4.0, 0.3, rng);
  points.push_back({20.0, 20.0});
  const auto udg = geom::build_udg(points, 1.0);
  const algo::UdgOptions uopts{.k = 3};

  SyncNetwork sync(udg, 78);
  const auto sync_udg = algo::run_udg_processes(sync, uopts);

  SynchronizedNetwork net(udg, 78, delay_channel(max_delay, 1));
  const auto async_udg = algo::run_udg_processes(net, uopts);

  for (NodeId v = 0; v < udg.n(); ++v) {
    EXPECT_TRUE(net.process_as<algo::UdgKmdsProcess>(v).halted())
        << "node " << v;
  }
  EXPECT_EQ(async_udg.part1_leaders, sync_udg.part1_leaders);
  EXPECT_EQ(async_udg.leaders, sync_udg.leaders);
  EXPECT_TRUE(std::binary_search(sync_udg.leaders.begin(),
                                 sync_udg.leaders.end(), udg.n() - 1))
      << "the isolated node must lead";
}

TEST_P(AsyncEquivalence, LubyProcessSameResultUnderDelays) {
  const int max_delay = GetParam();
  util::Rng rng(13);
  const graph::Graph g = graph::gnp(40, 0.12, rng);
  const std::int32_t k = 2;

  const auto mirror = algo::luby_mis_kfold(g, k, 55);

  SynchronizedNetwork net(g, 55, delay_channel(max_delay, 1));
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<algo::LubyMisProcess>(k); });
  net.run(mirror.rounds + 4);

  std::vector<NodeId> async_set;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (net.process_as<algo::LubyMisProcess>(v).selected()) {
      async_set.push_back(v);
    }
  }
  EXPECT_EQ(async_set, mirror.set);
}

TEST_P(AsyncEquivalence, LrgProcessSameResultUnderDelays) {
  const int max_delay = GetParam();
  util::Rng rng(14);
  const graph::Graph g = graph::gnp(40, 0.12, rng);
  const auto d = domination::clamp_demands(
      g, domination::uniform_demands(g.n(), 2));

  const auto mirror = algo::lrg_kmds(g, d, 66);

  SynchronizedNetwork net(g, 66, delay_channel(max_delay, 1));
  net.set_all_processes([&](NodeId v) {
    return std::make_unique<algo::LrgProcess>(
        d[static_cast<std::size_t>(v)]);
  });
  net.run(algo::kLrgRoundsPerIteration *
          (algo::lrg_max_iterations(g.n(), g.max_degree()) + 2));

  std::vector<NodeId> async_set;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (net.process_as<algo::LrgProcess>(v).selected()) {
      async_set.push_back(v);
    }
  }
  EXPECT_EQ(async_set, mirror.set);
}

INSTANTIATE_TEST_SUITE_P(DelaySweep, AsyncEquivalence,
                         ::testing::Values(1, 3, 9, 25));

}  // namespace
}  // namespace ftc::sim
