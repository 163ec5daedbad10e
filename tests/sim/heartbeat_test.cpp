#include "sim/heartbeat.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "graph/generators.h"
#include "obs/plane.h"

namespace ftc::sim {
namespace {

using graph::NodeId;

/// Broadcasts a beacon every round and feeds its monitor — the minimal
/// heartbeat host. Records when each suspicion was first raised.
class BeaconProcess final : public Process {
 public:
  explicit BeaconProcess(std::int64_t timeout)
      : monitor_(HeartbeatMonitor::Options{timeout}) {}

  void on_round(Context& ctx) override {
    monitor_.observe(ctx);
    for (NodeId w : ctx.neighbors()) {
      if (monitor_.suspects(w) &&
          first_suspected_round_.find(w) == first_suspected_round_.end()) {
        first_suspected_round_[w] = ctx.round();
      }
    }
    ctx.broadcast({Word{1}});
    if (ctx.round() >= 39) halt();
  }

  HeartbeatMonitor monitor_;
  std::map<NodeId, std::int64_t> first_suspected_round_;
};

TEST(HeartbeatMonitor, NoSuspicionsOnReliableLinks) {
  const graph::Graph g = graph::complete(5);
  SyncNetwork net(g, 1);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<BeaconProcess>(3); });
  net.run(40);
  for (NodeId v = 0; v < 5; ++v) {
    const auto& p = net.process_as<BeaconProcess>(v);
    EXPECT_EQ(p.monitor_.suspicions_raised(), 0);
    EXPECT_TRUE(p.monitor_.suspected().empty());
  }
}

TEST(HeartbeatMonitor, DetectsCrashAfterExactlyTimeoutRounds) {
  const std::int64_t timeout = 4;
  const std::int64_t crash_round = 10;
  const graph::Graph g = graph::complete(4);
  SyncNetwork net(g, 1);
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<BeaconProcess>(timeout); });
  net.schedule_crash(3, crash_round);
  net.run(40);
  for (NodeId v = 0; v < 3; ++v) {
    const auto& p = net.process_as<BeaconProcess>(v);
    EXPECT_TRUE(p.monitor_.suspects(3));
    // The crash at the start of crash_round drops 3's in-flight heartbeat,
    // so the last one heard arrived in round crash_round - 1; suspicion
    // fires once the gap exceeds the timeout.
    ASSERT_TRUE(p.first_suspected_round_.count(3));
    EXPECT_EQ(p.first_suspected_round_.at(3), crash_round + timeout);
    EXPECT_EQ(p.monitor_.suspicions_raised(), 1);
    EXPECT_EQ(p.monitor_.refuted_suspicions(), 0);
  }
}

TEST(HeartbeatMonitor, SuspectsNeighborDeadFromTheStart) {
  const std::int64_t timeout = 3;
  const graph::Graph g = graph::path(2);
  SyncNetwork net(g, 1);
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<BeaconProcess>(timeout); });
  net.crash(1);
  net.run(40);
  const auto& p = net.process_as<BeaconProcess>(0);
  EXPECT_TRUE(p.monitor_.suspects(1));
  // Grace treats round -1 as the last-heard round.
  EXPECT_EQ(p.first_suspected_round_.at(1), timeout);
}

TEST(HeartbeatMonitor, FalseSuspicionsAreRefutedUnderLoss) {
  // Aggressive timeout + heavy loss: false suspicions must occur, and every
  // one of them must be withdrawn once the live neighbor is heard again.
  const graph::Graph g = graph::complete(3);
  SyncNetwork net(g, 1);
  net.set_channel({.loss = 0.6, .seed = 1234});
  net.set_all_processes(
      [](NodeId) { return std::make_unique<BeaconProcess>(1); });
  net.run(40);
  std::int64_t raised = 0;
  std::int64_t refuted = 0;
  for (NodeId v = 0; v < 3; ++v) {
    const auto& p = net.process_as<BeaconProcess>(v);
    raised += p.monitor_.suspicions_raised();
    refuted += p.monitor_.refuted_suspicions();
  }
  EXPECT_GT(raised, 0);
  EXPECT_GT(refuted, 0);
  EXPECT_LE(refuted, raised);
}

/// BeaconProcess with the full detector option set (M-of-N experiments).
class WindowedBeacon final : public Process {
 public:
  explicit WindowedBeacon(HeartbeatMonitor::Options options)
      : monitor_(options) {}

  void on_round(Context& ctx) override {
    monitor_.observe(ctx);
    ctx.broadcast({Word{1}});
    if (ctx.round() >= 59) halt();
  }

  HeartbeatMonitor monitor_;
};

struct SuspicionStats {
  std::int64_t raised = 0;
  std::int64_t refuted = 0;

  friend bool operator==(const SuspicionStats&,
                         const SuspicionStats&) = default;
};

/// All-live beacon mesh under iid loss: every suspicion raised is false.
SuspicionStats run_all_live(double loss, int threads,
                            HeartbeatMonitor::Options options) {
  const graph::Graph g = graph::complete(6);
  SyncNetwork net(g, 9);
  net.set_threads(threads);
  net.set_parallel_grain(0);  // small n: force the pool, not the fallback
  if (loss > 0.0) net.set_channel({.loss = loss, .seed = 777});
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<WindowedBeacon>(options); });
  net.run(60);
  SuspicionStats stats;
  for (NodeId v = 0; v < 6; ++v) {
    const auto& m = net.process_as<WindowedBeacon>(v).monitor_;
    stats.raised += m.suspicions_raised();
    stats.refuted += m.refuted_suspicions();
  }
  return stats;
}

TEST(HeartbeatMonitor, FalseSuspicionBoundsAcrossLossAndWidths) {
  // M-of-N detector tuned for lossy links: suspect after 9 missed beats in
  // a 10-round window. With 6 nodes x 5 neighbors x 60 rounds there are
  // ~1800 suspicion opportunities per run; the false-suspicion probability
  // per opportunity is ~1.4e-4 at 30% iid loss and ~1e-8 at 10%, so the
  // totals must stay tiny — and identical at every engine width.
  HeartbeatMonitor::Options options;
  options.window = 10;
  options.misses_to_suspect = 9;
  for (const double loss : {0.0, 0.1, 0.3}) {
    const SuspicionStats serial = run_all_live(loss, 1, options);
    if (loss == 0.0) {
      EXPECT_EQ(serial.raised, 0);
    } else {
      EXPECT_LE(serial.raised, 3) << "loss=" << loss;
    }
    // Every false suspicion is eventually refuted by the live beacon; at
    // run end at most a handful can still be pending.
    EXPECT_LE(serial.raised - serial.refuted, 2) << "loss=" << loss;
    for (int threads = 2; threads <= 8; ++threads) {
      EXPECT_EQ(run_all_live(loss, threads, options), serial)
          << "loss=" << loss << " threads=" << threads;
    }
  }
}

TEST(HeartbeatMonitor, WindowedModeBeatsConsecutiveTimeoutsUnderLoss) {
  // At 30% loss an aggressive consecutive-timeout detector false-suspects
  // constantly; the M-of-N detector with the same detection latency is far
  // quieter. (Both deterministic: fixed seeds.)
  HeartbeatMonitor::Options consecutive;
  consecutive.timeout = 1;
  HeartbeatMonitor::Options windowed;
  windowed.window = 8;
  windowed.misses_to_suspect = 6;
  const SuspicionStats noisy = run_all_live(0.3, 1, consecutive);
  const SuspicionStats quiet = run_all_live(0.3, 1, windowed);
  EXPECT_GT(noisy.raised, 0);
  EXPECT_LT(quiet.raised, noisy.raised);
}

TEST(HeartbeatMonitor, WindowedModeStillDetectsRealCrash) {
  const graph::Graph g = graph::complete(4);
  SyncNetwork net(g, 5);
  net.set_channel({.loss = 0.2, .seed = 31});
  HeartbeatMonitor::Options options;
  options.window = 8;
  options.misses_to_suspect = 6;
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<WindowedBeacon>(options); });
  net.schedule_crash(3, 10);
  net.run(60);
  for (NodeId v = 0; v < 3; ++v) {
    // A dead neighbor misses every slot: permanently suspected.
    EXPECT_TRUE(net.process_as<WindowedBeacon>(v).monitor_.suspects(3))
        << "node " << v;
  }
}

/// Beacon whose node 0 goes silent for rounds [10, 20): a silence every
/// neighbor must suspect and then refute, on top of the channel's losses.
class SilentSpellBeacon final : public Process {
 public:
  explicit SilentSpellBeacon(HeartbeatMonitor::Options options)
      : monitor_(options) {}

  void on_round(Context& ctx) override {
    monitor_.observe(ctx);
    const bool silent =
        ctx.self() == 0 && ctx.round() >= 10 && ctx.round() < 20;
    if (!silent) ctx.broadcast({Word{1}});
    if (ctx.round() >= 59) halt();
  }

  HeartbeatMonitor monitor_;
};

struct DetectorLog {
  /// (round, node, event name, neighbor, evidence) of every detector event.
  std::vector<std::array<std::int64_t, 5>> events;
  SuspicionStats stats;
};

DetectorLog run_silence_and_loss(HeartbeatMonitor::Options options) {
  const graph::Graph g = graph::complete(5);
  SyncNetwork net(g, 3);
  obs::Plane plane;
  net.set_observability(&plane);
  net.set_channel({.loss = 0.3, .seed = 4242});
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<SilentSpellBeacon>(options); });
  net.run(60);
  DetectorLog log;
  for (const obs::TraceEvent& e : plane.trace().events()) {
    if (e.category != obs::Category::kDetector) continue;
    log.events.push_back({e.round, e.node, e.name, e.a0, e.a1});
  }
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto& m = net.process_as<SilentSpellBeacon>(v).monitor_;
    log.stats.raised += m.suspicions_raised();
    log.stats.refuted += m.refuted_suspicions();
  }
  return log;
}

TEST(HeartbeatMonitor, TimeoutIsTheWindowRuleWithTPlusOneMisses) {
  // A consecutive timeout T is the M-of-N rule with window = misses = T+1:
  // same suspicion rounds, same evidence, same refutations.
  for (std::int64_t t = 1; t <= 4; ++t) {
    HeartbeatMonitor::Options timeout;
    timeout.timeout = t;
    HeartbeatMonitor::Options windowed;
    windowed.window = static_cast<int>(t) + 1;
    windowed.misses_to_suspect = static_cast<int>(t) + 1;
    const DetectorLog a = run_silence_and_loss(timeout);
    const DetectorLog b = run_silence_and_loss(windowed);
    EXPECT_GT(a.stats.raised, 0) << "T=" << t;
    EXPECT_GT(a.stats.refuted, 0) << "T=" << t;
    EXPECT_EQ(a.stats, b.stats) << "T=" << t;
    EXPECT_EQ(a.events, b.events) << "T=" << t;
  }
}

TEST(HeartbeatMonitor, RejectsWindowsBeyondTheBeatHistory) {
  // The beat history is one 64-bit word: 63 past beats plus this round.
  HeartbeatMonitor::Options o;
  o.window = 63;
  EXPECT_NO_THROW(HeartbeatMonitor{o});
  for (const int window : {64, 65, 1000, -1}) {
    o.window = window;
    EXPECT_THROW(HeartbeatMonitor{o}, std::invalid_argument) << window;
  }
  o = HeartbeatMonitor::Options{};
  o.timeout = 62;  // window = misses = 63
  EXPECT_NO_THROW(HeartbeatMonitor{o});
  for (const std::int64_t timeout : {63, 64, 1000, -1}) {
    o.timeout = timeout;
    EXPECT_THROW(HeartbeatMonitor{o}, std::invalid_argument) << timeout;
  }
  o = HeartbeatMonitor::Options{};
  o.window = 8;
  o.misses_to_suspect = 9;
  EXPECT_THROW(HeartbeatMonitor{o}, std::invalid_argument);
}

TEST(HeartbeatMonitor, RefutationClearsTheSuspectList) {
  // Manually drive a monitor through a silence gap followed by a beacon.
  const graph::Graph g = graph::path(2);

  class QuietThenLoud final : public Process {
   public:
    void on_round(Context& ctx) override {
      // Silent for rounds 0..5, beacons afterwards.
      if (ctx.round() > 5) ctx.broadcast({Word{1}});
      if (ctx.round() >= 19) halt();
    }
  };
  class Watcher final : public Process {
   public:
    Watcher() : monitor_(HeartbeatMonitor::Options{2}) {}
    void on_round(Context& ctx) override {
      monitor_.observe(ctx);
      ctx.broadcast({Word{1}});
      if (ctx.round() >= 19) halt();
    }
    HeartbeatMonitor monitor_;
  };

  SyncNetwork net(g, 1);
  net.set_process(0, std::make_unique<Watcher>());
  net.set_process(1, std::make_unique<QuietThenLoud>());
  net.run(25);
  const auto& m = net.process_as<Watcher>(0).monitor_;
  EXPECT_EQ(m.suspicions_raised(), 1);   // raised during the silence
  EXPECT_EQ(m.refuted_suspicions(), 1);  // withdrawn at the first beacon
  EXPECT_FALSE(m.suspects(1));
}

}  // namespace
}  // namespace ftc::sim
