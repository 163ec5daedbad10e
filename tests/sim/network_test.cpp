#include "sim/network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>

#include "graph/generators.h"

namespace ftc::sim {
namespace {

using graph::NodeId;

/// Broadcasts its id once, then records everything it hears until round
/// `lifetime`, then halts.
class GossipProcess final : public Process {
 public:
  explicit GossipProcess(std::int64_t lifetime) : lifetime_(lifetime) {}

  void on_round(Context& ctx) override {
    if (ctx.round() == 0) {
      ctx.broadcast({static_cast<Word>(ctx.self())});
    }
    for (const Message& msg : ctx.inbox()) {
      heard_.push_back(msg.from);
      heard_words_.push_back(msg.words.at(0));
    }
    if (ctx.round() >= lifetime_) halt();
  }

  std::vector<NodeId> heard_;
  std::vector<Word> heard_words_;

 private:
  std::int64_t lifetime_;
};

/// Counts rounds; never sends; halts after `rounds` rounds.
class CountingProcess final : public Process {
 public:
  explicit CountingProcess(std::int64_t rounds) : limit_(rounds) {}
  void on_round(Context&) override {
    ++executed_;
    if (executed_ >= limit_) halt();
  }
  std::int64_t executed_ = 0;

 private:
  std::int64_t limit_;
};

/// Forwards received tokens along a path graph (relay chain).
class RelayProcess final : public Process {
 public:
  void on_round(Context& ctx) override {
    if (ctx.self() == 0 && ctx.round() == 0) {
      ctx.send(1, {Word{42}});
    }
    for (const Message& msg : ctx.inbox()) {
      received_ = true;
      // Forward to the next higher neighbor, if any.
      for (NodeId w : ctx.neighbors()) {
        if (w > msg.from) ctx.send(w, {msg.words.at(0)});
      }
    }
    if (ctx.round() > 10) halt();
  }
  bool received_ = false;
};

TEST(SyncNetwork, MessagesDeliveredNextRound) {
  const graph::Graph g = graph::complete(3);
  SyncNetwork net(g, 1);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<GossipProcess>(2); });
  net.run(5);
  for (NodeId v = 0; v < 3; ++v) {
    auto& p = net.process_as<GossipProcess>(v);
    // Everyone hears both other nodes exactly once.
    EXPECT_EQ(p.heard_.size(), 2u);
  }
}

TEST(SyncNetwork, InboxSortedBySender) {
  const graph::Graph g = graph::star(6);  // center 0
  SyncNetwork net(g, 1);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<GossipProcess>(2); });
  net.run(4);
  auto& center = net.process_as<GossipProcess>(0);
  EXPECT_EQ(center.heard_, (std::vector<NodeId>{1, 2, 3, 4, 5}));
  EXPECT_EQ(center.heard_words_, (std::vector<Word>{1, 2, 3, 4, 5}));
}

TEST(SyncNetwork, RunStopsWhenAllHalt) {
  const graph::Graph g = graph::empty(4);
  SyncNetwork net(g, 1);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<CountingProcess>(3); });
  const std::int64_t executed = net.run(100);
  EXPECT_EQ(executed, 3);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(net.process_as<CountingProcess>(v).executed_, 3);
  }
}

TEST(SyncNetwork, RunRespectsMaxRounds) {
  const graph::Graph g = graph::empty(2);
  SyncNetwork net(g, 1);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<CountingProcess>(1000); });
  EXPECT_EQ(net.run(7), 7);
}

TEST(SyncNetwork, RelayChainTakesOneRoundPerHop) {
  const graph::Graph g = graph::path(5);
  SyncNetwork net(g, 1);
  net.set_all_processes([](NodeId) { return std::make_unique<RelayProcess>(); });
  net.run(20);
  for (NodeId v = 1; v < 5; ++v) {
    EXPECT_TRUE(net.process_as<RelayProcess>(v).received_) << "node " << v;
  }
}

TEST(SyncNetwork, MetricsCountMessagesAndWords) {
  const graph::Graph g = graph::complete(4);
  SyncNetwork net(g, 1);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<GossipProcess>(2); });
  net.run(5);
  const Metrics& m = net.metrics();
  EXPECT_EQ(m.messages_sent, 4 * 3);  // each node broadcasts once
  EXPECT_EQ(m.words_sent, 4 * 3);     // one word each
  EXPECT_EQ(m.max_message_words, 1);
}

TEST(SyncNetwork, PerNodeRngIsDeterministic) {
  const graph::Graph g = graph::empty(3);

  class DrawProcess final : public Process {
   public:
    void on_round(Context& ctx) override {
      value_ = ctx.rng()();
      halt();
    }
    std::uint64_t value_ = 0;
  };

  SyncNetwork a(g, 99), b(g, 99), c(g, 100);
  for (auto* net : {&a, &b, &c}) {
    net->set_all_processes(
        [](NodeId) { return std::make_unique<DrawProcess>(); });
    net->run(2);
  }
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(a.process_as<DrawProcess>(v).value_,
              b.process_as<DrawProcess>(v).value_);
    EXPECT_NE(a.process_as<DrawProcess>(v).value_,
              c.process_as<DrawProcess>(v).value_);
  }
  // Distinct nodes see distinct streams.
  EXPECT_NE(a.process_as<DrawProcess>(0).value_,
            a.process_as<DrawProcess>(1).value_);
}

TEST(SyncNetwork, CrashedNodeStopsParticipating) {
  const graph::Graph g = graph::complete(3);
  SyncNetwork net(g, 1);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<GossipProcess>(3); });
  net.crash(2);
  net.run(5);
  EXPECT_TRUE(net.crashed(2));
  // Nodes 0 and 1 only hear each other (2 never ran).
  EXPECT_EQ(net.process_as<GossipProcess>(0).heard_,
            (std::vector<NodeId>{1}));
  EXPECT_EQ(net.process_as<GossipProcess>(1).heard_,
            (std::vector<NodeId>{0}));
}

TEST(SyncNetwork, ScheduledCrashDropsInFlightMessages) {
  const graph::Graph g = graph::path(2);

  // Sender emits one message per round; receiver records.
  class Emitter final : public Process {
   public:
    void on_round(Context& ctx) override {
      ctx.send(1, {static_cast<Word>(ctx.round())});
      if (ctx.round() >= 5) halt();
    }
  };
  class Sink final : public Process {
   public:
    void on_round(Context& ctx) override {
      for (const Message& msg : ctx.inbox()) {
        rounds_seen_.push_back(msg.words.at(0));
      }
      if (ctx.round() >= 6) halt();
    }
    std::vector<Word> rounds_seen_;
  };

  SyncNetwork net(g, 1);
  net.set_process(0, std::make_unique<Emitter>());
  net.set_process(1, std::make_unique<Sink>());
  net.schedule_crash(0, 3);  // crash before round 3 executes
  net.run(10);
  // Messages from rounds 0..2 arrive in rounds 1..3... but the round-2
  // message is dropped by the crash applied at the start of round 3.
  EXPECT_EQ(net.process_as<Sink>(1).rounds_seen_, (std::vector<Word>{0, 1}));
}

TEST(SyncNetwork, CrashedReceiverDropsInbox) {
  const graph::Graph g = graph::path(2);
  SyncNetwork net(g, 1);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<GossipProcess>(3); });
  net.crash(1);
  net.run(5);
  EXPECT_TRUE(net.process_as<GossipProcess>(0).heard_.empty());
}

TEST(SyncNetwork, UdgNetworkExposesDistances) {
  const std::vector<geom::Point> pts{{0, 0}, {0.3, 0.4}};
  const geom::UnitDiskGraph udg = geom::build_udg(pts, 1.0);

  class DistanceProbe final : public Process {
   public:
    void on_round(Context& ctx) override {
      has_ = ctx.has_distances();
      if (ctx.degree() > 0) d_ = ctx.distance_to(ctx.neighbors()[0]);
      halt();
    }
    bool has_ = false;
    double d_ = 0.0;
  };

  SyncNetwork net(udg, 1);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<DistanceProbe>(); });
  net.run(2);
  EXPECT_TRUE(net.process_as<DistanceProbe>(0).has_);
  EXPECT_NEAR(net.process_as<DistanceProbe>(0).d_, 0.5, 1e-12);
}

TEST(SyncNetwork, PlainGraphHasNoDistances) {
  const graph::Graph g = graph::path(2);

  class Probe final : public Process {
   public:
    void on_round(Context& ctx) override {
      has_ = ctx.has_distances();
      halt();
    }
    bool has_ = true;
  };

  SyncNetwork net(g, 1);
  net.set_all_processes([](NodeId) { return std::make_unique<Probe>(); });
  net.run(2);
  EXPECT_FALSE(net.process_as<Probe>(0).has_);
}

TEST(SyncNetwork, ContextExposesGlobals) {
  util::Rng rng(5);
  const graph::Graph g = graph::gnp(30, 0.2, rng);

  class GlobalsProbe final : public Process {
   public:
    void on_round(Context& ctx) override {
      n_ = ctx.n();
      delta_ = ctx.max_degree();
      deg_ = ctx.degree();
      halt();
    }
    NodeId n_ = 0, delta_ = 0, deg_ = 0;
  };

  SyncNetwork net(g, 1);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<GlobalsProbe>(); });
  net.run(2);
  for (NodeId v = 0; v < g.n(); ++v) {
    auto& p = net.process_as<GlobalsProbe>(v);
    EXPECT_EQ(p.n_, g.n());
    EXPECT_EQ(p.delta_, g.max_degree());
    EXPECT_EQ(p.deg_, g.degree(v));
  }
}


TEST(SyncNetwork, MessageLossDropsApproximatelyP) {
  const graph::Graph g = graph::complete(20);
  SyncNetwork net(g, 1);
  net.set_channel({.loss = 0.3, .seed = 99});
  net.set_all_processes(
      [](NodeId) { return std::make_unique<GossipProcess>(2); });
  net.run(4);
  std::int64_t heard = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    heard += static_cast<std::int64_t>(
        net.process_as<GossipProcess>(v).heard_.size());
  }
  const std::int64_t sent = 20 * 19;
  EXPECT_EQ(heard + net.messages_lost(), sent);
  EXPECT_GT(net.messages_lost(), sent / 6);  // ~30% +- noise
  EXPECT_LT(net.messages_lost(), sent / 2);
}

TEST(SyncNetwork, ZeroLossLosesNothing) {
  const graph::Graph g = graph::complete(5);
  SyncNetwork net(g, 1);
  net.set_channel({.loss = 0.0});
  net.set_all_processes(
      [](NodeId) { return std::make_unique<GossipProcess>(2); });
  net.run(4);
  EXPECT_EQ(net.messages_lost(), 0);
}

TEST(SyncNetwork, ScheduleCrashInThePastIsANoOp) {
  const graph::Graph g = graph::complete(3);
  SyncNetwork net(g, 1);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<GossipProcess>(10); });
  net.run(5);                // now round_ == 5
  net.schedule_crash(0, 3);  // in the past: silently dropped
  net.run(10);
  EXPECT_FALSE(net.crashed(0));
  EXPECT_EQ(net.live_count(), 3);
}

TEST(SyncNetwork, ScheduleCrashOnCrashedNodeIsANoOp) {
  const graph::Graph g = graph::complete(3);
  SyncNetwork net(g, 1);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<GossipProcess>(10); });
  net.crash(2);
  net.schedule_crash(2, 4);  // already dead: dropped, not double-applied
  net.crash(2);              // idempotent direct crash
  net.run(12);
  EXPECT_TRUE(net.crashed(2));
  EXPECT_EQ(net.live_count(), 2);
}

TEST(SyncNetwork, RecoveryRestartsWithFreshProcess) {
  const graph::Graph g = graph::complete(3);
  SyncNetwork net(g, 1);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<CountingProcess>(40); });
  net.schedule_crash(1, 5);
  net.schedule_recovery(1, 20, std::make_unique<CountingProcess>(40));
  net.run(40);
  EXPECT_FALSE(net.crashed(1));
  // The fresh process only ran rounds 20..39.
  EXPECT_EQ(net.process_as<CountingProcess>(1).executed_, 20);
  EXPECT_EQ(net.process_as<CountingProcess>(0).executed_, 40);
}

TEST(SyncNetwork, PendingRecoveryKeepsTheRunAlive) {
  // Both nodes halt early; a scheduled rejoin later must still execute even
  // though no live process is running in between.
  const graph::Graph g = graph::path(2);
  SyncNetwork net(g, 1);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<CountingProcess>(2); });
  net.schedule_crash(1, 3);
  net.schedule_recovery(1, 8, std::make_unique<CountingProcess>(4));
  const std::int64_t rounds = net.run(30);
  EXPECT_GE(rounds, 12);  // reached round 8 + 4 executions of the rejoin
  EXPECT_EQ(net.process_as<CountingProcess>(1).executed_, 4);
}

TEST(SyncNetwork, LossIsDeterministicPerSeed) {
  const graph::Graph g = graph::complete(10);
  auto run_once = [&](std::uint64_t loss_seed) {
    SyncNetwork net(g, 1);
    net.set_channel({.loss = 0.5, .seed = loss_seed});
    net.set_all_processes(
        [](NodeId) { return std::make_unique<GossipProcess>(2); });
    net.run(4);
    return net.messages_lost();
  };
  EXPECT_EQ(run_once(7), run_once(7));
}

// The uint32 offset bounds, at the exact boundary: reaching them through a
// real run would take a 16 GB arena.
TEST(OffsetBounds, ArenaFitsExactBoundary) {
  const std::size_t limit = std::numeric_limits<std::uint32_t>::max();
  EXPECT_TRUE(arena_fits(0, 0));
  EXPECT_TRUE(arena_fits(limit - 1, 0));  // largest accepted arena
  EXPECT_FALSE(arena_fits(limit, 0));     // smallest rejected arena
  EXPECT_TRUE(arena_fits(limit - 4, 3));
  EXPECT_FALSE(arena_fits(limit - 3, 3));
  EXPECT_TRUE(arena_fits(0, limit - 1));
  EXPECT_FALSE(arena_fits(0, limit));
  // No wrap-around: a huge arena plus a huge payload never "fits".
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  EXPECT_FALSE(arena_fits(huge, 2));
  EXPECT_FALSE(arena_fits(2, huge));
}

TEST(OffsetBounds, InboxFitsExactBoundary) {
  const std::uint64_t limit = std::numeric_limits<std::uint32_t>::max();
  EXPECT_TRUE(inbox_fits(0));
  EXPECT_TRUE(inbox_fits(limit - 1));  // largest accepted round
  EXPECT_FALSE(inbox_fits(limit));     // smallest rejected round
  EXPECT_FALSE(inbox_fits(std::numeric_limits<std::uint64_t>::max()));
}

}  // namespace
}  // namespace ftc::sim
