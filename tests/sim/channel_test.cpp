#include "sim/channel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "graph/generators.h"
#include "sim/fault.h"
#include "sim/network.h"

namespace ftc::sim {
namespace {

using graph::NodeId;

// ------------------------------------------------------------- validation

TEST(ChannelOptions, DefaultIsCleanAndValid) {
  ChannelOptions o;
  EXPECT_FALSE(o.impaired());
  EXPECT_NO_THROW(o.validate());
}

TEST(ChannelOptions, RejectsOutOfRangeProbabilities) {
  ChannelOptions o;
  o.loss = -0.1;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.loss = 1.0;  // drop probabilities must stay < 1
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.loss = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.loss = 0.999;
  EXPECT_NO_THROW(o.validate());

  o = ChannelOptions{};
  o.duplicate = 1.5;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.duplicate = 1.0;  // non-drop probabilities may reach 1
  EXPECT_NO_THROW(o.validate());

  o = ChannelOptions{};
  o.reorder = -0.25;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.reorder = 1.0;
  EXPECT_NO_THROW(o.validate());

  o = ChannelOptions{};
  o.asymmetry = 1.5;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.asymmetry = 1.0;
  EXPECT_NO_THROW(o.validate());

  o = ChannelOptions{};
  o.p_enter_burst = -0.1;
  EXPECT_THROW(o.validate(), std::invalid_argument);

  o = ChannelOptions{};
  o.burst_loss = 1.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

TEST(ChannelOptions, RejectsInertBurstExit) {
  ChannelOptions o;
  o.burst_loss = 0.8;
  o.p_enter_burst = 0.1;
  o.p_exit_burst = 0.0;  // a burst must be able to end
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.p_exit_burst = 0.2;
  EXPECT_NO_THROW(o.validate());
}

TEST(ChannelOptions, RejectsNonPositiveReorderDelay) {
  ChannelOptions o;
  o.reorder = 0.2;
  o.max_reorder_delay = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.max_reorder_delay = 1;
  EXPECT_NO_THROW(o.validate());
}

TEST(Channel, SetOptionsValidates) {
  Channel ch;
  ChannelOptions o;
  o.loss = 2.0;
  EXPECT_THROW(ch.set_options(o), std::invalid_argument);
}

// ------------------------------------------------------------ determinism

TEST(Channel, VerdictIsPureInLinkAndRound) {
  ChannelOptions o;
  o.loss = 0.3;
  o.duplicate = 0.2;
  o.reorder = 0.2;
  o.seed = 77;

  // Query in two different orders; every verdict must match.
  Channel a(o);
  Channel b(o);
  Channel::ShardState sa;
  Channel::ShardState sb;
  std::vector<Channel::Fate> fwd;
  for (std::int64_t r = 0; r < 50; ++r) {
    for (NodeId u = 0; u < 4; ++u) {
      for (NodeId v = 0; v < 4; ++v) {
        if (u != v) fwd.push_back(a.decide(u, v, r, sa));
      }
    }
  }
  std::vector<Channel::Fate> rev;
  for (std::int64_t r = 49; r >= 0; --r) {
    for (NodeId u = 3; u >= 0; --u) {
      for (NodeId v = 3; v >= 0; --v) {
        if (u != v) rev.push_back(b.decide(u, v, r, sb));
      }
    }
  }
  ASSERT_EQ(fwd.size(), rev.size());
  for (std::size_t i = 0; i < fwd.size(); ++i) {
    const auto& x = fwd[i];
    const auto& y = rev[rev.size() - 1 - i];
    EXPECT_EQ(x.dropped, y.dropped);
    EXPECT_EQ(x.delay, y.delay);
    EXPECT_EQ(x.duplicate, y.duplicate);
    EXPECT_EQ(x.dup_delay, y.dup_delay);
  }
  EXPECT_EQ(sa.counters, sb.counters);
}

TEST(Channel, SeedChangesTheVerdictStream) {
  ChannelOptions o;
  o.loss = 0.5;
  o.seed = 1;
  Channel a(o);
  o.seed = 2;
  Channel b(o);
  Channel::ShardState sa;
  Channel::ShardState sb;
  int differing = 0;
  for (std::int64_t r = 0; r < 200; ++r) {
    if (a.decide(0, 1, r, sa).dropped != b.decide(0, 1, r, sb).dropped) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

// -------------------------------------------------------------- behavior

TEST(Channel, LossRateIsApproximatelyHonored) {
  ChannelOptions o;
  o.loss = 0.3;
  o.seed = 42;
  Channel ch(o);
  Channel::ShardState st;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    (void)ch.decide(i % 7, (i + 1) % 7, i, st);
  }
  ch.absorb(st);
  const double rate =
      static_cast<double>(ch.counters().dropped) / trials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Channel, AsymmetryMakesDirectionsDiffer) {
  ChannelOptions o;
  o.loss = 0.4;
  o.asymmetry = 1.0;
  o.seed = 5;
  Channel ch(o);
  Channel::ShardState st;
  int fwd = 0;
  int rev = 0;
  const int trials = 8000;
  for (int i = 0; i < trials; ++i) {
    if (ch.decide(0, 1, i, st).dropped) ++fwd;
    if (ch.decide(1, 0, i, st).dropped) ++rev;
  }
  // With a = 1 the two directions get independent stable factors in
  // [0, 2] * loss; equality within noise would mean asymmetry is dead.
  EXPECT_GT(std::abs(fwd - rev), trials / 50);
}

TEST(Channel, DuplicateArrivesStrictlyLater) {
  ChannelOptions o;
  o.duplicate = 1.0;
  o.reorder = 0.5;
  o.max_reorder_delay = 3;
  Channel ch(o);
  Channel::ShardState st;
  for (std::int64_t r = 0; r < 200; ++r) {
    const auto fate = ch.decide(1, 2, r, st);
    ASSERT_FALSE(fate.dropped);
    ASSERT_TRUE(fate.duplicate);
    EXPECT_GT(fate.dup_delay, fate.delay);
    EXPECT_LE(fate.dup_delay, fate.delay + o.max_reorder_delay);
    if (fate.delay > 0) EXPECT_LE(fate.delay, o.max_reorder_delay);
  }
  ch.absorb(st);
  EXPECT_EQ(ch.counters().duplicated, 200);
}

TEST(Channel, BurstsDropInRuns) {
  ChannelOptions o;
  o.burst_loss = 0.999;
  o.p_enter_burst = 0.08;
  o.p_exit_burst = 0.25;
  o.seed = 9;
  Channel ch(o);
  Channel::ShardState st;
  // With near-total loss inside bursts the drop pattern must contain runs
  // of consecutive drops far beyond what iid loss at the same average could
  // produce on a fair coin.
  int longest_run = 0;
  int run = 0;
  int dropped = 0;
  const int rounds = 4000;
  for (int r = 0; r < rounds; ++r) {
    if (ch.decide(3, 4, r, st).dropped) {
      ++dropped;
      longest_run = std::max(longest_run, ++run);
    } else {
      run = 0;
    }
  }
  EXPECT_GT(dropped, rounds / 25);       // bursts actually fire
  EXPECT_LT(dropped, (rounds * 2) / 3);  // good state actually delivers
  EXPECT_GE(longest_run, 6);             // and drops cluster
}

// ------------------------------------------- network-level channel effects

/// Broadcasts words 0..30 (word = round), then keeps listening long enough
/// for every channel-delayed copy to land before halting.
class ChatterProcess final : public Process {
 public:
  void on_round(Context& ctx) override {
    for (const Message& msg : ctx.inbox()) {
      heard.push_back({ctx.round(), msg.from, msg.words.at(0)});
    }
    if (ctx.round() <= 30) ctx.broadcast({static_cast<Word>(ctx.round())});
    if (ctx.round() >= 38) halt();
  }
  struct Heard {
    std::int64_t round;
    NodeId from;
    Word word;
    friend bool operator==(const Heard&, const Heard&) = default;
  };
  std::vector<Heard> heard;
};

TEST(SyncNetworkChannel, DuplicationDeliversExtraCopiesLater) {
  const graph::Graph g = graph::complete(2);
  SyncNetwork net(g, 1);
  ChannelOptions o;
  o.duplicate = 1.0;
  o.max_reorder_delay = 2;
  net.set_channel(o);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<ChatterProcess>(); });
  net.run(40);
  const auto& p = net.process_as<ChatterProcess>(0);
  // Every original delivery eventually gets a second copy; dup copies of
  // word w arrive strictly after round w + 1.
  std::int64_t copies = 0;
  for (const auto& h : p.heard) {
    EXPECT_GE(h.round, h.word + 1);
    if (h.round > h.word + 1) ++copies;
  }
  EXPECT_GT(copies, 10);
  EXPECT_GT(net.channel().counters().duplicated, 0);
  EXPECT_EQ(net.channel().counters().dropped, 0);
}

TEST(SyncNetworkChannel, ReorderingDelaysButNeverLoses) {
  const graph::Graph g = graph::complete(2);
  SyncNetwork net(g, 1);
  ChannelOptions o;
  o.reorder = 0.6;
  o.max_reorder_delay = 3;
  net.set_channel(o);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<ChatterProcess>(); });
  net.run(45);
  const auto& p = net.process_as<ChatterProcess>(1);
  // Each word 0..30 sent by node 0 arrives exactly once, within the bound.
  std::vector<int> seen(31, 0);
  for (const auto& h : p.heard) {
    ASSERT_GE(h.word, 0);
    if (h.word <= 30) {
      ++seen[static_cast<std::size_t>(h.word)];
      EXPECT_GE(h.round, h.word + 1);
      EXPECT_LE(h.round, h.word + 1 + o.max_reorder_delay);
    }
  }
  for (int w = 0; w <= 30; ++w) EXPECT_EQ(seen[w], 1) << "word " << w;
  EXPECT_GT(net.channel().counters().reordered, 0);
}

TEST(SyncNetworkChannel, CrashPurgesDelayedDeliveries) {
  const graph::Graph g = graph::complete(2);
  SyncNetwork net(g, 1);
  ChannelOptions o;
  o.reorder = 1.0;
  o.duplicate = 1.0;
  o.max_reorder_delay = 3;
  net.set_channel(o);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<ChatterProcess>(); });
  net.schedule_crash(0, 10);
  net.run(40);
  // Nothing sent by node 0 may arrive after its crash round: in-flight and
  // channel-delayed messages die with the sender.
  const auto& p = net.process_as<ChatterProcess>(1);
  for (const auto& h : p.heard) {
    EXPECT_LE(h.round, 10) << "stale delivery from the crashed sender";
  }
}

// ------------------------------------------------- FaultPlan node faults

TEST(FaultPlan, CrashFactoriesRejectDegenerateInputs) {
  EXPECT_THROW(FaultPlan::targeted_by_degree(0, 5), std::invalid_argument);
  EXPECT_THROW(FaultPlan::iid_crashes(1.5), std::invalid_argument);
  EXPECT_THROW(FaultPlan::churn(0.1, 3, 2), std::invalid_argument);
  EXPECT_THROW(FaultPlan::churn(0.1, 0, 2), std::invalid_argument);
  EXPECT_THROW(FaultPlan::region({0.0, 0.0}, -1.0, 5), std::invalid_argument);
}

}  // namespace
}  // namespace ftc::sim
