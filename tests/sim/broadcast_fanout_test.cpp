// Broadcast fan-out equivalence: a broadcast() stages only a stamp on its
// sender, and each receiver pulls it by walking its neighbour row at
// delivery, while a send() is pushed into the receiver's region — so a
// broadcast must be indistinguishable from sending the same payload to
// every neighbour one at a time, also when both kinds reach one receiver
// in the same round. Every scenario runs the same schedule twice — once
// with broadcasting (or mixed) processes, once with processes that only
// unicast — and asserts identical inboxes (round, sender, words) on every
// node, identical Metrics, and identical channel counters, at engine
// widths {1, 2, 3, 4, 8, 16} with the pool forced on.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "geom/udg.h"
#include "graph/generators.h"
#include "sim/network.h"
#include "util/rng.h"

namespace ftc::sim {
namespace {

using graph::NodeId;

constexpr std::int64_t kRounds = 24;
constexpr int kWidths[] = {1, 2, 3, 4, 8, 16};

/// Per-node inbox history, owned outside the processes so it survives a
/// crash + rejoin (which replaces the process). Each node appends only to
/// its own slot, so parallel shards never share a vector.
using Logs = std::vector<std::vector<std::int64_t>>;

/// The payload node `self` emits in `round`, or nullopt when it stays
/// silent: 0..3 words, so idle senders, empty messages and varying lengths
/// all occur.
std::optional<std::vector<Word>> payload_for(NodeId self, std::int64_t round) {
  const std::uint64_t mix =
      (static_cast<std::uint64_t>(self) * 0x9E3779B97F4A7C15ULL) ^
      (static_cast<std::uint64_t>(round) * 0xC2B2AE3D27D4EB4FULL);
  if (mix % 7 == 0) return std::nullopt;
  std::vector<Word> words((mix >> 8) % 4);
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = static_cast<Word>((mix >> (16 + 8 * i)) & 0xFFFF);
  }
  return words;
}

/// How a node emits its payload.
enum class Kind {
  kBroadcast,     ///< one broadcast to every neighbour
  kUnicast,       ///< one send per neighbour
  kMixed,         ///< per (node, round): a broadcast, or sends to a subset
  kMixedUnicast,  ///< kMixed's messages, every one of them a send
};

/// Whether a kMixed node broadcasts in `round` (else it unicasts).
bool broadcasts_in(NodeId self, std::int64_t round) {
  return ((static_cast<std::uint64_t>(self) * 0xD6E8FEB86659FD93ULL) ^
          (static_cast<std::uint64_t>(round) * 0x9E3779B97F4A7C15ULL)) >>
             40 &
         1;
}

/// Whether a kMixed unicasting node sends to neighbour `to` in `round`:
/// about two thirds of its neighbours, so receivers see unicast runs of
/// every length next to their broadcast runs.
bool unicasts_to(NodeId self, NodeId to, std::int64_t round) {
  const std::uint64_t mix =
      (static_cast<std::uint64_t>(self) * 0xC2B2AE3D27D4EB4FULL) ^
      (static_cast<std::uint64_t>(to) * 0x165667B19E3779F9ULL) ^
      static_cast<std::uint64_t>(round);
  return (mix >> 29) % 3 != 0;
}

/// Logs its inbox, then emits payload_for(self, round) as its Kind says.
class FanOutProcess final : public Process {
 public:
  FanOutProcess(Logs* logs, Kind kind) : logs_(logs), kind_(kind) {}

  void on_round(Context& ctx) override {
    auto& log = (*logs_)[static_cast<std::size_t>(ctx.self())];
    for (const Message& msg : ctx.inbox()) {
      log.push_back(ctx.round());
      log.push_back(msg.from);
      log.push_back(static_cast<std::int64_t>(msg.words.size()));
      for (Word w : msg.words) log.push_back(w);
    }
    if (const auto words = payload_for(ctx.self(), ctx.round())) {
      const bool mixed = kind_ == Kind::kMixed || kind_ == Kind::kMixedUnicast;
      const bool to_all = !mixed || broadcasts_in(ctx.self(), ctx.round());
      if (kind_ == Kind::kBroadcast || (kind_ == Kind::kMixed && to_all)) {
        ctx.broadcast(*words);
      } else {
        for (NodeId w : ctx.neighbors()) {
          if (to_all || unicasts_to(ctx.self(), w, ctx.round())) {
            ctx.send(w, *words);
          }
        }
      }
    }
    if (ctx.round() + 1 >= kRounds) halt();
  }

 private:
  Logs* logs_;
  Kind kind_;
};

struct Outcome {
  Logs logs;
  Metrics metrics;
  Channel::Counters channel;
  std::vector<bool> crashed;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// Configures a network (crashes, channel) before the run.
using SetupFn = void (*)(SyncNetwork&, Logs*, Kind kind);
/// Drives the rounds (plain run, or step-wise with width changes).
using DriveFn = void (*)(SyncNetwork&, Logs*, Kind kind);

void run_to_end(SyncNetwork& net, Logs*, Kind) { net.run(kRounds + 1); }

Outcome execute(const graph::Graph& g, int threads, Kind kind, SetupFn setup,
                DriveFn drive = run_to_end) {
  Outcome out;
  out.logs.assign(static_cast<std::size_t>(g.n()), {});
  SyncNetwork net(g, 0x5EED);
  net.set_threads(threads);
  net.set_parallel_grain(0);
  Logs* const logs = &out.logs;
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<FanOutProcess>(logs, kind); });
  if (setup != nullptr) setup(net, logs, kind);
  drive(net, logs, kind);
  out.metrics = net.metrics();
  out.channel = net.channel().counters();
  for (NodeId v = 0; v < g.n(); ++v) out.crashed.push_back(net.crashed(v));
  return out;
}

/// Runs `setup` at every width for `kind` and its unicast-only twin: both
/// agree at each width, and every width ≡ width 1. Returns the width-1
/// outcome.
Outcome expect_equivalent(const graph::Graph& g, SetupFn setup,
                          Kind kind = Kind::kBroadcast) {
  const Kind twin =
      kind == Kind::kBroadcast ? Kind::kUnicast : Kind::kMixedUnicast;
  const Outcome reference = execute(g, 1, twin, setup);
  for (const int threads : kWidths) {
    const Outcome fan_out = execute(g, threads, kind, setup);
    const Outcome unicast = execute(g, threads, twin, setup);
    EXPECT_EQ(fan_out.metrics, unicast.metrics) << "threads " << threads;
    EXPECT_EQ(fan_out.channel, unicast.channel) << "threads " << threads;
    EXPECT_EQ(fan_out.logs, unicast.logs) << "threads " << threads;
    EXPECT_EQ(fan_out.crashed, unicast.crashed) << "threads " << threads;
    EXPECT_EQ(fan_out, reference) << "threads " << threads;
  }
  return reference;
}

std::vector<graph::Graph> test_graphs() {
  std::vector<graph::Graph> graphs;
  util::Rng rng(2024);
  // Sparse G(n,p) (isolated and low-degree nodes, so some broadcasts stay
  // inside one shard at every width), a denser one (rows spanning every
  // shard), and a UDG (geometric neighbourhoods, random ids).
  graphs.push_back(graph::gnp(70, 0.05, rng));
  graphs.push_back(graph::gnp(50, 0.3, rng));
  graphs.push_back(geom::uniform_udg_with_degree(90, 9.0, rng).graph);
  return graphs;
}

std::int64_t total_log_entries(const Logs& logs) {
  std::int64_t total = 0;
  for (const auto& log : logs) total += static_cast<std::int64_t>(log.size());
  return total;
}

TEST(BroadcastFanOut, CleanChannelMatchesPerNeighbourSends) {
  for (const graph::Graph& g : test_graphs()) {
    const Outcome ref = expect_equivalent(g, nullptr);
    EXPECT_GT(ref.metrics.messages_sent, 0);
    EXPECT_GT(total_log_entries(ref.logs), 0);
  }
}

void lossy_channel(SyncNetwork& net, Logs*, Kind) {
  ChannelOptions options;
  options.loss = 0.15;
  options.duplicate = 0.2;
  options.reorder = 0.25;
  options.max_reorder_delay = 3;
  options.seed = 77;
  net.set_channel(options);
}

/// Victims crash with a delivered generation in flight (crash() purges
/// their messages from receivers' inboxes) and rejoin later; one of them
/// twice. Low ids sit in shard 0, high ids in the last shard.
void churn(SyncNetwork& net, Logs* logs, Kind kind) {
  const auto fresh = [&] { return std::make_unique<FanOutProcess>(logs, kind); };
  const NodeId last = net.graph().n() - 1;
  net.schedule_crash(1, 4);
  net.schedule_crash(last, 4);
  net.schedule_crash(last / 2, 6);
  net.schedule_recovery(1, 9, fresh());
  net.schedule_recovery(last, 12, fresh());
  net.schedule_crash(1, 14);
  net.schedule_recovery(1, 17, fresh());
  net.schedule_recovery(last / 2, 19, fresh());
}

TEST(BroadcastFanOut, LossDuplicationReorderingMatchPerNeighbourSends) {
  for (const graph::Graph& g : test_graphs()) {
    const Outcome ref = expect_equivalent(g, lossy_channel);
    // Every impairment must bite for the equality to mean anything.
    EXPECT_GT(ref.channel.dropped, 0);
    EXPECT_GT(ref.channel.duplicated, 0);
    EXPECT_GT(ref.channel.reordered, 0);
  }
}

TEST(BroadcastFanOut, CrashAndRejoinMatchPerNeighbourSends) {
  for (const graph::Graph& g : test_graphs()) {
    const Outcome ref = expect_equivalent(g, churn);
    EXPECT_FALSE(ref.crashed[1]);
    EXPECT_FALSE(ref.crashed.back());
  }
}

/// Crashes a node after every fifth round (with a lossy channel keeping
/// the delayed-copy buckets busy), rejoins one victim, and runs to the end.
/// With `reshard`, the width also changes 1 → 3 → 8 → 2 right before each
/// crash, so crash() purges messages delivered under the previous sharding
/// and delayed copies are re-bucketed.
void crash_between_rounds(SyncNetwork& net, Logs* logs, Kind kind,
                          bool reshard) {
  ChannelOptions options;
  options.loss = 0.1;
  options.duplicate = 0.1;
  options.reorder = 0.2;
  options.seed = 5;
  net.set_channel(options);
  const NodeId n = net.graph().n();
  const int widths[] = {1, 3, 8, 2};
  const NodeId victims[] = {-1, n - 2, 3, n / 2 + 1};
  for (int phase = 0; phase < 4; ++phase) {
    if (reshard) net.set_threads(widths[phase]);
    if (victims[phase] >= 0) net.crash(victims[phase]);
    for (int i = 0; i < 5; ++i) net.step();
  }
  net.recover(n - 2, std::make_unique<FanOutProcess>(logs, kind));
  net.run(kRounds);
}

void drive_resharding(SyncNetwork& net, Logs* logs, Kind kind) {
  crash_between_rounds(net, logs, kind, /*reshard=*/true);
}

void drive_fixed_width(SyncNetwork& net, Logs* logs, Kind kind) {
  crash_between_rounds(net, logs, kind, /*reshard=*/false);
}

/// `kind` under the resharding schedule ≡ its unicast-only twin, and ≡ the
/// same schedule at every fixed width.
void expect_resharding_equivalent(const graph::Graph& g, Kind kind,
                                  Kind twin) {
  const Outcome fan_out = execute(g, 1, kind, nullptr, drive_resharding);
  const Outcome unicast = execute(g, 1, twin, nullptr, drive_resharding);
  EXPECT_EQ(fan_out, unicast);
  EXPECT_GT(fan_out.channel.dropped, 0);
  for (const int threads : kWidths) {
    EXPECT_EQ(execute(g, threads, kind, nullptr, drive_fixed_width), fan_out)
        << "threads " << threads;
  }
}

TEST(BroadcastFanOut, WidthChangesBetweenRoundsPurgeOlderShardings) {
  for (const graph::Graph& g : test_graphs()) {
    expect_resharding_equivalent(g, Kind::kBroadcast, Kind::kUnicast);
  }
}

/// Receivers that get broadcasts and sends in one round merge the two
/// sender-sorted runs in place; the result must equal the same messages
/// all sent one by one, under every channel, churn and width schedule.
TEST(BroadcastFanOut, MixedBroadcastAndSendRoundsMatchPerNeighbourSends) {
  for (const graph::Graph& g : test_graphs()) {
    const Outcome clean = expect_equivalent(g, nullptr, Kind::kMixed);
    EXPECT_GT(total_log_entries(clean.logs), 0);
    const Outcome lossy = expect_equivalent(g, lossy_channel, Kind::kMixed);
    EXPECT_GT(lossy.channel.duplicated, 0);
    EXPECT_GT(lossy.channel.reordered, 0);
    const Outcome churned = expect_equivalent(g, churn, Kind::kMixed);
    EXPECT_FALSE(churned.crashed[1]);
    expect_resharding_equivalent(g, Kind::kMixed, Kind::kMixedUnicast);
  }
}

/// Node 0 broadcasts, then (same round) sends to its last neighbour, or the
/// other way round — both break the one-message-per-neighbour rule.
class DoubleSendProcess final : public Process {
 public:
  explicit DoubleSendProcess(bool send_first) : send_first_(send_first) {}

  void on_round(Context& ctx) override {
    if (ctx.degree() > 0 && ctx.self() == 0) {
      const NodeId target = ctx.neighbors().back();
      if (send_first_) ctx.send(target, {1});
      ctx.broadcast({2});
      if (!send_first_) ctx.send(target, {3});
    }
    halt();
  }

 private:
  bool send_first_;
};

/// Node 0 is the hub of a star with `leaves` leaves on 16 nodes. With 3
/// leaves its receivers share shard 0 at widths 1 and 4; with 15 they span
/// every shard at width 4. Either way the second message must be rejected
/// at the send.
[[maybe_unused]] void run_double_send(int threads, NodeId leaves,
                                      bool send_first) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v <= leaves; ++v) edges.emplace_back(0, v);
  const graph::Graph g = graph::Graph::from_edges(16, edges);
  SyncNetwork net(g, 1);
  net.set_threads(threads);
  net.set_parallel_grain(0);
  net.set_all_processes([&](NodeId) {
    return std::make_unique<DoubleSendProcess>(send_first);
  });
  net.run(2);
}

TEST(BroadcastFanOutDeathTest, BroadcastPlusSendToANeighbourAsserts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the one-message-per-neighbour check is a debug assert";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const int threads : {1, 4}) {
    for (const NodeId leaves : {NodeId{3}, NodeId{15}}) {
      for (const bool send_first : {false, true}) {
        EXPECT_DEATH(run_double_send(threads, leaves, send_first),
                     "at most one message per neighbor")
            << "threads " << threads << ", leaves " << leaves
            << ", send_first " << send_first;
      }
    }
  }
#endif
}

/// Node 0 breaks the one-message-per-neighbour rule in one of three ways.
enum class Excess { kSendTwice, kBroadcastAndSend, kBroadcastTwice };

class ExcessProcess final : public Process {
 public:
  explicit ExcessProcess(Excess excess) : excess_(excess) {}

  void on_round(Context& ctx) override {
    if (ctx.self() == 0 && ctx.degree() > 0) {
      const NodeId target = ctx.neighbors().back();
      switch (excess_) {
        case Excess::kSendTwice:
          ctx.send(target, {1});
          ctx.send(target, {2});
          break;
        case Excess::kBroadcastAndSend:
          ctx.send(target, {1});
          ctx.broadcast({2});
          break;
        case Excess::kBroadcastTwice:
          ctx.broadcast({1});
          ctx.broadcast({2});
          break;
      }
    }
    halt();
  }

 private:
  Excess excess_;
};

/// In release builds the debug assert is compiled out, so the engine itself
/// must refuse a receiver's (deg + 1)-th fresh message — here a leaf of
/// degree 1 — with the typed error instead of writing past its region.
TEST(BroadcastFanOut, RegionOverflowThrowsInboxOverflowInRelease) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug builds assert at the offending send instead";
#else
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v < 16; ++v) edges.emplace_back(0, v);
  const graph::Graph g = graph::Graph::from_edges(16, edges);
  for (const int threads : {1, 4}) {
    for (const Excess excess : {Excess::kSendTwice, Excess::kBroadcastAndSend,
                                Excess::kBroadcastTwice}) {
      SyncNetwork net(g, 1);
      net.set_threads(threads);
      net.set_parallel_grain(0);
      net.set_all_processes(
          [&](NodeId) { return std::make_unique<ExcessProcess>(excess); });
      EXPECT_THROW(net.step(), InboxOverflow)
          << "threads " << threads << ", excess "
          << static_cast<int>(excess);
    }
  }
#endif
}

}  // namespace
}  // namespace ftc::sim
