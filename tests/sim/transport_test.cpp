#include "sim/transport.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "graph/generators.h"
#include "sim/channel.h"
#include "sim/network.h"

namespace ftc::sim {
namespace {

using graph::NodeId;

/// Sends `total` sequenced payloads to every neighbor through the reliable
/// transport (one new payload per round) and records everything delivered.
class PumpProcess final : public Process {
 public:
  explicit PumpProcess(int total, bool sender = true)
      : total_(total), sender_(sender) {}

  void on_round(Context& ctx) override {
    for (const auto& d : transport_.receive(ctx)) {
      got_.push_back(d.words.at(0));
      from_.push_back(d.from);
    }
    if (sender_ && sent_ < total_) {
      transport_.broadcast(ctx, {static_cast<Word>(sent_)});
      ++sent_;
    }
    transport_.flush(ctx);
  }

  [[nodiscard]] const ReliableTransport& transport() const noexcept {
    return transport_;
  }

  std::vector<Word> got_;
  std::vector<NodeId> from_;

 private:
  ReliableTransport transport_;
  int total_ = 0;
  bool sender_ = true;
  int sent_ = 0;
};

/// Expected in-order stream 0..total-1.
std::vector<Word> iota_words(int total) {
  std::vector<Word> v;
  for (int i = 0; i < total; ++i) v.push_back(i);
  return v;
}

TEST(ReliableTransport, CleanChannelDeliversInOrderWithoutRetransmission) {
  const graph::Graph g = graph::complete(2);
  SyncNetwork net(g, 1);
  static constexpr int kTotal = 12;
  net.set_all_processes(
      [](NodeId v) { return std::make_unique<PumpProcess>(kTotal, v == 0); });
  net.run(3 * kTotal + 10);

  const auto& receiver = net.process_as<PumpProcess>(1);
  EXPECT_EQ(receiver.got_, iota_words(kTotal));
  EXPECT_EQ(receiver.transport().duplicates_suppressed(), 0);
  const auto& sender = net.process_as<PumpProcess>(0);
  EXPECT_EQ(sender.transport().retransmissions(), 0);
  EXPECT_TRUE(sender.transport().idle());
  EXPECT_EQ(sender.transport().backlog(), 0);
}

TEST(ReliableTransport, ExactlyOnceInOrderUnderHeavyImpairment) {
  const graph::Graph g = graph::complete(2);
  SyncNetwork net(g, 42);
  ChannelOptions o;
  o.loss = 0.3;
  o.duplicate = 0.3;
  o.reorder = 0.3;
  o.max_reorder_delay = 3;
  o.seed = 1234;
  net.set_channel(o);
  static constexpr int kTotal = 30;
  net.set_all_processes(
      [](NodeId v) { return std::make_unique<PumpProcess>(kTotal, v == 0); });
  net.run(900);

  const auto& receiver = net.process_as<PumpProcess>(1);
  // The channel dropped, duplicated, and reordered frames — the application
  // stream is still exactly 0..N-1, once each, in order.
  EXPECT_EQ(receiver.got_, iota_words(kTotal));
  const auto& sender = net.process_as<PumpProcess>(0);
  EXPECT_GT(sender.transport().retransmissions(), 0);
  EXPECT_TRUE(sender.transport().idle());
}

TEST(ReliableTransport, BroadcastReachesEveryNeighborInOrder) {
  const graph::Graph g = graph::star(5);  // center 0
  SyncNetwork net(g, 7);
  net.set_channel({.loss = 0.25, .seed = 99});
  static constexpr int kTotal = 8;
  net.set_all_processes(
      [](NodeId v) { return std::make_unique<PumpProcess>(kTotal, v == 0); });
  net.run(600);
  for (NodeId leaf = 1; leaf < 5; ++leaf) {
    const auto& p = net.process_as<PumpProcess>(leaf);
    EXPECT_EQ(p.got_, iota_words(kTotal)) << "leaf " << leaf;
    EXPECT_EQ(p.from_, std::vector<NodeId>(kTotal, 0)) << "leaf " << leaf;
  }
}

TEST(ReliableTransport, BidirectionalTrafficPiggybacksAcks) {
  const graph::Graph g = graph::complete(2);
  SyncNetwork net(g, 11);
  net.set_channel({.loss = 0.2, .seed = 5});
  static constexpr int kTotal = 15;
  net.set_all_processes(
      [](NodeId) { return std::make_unique<PumpProcess>(kTotal, true); });
  net.run(700);
  for (NodeId v = 0; v < 2; ++v) {
    const auto& p = net.process_as<PumpProcess>(v);
    EXPECT_EQ(p.got_, iota_words(kTotal)) << "node " << v;
    EXPECT_TRUE(p.transport().idle()) << "node " << v;
  }
}

struct TransportSnapshot {
  std::vector<std::vector<Word>> got;
  std::vector<std::vector<NodeId>> from;
  std::vector<std::int64_t> frames, retrans, dups, delivered;
  Metrics metrics;

  friend bool operator==(const TransportSnapshot&,
                         const TransportSnapshot&) = default;
};

TransportSnapshot run_crash_during_retransmission(int threads) {
  const graph::Graph g = graph::complete(6);
  SyncNetwork net(g, 21);
  net.set_threads(threads);
  net.set_parallel_grain(0);  // small n: force the pool, not the fallback
  ChannelOptions o;
  o.loss = 0.35;
  o.duplicate = 0.2;
  o.reorder = 0.2;
  o.max_reorder_delay = 2;
  o.seed = 4242;
  net.set_channel(o);
  net.set_all_processes(
      [](NodeId) { return std::make_unique<PumpProcess>(10, true); });
  // Node 2 dies while its peers still have unacked payloads in flight for
  // it — their retransmission state must die deterministically too.
  net.schedule_crash(2, 6);
  net.run(80);

  TransportSnapshot snap;
  for (NodeId v = 0; v < 6; ++v) {
    if (net.crashed(v)) {
      snap.got.emplace_back();
      snap.from.emplace_back();
      snap.frames.push_back(-1);
      snap.retrans.push_back(-1);
      snap.dups.push_back(-1);
      snap.delivered.push_back(-1);
      continue;
    }
    const auto& p = net.process_as<PumpProcess>(v);
    snap.got.push_back(p.got_);
    snap.from.push_back(p.from_);
    snap.frames.push_back(p.transport().frames_sent());
    snap.retrans.push_back(p.transport().retransmissions());
    snap.dups.push_back(p.transport().duplicates_suppressed());
    snap.delivered.push_back(p.transport().delivered());
  }
  snap.metrics = net.metrics();
  return snap;
}

TEST(ReliableTransport, CrashDuringRetransmissionIsDeterministicAcrossWidths) {
  const TransportSnapshot serial = run_crash_during_retransmission(1);
  EXPECT_GT(serial.metrics.messages_sent, 0);
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(run_crash_during_retransmission(threads), serial)
        << "threads=" << threads;
  }
}

TEST(ReliableTransport, SuppressesChannelDuplicates) {
  const graph::Graph g = graph::complete(2);
  SyncNetwork net(g, 3);
  ChannelOptions o;
  o.duplicate = 1.0;  // every frame arrives twice
  o.max_reorder_delay = 2;
  net.set_channel(o);
  static constexpr int kTotal = 10;
  net.set_all_processes(
      [](NodeId v) { return std::make_unique<PumpProcess>(kTotal, v == 0); });
  net.run(200);
  const auto& receiver = net.process_as<PumpProcess>(1);
  EXPECT_EQ(receiver.got_, iota_words(kTotal));
  EXPECT_GT(receiver.transport().duplicates_suppressed(), 0);
}

}  // namespace
}  // namespace ftc::sim
