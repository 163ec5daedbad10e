// P9 — The price of reliability over the round engine.
//
// Two questions, one flood/pump workload family:
//
//   * What does the ARQ layer itself cost? A closed-loop reliable pump
//     (every node keeps one payload in flight per neighbor, refilling as
//     the transport drains) against a raw baseline pushing the identical
//     3-word unicast framing. Stop-and-wait bookkeeping runs per frame, so
//     this ratio is well below 1 — it is reported to *price* reliability,
//     not gate it.
//   * What does reliability cost under loss? At 10% and 30% iid loss the
//     pump rows record retransmissions, duplicate suppressions, and
//     per-link goodput — the retransmit overhead the robustness
//     experiments lean on.
//
// --sizes=500,2000            node counts (UDG, --degree target)
// --degree=8                  target average UDG degree
// --rounds=0                  rounds per run (0 = auto ~1M node-rounds)
// --repeats=3                 timed repetitions per mode (best is kept)
// --json=BENCH_transport.json machine-readable output ("" = none)
// --csv=path                  optional CSV mirror of the table
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "geom/udg.h"
#include "sim/channel.h"
#include "sim/network.h"
#include "sim/transport.h"
#include "util/rng.h"

namespace {

using namespace ftc;
using graph::NodeId;
using sim::Word;

constexpr std::uint64_t kGraphSeed = 42;
constexpr std::uint64_t kNetSeed = 7;
constexpr std::uint64_t kChannelSeed = 0xBADC0DE;

/// Raw baseline: the reliable message plane carrying the same framing the
/// transport would — one 3-word unicast per neighbor per round (the ARQ
/// wire format is [ack, seq, payload]), no sequencing or ack bookkeeping.
/// The delta between this and the zero-loss transport run prices exactly
/// the ARQ machinery, not unicast-vs-shared-broadcast payload storage.
class RawFlood final : public sim::Process {
 public:
  explicit RawFlood(std::int64_t rounds) : rounds_(rounds) {}

  void on_round(sim::Context& ctx) override {
    for (const sim::Message& msg : ctx.inbox()) {
      acc_ += msg.words[0] + msg.from;
    }
    const auto word = static_cast<Word>(ctx.round() & 0xFFFF);
    for (const NodeId w : ctx.neighbors()) {
      ctx.send(w, {word, word, word});
    }
    if (ctx.round() + 1 >= rounds_) halt();
  }

  std::int64_t acc_ = 0;

 private:
  std::int64_t rounds_;
};

/// Closed-loop reliable pump: refill the per-neighbor queues whenever the
/// transport drains, so frames flow every round without unbounded backlog.
class TransportPump final : public sim::Process {
 public:
  explicit TransportPump(std::int64_t rounds) : rounds_(rounds) {}

  void on_round(sim::Context& ctx) override {
    for (const auto& d : transport_.receive(ctx)) {
      acc_ += d.words[0] + d.from;
      ++received_;
    }
    if (transport_.backlog() == 0) {
      transport_.broadcast(ctx, {static_cast<Word>(next_++ & 0xFFFF)});
    }
    transport_.flush(ctx);
    if (ctx.round() + 1 >= rounds_) halt();
  }

  sim::ReliableTransport transport_;
  std::int64_t acc_ = 0;
  std::int64_t received_ = 0;

 private:
  std::int64_t rounds_;
  std::int64_t next_ = 0;
};

struct RunStats {
  std::int64_t rounds = 0;
  double seconds = 0.0;  ///< best of --repeats
  std::int64_t messages = 0;
  std::int64_t frames = 0;
  std::int64_t retransmissions = 0;
  std::int64_t dup_suppressed = 0;
  std::int64_t delivered = 0;
};

RunStats run_raw(const geom::UnitDiskGraph& udg, std::int64_t rounds,
                 int repeats) {
  RunStats best;
  for (int rep = 0; rep < repeats; ++rep) {
    sim::SyncNetwork net(udg, kNetSeed);
    net.set_all_processes(
        [&](NodeId) { return std::make_unique<RawFlood>(rounds); });
    bench::WallClock clock;
    const std::int64_t executed = net.run(rounds + 1);
    const double seconds = clock.seconds();
    if (rep == 0 || seconds < best.seconds) {
      best.rounds = executed;
      best.seconds = seconds;
      best.messages = net.metrics().messages_sent;
    }
  }
  return best;
}

RunStats run_transport(const geom::UnitDiskGraph& udg, std::int64_t rounds,
                       double loss, int repeats) {
  RunStats best;
  for (int rep = 0; rep < repeats; ++rep) {
    sim::SyncNetwork net(udg, kNetSeed);
    if (loss > 0.0) {
      sim::ChannelOptions channel;
      channel.loss = loss;
      channel.seed = kChannelSeed;
      net.set_channel(channel);
    }
    net.set_all_processes(
        [&](NodeId) { return std::make_unique<TransportPump>(rounds); });
    bench::WallClock clock;
    const std::int64_t executed = net.run(rounds + 1);
    const double seconds = clock.seconds();
    RunStats cur;
    cur.rounds = executed;
    cur.seconds = seconds;
    cur.messages = net.metrics().messages_sent;
    for (NodeId v = 0; v < udg.n(); ++v) {
      const auto& t = net.process_as<TransportPump>(v).transport_;
      cur.frames += t.frames_sent();
      cur.retransmissions += t.retransmissions();
      cur.dup_suppressed += t.duplicates_suppressed();
      cur.delivered += t.delivered();
    }
    if (rep == 0 || cur.seconds < best.seconds) best = cur;
  }
  return best;
}

}  // namespace

int run(const ftc::util::Args& args) {
  const auto sizes = args.get_int_list("sizes", {500, 2'000}, 2, INT32_MAX);
  const double degree = args.get_double("degree", 8.0);
  const auto rounds_arg = args.get_int("rounds", 0, 0, INT32_MAX);
  const int repeats =
      static_cast<int>(args.get_int("repeats", 3, 1, INT32_MAX));
  const std::string json_path =
      args.get_string("json", "BENCH_transport.json");
  constexpr double kLosses[] = {0.0, 0.1, 0.3};

  bench::Output out({"n", "mode", "loss", "rounds", "rounds/sec", "vs_plane",
                     "frames", "retrans", "goodput/link"},
                    args);
  std::vector<std::string> json_rows;

  for (long long n_ll : sizes) {
    const auto n = static_cast<NodeId>(n_ll);
    const std::int64_t rounds =
        rounds_arg > 0
            ? rounds_arg
            : std::clamp<std::int64_t>(1'000'000 / std::max<NodeId>(n, 1), 20,
                                       1'000);
    util::Rng graph_rng(kGraphSeed);
    const geom::UnitDiskGraph udg =
        geom::uniform_udg_with_degree(n, degree, graph_rng);
    const double links = static_cast<double>(2 * udg.graph.m());

    const RunStats raw = run_raw(udg, rounds, repeats);
    const double raw_rps = static_cast<double>(raw.rounds) / raw.seconds;
    out.row({util::fmt(static_cast<long long>(n)), "plane", "-",
             util::fmt(raw.rounds), util::fmt(raw_rps, 1), "1.000", "-", "-",
             "-"});
    json_rows.push_back(
        "    {\"n\": " + std::to_string(n) + ", \"mode\": \"plane\"" +
        ", \"loss\": 0.0, \"rounds\": " + std::to_string(raw.rounds) +
        ", \"seconds\": " + util::fmt(raw.seconds, 6) +
        ", \"rounds_per_sec\": " + util::fmt(raw_rps, 3) + "}");

    for (const double loss : kLosses) {
      const RunStats t = run_transport(udg, rounds, loss, repeats);
      const double rps = static_cast<double>(t.rounds) / t.seconds;
      const double vs_raw = rps / raw_rps;
      const double goodput =
          links > 0.0 ? static_cast<double>(t.delivered) /
                            (links * static_cast<double>(t.rounds))
                      : 0.0;
      out.row({util::fmt(static_cast<long long>(n)), "transport",
               util::fmt(loss, 1), util::fmt(t.rounds), util::fmt(rps, 1),
               util::fmt(vs_raw, 3), util::fmt(t.frames),
               util::fmt(t.retransmissions), util::fmt(goodput, 3)});
      std::string json = "    {";
      json += "\"n\": " + std::to_string(n);
      json += ", \"mode\": \"transport\"";
      json += ", \"loss\": " + util::fmt(loss, 2);
      json += ", \"rounds\": " + std::to_string(t.rounds);
      json += ", \"seconds\": " + util::fmt(t.seconds, 6);
      json += ", \"rounds_per_sec\": " + util::fmt(rps, 3);
      json += ", \"vs_plane\": " + util::fmt(vs_raw, 4);
      json += ", \"frames\": " + std::to_string(t.frames);
      json += ", \"retransmissions\": " + std::to_string(t.retransmissions);
      json += ", \"duplicates_suppressed\": " +
              std::to_string(t.dup_suppressed);
      json += ", \"delivered\": " + std::to_string(t.delivered);
      json += ", \"goodput_per_link_round\": " + util::fmt(goodput, 4);
      json += "}";
      json_rows.push_back(std::move(json));
    }
    out.rule();
  }

  out.print("P9 — reliable-transport cost (avg degree " +
            util::fmt(degree, 1) + ", best of " + util::fmt(repeats) + ")");

  bench::write_bench_json(json_path, "transport",
                          "udg_flood_and_closed_loop_pump",
                          {{"degree", util::fmt(degree, 1)}}, {}, json_rows);
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
