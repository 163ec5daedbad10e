// A3 (extension) — asynchronous execution via the α-synchronizer.
//
// The paper's Section 3 cites Awerbuch's synchronizer to claim its
// synchronous algorithms carry over to asynchronous networks "with the same
// time complexity" at higher message cost. This bench quantifies both sides
// of that trade on Algorithm 1:
//   * pulses (algorithmic rounds) are delay-independent,
//   * virtual completion time grows ~linearly with the max link delay,
//   * envelope overhead is one message per edge per direction per pulse,
//   * on lossy links (the last three rows) the adapter resends what was
//     lost: the retransmissions column and the extra virtual time are the
//     cost of reliability.
// The output is also verified against the synchronous run: x, y and z must
// be identical in every row, else the bench exits 1.
#include "bench_common.h"

#include "algo/lp/lp_kmds.h"
#include "algo/lp/lp_kmds_process.h"
#include "domination/domination.h"
#include "graph/generators.h"
#include "sim/synchronizer.h"
#include "util/rng.h"

int run(const ftc::util::Args& args) {
  using namespace ftc;
  const auto n =
      static_cast<graph::NodeId>(args.get_int("n", 300, 2, INT32_MAX));
  const auto k = static_cast<std::int32_t>(args.get_int("k", 2, 1, INT32_MAX));
  const int t = static_cast<int>(args.get_int("t", 3, 1, INT32_MAX));

  util::Rng rng(42);
  const graph::Graph g =
      graph::gnp(n, 10.0 / static_cast<double>(n - 1), rng);
  const auto d =
      domination::clamp_demands(g, domination::uniform_demands(g.n(), k));

  // Synchronous reference.
  sim::SyncNetwork sync_net(g, 7);
  const auto sync_lp = algo::run_lp_processes(sync_net, d, t);

  bench::Output out({"max_delay", "channel", "pulses", "virtual_time",
                     "time/pulse", "envelopes", "payload_msgs", "overhead_x",
                     "retransmissions", "matches_sync"},
                    args);

  // Six delay-only rows, then three lossy channels at D = 8: the price of
  // reliability is the retransmissions and the extra virtual time.
  struct Row {
    int max_delay;
    const char* label;
    double loss, burst_loss;
  };
  std::vector<Row> rows;
  for (const int max_delay : {1, 2, 4, 8, 16, 32}) {
    rows.push_back({max_delay, "delay", 0.0, 0.0});
  }
  rows.insert(rows.end(), {{8, "loss 0.1", 0.1, 0.0},
                           {8, "loss 0.3", 0.3, 0.0},
                           {8, "burst 0.85", 0.0, 0.85}});

  bool all_match = true;
  for (const Row& row : rows) {
    sim::ChannelOptions channel = sim::delay_channel(row.max_delay, 1);
    channel.loss = row.loss;
    channel.burst_loss = row.burst_loss;
    channel.p_enter_burst = row.burst_loss > 0.0 ? 0.17 : 0.0;
    channel.p_exit_burst = 0.34;
    sim::SynchronizedNetwork net(g, 7, channel);
    const auto lp = algo::run_lp_processes(net, d, t);
    const auto pulses = lp.rounds;
    const bool matches = lp.primal.x == sync_lp.primal.x &&
                         lp.dual.y == sync_lp.dual.y &&
                         lp.dual.z == sync_lp.dual.z;
    all_match = all_match && matches;
    const auto& m = net.metrics();
    out.row({util::fmt(row.max_delay), row.label, util::fmt(pulses),
             util::fmt(m.virtual_time),
             util::fmt(static_cast<double>(m.virtual_time) /
                           static_cast<double>(pulses),
                       2),
             util::fmt(m.envelopes_sent), util::fmt(m.payload_messages),
             util::fmt(static_cast<double>(m.envelopes_sent) /
                           static_cast<double>(m.payload_messages),
                       3),
             util::fmt(m.retransmissions), matches ? "yes" : "NO"});
  }

  out.print(
      "A3 (extension) - Algorithm 1 under the alpha-synchronizer\n"
      "n=" + std::to_string(n) + ", k=" + std::to_string(k) +
      ", t=" + std::to_string(t) +
      "; per-message delay uniform in [1, max_delay] rounds; lossy rows\n"
      "burst: Gilbert-Elliott, enter 0.17, exit 0.34");
  return all_match ? 0 : 1;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
