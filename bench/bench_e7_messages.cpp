// E7 — Section 3's model constraint: all messages are O(log n) bits.
//
// Every distributed algorithm is run on the faithful simulator, which
// accounts payload sizes in words (one word = one id / counter / quantized
// value = O(log n) bits). We report the maximum words in any single
// message — the paper's claim is that this is a small constant — plus
// total message and word counts for context.
//
// Expected shape: max words/message is 3 (Algorithm 1), 1 (Algorithm 2),
// 2 (Algorithm 3), independent of n.
#include "bench_common.h"

#include "algo/lp/lp_kmds.h"
#include "algo/lp/lp_kmds_process.h"
#include "algo/rounding/rounding_process.h"
#include "algo/udg/udg_kmds.h"
#include "algo/udg/udg_kmds_process.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "graph/generators.h"
#include "sim/network.h"
#include "util/rng.h"

int run(const ftc::util::Args& args) {
  using namespace ftc;
  const auto sizes = args.get_int_list("sizes", {100, 400, 1600}, 2, INT32_MAX);
  const auto k = static_cast<std::int32_t>(args.get_int("k", 2, 1, INT32_MAX));
  const int t = static_cast<int>(args.get_int("t", 3, 1, INT32_MAX));

  bench::Output out({"algorithm", "n", "rounds", "messages", "words",
                     "max_words/msg", "msgs/node/round"},
                    args);

  for (long long n : sizes) {
    const std::uint64_t seed = 11 + static_cast<std::uint64_t>(n);
    util::Rng rng(seed);
    const graph::Graph g = graph::gnp(
        static_cast<graph::NodeId>(n), 10.0 / static_cast<double>(n - 1),
        rng);
    const auto d =
        domination::clamp_demands(g, domination::uniform_demands(g.n(), k));

    // Algorithm 1.
    {
      sim::SyncNetwork net(g, seed);
      const auto lp = algo::run_lp_processes(net, d, t);
      const auto& m = net.metrics();
      out.row({"Alg1 (LP, t=" + std::to_string(t) + ")", util::fmt(n),
               util::fmt(m.rounds), util::fmt(m.messages_sent),
               util::fmt(m.words_sent), util::fmt(m.max_message_words),
               util::fmt(static_cast<double>(m.messages_sent) /
                             static_cast<double>(n * m.rounds),
                         2)});

      // Algorithm 2, fed by Algorithm 1's x-values.
      sim::SyncNetwork rnet(g, seed);
      algo::run_rounding_processes(rnet, lp.primal.x, d);
      const auto& rm = rnet.metrics();
      out.row({"Alg2 (rounding)", util::fmt(n), util::fmt(rm.rounds),
               util::fmt(rm.messages_sent), util::fmt(rm.words_sent),
               util::fmt(rm.max_message_words),
               util::fmt(static_cast<double>(rm.messages_sent) /
                             static_cast<double>(n * rm.rounds),
                         2)});
    }

    // Algorithm 3 on a UDG of the same size.
    {
      util::Rng urng(seed);
      const auto udg = geom::uniform_udg_with_degree(
          static_cast<graph::NodeId>(n), 12.0, urng);
      sim::SyncNetwork net(udg, seed);
      algo::run_udg_processes(net, {.k = k});
      const auto& m = net.metrics();
      out.row({"Alg3 (UDG)", util::fmt(n), util::fmt(m.rounds),
               util::fmt(m.messages_sent), util::fmt(m.words_sent),
               util::fmt(m.max_message_words),
               util::fmt(static_cast<double>(m.messages_sent) /
                             static_cast<double>(n * m.rounds),
                         2)});
    }
    out.rule();
  }

  out.print(
      "E7 (Section 3) - message size audit: one word = O(log n) bits;\n"
      "the paper's claim is a constant number of words per message");
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
