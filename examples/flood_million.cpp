// Million-node flood: the round engine at sensor-network scale.
//
// Builds a uniform unit disk graph (default one million nodes at average
// degree 12 — the canonical dense sensor deployment of the paper's
// experiments), reports the topology's CSR memory footprint, then drives
// a broadcast flood through the shard-owned parallel engine and prints
// per-round wall time and throughput. On commodity hardware a full 1M-node round — every live
// node folding its inbox and broadcasting to ~12 neighbors — completes in
// well under a second.
//
//   flood_million [--n=1000000] [--degree=12] [--rounds=5] [--threads=0]
//
// --threads=0 uses the hardware thread count.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "geom/udg.h"
#include "graph/graph.h"
#include "sim/message.h"
#include "sim/network.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace ftc;
using graph::NodeId;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
#if defined(__APPLE__)
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#elif defined(__unix__)
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#else
  return 0.0;
#endif
}

/// Flood wave: node 0 seeds a token; everyone re-broadcasts the maximum
/// token seen, so the wave sweeps the diameter while every node chatters
/// every round — the engine's worst case, not an idle ring.
class WaveProcess final : public sim::Process {
 public:
  WaveProcess(NodeId id, std::int64_t rounds) : rounds_(rounds) {
    token_ = (id == 0) ? 1 : 0;
  }

  void on_round(sim::Context& ctx) override {
    for (const sim::Message& msg : ctx.inbox()) {
      token_ = std::max(token_, msg.words[0]);
    }
    ctx.broadcast({token_});
    if (ctx.round() + 1 >= rounds_) halt();
  }

  sim::Word token_ = 0;

 private:
  std::int64_t rounds_;
};

/// Cap on --threads (0 = one per hardware thread): a guard against a
/// typo asking for thousands of threads, far above any useful width.
constexpr long long kMaxThreads = 256;

int run(const util::Args& args) {
  const auto n = static_cast<NodeId>(
      args.get_int("n", 1'000'000, 1, std::numeric_limits<NodeId>::max()));
  const double degree = args.get_double("degree", 12.0);
  const std::int64_t rounds =
      args.get_int("rounds", 5, 0, std::numeric_limits<std::int64_t>::max());
  int threads = static_cast<int>(args.get_int("threads", 0, 0, kMaxThreads));
  if (threads <= 0) threads = util::ThreadPool::hardware_threads();

  std::cout << "flood_million: n=" << n << " target_degree=" << degree
            << " rounds=" << rounds << " threads=" << threads << "\n";

  double t0 = now_seconds();
  util::Rng rng(42);
  const geom::UnitDiskGraph udg =
      geom::uniform_udg_with_degree(n, degree, rng);
  const graph::Graph& g = udg.graph;
  std::cout << "topology: " << g.n() << " nodes, " << g.m() << " edges, built in "
            << util::fmt(now_seconds() - t0, 2) << " s\n";

  const double csr_mb = static_cast<double>(g.memory_bytes()) / 1048576.0;
  std::cout << "adjacency: CSR " << util::fmt(csr_mb, 1) << " MiB\n";

  sim::SyncNetwork net(udg, 7);
  net.set_threads(threads);
  net.set_all_processes([&](NodeId v) {
    return std::make_unique<WaveProcess>(v, rounds);
  });

  std::int64_t prev_messages = 0;
  for (std::int64_t r = 0; r < rounds; ++r) {
    t0 = now_seconds();
    if (net.run(1) == 0) break;
    const double dt = now_seconds() - t0;
    const std::int64_t msgs = net.metrics().messages_sent - prev_messages;
    prev_messages = net.metrics().messages_sent;
    std::cout << "round " << r << ": " << util::fmt(dt * 1000.0, 1)
              << " ms, " << msgs << " messages ("
              << util::fmt(msgs / std::max(dt, 1e-9) / 1e6, 1) << " M msg/s)\n";
  }

  // How far did the wave get? (Purely informational; with diameter >>
  // rounds the frontier is a disk around node 0.)
  std::int64_t reached = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (net.process_as<WaveProcess>(v).token_ > 0) ++reached;
  }
  std::cout << "wave reached " << reached << "/" << g.n() << " nodes in "
            << net.metrics().rounds << " rounds\n";
  std::cout << "peak RSS " << util::fmt(peak_rss_mb(), 0) << " MiB\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
