// Asynchronous execution of synchronous algorithms via an α-synchronizer.
//
// The paper's Section 3 notes (citing Awerbuch, JACM 1985) that every
// synchronous message passing algorithm can be turned into an asynchronous
// one with the same time complexity, at a higher message cost. Here that
// transformation is a process adapter on the one round engine:
//
//  * An adapter (`Synchronized`, synchronizer.cpp) runs each process one
//    pulse at a time, at most one pulse per round. Every pulse sends each
//    neighbour one envelope [header, payload…]; the header packs the pulse
//    number, a HALT flag (the process terminated) and a has-payload bit.
//  * A node runs pulse p once it holds a pulse-(p-1) envelope from every
//    neighbour that had not halted before p-1. The process then sees
//    round() == p and the pulse-(p-1) payloads sorted by sender, exactly a
//    synchronous round p's inbox. A neighbour is at most one pulse ahead,
//    so two parity slots buffer all traffic.
//  * The SyncNetwork underneath gives each message a latency uniform in
//    1..max_delay rounds (ChannelOptions::reorder = (D-1)/D,
//    max_reorder_delay = D-1), a stateless hash of (link, round), so runs
//    are bitwise identical at every set_threads width.
//
// For equal seeds the output is bit-identical to a plain SyncNetwork run,
// as the tests and the fuzzer assert for the paper's three algorithms.
// Delay is the only asynchrony modelled: links are reliable and nodes do
// not crash.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/network.h"

namespace ftc::sim {

class Synchronized;

/// What a SynchronizedNetwork run did.
struct SynchronizerMetrics {
  std::int64_t pulses = 0;            ///< highest pulse executed + 1
  std::int64_t virtual_time = 0;      ///< rounds of the underlying network
  std::int64_t envelopes_sent = 0;    ///< every envelope, payload or not
  std::int64_t payload_messages = 0;  ///< envelopes carrying a payload

  friend bool operator==(const SynchronizerMetrics&,
                         const SynchronizerMetrics&) = default;
};

/// A SyncNetwork with delayed links that runs every process through the
/// α-synchronizer. It offers SyncNetwork's driver surface (set_all_processes,
/// run, process_as, graph, udg, metrics), so run_lp_processes,
/// run_rounding_processes and run_udg_processes run on either; threads,
/// parallel grain and the observability plane are set on network().
class SynchronizedNetwork {
 public:
  /// `seed` derives per-node process randomness exactly as SyncNetwork(g,
  /// seed); `delay_seed` keys the link latencies, uniform in 1..max_delay
  /// rounds. Throws std::invalid_argument when max_delay < 1.
  SynchronizedNetwork(const graph::Graph& g, std::uint64_t seed,
                      int max_delay = 8, std::uint64_t delay_seed = 1);
  /// UDG overload enabling distance sensing. Must outlive the network.
  SynchronizedNetwork(const geom::UnitDiskGraph& udg, std::uint64_t seed,
                      int max_delay = 8, std::uint64_t delay_seed = 1);

  /// Installs one process per node, built by `factory(v)`.
  template <typename Factory>
  void set_all_processes(Factory&& factory) {
    for (graph::NodeId v = 0; v < graph().n(); ++v) {
      set_process(v, factory(v));
    }
  }
  void set_process(graph::NodeId v, std::unique_ptr<Process> process);

  /// Runs until every process has halted or has executed `max_pulses`
  /// pulses. Returns the pulses executed by the slowest node.
  std::int64_t run(std::int64_t max_pulses);

  /// The process installed at node v, downcast to T.
  template <typename T>
  [[nodiscard]] T& process_as(graph::NodeId v) {
    auto* p = dynamic_cast<T*>(&process(v));
    assert(p != nullptr && "process_as: wrong process type");
    return *p;
  }

  [[nodiscard]] const graph::Graph& graph() const noexcept {
    return net_.graph();
  }
  [[nodiscard]] const geom::UnitDiskGraph* udg() const noexcept {
    return net_.udg();
  }
  [[nodiscard]] const SynchronizerMetrics& metrics() const noexcept {
    return metrics_;
  }

  /// The round engine underneath. Processes are installed through this
  /// class, never through network().
  [[nodiscard]] SyncNetwork& network() noexcept { return net_; }

 private:
  [[nodiscard]] Process& process(graph::NodeId v);

  SyncNetwork net_;
  int max_delay_ = 1;
  std::vector<Synchronized*> adapters_;  ///< owned by net_
  SynchronizerMetrics metrics_;
};

}  // namespace ftc::sim
