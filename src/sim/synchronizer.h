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
//    number, the payload length, a HALT flag (the process terminated) and
//    a has-payload bit.
//  * A node runs pulse p once it holds a pulse-(p-1) envelope from every
//    neighbour that had not halted before p-1. The process then sees
//    round() == p and the pulse-(p-1) payloads sorted by sender, exactly a
//    synchronous round p's inbox. A neighbour is at most one pulse ahead,
//    so two slots, tagged with their exact pulse numbers, buffer all
//    traffic; an envelope of any other pulse, or a second copy, is dropped.
//  * The SyncNetwork underneath runs the links a ChannelOptions describes:
//    delay (reorder up to D-1 extra rounds), loss, bursts, asymmetry and
//    duplication, each verdict a stateless hash of (link, round), so runs
//    are bitwise identical at every set_threads width.
//  * Loss: a neighbour's pulse-p envelope is the ack of our pulse p-1. A
//    sender keeps the at most two envelopes a neighbour may lack and
//    resends them every 2D rounds until acked, both in one frame; a halted
//    adapter keeps resending its last ones. No frame answers another, so
//    nothing ping-pongs, and a channel that cannot drop never resends
//    (DESIGN.md §5).
//
// For equal seeds the output is bit-identical to a plain SyncNetwork run,
// as the tests and the fuzzer assert for the paper's three algorithms.
// Nodes do not crash: waiting on a crashed neighbour needs a failure
// detector (sim/heartbeat.h), so crash and churn runs use the raw engine.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/network.h"

namespace ftc::sim {

class Synchronized;

/// Latency uniform in 1..max_delay rounds on otherwise clean links: on time
/// with probability 1/D, otherwise 1..D-1 extra rounds, uniformly. Throws
/// std::invalid_argument when max_delay < 1.
[[nodiscard]] ChannelOptions delay_channel(int max_delay,
                                           std::uint64_t delay_seed);

/// Virtual-time budget of a run of `pulses` pulses over `links` directed
/// links (DESIGN.md §9): 1 + (pulses-1)·D, plus, on a channel that can
/// drop, a tail bound on the resends along the critical path. It caps
/// SynchronizedNetwork::run, and the fuzzer holds every run to it.
[[nodiscard]] std::int64_t round_budget(std::int64_t pulses,
                                        std::int64_t links,
                                        const ChannelOptions& channel);

/// Largest frame, in words, for payloads of at most `payload_words`: two
/// envelopes, each a header word and its payload.
[[nodiscard]] constexpr std::int64_t max_frame_words(
    std::int64_t payload_words) noexcept {
  return 2 * (1 + payload_words);
}

/// A round that never comes: the resend interval on a channel that cannot
/// drop.
inline constexpr std::int64_t kNever = INT64_MAX;

/// What a SynchronizedNetwork run did.
struct SynchronizerMetrics {
  std::int64_t pulses = 0;            ///< highest pulse executed + 1
  std::int64_t virtual_time = 0;      ///< rounds of the underlying network
  std::int64_t envelopes_sent = 0;    ///< frames sent, first and resent
  std::int64_t payload_messages = 0;  ///< first envelopes carrying a payload
  std::int64_t retransmissions = 0;   ///< envelopes sent again
  /// Envelopes that arrived after their receiver had run the pulse they
  /// feed, and were dropped: resent or duplicated copies.
  std::int64_t stale_envelopes = 0;

  friend bool operator==(const SynchronizerMetrics&,
                         const SynchronizerMetrics&) = default;
};

/// A SyncNetwork whose links follow a ChannelOptions and that runs every
/// process through the α-synchronizer. It offers SyncNetwork's driver
/// surface (set_all_processes, run, process_as, graph, udg, metrics), so
/// run_lp_processes, run_rounding_processes and run_udg_processes run on
/// either; threads, parallel grain and the observability plane are set on
/// network().
class SynchronizedNetwork {
 public:
  /// `seed` derives per-node process randomness exactly as SyncNetwork(g,
  /// seed); `channel` is the links' behaviour for the whole run
  /// (delay_channel() for delay only). Throws std::invalid_argument on
  /// invalid options.
  SynchronizedNetwork(const graph::Graph& g, std::uint64_t seed,
                      const ChannelOptions& channel);
  /// UDG overload enabling distance sensing. Must outlive the network.
  SynchronizedNetwork(const geom::UnitDiskGraph& udg, std::uint64_t seed,
                      const ChannelOptions& channel);

  /// Installs one process per node, built by `factory(v)`.
  template <typename Factory>
  void set_all_processes(Factory&& factory) {
    for (graph::NodeId v = 0; v < graph().n(); ++v) {
      set_process(v, factory(v));
    }
  }
  void set_process(graph::NodeId v, std::unique_ptr<Process> process);

  /// Runs until every process has halted or has executed `max_pulses`
  /// pulses, or for round_budget(max_pulses, …) rounds. Returns the pulses
  /// executed by the slowest node.
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
  std::int64_t resend_interval_ = kNever;
  std::vector<Synchronized*> adapters_;  ///< owned by net_
  SynchronizerMetrics metrics_;
};

}  // namespace ftc::sim
