// Asynchronous execution of synchronous algorithms via an α-synchronizer.
//
// The paper's model section notes (citing Awerbuch, JACM 1985) that "at the
// cost of higher message complexity, every synchronous message passing
// algorithm can be turned into an asynchronous algorithm with the same time
// complexity". This module implements that transformation so the library's
// algorithms run unmodified over links with arbitrary (bounded, per-message
// random) delays:
//
//  * Every payload message is enveloped with its sender's pulse number.
//  * In every pulse, the synchronizer sends an envelope to EVERY neighbor —
//    the process's payload where it sent one, an empty marker otherwise —
//    so receivers can detect pulse completion.
//  * A node advances to pulse p+1 once it holds an envelope tagged p from
//    every neighbor that has not announced termination at a pulse < p.
//  * When its process halts after pulse p, a node broadcasts a final
//    HALT(p) envelope; neighbors then stop waiting for its future pulses.
//
// Correctness: a node executes pulse p with exactly the pulse-(p-1) payload
// messages a synchronous round-p execution would deliver, so for equal
// seeds the asynchronous run computes bit-identical results to
// SyncNetwork — asserted by the test suite for all three algorithms.
//
// Cost: the virtual completion time is O(rounds × max link delay) and the
// envelope overhead is one message per edge direction per pulse, matching
// the α-synchronizer's O(|E|) per-pulse message complexity.
//
// Links are reliable and nodes do not crash: random delay is the only
// asynchrony modelled. Loss, duplication, reordering and crash or churn
// faults run on SyncNetwork (set_channel, schedule_crash, FaultInjector).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "sim/network.h"
#include "util/rng.h"

namespace ftc::sim {

/// Link-delay model and bookkeeping knobs for the asynchronous executor.
struct AsyncOptions {
  /// Inclusive bounds of the uniform per-message delay (virtual time units).
  std::int64_t min_delay = 1;
  std::int64_t max_delay = 8;

  /// Seed of the delay randomness (independent of the per-node process
  /// streams, which derive from the network seed exactly as in SyncNetwork).
  std::uint64_t delay_seed = 0xA5A5A5A5ULL;
};

/// Statistics of an asynchronous run.
struct AsyncMetrics {
  std::int64_t pulses = 0;            ///< highest pulse executed + 1
  std::int64_t virtual_time = 0;      ///< completion time in delay units
  std::int64_t envelopes_sent = 0;    ///< payload + marker + halt envelopes
  std::int64_t payload_messages = 0;  ///< envelopes carrying process payload
  std::int64_t payload_words = 0;     ///< total payload words
  std::int64_t max_message_words = 0; ///< largest payload
};

/// Event-driven asynchronous network running one Process per node under an
/// α-synchronizer. API mirrors SyncNetwork where it can.
class AsyncNetwork final : public NetworkBackend {
 public:
  /// Builds an asynchronous network over `g`. `seed` derives per-node
  /// process randomness identically to SyncNetwork(g, seed), which is what
  /// makes sync/async output equality testable.
  AsyncNetwork(const graph::Graph& g, std::uint64_t seed,
               const AsyncOptions& options = {});

  /// UDG overload enabling distance sensing. Must outlive the network.
  AsyncNetwork(const geom::UnitDiskGraph& udg, std::uint64_t seed,
               const AsyncOptions& options = {});

  AsyncNetwork(const AsyncNetwork&) = delete;
  AsyncNetwork& operator=(const AsyncNetwork&) = delete;

  /// Installs the process for node v.
  void set_process(graph::NodeId v, std::unique_ptr<Process> process);

  /// Installs one process per node, built by `factory(v)`.
  template <typename Factory>
  void set_all_processes(Factory&& factory) {
    for (graph::NodeId v = 0; v < graph_->n(); ++v) {
      set_process(v, factory(v));
    }
  }

  /// Runs the event loop until every process has halted or some node would
  /// exceed `max_pulses`. Returns the number of pulses executed by the
  /// slowest node.
  std::int64_t run(std::int64_t max_pulses);

  /// The process at node v, downcast to T.
  template <typename T>
  [[nodiscard]] T& process_as(graph::NodeId v) {
    auto* p = dynamic_cast<T*>(processes_[static_cast<std::size_t>(v)].get());
    assert(p != nullptr && "process_as: wrong process type");
    return *p;
  }

  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }

  /// Embedding, or nullptr when built from a plain graph.
  [[nodiscard]] const geom::UnitDiskGraph* udg() const noexcept { return udg_; }

  [[nodiscard]] const AsyncMetrics& metrics() const noexcept {
    return metrics_;
  }

  /// Attaches an observability plane (obs/plane.h); nullptr detaches. The
  /// asynchronous executor is single-threaded: it sizes the plane to one
  /// shard, hands processes that shard's Recorder, and folds it after every
  /// pulse. The plane must outlive the network.
  void set_observability(obs::Plane* plane);
  [[nodiscard]] obs::Plane* observability() const noexcept { return plane_; }

 private:
  // NetworkBackend:
  [[nodiscard]] const graph::Graph& backend_graph() const noexcept override {
    return *graph_;
  }
  [[nodiscard]] const geom::UnitDiskGraph* backend_udg()
      const noexcept override {
    return udg_;
  }
  void backend_send(graph::NodeId from, graph::NodeId to,
                    std::span<const Word> words) override;

  /// A payload buffered at the receiver until its pulse executes. Unlike
  /// the synchronous engine's arena-backed Message views, envelopes can sit
  /// across many virtual-time steps, so the words are owned here and only
  /// wrapped as Message views for the duration of the on_round() call.
  struct StoredMessage {
    graph::NodeId from = -1;
    std::vector<Word> words;
  };

  /// An envelope in flight or buffered at the receiver.
  struct Envelope {
    graph::NodeId from = -1;
    std::int64_t pulse = 0;
    bool has_payload = false;
    bool halt = false;   ///< sender terminates after `pulse`
    bool counts = true;  ///< counts toward pulse completion (false only for
                         ///< the extra halt marker that duplicates a payload)
    std::vector<Word> words;
  };

  struct DeliveryEvent {
    std::int64_t time = 0;
    std::uint64_t sequence = 0;  ///< FIFO tie-break for equal times
    graph::NodeId to = -1;
    Envelope envelope;
  };
  struct EventLater {
    bool operator()(const DeliveryEvent& a, const DeliveryEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  struct NodeState {
    std::int64_t pulse = 0;  ///< next pulse to execute
    bool halted = false;
    // Envelopes buffered per pulse tag (payloads only; markers counted).
    std::map<std::int64_t, std::vector<StoredMessage>> payload_by_pulse;
    std::map<std::int64_t, std::int64_t> envelopes_by_pulse;
    // halt_after[j-index] = last pulse neighbor j participates in.
    std::vector<std::int64_t> halt_after;
    // Payload the process sent during the current pulse (by neighbor index).
    std::vector<bool> sent_to;
  };

  /// True when node v holds pulse-(p-1) envelopes from every still-active
  /// neighbor (vacuously true for p = 0).
  [[nodiscard]] bool ready(graph::NodeId v) const;

  /// Runs node v's process for its next pulse at virtual time `now`.
  void execute_pulse(graph::NodeId v, std::int64_t now);

  void deliver(const DeliveryEvent& event);

  /// Index of neighbor `j` in v's sorted neighbor list.
  [[nodiscard]] std::size_t neighbor_index(graph::NodeId v,
                                           graph::NodeId j) const;

  void send_envelope(graph::NodeId from, graph::NodeId to, Envelope env,
                     std::int64_t now);

  const graph::Graph* graph_ = nullptr;
  const geom::UnitDiskGraph* udg_ = nullptr;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<util::Rng> rngs_;
  std::vector<NodeState> states_;
  util::Rng delay_rng_;
  AsyncOptions options_;
  std::priority_queue<DeliveryEvent, std::vector<DeliveryEvent>, EventLater>
      events_;
  std::uint64_t sequence_ = 0;
  AsyncMetrics metrics_;
  obs::Plane* plane_ = nullptr;

  // Scratch used while a process executes (for backend_send tagging).
  graph::NodeId executing_ = -1;
  std::int64_t executing_pulse_ = 0;
  std::int64_t executing_time_ = 0;
};

}  // namespace ftc::sim
