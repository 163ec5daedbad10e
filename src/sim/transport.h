// Reliable delivery over unreliable links for per-node processes.
//
// The channel model (sim/channel.h) makes links lossy, duplicating, and
// reordering; protocols that need exactly-once, in-order delivery embed a
// ReliableTransport per process — the same pattern as HeartbeatMonitor —
// and route the message classes that need reliability through it while raw
// (loss-tolerant) traffic keeps using Context::send directly.
//
// Protocol: per-neighbor stop-and-wait ARQ with cumulative acks.
//
//   * send() enqueues an application payload for a neighbor; each payload
//     gets the next per-link sequence number.
//   * At most one payload per neighbor is in flight; it is retransmitted
//     with capped exponential backoff (2 rounds, doubling up to 16) until
//     the ack arrives, then the next queued payload goes out.
//   * Every data frame carries the cumulative ack (count of in-order
//     payloads received from that neighbor), so acks piggyback on reverse
//     traffic; a receiver with no reverse data pending sends a bare ack
//     frame.
//   * Receivers deliver exactly the expected sequence number and count any
//     other arrival as a suppressed duplicate (stop-and-wait admits no gap:
//     a frame ahead of the window cannot occur).
//
// Wire format (words): [ack, seq, payload...]; seq == -1 is a bare ack.
// The host calls receive()/ingest() first in on_round() and flush() last;
// flush sends at most one frame per neighbor per round, so the host must
// not also Context::send to a neighbor the transport is serving that round
// (the synchronous model allows one message per link per round).
//
// Counters publish to the obs registry (transport.frames/retransmissions/
// duplicates_dropped/acks) through the Context's shard-bound Recorder, so
// instrumentation keeps the engine's determinism contract.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/network.h"

namespace ftc::sim {

/// Per-process reliable transport endpoint. Embed one per Process; call
/// receive() first and flush() last in every on_round().
class ReliableTransport {
 public:
  /// An application payload released in order, exactly once.
  struct Delivery {
    graph::NodeId from = -1;
    std::vector<Word> words;
  };

  /// Queues `words` for reliable delivery to neighbor `to`.
  void send(Context& ctx, graph::NodeId to, std::span<const Word> words);
  void send(Context& ctx, graph::NodeId to,
            std::initializer_list<Word> words) {
    send(ctx, to, std::span<const Word>(words.begin(), words.size()));
  }

  /// Queues `words` for reliable delivery to every neighbor.
  void broadcast(Context& ctx, std::span<const Word> words);
  void broadcast(Context& ctx, std::initializer_list<Word> words) {
    broadcast(ctx, std::span<const Word>(words.begin(), words.size()));
  }

  /// Ingests every inbox message as a transport frame and returns the
  /// application payloads released this round, in deterministic (sender,
  /// sequence) order. For hosts that route all traffic through the
  /// transport; mixed-class hosts call ingest() per frame instead. The
  /// returned view borrows internal storage: it is valid until the next
  /// ingest()/receive() call (the buffers are reused round over round, so
  /// the steady-state hot path performs no allocation).
  [[nodiscard]] std::span<const Delivery> receive(Context& ctx);

  /// Parses one received transport frame (advances ack/delivery state).
  void ingest(Context& ctx, const Message& msg);

  /// Application payloads released by ingest() since the last collect().
  /// Same lifetime contract as receive().
  [[nodiscard]] std::span<const Delivery> collect();

  /// Transmits this round's frames: per neighbor, the in-flight payload
  /// (first send or backoff-due retransmission) or a bare ack when one is
  /// owed. At most one frame per neighbor per round.
  void flush(Context& ctx);

  /// True when nothing is queued, in flight, or owed (all acks clean).
  [[nodiscard]] bool idle() const noexcept;

  /// Payloads queued or in flight, summed over neighbors.
  [[nodiscard]] std::int64_t backlog() const noexcept;

  [[nodiscard]] std::int64_t frames_sent() const noexcept {
    return frames_sent_;
  }
  [[nodiscard]] std::int64_t retransmissions() const noexcept {
    return retransmissions_;
  }
  [[nodiscard]] std::int64_t duplicates_suppressed() const noexcept {
    return duplicates_suppressed_;
  }
  [[nodiscard]] std::int64_t delivered() const noexcept { return delivered_; }

 private:
  struct Pending {
    std::int64_t seq = 0;
    std::vector<Word> words;
  };
  struct Link {
    // Sender side.
    std::vector<Pending> queue;     ///< head = in flight (once sent)
    std::int64_t next_seq = 0;      ///< sequence for the next send() payload
    std::int64_t acked = 0;         ///< peer's cumulative ack (count)
    std::int64_t backoff = 0;       ///< current retransmission interval
    std::int64_t resend_round = -1; ///< round the head may go out (again)
    bool head_sent = false;         ///< head has been transmitted >= once
    // Receiver side.
    std::int64_t expected = 0;      ///< next in-order sequence to deliver
    bool ack_owed = false;          ///< peer needs to hear our ack
  };

  void ensure_init(Context& ctx);
  [[nodiscard]] std::size_t index_of(graph::NodeId w) const;
  void enqueue(Link& link, std::span<const Word> words);

  bool initialized_ = false;
  std::vector<graph::NodeId> neighbors_;  // sorted copy from the Context
  std::vector<Link> links_;               // per neighbor index
  // Released-delivery slots are recycled (released_count_ live entries per
  // round) and acked Pending payloads return to spare_, so the per-round
  // hot path reuses every buffer instead of reallocating it.
  std::vector<Delivery> released_;
  std::size_t released_count_ = 0;
  std::vector<Pending> spare_;
  std::vector<Word> frame_;               // flush() scratch
  std::int64_t frames_sent_ = 0;
  std::int64_t retransmissions_ = 0;
  std::int64_t duplicates_suppressed_ = 0;
  std::int64_t delivered_ = 0;
};

}  // namespace ftc::sim
