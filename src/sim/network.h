// Synchronous message-passing network simulator.
//
// Implements exactly the model of computation of the paper's Section 3:
// time is divided into rounds; in every round each node may send one message
// to each of its neighbors; messages sent in round r are delivered at the
// start of round r+1. Message size is accounted in words (see message.h) to
// audit the O(log n)-bits claim.
//
// Distributed algorithms are written as per-node `Process` objects that can
// only observe:
//   * their own id, degree, and sorted neighbor ids,
//   * global parameters the paper assumes known (n, Δ — see the Remark at
//     the end of Section 4.2),
//   * distances to neighbors when the network was built from a unit disk
//     graph (the distance-sensing assumption of Sections 3/5),
//   * their private random stream,
//   * the inbox of messages delivered this round.
//
// Crash faults: a node may be crashed at the start of any round; from then
// on it neither sends, receives, nor computes. Messages already in flight
// from it are dropped.
//
// Churn: a crashed node may later rejoin (recover / schedule_recovery) with
// a freshly constructed process — the fail-recover model where a restarted
// node retains no volatile protocol state. Rejoined nodes start with an
// empty inbox; their neighbors are not notified (detecting the rejoin is
// the protocols' job, e.g. via sim/heartbeat.h).
//
// Throughput architecture (see DESIGN.md "Simulator performance" and
// "Million-node rounds"):
//   * Message plane: payloads live in per-round word arenas; an inbox is a
//     contiguous run of (sender, payload-view) pairs in one flat per-round
//     store, pointing into the arena of the round the message was sent in.
//     A broadcast writes its payload once and every receiver's view aliases
//     it — no per-neighbor copies.
//   * Pull delivery into fixed inbox regions: receiver v's fresh messages
//     occupy [arc_offset(v), arc_offset(v) + deg(v)) of a 2m-entry store —
//     at most one message arrives per neighbour per round. A broadcast
//     stages nothing per receiver: it stamps the sender's record {round,
//     offset, len}, and each destination shard walks its receivers' sorted
//     neighbour rows, appending every neighbour stamped this round (the
//     walk runs only in rounds in which some node broadcast). A send()
//     stages one (from, to, payload) entry into a per (sender shard,
//     destination shard) list and is pushed into the receiver's region.
//     A receiver that gets both kinds has its two sender-sorted runs
//     merged in place. Delivery is one parallel pass over destination
//     shards with each channel fate decided once, inline; only rounds with
//     due delayed copies add a sizing pass and an O(shards) prefix that
//     moves those receivers' regions into per-shard tail areas. A region
//     overflow (some sender broke the one-message-per-neighbour rule)
//     throws InboxOverflow.
//   * Inboxes come out sorted by sender with no per-inbox sort: neighbour
//     rows are sorted, and shards own ascending contiguous node ranges in
//     which nodes execute in ascending order, so concatenating a
//     receiver's incoming per-shard unicast lists in shard order
//     enumerates their senders in ascending order.
//   * Structure-of-arrays node state: the per-node hot fields (crash/halt/
//     has-process flags, inbox offsets and lengths, RNG streams) live in
//     contiguous arrays indexed by node id, shard-contiguous, so the round
//     loop streams them instead of chasing per-node objects.
//   * Bitwise determinism at every set_threads width: every parallel phase
//     writes only shard-owned state in a fixed per-shard order, channel
//     verdicts are stateless hashes of (link, round), and the tiny
//     sequential merges between phases run in fixed shard order.
//   * Auto-sequential fallback: when shards are smaller than the parallel
//     grain (set_parallel_grain), rounds run the same staged code inline —
//     bitwise-identically — instead of paying pool dispatch latency.
//   * Liveness/termination are maintained counters (no O(n) scans), and
//     crash(v) drops v's delivered messages with one binary search per
//     neighbour's sender-sorted region instead of scanning every inbox.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "geom/udg.h"
#include "graph/graph.h"
#include "obs/plane.h"
#include "sim/channel.h"
#include "sim/message.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ftc::sim {

class SyncNetwork;

/// Execution statistics gathered by the network.
///
/// These counters are a fixed-cost convenience view; when an observability
/// plane is attached (set_observability) the network publishes the *same*
/// merged per-round deltas into the plane's registry from the same barrier
/// code path, so the struct and the registry cannot drift apart — asserted
/// by the ObsWiring tests.
struct Metrics {
  std::int64_t rounds = 0;            ///< rounds executed
  std::int64_t messages_sent = 0;     ///< total messages
  std::int64_t words_sent = 0;        ///< total payload words
  std::int64_t max_message_words = 0; ///< largest single message

  friend bool operator==(const Metrics&, const Metrics&) = default;
};

/// True iff a shard's round arena of `arena_words` words can take one more
/// `words`-word payload: transfer entries address the arena with uint32
/// (offset, length), so it must stay below 2^32 − 1 words. SyncNetwork
/// throws std::length_error instead of truncating an offset.
[[nodiscard]] inline bool arena_fits(std::size_t arena_words,
                                     std::size_t words) noexcept {
  constexpr std::size_t kLimit = std::numeric_limits<std::uint32_t>::max();
  return words < kLimit && arena_words < kLimit - words;
}

/// True iff one round's `messages` inbox slots fit the uint32 offsets that
/// address inbox regions; SyncNetwork throws std::length_error otherwise.
[[nodiscard]] inline bool inbox_fits(std::uint64_t messages) noexcept {
  return messages < std::numeric_limits<std::uint32_t>::max();
}

/// Thrown by SyncNetwork::step() when a round breaks the synchronous model's
/// one message per neighbour per round: a receiver got more fresh messages
/// than it has neighbours, or a node broadcast twice. Debug builds assert at
/// the offending send instead. The round is then incomplete; the network
/// must not be stepped again.
class InboxOverflow : public std::length_error {
 public:
  using std::length_error::length_error;
};

/// Backend interface through which a Context reaches its network. SyncNetwork
/// implements it, and so does the α-synchronizer adapter (synchronizer.h),
/// which captures the sends of the process it wraps, so the same Process
/// code runs unchanged on either.
class NetworkBackend {
 public:
  virtual ~NetworkBackend() = default;

  /// Topology the processes run on.
  [[nodiscard]] virtual const graph::Graph& backend_graph() const noexcept = 0;
  /// Embedding when built from a UDG; nullptr otherwise.
  [[nodiscard]] virtual const geom::UnitDiskGraph* backend_udg()
      const noexcept = 0;
  /// Queues a message for delivery (next round / next pulse). The words are
  /// copied out before returning; the span need not outlive the call.
  virtual void backend_send(graph::NodeId from, graph::NodeId to,
                            std::span<const Word> words) = 0;
  /// Queues one message per neighbor of `from`, all carrying `words`. The
  /// default forwards to backend_send per neighbor; SyncNetwork overrides it
  /// to store the payload once for its receivers to pull at delivery.
  virtual void backend_broadcast(graph::NodeId from,
                                 std::span<const Word> words);
};

/// The per-round view a process gets of its node. Provided by the network;
/// processes must not retain pointers past the round call.
class Context {
 public:
  /// This node's id.
  [[nodiscard]] graph::NodeId self() const noexcept { return self_; }
  /// Number of nodes in the network (globally known per the paper).
  [[nodiscard]] graph::NodeId n() const noexcept;
  /// Maximum degree Δ of the network (globally known per the paper).
  [[nodiscard]] graph::NodeId max_degree() const noexcept;
  /// This node's degree.
  [[nodiscard]] graph::NodeId degree() const noexcept;
  /// Sorted ids of this node's neighbors.
  [[nodiscard]] std::span<const graph::NodeId> neighbors() const noexcept;
  /// Current round number (0-based).
  [[nodiscard]] std::int64_t round() const noexcept { return round_; }

  /// True when the network carries an embedding (distance sensing enabled).
  [[nodiscard]] bool has_distances() const noexcept;
  /// Euclidean distance to a neighbor. Precondition: has_distances() and
  /// `neighbor` is adjacent to self().
  [[nodiscard]] double distance_to(graph::NodeId neighbor) const;

  /// This node's private random stream (stable across rounds).
  [[nodiscard]] util::Rng& rng() noexcept { return *rng_; }

  /// This shard's observability recorder, or nullptr when no plane is
  /// attached. Everything a process emits through it is staged and folded
  /// deterministically at the round barrier (obs/plane.h), so
  /// instrumentation cannot perturb the set_threads determinism contract.
  [[nodiscard]] obs::Recorder* obs() const noexcept { return obs_; }

  /// Messages delivered to this node at the start of this round (sent by
  /// neighbors in the previous round), sorted by sender id. The views are
  /// only valid for the duration of this on_round() call.
  [[nodiscard]] std::span<const Message> inbox() const noexcept {
    return inbox_;
  }

  /// Sends `words` to neighbor `to` (delivered next round). Precondition:
  /// `to` is adjacent to self(). At most one message per neighbor per round
  /// (the synchronous model); sending twice to the same neighbor asserts.
  void send(graph::NodeId to, std::span<const Word> words);
  void send(graph::NodeId to, std::initializer_list<Word> words) {
    send(to, std::span<const Word>(words.begin(), words.size()));
  }

  /// Sends `words` to every neighbor. The payload is stored once and shared
  /// by all receivers (metrics still account one message per neighbor).
  void broadcast(std::span<const Word> words);
  void broadcast(std::initializer_list<Word> words) {
    broadcast(std::span<const Word>(words.begin(), words.size()));
  }

 private:
  friend class SyncNetwork;
  friend class Synchronized;
  NetworkBackend* net_ = nullptr;
  graph::NodeId self_ = -1;
  std::int64_t round_ = 0;
  util::Rng* rng_ = nullptr;
  obs::Recorder* obs_ = nullptr;
  std::span<const Message> inbox_;
};

/// Base class for per-node programs.
class Process {
 public:
  virtual ~Process() = default;

  /// Executes one synchronous round. Called once per round until halt().
  virtual void on_round(Context& ctx) = 0;

  /// True once the process has called halt(). A halted process no longer
  /// computes or sends, but its node still receives (and drops) messages.
  [[nodiscard]] bool halted() const noexcept { return halted_; }

 protected:
  /// Marks this process as finished. Terminates the network run once every
  /// non-crashed process has halted.
  void halt() noexcept { halted_ = true; }

 private:
  bool halted_ = false;
};

/// The synchronous network. Owns one Process per node.
class SyncNetwork final : public NetworkBackend {
 public:
  /// Builds a network over `g`. `seed` derives every node's private random
  /// stream; two runs with equal (graph, processes, seed) are identical.
  ///
  /// A network is configured before its first step() and never after: the
  /// engine width (set_threads), the channel (set_channel) and the plane
  /// (set_observability) throw std::logic_error once round() > 0. Installing
  /// processes is not configuration, so protocols may run back to back on
  /// one network (run_kmds_pipeline runs Algorithms 1 and 2 that way).
  SyncNetwork(const graph::Graph& g, std::uint64_t seed);

  /// Builds a network over a unit disk graph, enabling distance sensing.
  /// The UnitDiskGraph must outlive the network.
  SyncNetwork(const geom::UnitDiskGraph& udg, std::uint64_t seed);

  SyncNetwork(const SyncNetwork&) = delete;
  SyncNetwork& operator=(const SyncNetwork&) = delete;
  ~SyncNetwork() override;

  /// Installs the process for node v (replacing any previous one).
  void set_process(graph::NodeId v, std::unique_ptr<Process> process);

  /// Installs one process per node, built by `factory(v)`.
  template <typename Factory>
  void set_all_processes(Factory&& factory) {
    for (graph::NodeId v = 0; v < graph_->n(); ++v) {
      set_process(v, factory(v));
    }
  }

  /// Selects the parallel round engine: on_round() calls are sharded over
  /// `threads` persistent worker threads (1 = sequential, the default; 0 =
  /// one per hardware thread). Results are bitwise identical for every
  /// value — same process states, metrics, inbox orders, and RNG draws —
  /// because rounds stage per-shard state that is merged in a fixed order.
  /// Call before the first step(); throws std::logic_error after it.
  void set_threads(int threads);

  /// Execution streams step() currently uses.
  [[nodiscard]] int threads() const noexcept { return threads_; }

  /// Minimum nodes-per-shard for which step() dispatches to the thread
  /// pool. Below it the same sharded phases run inline on the caller —
  /// bitwise-identically, since the parallel phases only write shard-owned
  /// state merged in fixed order either way — which is faster when shards
  /// are too small to repay a pool wakeup (a 4-thread pool ran the
  /// 1000-node flood at ~0.6x the sequential rounds/sec). 0 forces the pool
  /// whenever threads() > 1; tests use that to compare both paths.
  /// Default: kDefaultParallelGrain.
  void set_parallel_grain(std::size_t nodes_per_shard) noexcept {
    parallel_grain_ = nodes_per_shard;
  }

  /// Default set_parallel_grain threshold: with fewer nodes per shard than
  /// this, a round's per-shard work is in the microsecond range and pool
  /// dispatch overhead dominates any speedup.
  static constexpr std::size_t kDefaultParallelGrain = 4096;

  /// Attaches an observability plane (metrics registry + structured trace);
  /// nullptr detaches. Call before the first step(); throws
  /// std::logic_error after it. The plane must outlive the network, and its
  /// recorders are sized to this network's width. All publication happens
  /// at the sequential round barrier (per-shard staging merged in shard
  /// order), so attaching a plane preserves the bitwise determinism of
  /// set_threads; wall time only ever reaches the plane's PerfPlane.
  void set_observability(obs::Plane* plane);

  /// The attached plane, or nullptr.
  [[nodiscard]] obs::Plane* observability() const noexcept { return plane_; }

  /// Runs rounds until every live process has halted or `max_rounds` rounds
  /// have executed. Returns the number of rounds executed in this call.
  std::int64_t run(std::int64_t max_rounds);

  /// Executes a single round. Returns true if at least one live process is
  /// still running afterwards.
  bool step();

  /// Installs a link-impairment model (loss, asymmetry, bursts,
  /// duplication, bounded reordering — see sim/channel.h) for the whole
  /// run. This is the only way to impair links. Call it before the first
  /// step(); throws std::logic_error after it. Decisions are
  /// stateless-hashed per (link, round), so the set_threads determinism
  /// contract is unaffected; the processes' own randomness is untouched.
  /// Throws std::invalid_argument on invalid options. Default: clean
  /// channel.
  void set_channel(const ChannelOptions& options);

  /// The active channel model (counters included).
  [[nodiscard]] const Channel& channel() const noexcept { return channel_; }

  /// Messages dropped by the channel so far.
  [[nodiscard]] std::int64_t messages_lost() const noexcept {
    return channel_.counters().dropped;
  }

  /// Crashes node v immediately: it stops computing and communicating, and
  /// any undelivered messages from it are dropped. Crashing an already
  /// crashed node is a no-op.
  void crash(graph::NodeId v);

  /// Schedules a crash of v at the start of round `round`. Scheduling a
  /// crash for a past round or for an already-crashed node is a no-op (and
  /// the crash is skipped if v is already down when the round arrives).
  void schedule_crash(graph::NodeId v, std::int64_t round);

  /// Revives v immediately with a freshly constructed process (churn
  /// rejoin): clears the crash flag and starts executing from the current
  /// round with an empty inbox. Also valid on a live node, where it merely
  /// replaces the process (back-to-back churn).
  void recover(graph::NodeId v, std::unique_ptr<Process> process);

  /// Schedules a rejoin of v at the start of round `round`, booting
  /// `process`. Scheduling for a past round is a no-op (the process is
  /// discarded). Pending recoveries keep run() going even when every live
  /// process has halted, so a network can drain a full churn schedule.
  void schedule_recovery(graph::NodeId v, std::int64_t round,
                         std::unique_ptr<Process> process);

  /// True if v has crashed.
  [[nodiscard]] bool crashed(graph::NodeId v) const noexcept {
    return (node_flags_[static_cast<std::size_t>(v)] & kNodeCrashed) != 0;
  }

  /// Number of currently live (non-crashed) nodes. O(1): maintained as a
  /// counter, cross-checked against a scan in debug builds.
  [[nodiscard]] graph::NodeId live_count() const noexcept;

  /// The process installed at node v, downcast to T (checked by assert in
  /// debug builds via dynamic_cast).
  template <typename T>
  [[nodiscard]] T& process_as(graph::NodeId v) {
    auto* p = dynamic_cast<T*>(processes_[static_cast<std::size_t>(v)].get());
    assert(p != nullptr && "process_as: wrong process type");
    return *p;
  }

  /// Underlying graph.
  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }

  /// Embedding, or nullptr when built from a plain graph.
  [[nodiscard]] const geom::UnitDiskGraph* udg() const noexcept { return udg_; }

  /// Execution statistics.
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }

  /// Current round number (rounds executed since construction).
  [[nodiscard]] std::int64_t round() const noexcept { return round_; }

 private:
  friend class Context;

  // Per-node flag bits (node_flags_). A node executes a round iff its flags
  // equal exactly kNodeHasProcess — one byte compare in the hot loop instead
  // of three pointer/bool loads.
  static constexpr std::uint8_t kNodeCrashed = 1u << 0;
  static constexpr std::uint8_t kNodeHalted = 1u << 1;
  static constexpr std::uint8_t kNodeHasProcess = 1u << 2;

  /// One staged send(): sender, receiver, and the payload's location in the
  /// sending shard's arena. Lists are kept per (sender shard, destination
  /// shard) pair; within a list entries are sender-ascending (nodes execute
  /// in ascending order within their shard), so walking a destination
  /// shard's lists in sender-shard order pushes every receiver's unicasts
  /// in ascending sender order.
  struct XferEntry {
    graph::NodeId from = -1;
    graph::NodeId to = -1;
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
  };

  /// A node's latest broadcast: its payload's location in the sending
  /// shard's arena, valid for the receivers' pull walk iff `round` is the
  /// round being delivered.
  struct BroadcastStamp {
    std::int64_t round = -1;
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
  };

  /// Per-shard accumulators staged during the parallel phase of a round and
  /// merged sequentially afterwards (fixed order ⇒ determinism).
  struct ShardStats {
    std::int64_t messages = 0;
    std::int64_t words = 0;
    std::int64_t max_words = 0;
    std::int64_t newly_halted = 0;
    std::int64_t nodes_run = 0;  ///< processes executed (straggler telemetry)
    std::int64_t broadcasts = 0;    ///< broadcasting nodes (pull walk needed)
    bool double_broadcast = false;  ///< some node broadcast twice
  };

  /// A receiver whose region moves to its shard's tail this round, because
  /// due delayed copies join its at most deg(node) fresh messages.
  struct Relocation {
    graph::NodeId node = -1;
    std::uint32_t offset = 0;  ///< region start, relative to the tail base
  };

  /// Per destination shard delivery state.
  struct DeliveryShard {
    std::vector<Relocation> relocated;  ///< ascending node order
    std::uint64_t tail_slots = 0;       ///< tail slots the relocations need
    std::uint64_t tail_base = 0;        ///< tail start in inbox_store_
    bool overflow = false;              ///< a region would have overflowed
  };

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
  void backend_broadcast(graph::NodeId from,
                         std::span<const Word> words) override;

  void apply_scheduled_events();

  /// Shard owning node v under the current sharding.
  [[nodiscard]] std::uint32_t shard_of(graph::NodeId v) const noexcept {
    return static_cast<std::uint32_t>(static_cast<std::size_t>(v) /
                                      shard_block_);
  }

  /// [begin, end) node range of shard s under the current sharding.
  [[nodiscard]] std::pair<graph::NodeId, graph::NodeId> shard_range(
      int s) const noexcept {
    const auto n = static_cast<std::size_t>(graph_->n());
    const std::size_t lo =
        std::min(static_cast<std::size_t>(s) * shard_block_, n);
    const std::size_t hi = std::min(lo + shard_block_, n);
    return {static_cast<graph::NodeId>(lo), static_cast<graph::NodeId>(hi)};
  }

  /// Runs fn(0..shards-1) on the pool, or inline when the pool is absent or
  /// shards are below the parallel grain. Either way each invocation only
  /// writes shard-owned state, so the results are bitwise identical.
  template <typename Fn>
  void dispatch_shards(int shards, Fn&& fn) {
    if (pool_ == nullptr || shard_block_ < parallel_grain_) {
      for (int s = 0; s < shards; ++s) fn(s);
    } else {
      pool_->run(shards, std::forward<Fn>(fn));
    }
  }

  /// Runs on_round() for every live, unhalted process in [begin, end).
  void execute_nodes(graph::NodeId begin, graph::NodeId end, int shard);

  /// Delivers this round's broadcasts and sends into next round's inboxes:
  /// an optional parallel pass sizing the tail regions of receivers with
  /// due delayed copies, an O(shards) prefix over those tails, and one
  /// parallel placement pass over destination shards (push unicasts, pull
  /// broadcasts, merge, splice due delayed copies). Throws InboxOverflow.
  void deliver_round(int shards);

  /// Recomputes node_flags_[v] from processes_[v] (crash bit preserved).
  void refresh_node_flags(graph::NodeId v) noexcept {
    const auto idx = static_cast<std::size_t>(v);
    std::uint8_t f = node_flags_[idx] & kNodeCrashed;
    if (const Process* p = processes_[idx].get(); p != nullptr) {
      f |= kNodeHasProcess;
      if (p->halted()) f |= kNodeHalted;
    }
    node_flags_[idx] = f;
  }

  /// True iff v's process exists, has not halted, and v is live — i.e. v
  /// contributes to running_count_.
  [[nodiscard]] bool counts_as_running(graph::NodeId v) const noexcept {
    return node_flags_[static_cast<std::size_t>(v)] == kNodeHasProcess;
  }

  /// Removes sender's entries from receiver `to`'s inbox region (in-region
  /// move + length decrement; idempotent, no-op when absent).
  void erase_inbox_entries(graph::NodeId sender, graph::NodeId to) noexcept;

  /// Throws std::logic_error naming `setter` once a round has run.
  void check_not_started(const char* setter) const;

  /// Debug-only O(n) cross-check of live_count_ / running_count_ and the
  /// node_flags_ cache against the authoritative process states.
  void check_counters() const noexcept;

  const graph::Graph* graph_ = nullptr;
  const geom::UnitDiskGraph* udg_ = nullptr;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<util::Rng> rngs_;  ///< per node, contiguous

  // Structure-of-arrays node state, indexed by node id (shard-contiguous:
  // a shard's nodes are a contiguous range, so its per-node traffic stays
  // in its own cache lines).
  std::vector<std::uint8_t> node_flags_;     // kNode* bits
  std::vector<std::uint32_t> inbox_off_;  // region start in inbox_store_
  std::vector<std::uint32_t> inbox_len_;  // region length (crash-shrunk)
  std::vector<BroadcastStamp> bcast_;     // latest broadcast per node

  // Message plane. Double-buffered: processes read views into the `prev`
  // arenas (what was delivered to them) while their sends fill `cur`.
  // Unicast lists are indexed [sender_shard * shards + dest_shard]; a sender
  // shard owns row s exclusively during compute, a destination shard reads
  // column d exclusively during delivery, and every list is empty between
  // rounds.
  std::vector<std::vector<Word>> arena_cur_;   // one per sender shard
  std::vector<std::vector<Word>> arena_prev_;
  std::vector<const Word*> arena_base_;        // arena_cur_ data, per shard
  std::vector<std::vector<XferEntry>> xfer_cur_;  // S*S unicast lists
  std::vector<Message> inbox_store_;  ///< 2m fixed regions, then the tails
  std::vector<ShardStats> shard_stats_;            // one per sender shard
  // Per-shard perf timing, written only when a perf plane is attached:
  // compute by sender shard, the delivery passes by destination shard.
  std::vector<obs::PerfShardSample> perf_shards_;
  std::vector<DeliveryShard> delivery_;              // one per dest shard
  std::vector<Channel::ShardState> channel_shards_;  // one per dest shard

  // Parallel engine.
  int threads_ = 1;
  std::size_t shard_block_ = 1;  ///< nodes per shard (ceil(n / shards))
  std::size_t parallel_grain_ = kDefaultParallelGrain;
  std::unique_ptr<util::ThreadPool> pool_;

  graph::NodeId live_count_ = 0;      ///< nodes without kNodeCrashed
  std::int64_t running_count_ = 0;    ///< nodes where counts_as_running()
  std::vector<std::pair<std::int64_t, graph::NodeId>> scheduled_crashes_;
  struct ScheduledRecovery {
    std::int64_t round = 0;
    graph::NodeId node = -1;
    std::unique_ptr<Process> process;
  };
  std::vector<ScheduledRecovery> scheduled_recoveries_;

  // Unreliable channel. Delayed (reordered/duplicated) deliveries cannot
  // alias the round arenas — they outlive the generation swap — so each
  // owns its payload. Both lists are bucketed by destination shard so the
  // delivery passes touch only shard-owned buckets; per-receiver order
  // within a bucket is (enqueue round, sender), which is width-invariant.
  // `delayed_live_` holds the copies whose views sit in current inboxes
  // (the inner word vectors are heap buffers, stable under bucket growth);
  // `delayed_pending_` holds copies in flight.
  struct DelayedMessage {
    std::int64_t due = 0;  ///< round whose inbox receives the message
    graph::NodeId from = -1;
    graph::NodeId to = -1;
    std::vector<Word> words;
  };
  Channel channel_;
  std::vector<std::vector<DelayedMessage>> delayed_pending_;
  std::vector<std::vector<DelayedMessage>> delayed_live_;

  std::int64_t round_ = 0;
  Metrics metrics_;

  // Observability (null = disabled; the hot path then costs one branch per
  // round phase plus one pointer store per node context).
  obs::Plane* plane_ = nullptr;
  obs::PerfPlane* perf_ = nullptr;           ///< cached plane_->perf()
  Channel::Counters published_;              ///< channel counters already published

  /// (Re)sizes the plane's recorders to threads_ and refreshes perf_.
  void sync_observability_shards();
};

}  // namespace ftc::sim
