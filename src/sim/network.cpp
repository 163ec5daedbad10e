#include "sim/network.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace ftc::sim {

using graph::NodeId;

namespace {

// XferEntry stores (offset, len) into the shard arena as uint32. Enforced
// unconditionally (not via assert): in a release build an arena past 2^32
// words would otherwise silently truncate offsets and corrupt payloads.
void check_arena_capacity(std::size_t arena_size, std::size_t words) {
  if (arena_size + words >=
      static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max())) {
    throw std::length_error(
        "SyncNetwork: per-shard round arena exceeds uint32 offset range");
  }
}

// Inbox regions are addressed by uint32 offsets into the flat store.
void check_inbox_capacity(std::uint64_t total_messages) {
  if (total_messages >=
      static_cast<std::uint64_t>(std::numeric_limits<std::uint32_t>::max())) {
    throw std::length_error(
        "SyncNetwork: per-round message count exceeds uint32 inbox range");
  }
}

}  // namespace

graph::NodeId Context::n() const noexcept {
  return net_->backend_graph().n();
}

graph::NodeId Context::max_degree() const noexcept {
  return net_->backend_graph().max_degree();
}

graph::NodeId Context::degree() const noexcept {
  return net_->backend_graph().degree(self_);
}

std::span<const graph::NodeId> Context::neighbors() const noexcept {
  return net_->backend_graph().neighbors(self_);
}

bool Context::has_distances() const noexcept {
  return net_->backend_udg() != nullptr;
}

double Context::distance_to(graph::NodeId neighbor) const {
  assert(has_distances());
  assert(net_->backend_graph().has_edge(self_, neighbor));
  return net_->backend_udg()->distance(self_, neighbor);
}

void Context::send(graph::NodeId to, std::span<const Word> words) {
  assert(net_->backend_graph().has_edge(self_, to) &&
         "send: destination must be a neighbor");
  net_->backend_send(self_, to, words);
}

void Context::broadcast(std::span<const Word> words) {
  net_->backend_broadcast(self_, words);
}

void NetworkBackend::backend_broadcast(graph::NodeId from,
                                       std::span<const Word> words) {
  for (graph::NodeId w : backend_graph().neighbors(from)) {
    backend_send(from, w, words);
  }
}

SyncNetwork::SyncNetwork(const graph::Graph& g, std::uint64_t seed)
    : graph_(&g) {
  const auto n = static_cast<std::size_t>(g.n());
  processes_.resize(n);
  node_flags_.assign(n, 0);
  inbox_off_.assign(n, 0);
  inbox_len_.assign(n, 0);
  inbox_count_.assign(n, 0);
  inbox_cursor_.assign(n, 0);
  live_count_ = g.n();
  arena_cur_.resize(1);
  arena_prev_.resize(1);
  xfer_cur_.resize(1);
  xfer_prev_.resize(1);
  shard_stats_.resize(1);
  shard_inbox_total_.resize(1);
  shard_inbox_base_.resize(1);
  fate_scratch_.resize(1);
  channel_shards_.resize(1);
  delayed_pending_.resize(1);
  delayed_live_.resize(1);
  shard_block_ = std::max<std::size_t>(n, 1);
  xfer_block_prev_ = shard_block_;
  rngs_.reserve(n);
  const util::Rng root(seed);
  for (std::size_t v = 0; v < n; ++v) {
    rngs_.push_back(root.split(v));
  }
}

SyncNetwork::SyncNetwork(const geom::UnitDiskGraph& udg, std::uint64_t seed)
    : SyncNetwork(udg.graph, seed) {
  udg_ = &udg;
}

SyncNetwork::~SyncNetwork() = default;

void SyncNetwork::set_threads(int threads) {
  if (threads <= 0) threads = util::ThreadPool::hardware_threads();
  threads_ = threads;
  if (threads_ == 1) {
    pool_.reset();
  } else if (pool_ == nullptr || pool_->size() != threads_) {
    pool_ = std::make_unique<util::ThreadPool>(threads_);
  }
  const auto n = static_cast<std::size_t>(graph_->n());
  const auto shards = static_cast<std::size_t>(threads_);
  shard_block_ = std::max<std::size_t>(1, (n + shards - 1) / shards);
  // Only the (empty between rounds) current generation is reshaped; the
  // previous generation still backs live inbox views and crash lookups and
  // keeps its recorded shape until the next round-end swap recycles it.
  arena_cur_.resize(shards);
  xfer_cur_.resize(shards * shards);
  shard_stats_.resize(shards);
  shard_inbox_total_.resize(shards);
  shard_inbox_base_.resize(shards);
  fate_scratch_.resize(shards);
  // Shard channel caches are memoizations of a pure per-link function, so
  // dropping some (shrink) or starting fresh ones (grow) changes nothing.
  channel_shards_.resize(shards);
  // Delayed messages are bucketed by destination shard: re-bucket under the
  // new sharding. Iterating old buckets in order keeps each receiver's
  // bucket order intact (all of a receiver's copies live in one bucket),
  // which is the only order delivery depends on. The payload word vectors
  // are heap buffers, so moving the structs cannot invalidate the inbox
  // views delayed_live_ still backs.
  auto rebucket = [&](std::vector<std::vector<DelayedMessage>>& buckets) {
    std::vector<std::vector<DelayedMessage>> fresh(shards);
    for (auto& bucket : buckets) {
      for (DelayedMessage& m : bucket) {
        fresh[shard_of(m.to)].push_back(std::move(m));
      }
    }
    buckets = std::move(fresh);
  };
  rebucket(delayed_pending_);
  rebucket(delayed_live_);
  sync_observability_shards();
}

void SyncNetwork::set_observability(obs::Plane* plane) {
  plane_ = plane;
  published_ = channel_.counters();
  sync_observability_shards();
}

void SyncNetwork::sync_observability_shards() {
  if (plane_ == nullptr) {
    recorders_.clear();
    perf_ = nullptr;
    if (pool_ != nullptr) pool_->set_perf_enabled(false);
    return;
  }
  plane_->set_shards(threads_);
  perf_ = plane_->perf();
  if (pool_ != nullptr) pool_->set_perf_enabled(perf_ != nullptr);
  if (static_cast<int>(recorders_.size()) != threads_) {
    recorders_.clear();
    recorders_.reserve(static_cast<std::size_t>(threads_));
    for (int s = 0; s < threads_; ++s) recorders_.emplace_back(plane_, s);
  }
}

void SyncNetwork::set_process(graph::NodeId v,
                              std::unique_ptr<Process> process) {
  assert(v >= 0 && v < graph_->n());
  if (counts_as_running(v)) --running_count_;
  processes_[static_cast<std::size_t>(v)] = std::move(process);
  refresh_node_flags(v);
  if (counts_as_running(v)) ++running_count_;
}

void SyncNetwork::backend_send(graph::NodeId from, graph::NodeId to,
                               std::span<const Word> words) {
  const std::uint32_t s = shard_of(from);
  const std::uint32_t d = shard_of(to);
  const auto shards = static_cast<std::uint32_t>(threads_);
  auto& list = xfer_cur_[static_cast<std::size_t>(s) * shards + d];
#ifndef NDEBUG
  // `from`'s entries are the tail run of every list it touched this round;
  // a fan-out entry already covers every neighbour of `from`.
  for (auto it = list.rbegin(); it != list.rend() && it->from == from; ++it) {
    assert(it->to != to && it->to != kFanOut &&
           "send: at most one message per neighbor per round");
  }
#endif
  auto& arena = arena_cur_[s];
  check_arena_capacity(arena.size(), words.size());
  const auto offset = static_cast<std::uint32_t>(arena.size());
  arena.insert(arena.end(), words.begin(), words.end());
  list.push_back({from, to, offset, static_cast<std::uint32_t>(words.size())});
  ShardStats& st = shard_stats_[s];
  st.messages += 1;
  st.words += static_cast<std::int64_t>(words.size());
  st.max_words =
      std::max(st.max_words, static_cast<std::int64_t>(words.size()));
}

void SyncNetwork::backend_broadcast(graph::NodeId from,
                                    std::span<const Word> words) {
  const auto nbrs = graph_->neighbors(from);
  if (nbrs.empty()) return;
  const std::uint32_t s = shard_of(from);
  const auto shards = static_cast<std::uint32_t>(threads_);
  auto& arena = arena_cur_[s];
  check_arena_capacity(arena.size(), words.size());
  const auto offset = static_cast<std::uint32_t>(arena.size());
  const auto len = static_cast<std::uint32_t>(words.size());
  // The payload is written once; every receiver's view aliases it. When
  // every receiver sits in one destination shard — always, with one shard
  // — a single fan-out entry stands for the whole row. Otherwise each
  // receiver gets its own entry: splitting the row into per-shard runs
  // costs a mispredicted branch per run in staging and in both delivery
  // passes, which loses to per-receiver entries at deg / shards of a few
  // receivers per run (DESIGN.md §10).
  arena.insert(arena.end(), words.begin(), words.end());
  const std::uint32_t d = shard_of(nbrs.front());
  if (d == shard_of(nbrs.back())) {
    auto& list = xfer_cur_[static_cast<std::size_t>(s) * shards + d];
    // Any earlier entry of `from` in this list reaches one of its receivers.
    assert((list.empty() || list.back().from != from) &&
           "broadcast: at most one message per neighbor per round");
    list.push_back({from, kFanOut, offset, len});
  } else {
    for (NodeId w : nbrs) {
      auto& list =
          xfer_cur_[static_cast<std::size_t>(s) * shards + shard_of(w)];
#ifndef NDEBUG
      for (auto it = list.rbegin(); it != list.rend() && it->from == from;
           ++it) {
        assert(it->to != w && it->to != kFanOut &&
               "broadcast: at most one message per neighbor per round");
      }
#endif
      list.push_back({from, w, offset, len});
    }
  }
  ShardStats& st = shard_stats_[s];
  const auto deg = static_cast<std::int64_t>(nbrs.size());
  st.messages += deg;
  st.words += deg * static_cast<std::int64_t>(len);
  st.max_words = std::max(st.max_words, static_cast<std::int64_t>(len));
}

void SyncNetwork::apply_scheduled_events() {
  for (auto it = scheduled_crashes_.begin();
       it != scheduled_crashes_.end();) {
    if (it->first <= round_) {
      crash(it->second);
      it = scheduled_crashes_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = scheduled_recoveries_.begin();
       it != scheduled_recoveries_.end();) {
    if (it->round <= round_) {
      recover(it->node, std::move(it->process));
      it = scheduled_recoveries_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = scheduled_channels_.begin();
       it != scheduled_channels_.end();) {
    if (it->first <= round_) {
      channel_.set_options(it->second, round_);
      reset_channel_shard_state();
      if (plane_ != nullptr) {
        obs::TraceEvent e;
        e.round = round_;
        e.category = obs::Category::kFault;
        e.severity = obs::Severity::kInfo;
        e.name = plane_->builtin().n_channel;
        e.a0 = it->second.impaired() ? 1 : 0;
        plane_->trace().emit(e);
      }
      it = scheduled_channels_.erase(it);
    } else {
      ++it;
    }
  }
}

void SyncNetwork::erase_inbox_entries(graph::NodeId sender,
                                      graph::NodeId to) noexcept {
  const auto idx = static_cast<std::size_t>(to);
  Message* const begin = inbox_store_.data() + inbox_off_[idx];
  Message* const end = begin + inbox_len_[idx];
  Message* it = std::lower_bound(
      begin, end, sender,
      [](const Message& m, graph::NodeId id) { return m.from < id; });
  Message* last = it;
  while (last != end && last->from == sender) ++last;
  if (it != last) {
    std::move(last, end, it);
    inbox_len_[idx] -= static_cast<std::uint32_t>(last - it);
  }
}

void SyncNetwork::purge_current_sends(graph::NodeId v) {
  // The current generation only holds entries while a round is executing;
  // between rounds (where crash/recover run) every list is empty, so this
  // is a cheap defensive sweep of v's sender-shard row.
  const auto shards = static_cast<std::size_t>(threads_);
  const std::size_t s = shard_of(v);
  for (std::size_t d = 0; d < shards; ++d) {
    auto& list = xfer_cur_[s * shards + d];
    if (list.empty()) continue;
    auto it = std::lower_bound(
        list.begin(), list.end(), v,
        [](const XferEntry& e, graph::NodeId id) { return e.from < id; });
    auto last = it;
    while (last != list.end() && last->from == v) ++last;
    list.erase(it, last);
  }
}

void SyncNetwork::reset_channel_shard_state() {
  for (Channel::ShardState& st : channel_shards_) st.clear();
}

void SyncNetwork::crash(graph::NodeId v) {
  assert(v >= 0 && v < graph_->n());
  const auto idx = static_cast<std::size_t>(v);
  if (crashed(v)) return;
  if (plane_ != nullptr) {
    plane_->metrics().add(plane_->builtin().crashes, 1);
    obs::TraceEvent e;
    e.round = round_;
    e.node = static_cast<std::int32_t>(v);
    e.category = obs::Category::kFault;
    e.severity = obs::Severity::kInfo;
    e.name = plane_->builtin().n_crash;
    plane_->trace().emit(e);
  }
  if (counts_as_running(v)) --running_count_;
  node_flags_[idx] |= kNodeCrashed;
  --live_count_;
  inbox_len_[idx] = 0;
  purge_current_sends(v);
  // Drop v's delivered-generation traffic without scanning every inbox: its
  // messages are the from == v runs of its sender-shard row in xfer_prev_
  // (one binary search per destination shard), and each receiver's inbox
  // region is sender-sorted (one binary search per removal). xfer_prev_ was
  // built under the sharding recorded at the last generation swap, which
  // may differ from the current one.
  const auto shards_prev = static_cast<std::size_t>(xfer_shards_prev_);
  const std::size_t s_prev = static_cast<std::size_t>(v) / xfer_block_prev_;
  for (std::size_t d = 0; d < shards_prev; ++d) {
    const auto& list = xfer_prev_[s_prev * shards_prev + d];
    auto it = std::lower_bound(
        list.begin(), list.end(), v,
        [](const XferEntry& e, graph::NodeId id) { return e.from < id; });
    for (; it != list.end() && it->from == v; ++it) {
      for_each_receiver(*it, [&](NodeId to) { erase_inbox_entries(v, to); });
    }
  }
  // Channel-delayed traffic is not indexed by xfer_prev_: drop pending
  // copies touching v, and purge delivered delayed copies from v out of
  // receivers' inboxes (the erase is idempotent with the pass above).
  for (auto& bucket : delayed_pending_) {
    std::erase_if(bucket, [v](const DelayedMessage& m) {
      return m.from == v || m.to == v;
    });
  }
  for (const auto& bucket : delayed_live_) {
    for (const DelayedMessage& m : bucket) {
      if (m.from == v && !crashed(m.to)) {
        erase_inbox_entries(v, m.to);
      }
    }
  }
  check_counters();
}

void SyncNetwork::recover(graph::NodeId v, std::unique_ptr<Process> process) {
  assert(v >= 0 && v < graph_->n());
  const auto idx = static_cast<std::size_t>(v);
  if (counts_as_running(v)) --running_count_;
  if (crashed(v)) {
    node_flags_[idx] &= static_cast<std::uint8_t>(~kNodeCrashed);
    ++live_count_;
    if (plane_ != nullptr) {  // churn rejoin (not a live process swap)
      plane_->metrics().add(plane_->builtin().recoveries, 1);
      obs::TraceEvent e;
      e.round = round_;
      e.node = static_cast<std::int32_t>(v);
      e.category = obs::Category::kFault;
      e.severity = obs::Severity::kInfo;
      e.name = plane_->builtin().n_recover;
      plane_->trace().emit(e);
    }
  }
  inbox_len_[idx] = 0;
  purge_current_sends(v);
  processes_[idx] = std::move(process);
  refresh_node_flags(v);
  if (counts_as_running(v)) ++running_count_;
  check_counters();
}

graph::NodeId SyncNetwork::live_count() const noexcept {
  check_counters();
  return live_count_;
}

void SyncNetwork::check_counters() const noexcept {
#ifndef NDEBUG
  graph::NodeId live = 0;
  std::int64_t running = 0;
  for (NodeId v = 0; v < graph_->n(); ++v) {
    const auto idx = static_cast<std::size_t>(v);
    const Process* p = processes_[idx].get();
    std::uint8_t want = node_flags_[idx] & kNodeCrashed;
    if (p != nullptr) {
      want |= kNodeHasProcess;
      if (p->halted()) want |= kNodeHalted;
    }
    assert(node_flags_[idx] == want &&
           "node_flags_ out of sync with process state");
    if (!crashed(v)) ++live;
    if (counts_as_running(v)) ++running;
  }
  assert(live == live_count_ && "live_count_ out of sync with crash flags");
  assert(running == running_count_ &&
         "running_count_ out of sync with process states");
#endif
}

void SyncNetwork::execute_nodes(graph::NodeId begin, graph::NodeId end,
                                int shard) {
  ShardStats& stats = shard_stats_[static_cast<std::size_t>(shard)];
  obs::Recorder* const rec =
      recorders_.empty() ? nullptr
                         : &recorders_[static_cast<std::size_t>(shard)];
  obs::PerfPlane* const pf = perf_;
  const std::int64_t t0 = pf != nullptr ? obs::PerfPlane::now_ns() : 0;
  const Message* const store = inbox_store_.data();
  for (NodeId v = begin; v < end; ++v) {
    const auto idx = static_cast<std::size_t>(v);
    if (node_flags_[idx] != kNodeHasProcess) continue;
    Process* const p = processes_[idx].get();

    Context ctx;
    ctx.net_ = this;
    ctx.self_ = v;
    ctx.round_ = round_;
    ctx.rng_ = &rngs_[idx];
    ctx.obs_ = rec;
    ctx.inbox_ = {store + inbox_off_[idx], inbox_len_[idx]};
    p->on_round(ctx);
    ++stats.nodes_run;
    if (p->halted()) {
      node_flags_[idx] |= kNodeHalted;
      ++stats.newly_halted;
    }
  }
  if (pf != nullptr) {
    pf->shard_add(shard, obs::PerfPhase::kCompute,
                  obs::PerfPlane::now_ns() - t0);
  }
}

void SyncNetwork::deliver_round(int shards) {
  const auto s_count = static_cast<std::size_t>(shards);
  // Delayed payloads delivered last round were consumed by this round's
  // execute phase; recycle them before staging new live copies.
  for (auto& bucket : delayed_live_) bucket.clear();

  const bool impaired = channel_.impaired();
  const std::int64_t due_round = round_ + 1;

  // Perf attribution: the owner laps the three delivery phases; the two
  // dispatched passes additionally stage per-shard time (and per-message
  // channel-decide time, nested inside the count pass, when the channel is
  // impaired). All of it lands in PerfPlane side state only — see perf.h.
  obs::PerfPlane* const pf = perf_;
  std::int64_t t_mark = pf != nullptr ? obs::PerfPlane::now_ns() : 0;
  auto lap = [&](obs::PerfPhase phase) {
    if (pf == nullptr) return;
    const std::int64_t now = obs::PerfPlane::now_ns();
    pf->add(phase, now - t_mark);
    t_mark = now;
  };

  // Count pass (parallel over destination shards): per-receiver incoming
  // counts, channel verdicts (recorded as fate bytes so the place pass
  // replays instead of re-deciding — decide() counts side effects), and
  // delayed/duplicate copy enqueue into the shard's own pending bucket.
  auto count_shard = [&](int d) {
    const auto du = static_cast<std::size_t>(d);
    const std::int64_t shard_t0 =
        pf != nullptr ? obs::PerfPlane::now_ns() : 0;
    std::int64_t decide_ns = 0;
    const auto [lo, hi] = shard_range(d);
    std::fill(inbox_count_.begin() + lo, inbox_count_.begin() + hi, 0u);
    std::uint64_t total = 0;
    auto& fates = fate_scratch_[du];
    fates.clear();
    Channel::ShardState& cs = channel_shards_[du];
    auto& pending = delayed_pending_[du];
    for (std::size_t s = 0; s < s_count; ++s) {
      const Word* const arena = arena_cur_[s].data();
      for (const XferEntry& e : xfer_cur_[s * s_count + du]) {
        for_each_receiver(e, [&](NodeId to) {
          if (crashed(to)) {  // crashed receivers drop silently, no verdict
            if (impaired) fates.push_back(0);
            return;
          }
          if (impaired) {
            // Per-message decide cost is only clocked when perf is on (two
            // clock reads per message); the clean-channel path never pays.
            const std::int64_t t_decide =
                pf != nullptr ? obs::PerfPlane::now_ns() : 0;
            const Channel::Fate fate = channel_.decide(e.from, to, round_, cs);
            if (pf != nullptr) {
              decide_ns += obs::PerfPlane::now_ns() - t_decide;
            }
            if (fate.dropped) {
              fates.push_back(0);
              return;
            }
            const Word* const payload = arena + e.offset;
            if (fate.duplicate) {
              pending.push_back({round_ + 1 + fate.dup_delay, e.from, to,
                                 std::vector<Word>(payload, payload + e.len)});
            }
            if (fate.delay > 0) {
              pending.push_back({round_ + 1 + fate.delay, e.from, to,
                                 std::vector<Word>(payload, payload + e.len)});
              fates.push_back(0);
              return;
            }
            fates.push_back(1);
          }
          ++inbox_count_[static_cast<std::size_t>(to)];
          ++total;
        });
      }
    }
    // Delayed copies due now (enqueued in earlier rounds; copies staged
    // above are due in round_ + 2 at the earliest, so they never match).
    for (const DelayedMessage& m : pending) {
      if (m.due == due_round && !crashed(m.to)) {
        ++inbox_count_[static_cast<std::size_t>(m.to)];
        ++total;
      }
    }
    shard_inbox_total_[du] = total;
    if (pf != nullptr) {
      pf->shard_add(d, obs::PerfPhase::kDeliverCount,
                    obs::PerfPlane::now_ns() - shard_t0);
      if (decide_ns != 0) {
        pf->shard_add(d, obs::PerfPhase::kChannelDecide, decide_ns);
      }
    }
  };
  dispatch_shards(shards, count_shard);
  lap(obs::PerfPhase::kDeliverCount);

  // Prefix pass (sequential, O(shards)): region bases + store sizing. The
  // store only ever grows — a resize would value-initialize the new tail
  // sequentially, so the high-water mark amortizes that to zero.
  std::uint64_t total_messages = 0;
  for (std::size_t d = 0; d < s_count; ++d) {
    shard_inbox_base_[d] = total_messages;
    total_messages += shard_inbox_total_[d];
  }
  check_inbox_capacity(total_messages);
  if (inbox_store_.size() < total_messages) {
    inbox_store_.resize(static_cast<std::size_t>(total_messages));
  }
  lap(obs::PerfPhase::kDeliverPrefix);

  // Place pass (parallel over destination shards): local offset scan, then
  // counting-sort the fresh deliveries into each receiver's region —
  // iterating sender shards in ascending order keeps every region sender-
  // sorted because shards cover ascending id ranges — and finally insert
  // due delayed copies by upper-bound (after same-sender fresh entries, in
  // bucket order: the same per-receiver order every width produces).
  auto place_shard = [&](int d) {
    const auto du = static_cast<std::size_t>(d);
    const std::int64_t shard_t0 =
        pf != nullptr ? obs::PerfPlane::now_ns() : 0;
    const auto [lo, hi] = shard_range(d);
    std::uint64_t running = shard_inbox_base_[du];
    for (NodeId v = lo; v < hi; ++v) {
      const auto idx = static_cast<std::size_t>(v);
      inbox_off_[idx] = static_cast<std::uint32_t>(running);
      inbox_len_[idx] = inbox_count_[idx];
      inbox_cursor_[idx] = 0;
      running += inbox_count_[idx];
    }
    Message* const store = inbox_store_.data();
    const auto& fates = fate_scratch_[du];
    std::size_t fate_idx = 0;
    for (std::size_t s = 0; s < s_count; ++s) {
      const Word* const arena = arena_cur_[s].data();
      for (const XferEntry& e : xfer_cur_[s * s_count + du]) {
        const Message msg{e.from, WordSpan(arena + e.offset, e.len)};
        for_each_receiver(e, [&](NodeId w) {
          const bool deliver = impaired ? fates[fate_idx++] != 0 : !crashed(w);
          if (!deliver) return;
          const auto to = static_cast<std::size_t>(w);
          store[inbox_off_[to] + inbox_cursor_[to]++] = msg;
        });
      }
    }
    auto& pending = delayed_pending_[du];
    auto& live = delayed_live_[du];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      DelayedMessage& m = pending[i];
      if (m.due != due_round) {
        if (keep != i) pending[keep] = std::move(m);
        ++keep;
        continue;
      }
      if (crashed(m.to)) continue;  // dropped, matching the count pass
      live.push_back(std::move(m));
      const DelayedMessage& lm = live.back();
      const auto to = static_cast<std::size_t>(lm.to);
      Message* const begin = store + inbox_off_[to];
      Message* const end = begin + inbox_cursor_[to];
      Message* const pos = std::upper_bound(
          begin, end, lm.from,
          [](graph::NodeId id, const Message& msg) { return id < msg.from; });
      std::move_backward(pos, end, end + 1);
      *pos = Message{lm.from, WordSpan(lm.words.data(), lm.words.size())};
      ++inbox_cursor_[to];
    }
    pending.resize(keep);
#ifndef NDEBUG
    for (NodeId v = lo; v < hi; ++v) {
      assert(inbox_cursor_[static_cast<std::size_t>(v)] ==
                 inbox_count_[static_cast<std::size_t>(v)] &&
             "place pass disagrees with count pass");
    }
#endif
    if (pf != nullptr) {
      pf->shard_add(d, obs::PerfPhase::kDeliverPlace,
                    obs::PerfPlane::now_ns() - shard_t0);
    }
  };
  dispatch_shards(shards, place_shard);

  // Fold the shard-local channel counters into the global ones (a sum, so
  // the fold order cannot affect the result).
  if (impaired) {
    for (Channel::ShardState& st : channel_shards_) channel_.absorb(st);
  }
  lap(obs::PerfPhase::kDeliverPlace);
}

bool SyncNetwork::step() {
  // Observability is published at the sequential barriers only; `pl` stays
  // null on the default path, which then costs one branch per phase.
  obs::Plane* const pl = plane_;
  obs::Trace* const tr = pl != nullptr ? &pl->trace() : nullptr;
  const obs::Builtin* const b = pl != nullptr ? &pl->builtin() : nullptr;
  const std::int64_t executed_round = round_;
  if (pl != nullptr) sync_observability_shards();
  auto phase_span = [&](obs::NameId name) {
    return obs::SpanTimer(tr, obs::Category::kEngine, obs::Severity::kDebug,
                          name, executed_round);
  };

  // Perf attribution: the owner laps each sequential phase boundary; the
  // dispatched phases stage per-shard time from the workers (merged at
  // end_round in ascending shard order). pf stays null on the default path.
  obs::PerfPlane* const pf = perf_;
  const std::int64_t step_t0 = pf != nullptr ? obs::PerfPlane::now_ns() : 0;
  std::int64_t t_mark = step_t0;
  auto lap = [&](obs::PerfPhase phase) {
    if (pf == nullptr) return;
    const std::int64_t now = obs::PerfPlane::now_ns();
    pf->add(phase, now - t_mark);
    t_mark = now;
  };

  {
    obs::SpanTimer span = phase_span(b != nullptr ? b->n_fault_apply : 0);
    apply_scheduled_events();
  }
  lap(obs::PerfPhase::kFaultApply);

  // Run every live, unhalted process against the inbox delivered at the end
  // of the previous round. Shards stage into disjoint state; everything
  // below the parallel region is sequential and shard-order merged, so the
  // outcome is independent of the thread count.
  const int shards = threads_;
  for (ShardStats& st : shard_stats_) st = ShardStats{};
  auto run_shard = [&](int s) {
    const auto [lo, hi] = shard_range(s);
    execute_nodes(lo, hi, s);
  };
  {
    obs::SpanTimer span = phase_span(b != nullptr ? b->n_execute : 0);
    dispatch_shards(shards, run_shard);
  }
  lap(obs::PerfPhase::kCompute);

  std::int64_t round_messages = 0;
  std::int64_t round_words = 0;
  std::int64_t arena_words = 0;
  {
    obs::SpanTimer span = phase_span(b != nullptr ? b->n_merge : 0);
    for (std::size_t s = 0; s < shard_stats_.size(); ++s) {
      const ShardStats& st = shard_stats_[s];
      round_messages += st.messages;
      round_words += st.words;
      metrics_.max_message_words =
          std::max(metrics_.max_message_words, st.max_words);
      running_count_ -= st.newly_halted;
      if (pf != nullptr) {
        pf->note_shard_work(static_cast<int>(s), st.nodes_run, st.messages);
      }
    }
    metrics_.messages_sent += round_messages;
    metrics_.words_sent += round_words;
    if (pl != nullptr) {
      // The registry receives the same merged deltas as metrics_, from this
      // same barrier — the two views cannot drift apart.
      pl->metrics().add(b->messages, round_messages);
      pl->metrics().add(b->words, round_words);
      for (const auto& arena : arena_cur_) {
        arena_words += static_cast<std::int64_t>(arena.size());
      }
      lap(obs::PerfPhase::kStatsMerge);
      pl->merge_shards();  // worker-staged process events, shard order
      span.set_args(round_messages, round_words);
    }
  }
  lap(obs::PerfPhase::kObsMerge);

  {
    obs::SpanTimer span = phase_span(b != nullptr ? b->n_deliver : 0);
    deliver_round(shards);  // laps kDeliverCount/Prefix/Place itself
  }
  if (pf != nullptr) t_mark = obs::PerfPlane::now_ns();

  // Generation swap: the arena just written now backs the new inboxes; the
  // one delivered two rounds ago is recycled for the next round's sends.
  // The delivered transfer lists keep their shape metadata so crash() can
  // index them even after a set_threads reshard.
  std::swap(arena_cur_, arena_prev_);
  std::swap(xfer_cur_, xfer_prev_);
  xfer_shards_prev_ = shards;
  xfer_block_prev_ = shard_block_;
  for (auto& list : xfer_cur_) list.clear();
  for (auto& arena : arena_cur_) arena.clear();
  const auto want_shards = static_cast<std::size_t>(threads_);
  arena_cur_.resize(want_shards);
  xfer_cur_.resize(want_shards * want_shards);
  shard_stats_.resize(want_shards);

  ++round_;
  metrics_.rounds = round_;

  if (pl != nullptr) {
    obs::Registry& reg = pl->metrics();
    reg.add(b->rounds, 1);
    const Channel::Counters& cc = channel_.counters();
    if (cc != published_) {
      reg.add(b->messages_lost, cc.dropped - published_.dropped);
      reg.add(b->messages_duplicated, cc.duplicated - published_.duplicated);
      reg.add(b->messages_reordered, cc.reordered - published_.reordered);
      published_ = cc;
    }
    reg.set(b->live_nodes, live_count_);
    reg.set(b->running_nodes, running_count_);
    reg.set(b->arena_words, arena_words);
    reg.set(b->max_message_words, metrics_.max_message_words);
    reg.record(b->messages_per_round, static_cast<double>(round_messages));
    obs::TraceEvent e;
    e.round = executed_round;
    e.category = obs::Category::kEngine;
    e.severity = obs::Severity::kInfo;
    e.name = b->n_round;
    e.a0 = round_messages;
    e.a1 = live_count_;
    tr->emit(e);
  }

  if (pf != nullptr) {
    lap(obs::PerfPhase::kFinalize);
    if (pool_ != nullptr) {
      // Pool scheduling overhead accumulated across this round's dispatches
      // (drained here, at a quiescent point — workers are parked).
      const util::ThreadPool::PerfCounters pc = pool_->drain_perf();
      pf->add(obs::PerfPhase::kBarrierWait, pc.barrier_wait_ns);
      pf->add(obs::PerfPhase::kClaimStall, pc.claim_stall_ns);
    }
    pf->end_round(executed_round, t_mark - step_t0);
  }

  check_counters();
  // Nobody running can still mean progress: pending rejoins wake the net.
  return running_count_ > 0 || !scheduled_recoveries_.empty();
}

std::int64_t SyncNetwork::run(std::int64_t max_rounds) {
  std::int64_t executed = 0;
  while (executed < max_rounds) {
    ++executed;
    if (!step()) break;
  }
  return executed;
}

void SyncNetwork::schedule_crash(graph::NodeId v, std::int64_t round) {
  assert(v >= 0 && v < graph_->n());
  // A crash in the past never happened, and a crashed node cannot crash
  // again (it may, however, rejoin and be re-crashed by a *later* schedule —
  // the liveness re-check happens in crash() at application time).
  if (round < round_ || crashed(v)) return;
  scheduled_crashes_.emplace_back(round, v);
}

void SyncNetwork::schedule_recovery(graph::NodeId v, std::int64_t round,
                                    std::unique_ptr<Process> process) {
  assert(v >= 0 && v < graph_->n());
  if (round < round_) return;
  scheduled_recoveries_.push_back({round, v, std::move(process)});
}

void SyncNetwork::set_channel(const ChannelOptions& options) {
  channel_.set_options(options, round_);  // validates
  reset_channel_shard_state();
}

void SyncNetwork::schedule_channel(std::int64_t round,
                                   const ChannelOptions& options) {
  options.validate();
  scheduled_channels_.emplace_back(round, options);
}

void SyncNetwork::set_message_loss(double loss, std::uint64_t loss_seed) {
  ChannelOptions options;
  options.loss = loss;
  options.seed = loss_seed;
  set_channel(options);
}

}  // namespace ftc::sim
