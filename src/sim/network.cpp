#include "sim/network.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ftc::sim {

using graph::NodeId;

namespace {

// XferEntry stores (offset, len) into the shard arena as uint32. Enforced
// unconditionally (not via assert): in a release build an arena past 2^32
// words would otherwise silently truncate offsets and corrupt payloads.
void check_arena_capacity(std::size_t arena_size, std::size_t words) {
  if (!arena_fits(arena_size, words)) {
    throw std::length_error(
        "SyncNetwork: per-shard round arena exceeds uint32 offset range");
  }
}

// Inbox regions are addressed by uint32 offsets into the flat store.
void check_inbox_capacity(std::uint64_t total_slots) {
  if (!inbox_fits(total_slots)) {
    throw std::length_error(
        "SyncNetwork: per-round inbox slots exceed uint32 inbox range");
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
  bcast_.assign(n, BroadcastStamp{});
  live_count_ = g.n();
  set_threads(1);
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
  check_not_started("set_threads");
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
  // Before round 0 every per-shard container is empty, so resizing is the
  // whole reshard.
  arena_cur_.resize(shards);
  arena_prev_.resize(shards);
  arena_base_.resize(shards);
  xfer_cur_.resize(shards * shards);
  // Room for one unicast per node before the first growth, so the first
  // per-neighbour round grows the lists by log2(mean degree) blocks.
  for (auto& list : xfer_cur_) list.reserve(shard_block_ / shards + 1);
  shard_stats_.resize(shards);
  perf_shards_.resize(shards);
  delivery_.resize(shards);
  channel_shards_.resize(shards);
  delayed_pending_.resize(shards);
  delayed_live_.resize(shards);
  sync_observability_shards();
}

void SyncNetwork::set_observability(obs::Plane* plane) {
  check_not_started("set_observability");
  plane_ = plane;
  sync_observability_shards();
}

void SyncNetwork::check_not_started(const char* setter) const {
  if (round_ > 0) {
    throw std::logic_error(std::string("SyncNetwork::") + setter +
                           ": a network is configured before its first "
                           "step()");
  }
}

void SyncNetwork::sync_observability_shards() {
  if (plane_ != nullptr) plane_->set_shards(threads_);
  perf_ = plane_ != nullptr ? plane_->perf() : nullptr;
  if (pool_ != nullptr) pool_->set_perf_enabled(perf_ != nullptr);
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
  // `from`'s entries are the tail run of every list it touched this round.
  assert(bcast_[static_cast<std::size_t>(from)].round != round_ &&
         "send: at most one message per neighbor per round");
  for (auto it = list.rbegin(); it != list.rend() && it->from == from; ++it) {
    assert(it->to != to && "send: at most one message per neighbor per round");
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
  const auto deg = static_cast<std::int64_t>(graph_->degree(from));
  if (deg == 0) return;
  const std::uint32_t s = shard_of(from);
  ShardStats& st = shard_stats_[s];
  BroadcastStamp& stamp = bcast_[static_cast<std::size_t>(from)];
  // The payload is written once and stamped on the sender; receivers pull
  // it by walking their neighbour rows at delivery (deliver_round).
  assert(stamp.round != round_ &&
         "broadcast: at most one message per neighbor per round");
#ifndef NDEBUG
  const auto shards = static_cast<std::size_t>(threads_);
  for (std::size_t d = 0; d < shards; ++d) {
    const auto& list = xfer_cur_[s * shards + d];
    assert((list.empty() || list.back().from != from) &&
           "broadcast: at most one message per neighbor per round");
  }
#endif
  if (stamp.round == round_) {
    st.double_broadcast = true;
    return;
  }
  auto& arena = arena_cur_[s];
  check_arena_capacity(arena.size(), words.size());
  const auto len = static_cast<std::uint32_t>(words.size());
  stamp = {round_, static_cast<std::uint32_t>(arena.size()), len};
  arena.insert(arena.end(), words.begin(), words.end());
  st.messages += deg;
  st.words += deg * static_cast<std::int64_t>(len);
  st.max_words = std::max(st.max_words, static_cast<std::int64_t>(len));
  ++st.broadcasts;
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
  // Drop v's delivered traffic without scanning every inbox: messages only
  // travel along edges, and each neighbour's region is sender-sorted (one
  // binary search per neighbour). This covers delivered delayed copies too;
  // pending ones touching v are dropped from their buckets.
  for (const NodeId w : graph_->neighbors(v)) erase_inbox_entries(v, w);
  for (auto& bucket : delayed_pending_) {
    std::erase_if(bucket, [v](const DelayedMessage& m) {
      return m.from == v || m.to == v;
    });
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
      plane_ != nullptr ? &plane_->recorder(shard) : nullptr;
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
    perf_shards_[static_cast<std::size_t>(shard)].add(
        obs::PerfPhase::kCompute, obs::PerfPlane::now_ns() - t0);
  }
}

void SyncNetwork::deliver_round(int shards) {
  const auto s_count = static_cast<std::size_t>(shards);
  // Delayed payloads delivered last round were consumed by this round's
  // execute phase; recycle them before staging new live copies.
  for (auto& bucket : delayed_live_) bucket.clear();

  const bool impaired = channel_.impaired();
  const std::int64_t due_round = round_ + 1;
  bool any_broadcast = false;
  for (std::size_t s = 0; s < s_count; ++s) {
    arena_base_[s] = arena_cur_[s].data();
    any_broadcast = any_broadcast || shard_stats_[s].broadcasts > 0;
  }
  bool any_pending = false;
  for (const auto& bucket : delayed_pending_) {
    any_pending = any_pending || !bucket.empty();
  }

  // Perf attribution: the owner laps the three delivery phases; the
  // dispatched passes additionally stage per-shard time (and per-message
  // channel-decide time, nested inside the placement pass, when the channel
  // is impaired). All of it lands in PerfPlane side state only — see perf.h.
  obs::PerfPlane* const pf = perf_;
  std::int64_t t_mark = pf != nullptr ? obs::PerfPlane::now_ns() : 0;
  auto lap = [&](obs::PerfPhase phase) {
    if (pf == nullptr) return;
    const std::int64_t now = obs::PerfPlane::now_ns();
    pf->add(phase, now - t_mark);
    t_mark = now;
  };

  // Sizing pass (parallel over destination shards; only while delayed
  // copies are in flight): a receiver with due copies needs more than its
  // deg(v) fixed slots, so its region moves to the shard's tail area with
  // room for deg(v) fresh messages plus its due copies.
  auto size_shard = [&](int d) {
    const auto du = static_cast<std::size_t>(d);
    const std::int64_t shard_t0 =
        pf != nullptr ? obs::PerfPlane::now_ns() : 0;
    DeliveryShard& ds = delivery_[du];
    auto& moved = ds.relocated;
    moved.clear();
    for (const DelayedMessage& m : delayed_pending_[du]) {
      if (m.due == due_round && !crashed(m.to)) moved.push_back({m.to, 0});
    }
    std::sort(moved.begin(), moved.end(),
              [](const Relocation& a, const Relocation& b) {
                return a.node < b.node;
              });
    std::size_t keep = 0;
    std::uint64_t need = 0;
    for (std::size_t i = 0; i < moved.size(); ++i) {
      if (keep == 0 || moved[keep - 1].node != moved[i].node) {
        moved[keep++] = {moved[i].node, static_cast<std::uint32_t>(need)};
        need += static_cast<std::uint64_t>(graph_->degree(moved[i].node));
      }
      ++need;  // one slot per due copy
    }
    moved.resize(keep);
    ds.tail_slots = need;
    if (pf != nullptr) {
      perf_shards_[du].add(obs::PerfPhase::kDeliverCount,
                           obs::PerfPlane::now_ns() - shard_t0);
    }
  };
  if (any_pending) {
    dispatch_shards(shards, size_shard);
  } else {
    for (std::size_t d = 0; d < s_count; ++d) {
      delivery_[d].relocated.clear();
      delivery_[d].tail_slots = 0;
    }
  }
  lap(obs::PerfPhase::kDeliverCount);

  // Tail prefix (sequential, O(shards)): the fixed regions fill the first
  // 2m slots, each shard's tail follows. The store only ever grows — a
  // resize value-initializes the new tail sequentially, so the high-water
  // mark amortizes that to zero.
  std::uint64_t total_slots = 2 * static_cast<std::uint64_t>(graph_->m());
  for (std::size_t d = 0; d < s_count; ++d) {
    delivery_[d].tail_base = total_slots;
    total_slots += delivery_[d].tail_slots;
  }
  check_inbox_capacity(total_slots);
  if (inbox_store_.size() < total_slots) {
    inbox_store_.resize(static_cast<std::size_t>(total_slots));
  }
  lap(obs::PerfPhase::kDeliverPrefix);

  // Placement pass (parallel over destination shards). Every receiver gets
  // at most one fresh message per neighbour, so fresh messages fit in deg(v)
  // slots; anything beyond is flagged, never written.
  auto place_shard = [&](int d) {
    const auto du = static_cast<std::size_t>(d);
    const std::int64_t shard_t0 =
        pf != nullptr ? obs::PerfPlane::now_ns() : 0;
    std::int64_t decide_ns = 0;
    const auto [lo, hi] = shard_range(d);
    DeliveryShard& ds = delivery_[du];
    Channel::ShardState& cs = channel_shards_[du];
    auto& pending = delayed_pending_[du];
    Message* const store = inbox_store_.data();

    // Decides a message's channel fate once, queueing its delayed and
    // duplicate copies; true when it is delivered on time. Callers test
    // `impaired` first, so the clean-channel path never makes the call.
    auto admit = [&](NodeId from, NodeId to, const Word* payload,
                     std::uint32_t len) {
      // Per-message decide cost is only clocked when perf is on (two clock
      // reads per message); the clean-channel path never pays.
      const std::int64_t t_decide =
          pf != nullptr ? obs::PerfPlane::now_ns() : 0;
      const Channel::Fate fate = channel_.decide(from, to, round_, cs);
      if (pf != nullptr) decide_ns += obs::PerfPlane::now_ns() - t_decide;
      if (fate.dropped) return false;
      if (fate.duplicate) {
        pending.push_back({round_ + 1 + fate.dup_delay, from, to,
                           std::vector<Word>(payload, payload + len)});
      }
      if (fate.delay > 0) {
        pending.push_back({round_ + 1 + fate.delay, from, to,
                           std::vector<Word>(payload, payload + len)});
        return false;
      }
      return true;
    };

    // Regions: v's fixed CSR slots, or its tail slots when due copies join.
    std::size_t r = 0;
    for (NodeId v = lo; v < hi; ++v) {
      const auto idx = static_cast<std::size_t>(v);
      std::uint32_t off = graph_->arc_offset(v);
      if (r < ds.relocated.size() && ds.relocated[r].node == v) {
        off = static_cast<std::uint32_t>(ds.tail_base +
                                         ds.relocated[r++].offset);
      }
      inbox_off_[idx] = off;
      inbox_len_[idx] = 0;
    }

    // Push: this shard's column of unicast lists, in sender-shard order, so
    // each receiver's unicast run comes out sender-ascending.
    for (std::size_t s = 0; s < s_count; ++s) {
      const Word* const arena = arena_base_[s];
      for (const XferEntry& e : xfer_cur_[s * s_count + du]) {
        if (crashed(e.to)) continue;  // crashed receivers drop, no verdict
        const Word* const payload = arena + e.offset;
        if (impaired && !admit(e.from, e.to, payload, e.len)) continue;
        const auto to = static_cast<std::size_t>(e.to);
        if (inbox_len_[to] ==
            static_cast<std::uint32_t>(graph_->degree(e.to))) {
          ds.overflow = true;
          continue;
        }
        store[inbox_off_[to] + inbox_len_[to]++] =
            Message{WordSpan(payload, e.len), e.from};
      }
    }

    // Pull: each live receiver walks its sorted neighbour row and takes
    // every neighbour stamped this round. A receiver that also got unicasts
    // first moves that run to the back of its deg(v) slots; the two
    // sender-sorted runs then merge forward, and the write cursor never
    // passes the unread unicasts. Broadcast-only receivers, the common
    // case, take a loop without the merge checks (one merged loop for all
    // receivers ran Alg 1's protocol 13% slower).
    if (any_broadcast) {
      const std::int64_t now = round_;
      const BroadcastStamp* const stamps = bcast_.data();
      const Word* const* const arenas = arena_base_.data();
      const std::size_t block = s_count == 1 ? 0 : shard_block_;
      auto payload_of = [&](NodeId w, const BroadcastStamp& b) {
        const std::size_t s =
            block == 0 ? 0 : static_cast<std::size_t>(w) / block;
        return arenas[s] + b.offset;
      };
      for (NodeId v = lo; v < hi; ++v) {
        if (crashed(v)) continue;
        const auto idx = static_cast<std::size_t>(v);
        const auto nbrs = graph_->neighbors(v);
        Message* const base = store + inbox_off_[idx];
        Message* out = base;
        if (inbox_len_[idx] == 0) {  // at most one broadcast per neighbour
          for (const NodeId w : nbrs) {
            const BroadcastStamp& b = stamps[static_cast<std::size_t>(w)];
            if (b.round != now) continue;
            const Word* const payload = payload_of(w, b);
            if (impaired && !admit(w, v, payload, b.len)) continue;
            *out++ = Message{WordSpan(payload, b.len), w};
          }
        } else {
          Message* const uni_end = base + nbrs.size();
          Message* uni =
              std::move_backward(base, base + inbox_len_[idx], uni_end);
          for (const NodeId w : nbrs) {
            const BroadcastStamp& b = stamps[static_cast<std::size_t>(w)];
            if (b.round != now) continue;
            const Word* const payload = payload_of(w, b);
            if (impaired && !admit(w, v, payload, b.len)) continue;
            while (uni != uni_end && uni->from < w) *out++ = *uni++;
            if (out == uni) {  // no free slot left
              ds.overflow = true;
              continue;
            }
            *out++ = Message{WordSpan(payload, b.len), w};
          }
          out = std::copy(uni, uni_end, out);
        }
        inbox_len_[idx] = static_cast<std::uint32_t>(out - base);
      }
    }

    // Due delayed copies (enqueued in earlier rounds; copies queued above
    // are due in round_ + 2 at the earliest, so they never match) go to
    // the upper bound of their sender: after same-sender fresh entries, in
    // bucket order — the same per-receiver order every width produces. The
    // sizing pass gave each such receiver deg(v) + due slots.
    auto& live = delayed_live_[du];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      DelayedMessage& m = pending[i];
      if (m.due != due_round) {
        if (keep != i) pending[keep] = std::move(m);
        ++keep;
        continue;
      }
      if (crashed(m.to)) continue;  // dropped, matching the sizing pass
      live.push_back(std::move(m));
      const DelayedMessage& lm = live.back();
      const auto to = static_cast<std::size_t>(lm.to);
      Message* const begin = store + inbox_off_[to];
      Message* const end = begin + inbox_len_[to];
      Message* const pos = std::upper_bound(
          begin, end, lm.from,
          [](graph::NodeId id, const Message& msg) { return id < msg.from; });
      std::move_backward(pos, end, end + 1);
      *pos = Message{WordSpan(lm.words.data(), lm.words.size()), lm.from};
      ++inbox_len_[to];
    }
    pending.resize(keep);
    if (pf != nullptr) {
      obs::PerfShardSample& ps = perf_shards_[du];
      ps.add(obs::PerfPhase::kDeliverPlace,
             obs::PerfPlane::now_ns() - shard_t0);
      ps.add(obs::PerfPhase::kChannelDecide, decide_ns);
    }
  };
  dispatch_shards(shards, place_shard);

  // Fold the shard-local channel counters into the global ones (a sum, so
  // the fold order cannot affect the result).
  if (impaired) {
    for (Channel::ShardState& st : channel_shards_) channel_.absorb(st);
  }
  bool overflow = false;
  for (DeliveryShard& ds : delivery_) {
    overflow = overflow || ds.overflow;
    ds.overflow = false;
  }
  if (overflow) {
    throw InboxOverflow(
        "SyncNetwork: a receiver got more messages in one round than it has "
        "neighbours (at most one message per neighbour per round)");
  }
  lap(obs::PerfPhase::kDeliverPlace);
}

bool SyncNetwork::step() {
  // Observability is published at the sequential barriers only; `pl` stays
  // null on the default path, which then costs one branch per phase.
  obs::Plane* const pl = plane_;
  const obs::Builtin* const b = pl != nullptr ? &pl->builtin() : nullptr;
  const std::int64_t executed_round = round_;

  // Perf attribution: the owner laps each sequential phase boundary; the
  // dispatched phases stage per-shard time from the workers into
  // perf_shards_ (handed to end_round in shard order). pf stays null on the
  // default path.
  obs::PerfPlane* const pf = perf_;
  if (pf != nullptr) {
    for (obs::PerfShardSample& ps : perf_shards_) ps = obs::PerfShardSample{};
  }
  const std::int64_t step_t0 = pf != nullptr ? obs::PerfPlane::now_ns() : 0;
  std::int64_t t_mark = step_t0;
  auto lap = [&](obs::PerfPhase phase) {
    if (pf == nullptr) return;
    const std::int64_t now = obs::PerfPlane::now_ns();
    pf->add(phase, now - t_mark);
    t_mark = now;
  };

  apply_scheduled_events();
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
  dispatch_shards(shards, run_shard);
  lap(obs::PerfPhase::kCompute);

  std::int64_t round_messages = 0;
  std::int64_t round_words = 0;
  std::int64_t arena_words = 0;
  for (std::size_t s = 0; s < shard_stats_.size(); ++s) {
    const ShardStats& st = shard_stats_[s];
    if (st.double_broadcast) {
      throw InboxOverflow(
          "SyncNetwork: a node broadcast twice in one round (at most one "
          "message per neighbour per round)");
    }
    round_messages += st.messages;
    round_words += st.words;
    metrics_.max_message_words =
        std::max(metrics_.max_message_words, st.max_words);
    running_count_ -= st.newly_halted;
    if (pf != nullptr) {
      perf_shards_[s].nodes = st.nodes_run;
      perf_shards_[s].messages = st.messages;
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
  }
  lap(obs::PerfPhase::kObsMerge);

  deliver_round(shards);  // laps kDeliverCount/Prefix/Place itself
  if (pf != nullptr) t_mark = obs::PerfPlane::now_ns();

  // Generation swap: the arena just written now backs the new inboxes; the
  // one delivered two rounds ago is recycled for the next round's sends.
  std::swap(arena_cur_, arena_prev_);
  for (auto& list : xfer_cur_) list.clear();
  for (auto& arena : arena_cur_) arena.clear();

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
    pl->trace().emit(e);
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
    pf->end_round(executed_round, t_mark - step_t0, perf_shards_);
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
  check_not_started("set_channel");
  channel_.set_options(options);  // validates
}

}  // namespace ftc::sim
