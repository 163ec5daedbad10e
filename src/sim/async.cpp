#include "sim/async.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace ftc::sim {

using graph::NodeId;

AsyncNetwork::AsyncNetwork(const graph::Graph& g, std::uint64_t seed,
                           const AsyncOptions& options)
    : graph_(&g), delay_rng_(options.delay_seed), options_(options) {
  assert(options.min_delay >= 1);
  assert(options.max_delay >= options.min_delay);
  const auto n = static_cast<std::size_t>(g.n());
  processes_.resize(n);
  states_.resize(n);
  rngs_.reserve(n);
  const util::Rng root(seed);
  for (std::size_t v = 0; v < n; ++v) {
    rngs_.push_back(root.split(v));
    states_[v].halt_after.assign(
        static_cast<std::size_t>(g.degree(static_cast<NodeId>(v))),
        std::numeric_limits<std::int64_t>::max());
    states_[v].sent_to.assign(
        static_cast<std::size_t>(g.degree(static_cast<NodeId>(v))), false);
  }
}

AsyncNetwork::AsyncNetwork(const geom::UnitDiskGraph& udg, std::uint64_t seed,
                           const AsyncOptions& options)
    : AsyncNetwork(udg.graph, seed, options) {
  udg_ = &udg;
}

void AsyncNetwork::set_process(NodeId v, std::unique_ptr<Process> process) {
  assert(v >= 0 && v < graph_->n());
  processes_[static_cast<std::size_t>(v)] = std::move(process);
}

std::size_t AsyncNetwork::neighbor_index(NodeId v, NodeId j) const {
  const auto nbrs = graph_->neighbors(v);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), j);
  assert(it != nbrs.end() && *it == j);
  return static_cast<std::size_t>(it - nbrs.begin());
}

void AsyncNetwork::set_observability(obs::Plane* plane) {
  plane_ = plane;
  if (plane_ != nullptr) plane_->set_shards(1);
}

void AsyncNetwork::send_envelope(NodeId from, NodeId to, Envelope env,
                                 std::int64_t now) {
  env.from = from;
  metrics_.envelopes_sent += 1;
  if (env.has_payload) {
    metrics_.payload_messages += 1;
    metrics_.payload_words += static_cast<std::int64_t>(env.words.size());
    metrics_.max_message_words =
        std::max(metrics_.max_message_words,
                 static_cast<std::int64_t>(env.words.size()));
  }
  DeliveryEvent event;
  event.time =
      now + delay_rng_.uniform_i64(options_.min_delay, options_.max_delay);
  event.sequence = ++sequence_;
  event.to = to;
  event.envelope = std::move(env);
  events_.push(std::move(event));
}

void AsyncNetwork::backend_send(NodeId from, NodeId to,
                                std::span<const Word> words) {
  // Called from within execute_pulse() via Context::send.
  assert(from == executing_);
  Envelope env;
  env.pulse = executing_pulse_;
  env.has_payload = true;
  env.words.assign(words.begin(), words.end());
  states_[static_cast<std::size_t>(from)]
      .sent_to[neighbor_index(from, to)] = true;
  send_envelope(from, to, std::move(env), executing_time_);
}

bool AsyncNetwork::ready(NodeId v) const {
  const auto& state = states_[static_cast<std::size_t>(v)];
  if (state.halted) return false;
  if (processes_[static_cast<std::size_t>(v)] == nullptr) return false;
  const std::int64_t p = state.pulse;
  if (p == 0) return true;
  // Need an envelope tagged p-1 from every neighbor still participating at
  // pulse p-1.
  std::int64_t needed = 0;
  for (std::int64_t ha : state.halt_after) {
    if (ha >= p - 1) ++needed;
  }
  const auto it = state.envelopes_by_pulse.find(p - 1);
  const std::int64_t have =
      it == state.envelopes_by_pulse.end() ? 0 : it->second;
  return have >= needed;
}

void AsyncNetwork::execute_pulse(NodeId v, std::int64_t now) {
  auto& state = states_[static_cast<std::size_t>(v)];
  Process* process = processes_[static_cast<std::size_t>(v)].get();
  assert(process != nullptr && !process->halted());

  // Assemble the inbox: payload envelopes tagged pulse-1, sorted by sender
  // (matching SyncNetwork's deterministic order). The stored payloads own
  // their words; `inbox` holds non-owning views valid through on_round().
  std::vector<StoredMessage> stored;
  std::vector<Message> inbox;
  if (state.pulse > 0) {
    auto it = state.payload_by_pulse.find(state.pulse - 1);
    if (it != state.payload_by_pulse.end()) {
      stored = std::move(it->second);
      state.payload_by_pulse.erase(it);
    }
    state.envelopes_by_pulse.erase(state.pulse - 1);
    std::sort(stored.begin(), stored.end(),
              [](const StoredMessage& a, const StoredMessage& b) {
                return a.from < b.from;
              });
    inbox.reserve(stored.size());
    for (const StoredMessage& msg : stored) {
      inbox.push_back(Message{msg.from, WordSpan(msg.words)});
    }
  }

  std::fill(state.sent_to.begin(), state.sent_to.end(), false);
  executing_ = v;
  executing_pulse_ = state.pulse;
  executing_time_ = now;

  Context ctx;
  ctx.net_ = this;
  ctx.self_ = v;
  ctx.round_ = state.pulse;
  ctx.rng_ = &rngs_[static_cast<std::size_t>(v)];
  ctx.obs_ = plane_ != nullptr ? &plane_->recorder(0) : nullptr;
  ctx.inbox_ = {inbox.data(), inbox.size()};
  process->on_round(ctx);
  if (plane_ != nullptr) plane_->merge_shards();

  executing_ = -1;
  const bool halted_now = process->halted();

  // Complete the pulse. Neighbors the process did not message get a marker
  // envelope (halt-flagged when the process just terminated). Neighbors
  // that already received a payload this pulse get, when halting, one extra
  // halt marker — flagged counts=false so pulse completion is not counted
  // twice for the same (sender, pulse).
  const auto nbrs = graph_->neighbors(v);
  for (std::size_t j = 0; j < nbrs.size(); ++j) {
    if (!state.sent_to[j]) {
      Envelope marker;
      marker.pulse = state.pulse;
      marker.halt = halted_now;
      send_envelope(v, nbrs[j], std::move(marker), now);
    } else if (halted_now) {
      Envelope halt_marker;
      halt_marker.pulse = state.pulse;
      halt_marker.halt = true;
      halt_marker.counts = false;
      send_envelope(v, nbrs[j], std::move(halt_marker), now);
    }
  }

  metrics_.pulses = std::max(metrics_.pulses, state.pulse + 1);
  state.pulse += 1;
  state.halted = halted_now;
}

void AsyncNetwork::deliver(const DeliveryEvent& event) {
  auto& state = states_[static_cast<std::size_t>(event.to)];
  const Envelope& env = event.envelope;
  if (env.halt) {
    auto& ha = state.halt_after[neighbor_index(event.to, env.from)];
    ha = std::min(ha, env.pulse);
  }
  if (env.has_payload) {
    StoredMessage msg;
    msg.from = env.from;
    msg.words = env.words;
    state.payload_by_pulse[env.pulse].push_back(std::move(msg));
  }
  if (env.counts) {
    state.envelopes_by_pulse[env.pulse] += 1;
  }
}

std::int64_t AsyncNetwork::run(std::int64_t max_pulses) {
  const AsyncMetrics before = metrics_;
  obs::SpanTimer run_span(
      plane_ != nullptr ? &plane_->trace() : nullptr, obs::Category::kEngine,
      obs::Severity::kInfo,
      plane_ != nullptr ? plane_->builtin().n_async_run : obs::NameId{0}, 0);

  // Kick off pulse 0 everywhere; isolated nodes have no synchronization
  // constraints and run all their pulses immediately.
  for (NodeId v = 0; v < graph_->n(); ++v) {
    while (processes_[static_cast<std::size_t>(v)] != nullptr &&
           !states_[static_cast<std::size_t>(v)].halted &&
           states_[static_cast<std::size_t>(v)].pulse < max_pulses &&
           ready(v)) {
      execute_pulse(v, 0);
      if (graph_->degree(v) > 0 &&
          states_[static_cast<std::size_t>(v)].pulse > 0) {
        break;  // non-isolated nodes must now wait for envelopes
      }
    }
  }

  while (!events_.empty()) {
    const DeliveryEvent event = events_.top();
    events_.pop();
    metrics_.virtual_time = std::max(metrics_.virtual_time, event.time);
    deliver(event);
    // The delivery may enable the receiver's next pulse.
    const NodeId v = event.to;
    while (!states_[static_cast<std::size_t>(v)].halted &&
           processes_[static_cast<std::size_t>(v)] != nullptr &&
           states_[static_cast<std::size_t>(v)].pulse < max_pulses &&
           ready(v)) {
      execute_pulse(v, event.time);
    }
  }

  std::int64_t slowest = 0;
  for (const auto& state : states_) {
    slowest = std::max(slowest, state.pulse);
  }

  if (plane_ != nullptr) {
    obs::Registry& reg = plane_->metrics();
    const obs::Builtin& b = plane_->builtin();
    reg.add(b.async_pulses, metrics_.pulses - before.pulses);
    reg.add(b.async_envelopes,
            metrics_.envelopes_sent - before.envelopes_sent);
    reg.add(b.async_payload_words,
            metrics_.payload_words - before.payload_words);
    run_span.set_args(metrics_.pulses, metrics_.envelopes_sent);
  }
  return slowest;
}

}  // namespace ftc::sim
