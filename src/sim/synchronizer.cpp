#include "sim/synchronizer.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace ftc::sim {

using graph::NodeId;

namespace {

// Envelope header: the pulse number above two flag bits.
constexpr Word kHasPayload = 1;
constexpr Word kHalt = 2;
constexpr int kPulseShift = 2;

/// A payload's sender (or receiver) and its words in some buffer.
struct Held {
  NodeId node = -1;
  std::uint32_t offset = 0;
  std::uint32_t len = 0;
};

void sort_by_node(std::vector<Held>& held) {
  std::sort(held.begin(), held.end(),
            [](const Held& a, const Held& b) { return a.node < b.node; });
}

/// Latency uniform in 1..max_delay rounds: on time with probability 1/D,
/// otherwise 1..D-1 extra rounds, uniformly.
ChannelOptions delay_channel(int max_delay, std::uint64_t delay_seed) {
  if (max_delay < 1) {
    throw std::invalid_argument(
        "SynchronizedNetwork: max_delay must be >= 1, got " +
        std::to_string(max_delay));
  }
  ChannelOptions channel;
  channel.reorder = static_cast<double>(max_delay - 1) / max_delay;
  channel.max_reorder_delay = max_delay - 1;
  channel.seed = delay_seed;
  return channel;
}

}  // namespace

/// The α-synchronizer adapter (see synchronizer.h). As the inner process's
/// NetworkBackend it captures the pulse's sends, then turns them into
/// envelopes on the outer network.
class Synchronized final : public Process, private NetworkBackend {
 public:
  explicit Synchronized(std::unique_ptr<Process> inner)
      : inner_(std::move(inner)) {}

  void on_round(Context& ctx) override {
    outer_ = ctx.net_;
    for (const Message& envelope : ctx.inbox()) receive(envelope);
    // Pulse p needs a pulse-(p-1) envelope from every neighbour that had
    // not halted before p-1.
    const Slot& prev = slots_[(pulse_ - 1) & 1];
    if (pulse_ < pulse_limit_ &&
        (pulse_ == 0 || prev.envelopes == ctx.degree() - halted_neighbours_)) {
      run_pulse(ctx);
    }
    if (inner_->halted() || pulse_ >= pulse_limit_) halt();
  }

 private:
  /// Everything received for one pulse tag.
  struct Slot {
    std::int64_t envelopes = 0;
    std::int64_t halts = 0;  ///< HALT-flagged envelopes
    std::vector<Word> words;
    std::vector<Held> held;
  };

  const graph::Graph& backend_graph() const noexcept override {
    return outer_->backend_graph();
  }
  const geom::UnitDiskGraph* backend_udg() const noexcept override {
    return outer_->backend_udg();
  }
  void backend_send(NodeId /*from*/, NodeId to,
                    std::span<const Word> words) override {
    out_.push_back({to, static_cast<std::uint32_t>(out_words_.size()),
                    static_cast<std::uint32_t>(words.size())});
    out_words_.insert(out_words_.end(), words.begin(), words.end());
  }

  void receive(const Message& envelope) {
    const Word header = envelope.words[0];
    Slot& slot = slots_[(header >> kPulseShift) & 1];
    ++slot.envelopes;
    if ((header & kHalt) != 0) ++slot.halts;
    if ((header & kHasPayload) == 0) return;
    const auto len = static_cast<std::uint32_t>(envelope.words.size() - 1);
    slot.held.push_back(
        {envelope.from, static_cast<std::uint32_t>(slot.words.size()), len});
    slot.words.insert(slot.words.end(), envelope.words.begin() + 1,
                      envelope.words.end());
  }

  void run_pulse(Context& ctx) {
    // The previous pulse's payloads, sorted by sender as a synchronous
    // round delivers them; the views live until the slot is reset below.
    Slot& in = slots_[(pulse_ - 1) & 1];
    sort_by_node(in.held);
    inbox_.clear();
    for (const Held& h : in.held) {
      inbox_.push_back({WordSpan(in.words.data() + h.offset, h.len), h.node});
    }
    out_words_.clear();
    out_.clear();

    Context inner;
    inner.net_ = this;
    inner.self_ = ctx.self_;
    inner.round_ = pulse_;
    inner.rng_ = ctx.rng_;
    inner.obs_ = ctx.obs_;
    inner.inbox_ = inbox_;
    inner_->on_round(inner);

    halted_neighbours_ += in.halts;
    in.envelopes = in.halts = 0;
    in.words.clear();
    in.held.clear();
    send_envelopes(ctx);
    ++pulse_;
  }

  /// Sends this pulse's envelope to every neighbour; a halting process's
  /// last envelopes carry the HALT flag.
  void send_envelopes(Context& ctx) {
    const Word header =
        (pulse_ << kPulseShift) | (inner_->halted() ? kHalt : 0);
    sort_by_node(out_);
    auto next = out_.begin();
    for (const NodeId j : ctx.neighbors()) {
      envelope_.assign(1, header);
      if (next != out_.end() && next->node == j) {
        envelope_[0] |= kHasPayload;
        const auto first = out_words_.begin() + next->offset;
        envelope_.insert(envelope_.end(), first, first + next->len);
        ++payload_messages_;
        ++next;
      }
      ctx.send(j, envelope_);
    }
    assert(next == out_.end() && "send: at most one message per neighbor");
  }

  friend class SynchronizedNetwork;  // reads the counters, sets the limit

  std::unique_ptr<Process> inner_;
  const NetworkBackend* outer_ = nullptr;
  std::int64_t pulse_ = 0;  ///< next pulse to run
  std::int64_t pulse_limit_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t halted_neighbours_ = 0;  ///< HALTs of pulses already run
  std::int64_t payload_messages_ = 0;
  Slot slots_[2];  ///< by pulse parity

  // Per-pulse scratch: the inner inbox, the inner sends (Held::node is the
  // receiver; a broadcast arrives as one send per neighbour) and the
  // envelope being sent.
  std::vector<Message> inbox_;
  std::vector<Word> out_words_;
  std::vector<Held> out_;
  std::vector<Word> envelope_;
};

SynchronizedNetwork::SynchronizedNetwork(const graph::Graph& g,
                                         std::uint64_t seed, int max_delay,
                                         std::uint64_t delay_seed)
    : net_(g, seed), max_delay_(max_delay), adapters_(g.n(), nullptr) {
  net_.set_channel(delay_channel(max_delay, delay_seed));
}

SynchronizedNetwork::SynchronizedNetwork(const geom::UnitDiskGraph& udg,
                                         std::uint64_t seed, int max_delay,
                                         std::uint64_t delay_seed)
    : net_(udg, seed), max_delay_(max_delay), adapters_(udg.n(), nullptr) {
  net_.set_channel(delay_channel(max_delay, delay_seed));
}

void SynchronizedNetwork::set_process(NodeId v,
                                      std::unique_ptr<Process> process) {
  auto adapter = std::make_unique<Synchronized>(std::move(process));
  adapters_[static_cast<std::size_t>(v)] = adapter.get();
  net_.set_process(v, std::move(adapter));
}

Process& SynchronizedNetwork::process(NodeId v) {
  return *adapters_[static_cast<std::size_t>(v)]->inner_;
}

std::int64_t SynchronizedNetwork::run(std::int64_t max_pulses) {
  for (Synchronized* a : adapters_) {
    if (a != nullptr) a->pulse_limit_ = max_pulses;
  }
  // Pulse p + 1 runs at most max_delay rounds after the last pulse p.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  net_.run(max_pulses > kMax / max_delay_ ? kMax : max_pulses * max_delay_);

  metrics_ = SynchronizerMetrics{};
  for (const Synchronized* a : adapters_) {
    if (a == nullptr) continue;
    metrics_.pulses = std::max(metrics_.pulses, a->pulse_);
    metrics_.payload_messages += a->payload_messages_;
  }
  metrics_.virtual_time = net_.round();
  metrics_.envelopes_sent = net_.metrics().messages_sent;
  return metrics_.pulses;
}

}  // namespace ftc::sim
