#include "sim/synchronizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace ftc::sim {

using graph::NodeId;

namespace {

// Envelope header: the pulse number above the payload length above two flag
// bits.
constexpr Word kHasPayload = 1;
constexpr Word kHalt = 2;
constexpr int kLenShift = 2;
constexpr int kPulseShift = 34;
constexpr Word kLenMask = (Word{1} << (kPulseShift - kLenShift)) - 1;

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

/// Per-run failure probability the round budget allows (DESIGN.md §9).
constexpr double kBudgetTail = 1e-9;

/// The latency bound D: max_reorder_delay + 1 when the channel reorders.
int latency_bound(const ChannelOptions& channel) noexcept {
  return channel.reorder > 0.0 ? channel.max_reorder_delay + 1 : 1;
}

/// The worst directed link's stationary per-frame loss: iid loss times
/// (1 + asymmetry), and max(loss, burst_loss) for the burst share of time.
double stationary_loss(const ChannelOptions& channel) noexcept {
  const double link =
      std::min(channel.loss * (1.0 + channel.asymmetry), 0.999999);
  if (channel.burst_loss <= 0.0 || channel.p_enter_burst <= 0.0) return link;
  const double burst_share =
      channel.p_enter_burst / (channel.p_enter_burst + channel.p_exit_burst);
  return link + burst_share * std::max(0.0, channel.burst_loss - link);
}

/// Rounds between sends of an unacknowledged envelope: one round trip.
std::int64_t resend_interval(const ChannelOptions& channel) noexcept {
  return stationary_loss(channel) > 0.0 ? 2 * latency_bound(channel) : kNever;
}

}  // namespace

ChannelOptions delay_channel(int max_delay, std::uint64_t delay_seed) {
  if (max_delay < 1) {
    throw std::invalid_argument(
        "delay_channel: max_delay must be >= 1, got " +
        std::to_string(max_delay));
  }
  ChannelOptions channel;
  channel.reorder = static_cast<double>(max_delay - 1) / max_delay;
  channel.max_reorder_delay = std::max(1, max_delay - 1);
  channel.seed = delay_seed;
  return channel;
}

std::int64_t round_budget(std::int64_t pulses, std::int64_t links,
                          const ChannelOptions& channel) {
  if (pulses <= 0) return 0;
  const double steps = static_cast<double>(pulses - 1);
  double rounds = 1.0 + steps * latency_bound(channel);
  const double q = stationary_loss(channel);
  if (q > 0.0) {
    // Pulse p+1 completes at most D + R·J_p rounds after pulse p, where J_p
    // is the most lost sends of one pulse-p envelope over all links; a
    // union bound takes a = log_{1/q}(links) of each J_p, and a Chernoff
    // bound on the geometric remainders covers the rest of their sum.
    const double ln_inv_q = std::log(1.0 / q);
    const double a = std::ceil(
        std::log(static_cast<double>(std::max<std::int64_t>(links, 1))) /
        ln_inv_q);
    const double tail = std::ceil(
        2.0 * (steps * std::log1p(std::sqrt(q)) - std::log(kBudgetTail)) /
        ln_inv_q);
    rounds += static_cast<double>(resend_interval(channel)) *
              (steps * a + tail);
  }
  constexpr double kMax = static_cast<double>(kNever / 2);
  return rounds >= kMax ? kNever / 2 : static_cast<std::int64_t>(rounds);
}

/// The α-synchronizer adapter (see synchronizer.h). As the inner process's
/// NetworkBackend it captures the pulse's sends, then turns them into
/// envelopes on the outer network.
class Synchronized final : public Process, private NetworkBackend {
 public:
  Synchronized(std::unique_ptr<Process> inner, std::int64_t resend_interval)
      : inner_(std::move(inner)), resend_interval_(resend_interval) {
    slots_[1].pulse = -1;
  }

  void on_round(Context& ctx) override {
    outer_ = ctx.net_;
    if (heard_.size() != ctx.neighbors().size()) start(ctx);
    for (const Message& frame : ctx.inbox()) receive(ctx, frame);
    // Pulse p needs a pulse-(p-1) envelope from every neighbour that had
    // not halted before p-1.
    const bool due = ctx.round() >= resend_at_;
    if (!done() &&
        (pulse_ == 0 ||
         slot(pulse_ - 1).envelopes == ctx.degree() - halted_neighbours_)) {
      run_pulse(ctx, due);
    } else if (due) {
      send_frames(ctx, /*due=*/true, /*fresh=*/false);
    }
    // Only a channel that cannot drop lets a finished adapter go quiet.
    if (done() && resend_interval_ == kNever) halt();
  }

  /// The inner process halted, or the pulse limit was reached.
  [[nodiscard]] bool done() const noexcept {
    return inner_->halted() || pulse_ >= pulse_limit_;
  }

 private:
  /// Everything received for one pulse.
  struct Slot {
    std::int64_t pulse = 0;
    std::int64_t envelopes = 0;
    std::int64_t halts = 0;          ///< HALT-flagged envelopes
    std::vector<std::uint8_t> got;   ///< per neighbour index
    std::vector<Word> words;
    std::vector<Held> held;
  };

  /// What one pulse sent: the header and each neighbour's payload
  /// (Held::node < 0 for none), kept while a neighbour may lack it.
  struct Sent {
    Word header = 0;
    std::vector<Word> words;
    std::vector<Held> by_neighbour;
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

  Slot& slot(std::int64_t pulse) noexcept { return slots_[pulse & 1]; }
  Sent& sent(std::int64_t pulse) noexcept { return sent_[pulse & 1]; }

  void start(Context& ctx) {
    const std::size_t degree = ctx.neighbors().size();
    heard_.assign(degree, -1);
    for (Slot& s : slots_) s.got.assign(degree, 0);
    for (Sent& s : sent_) s.by_neighbour.assign(degree, Held{});
  }

  /// Takes in every envelope of one frame.
  void receive(Context& ctx, const Message& frame) {
    const auto nbrs = ctx.neighbors();
    const auto j = static_cast<std::size_t>(
        std::lower_bound(nbrs.begin(), nbrs.end(), frame.from) - nbrs.begin());
    for (std::size_t at = 0; at < frame.words.size();) {
      const Word header = frame.words[at];
      const auto len = static_cast<std::uint32_t>((header >> kLenShift) &
                                                  kLenMask);
      const std::int64_t pulse = header >> kPulseShift;
      // A neighbour's pulse-q envelope proves it holds our pulse-(q-1) one;
      // after its HALT it needs nothing more.
      heard_[j] = (header & kHalt) != 0 ? kNever : std::max(heard_[j], pulse);
      if (pulse < pulse_ - 1) ++stale_;
      Slot& s = slot(pulse);
      if (s.pulse == pulse && s.got[j] == 0) {
        s.got[j] = 1;
        ++s.envelopes;
        if ((header & kHalt) != 0) ++s.halts;
        if ((header & kHasPayload) != 0) {
          s.held.push_back(
              {frame.from, static_cast<std::uint32_t>(s.words.size()), len});
          s.words.insert(s.words.end(), frame.words.begin() + at + 1,
                         frame.words.begin() + at + 1 + len);
        }
      }
      at += 1 + len;
    }
  }

  void run_pulse(Context& ctx, bool due) {
    // The previous pulse's payloads, sorted by sender as a synchronous
    // round delivers them; the views live until the slot is reset below.
    Slot& in = slot(pulse_ - 1);
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
    in.pulse = pulse_ + 1;
    in.envelopes = in.halts = 0;
    std::fill(in.got.begin(), in.got.end(), 0);
    in.words.clear();
    in.held.clear();
    keep_sends(ctx);
    send_frames(ctx, due, /*fresh=*/true);
    ++pulse_;
  }

  /// Files this pulse's sends by neighbour index; a halting process's
  /// envelopes carry the HALT flag.
  void keep_sends(Context& ctx) {
    Sent& s = sent(pulse_);
    s.header = (pulse_ << kPulseShift) | (inner_->halted() ? kHalt : 0);
    s.words.swap(out_words_);
    sort_by_node(out_);
    auto next = out_.begin();
    const auto nbrs = ctx.neighbors();
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      s.by_neighbour[j] = Held{};
      if (next != out_.end() && next->node == nbrs[j]) {
        s.by_neighbour[j] = *next++;
        ++payload_messages_;
      }
    }
    assert(next == out_.end() && "send: at most one message per neighbor");
  }

  /// Appends pulse `pulse`'s envelope for neighbour index j to frame_.
  void append(std::int64_t pulse, std::size_t j) {
    const Sent& s = sent(pulse);
    const Held& h = s.by_neighbour[j];
    const Word len = h.node < 0 ? 0 : h.len;
    frame_.push_back(s.header | (len << kLenShift) |
                     (h.node < 0 ? 0 : kHasPayload));
    frame_.insert(frame_.end(), s.words.begin() + h.offset,
                  s.words.begin() + h.offset + len);
  }

  /// Sends each neighbour one frame: when a resend is `due`, the envelopes
  /// it may still lack, then the new one when `fresh` (pulse_ just ran).
  /// Restarts the resend timer while some neighbour lacks an envelope.
  void send_frames(Context& ctx, bool due, bool fresh) {
    const auto nbrs = ctx.neighbors();
    const std::int64_t last = fresh ? pulse_ : pulse_ - 1;
    bool pending = false;
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      frame_.clear();
      // The neighbour holds every envelope below heard_[j], and it ran the
      // pulse before our last one, so it lacks at most two (DESIGN.md §5).
      assert(heard_[j] >= pulse_ - 2);
      const std::int64_t first = std::max<std::int64_t>(heard_[j], 0);
      for (std::int64_t p = first; due && p < pulse_; ++p) {
        append(p, j);
        ++retransmissions_;
      }
      if (fresh) append(pulse_, j);
      if (frame_.empty()) continue;
      ctx.send(nbrs[j], frame_);
      pending = pending || heard_[j] <= last;
    }
    if (due) resend_at_ = kNever;
    if (pending && resend_interval_ != kNever) {
      resend_at_ = std::min(resend_at_, ctx.round() + resend_interval_);
    }
  }

  friend class SynchronizedNetwork;  // reads the counters, sets the limit

  std::unique_ptr<Process> inner_;
  const NetworkBackend* outer_ = nullptr;
  std::int64_t resend_interval_ = kNever;
  std::int64_t resend_at_ = kNever;  ///< round of the next resend
  std::int64_t pulse_ = 0;           ///< next pulse to run
  std::int64_t pulse_limit_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t halted_neighbours_ = 0;  ///< HALTs of pulses already run
  std::int64_t payload_messages_ = 0;
  std::int64_t retransmissions_ = 0;
  std::int64_t stale_ = 0;
  std::vector<std::int64_t> heard_;  ///< per neighbour: highest pulse heard
  Slot slots_[2];  ///< pulses pulse_ - 1 and pulse_, by parity
  Sent sent_[2];   ///< pulses pulse_ - 2 and pulse_ - 1, by parity

  // Per-pulse scratch: the inner inbox, the inner sends (Held::node is the
  // receiver; a broadcast arrives as one send per neighbour) and the frame
  // being sent.
  std::vector<Message> inbox_;
  std::vector<Word> out_words_;
  std::vector<Held> out_;
  std::vector<Word> frame_;
};

SynchronizedNetwork::SynchronizedNetwork(const graph::Graph& g,
                                         std::uint64_t seed,
                                         const ChannelOptions& channel)
    : net_(g, seed),
      resend_interval_(resend_interval(channel)),
      adapters_(g.n(), nullptr) {
  net_.set_channel(channel);
}

SynchronizedNetwork::SynchronizedNetwork(const geom::UnitDiskGraph& udg,
                                         std::uint64_t seed,
                                         const ChannelOptions& channel)
    : net_(udg, seed),
      resend_interval_(resend_interval(channel)),
      adapters_(udg.n(), nullptr) {
  net_.set_channel(channel);
}

void SynchronizedNetwork::set_process(NodeId v,
                                      std::unique_ptr<Process> process) {
  auto adapter =
      std::make_unique<Synchronized>(std::move(process), resend_interval_);
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
  // Adapters finish for good, so one cursor walks them once over the run.
  const std::int64_t cap =
      round_budget(max_pulses, 2 * graph().m(), net_.channel().options());
  std::size_t unfinished = 0;
  for (std::int64_t r = 0; r < cap; ++r) {
    while (unfinished < adapters_.size() &&
           (adapters_[unfinished] == nullptr ||
            adapters_[unfinished]->done())) {
      ++unfinished;
    }
    if (unfinished == adapters_.size()) break;
    net_.step();
  }

  metrics_ = SynchronizerMetrics{};
  for (const Synchronized* a : adapters_) {
    if (a == nullptr) continue;
    metrics_.pulses = std::max(metrics_.pulses, a->pulse_);
    metrics_.payload_messages += a->payload_messages_;
    metrics_.retransmissions += a->retransmissions_;
    metrics_.stale_envelopes += a->stale_;
  }
  metrics_.virtual_time = net_.round();
  metrics_.envelopes_sent = net_.metrics().messages_sent;
  return metrics_.pulses;
}

}  // namespace ftc::sim
