#include "sim/heartbeat.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace ftc::sim {

using graph::NodeId;

namespace {

void check_range(const char* name, std::int64_t value, std::int64_t lo,
                 std::int64_t hi) {
  if (value < lo || value > hi) {
    throw std::invalid_argument(
        std::string("HeartbeatMonitor: ") + name + " must be in [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "], got " +
        std::to_string(value));
  }
}

}  // namespace

HeartbeatMonitor::HeartbeatMonitor() : HeartbeatMonitor(Options{}) {}

HeartbeatMonitor::HeartbeatMonitor(Options options) {
  // The beat history is one 64-bit word shifted once per round, so a window
  // holds at most 63 past beats plus the current one.
  check_range("window", options.window, 0, 63);
  if (options.window == 0) {
    check_range("timeout", options.timeout, 0, 62);
    window_ = static_cast<int>(options.timeout) + 1;
    misses_ = window_;
  } else {
    check_range("misses_to_suspect", options.misses_to_suspect, 0,
                options.window);
    window_ = options.window;
    misses_ = options.misses_to_suspect == 0 ? options.window
                                             : options.misses_to_suspect;
  }
  mask_ = (std::uint64_t{1} << window_) - 1;
}

std::int64_t detection_latency(
    const HeartbeatMonitor::Options& options) noexcept {
  return options.window > 0
             ? std::max<std::int64_t>(options.timeout, options.window)
             : options.timeout;
}

std::size_t HeartbeatMonitor::index_of(NodeId w) const {
  const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), w);
  assert(it != neighbors_.end() && *it == w &&
         "HeartbeatMonitor: not a neighbor");
  return static_cast<std::size_t>(it - neighbors_.begin());
}

void HeartbeatMonitor::observe(Context& ctx) {
  if (!initialized_) {
    initialized_ = true;
    const auto nbrs = ctx.neighbors();
    neighbors_.assign(nbrs.begin(), nbrs.end());
    suspected_.assign(neighbors_.size(), 0);
    // Grace period: a full window of heard beats, so a neighbor dead from
    // the very beginning is suspected after the same timeout as one that
    // dies later.
    heard_bits_.assign(neighbors_.size(), ~std::uint64_t{0});
  }

  obs::Recorder* const rec = ctx.obs();
  // A new observation slot opens for everyone; inbox senders fill theirs.
  for (std::uint64_t& bits : heard_bits_) bits <<= 1;
  for (const Message& msg : ctx.inbox()) {
    const std::size_t j = index_of(msg.from);
    heard_bits_[j] |= 1;
    if (suspected_[j]) {
      suspected_[j] = 0;
      ++refuted_suspicions_;
      if (rec != nullptr) {
        rec->count(rec->builtin().refutations);
        rec->event(obs::Category::kDetector, obs::Severity::kInfo,
                   rec->builtin().n_refute, ctx.round(),
                   static_cast<std::int32_t>(ctx.self()), msg.from);
      }
    }
  }

  for (std::size_t j = 0; j < neighbors_.size(); ++j) {
    // Suspect only from a silent round (bit 0 clear): hearing a beat is
    // direct evidence of life, whatever the miss history says.
    if (suspected_[j] || (heard_bits_[j] & 1) != 0) continue;
    const int misses = window_ - std::popcount(heard_bits_[j] & mask_);
    if (misses < misses_) continue;
    suspected_[j] = 1;
    ++suspicions_raised_;
    if (rec != nullptr) {
      rec->count(rec->builtin().suspicions);
      rec->event(obs::Category::kDetector, obs::Severity::kInfo,
                 rec->builtin().n_suspect, ctx.round(),
                 static_cast<std::int32_t>(ctx.self()), neighbors_[j],
                 misses);
    }
  }
}

bool HeartbeatMonitor::suspects(NodeId w) const {
  assert(initialized_);
  return suspected_[index_of(w)] != 0;
}

std::vector<NodeId> HeartbeatMonitor::suspected() const {
  std::vector<NodeId> out;
  for (std::size_t j = 0; j < neighbors_.size(); ++j) {
    if (suspected_[j]) out.push_back(neighbors_[j]);
  }
  return out;
}

}  // namespace ftc::sim
