#include "sim/transport.h"

#include <algorithm>
#include <cassert>

namespace ftc::sim {

using graph::NodeId;

namespace {

/// Rounds to wait for an ack before the first retransmission; the interval
/// doubles after every retransmission up to kMaxBackoff.
constexpr std::int64_t kInitialBackoff = 2;
constexpr std::int64_t kMaxBackoff = 16;

}  // namespace

void ReliableTransport::ensure_init(Context& ctx) {
  if (initialized_) return;
  initialized_ = true;
  const auto nbrs = ctx.neighbors();
  neighbors_.assign(nbrs.begin(), nbrs.end());
  links_.assign(neighbors_.size(), Link{});
}

std::size_t ReliableTransport::index_of(NodeId w) const {
  const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), w);
  assert(it != neighbors_.end() && *it == w &&
         "ReliableTransport: not a neighbor");
  return static_cast<std::size_t>(it - neighbors_.begin());
}

void ReliableTransport::enqueue(Link& link, std::span<const Word> words) {
  if (spare_.empty()) spare_.emplace_back();
  Pending p = std::move(spare_.back());
  spare_.pop_back();
  p.seq = link.next_seq++;
  p.words.assign(words.begin(), words.end());
  link.queue.push_back(std::move(p));
}

void ReliableTransport::send(Context& ctx, NodeId to,
                             std::span<const Word> words) {
  ensure_init(ctx);
  enqueue(links_[index_of(to)], words);
}

void ReliableTransport::broadcast(Context& ctx, std::span<const Word> words) {
  ensure_init(ctx);
  for (Link& link : links_) enqueue(link, words);
}

void ReliableTransport::ingest(Context& ctx, const Message& msg) {
  ensure_init(ctx);
  assert(msg.words.size() >= 2 && "ReliableTransport: malformed frame");
  Link& link = links_[index_of(msg.from)];
  const Word ack = msg.words[0];
  const Word seq = msg.words[1];

  if (ack > link.acked) {
    link.acked = ack;
    // Cumulative: everything below the ack is done. Stop-and-wait keeps at
    // most the head in flight, but the loop form stays correct regardless.
    while (!link.queue.empty() && link.queue.front().seq < ack) {
      spare_.push_back(std::move(link.queue.front()));
      link.queue.erase(link.queue.begin());
      link.head_sent = false;
      link.backoff = 0;
      link.resend_round = -1;
    }
  }

  if (seq < 0) return;  // bare ack
  obs::Recorder* const rec = ctx.obs();
  if (seq == link.expected) {
    if (released_count_ == released_.size()) released_.emplace_back();
    Delivery& d = released_[released_count_++];
    d.from = msg.from;
    d.words.assign(msg.words.begin() + 2, msg.words.end());
    link.expected += 1;
    link.ack_owed = true;
    ++delivered_;
  } else {
    // A retransmitted or channel-duplicated copy of an already-delivered
    // payload (stop-and-wait admits nothing ahead of the window). Re-ack so
    // a lost ack cannot stall the sender.
    ++duplicates_suppressed_;
    link.ack_owed = true;
    if (rec != nullptr) rec->count(rec->builtin().transport_dup_drops);
  }
}

std::span<const ReliableTransport::Delivery> ReliableTransport::collect() {
  const std::span<const Delivery> out(released_.data(), released_count_);
  released_count_ = 0;  // slots are recycled by the next ingest()
  return out;
}

std::span<const ReliableTransport::Delivery> ReliableTransport::receive(
    Context& ctx) {
  ensure_init(ctx);
  for (const Message& msg : ctx.inbox()) {
    ingest(ctx, msg);
  }
  return collect();
}

void ReliableTransport::flush(Context& ctx) {
  ensure_init(ctx);
  obs::Recorder* const rec = ctx.obs();
  for (std::size_t j = 0; j < neighbors_.size(); ++j) {
    Link& link = links_[j];
    if (!link.queue.empty() &&
        (!link.head_sent || ctx.round() >= link.resend_round)) {
      const Pending& head = link.queue.front();
      frame_.clear();
      frame_.push_back(link.expected);
      frame_.push_back(head.seq);
      frame_.insert(frame_.end(), head.words.begin(), head.words.end());
      ctx.send(neighbors_[j], frame_);
      if (link.head_sent) {
        ++retransmissions_;
        link.backoff = std::min(link.backoff * 2, kMaxBackoff);
        if (rec != nullptr) {
          rec->count(rec->builtin().transport_retransmissions);
        }
      } else {
        link.backoff = kInitialBackoff;
        link.head_sent = true;
      }
      link.resend_round = ctx.round() + link.backoff;
      link.ack_owed = false;  // the data frame carries the ack
      ++frames_sent_;
      if (rec != nullptr) rec->count(rec->builtin().transport_frames);
    } else if (link.ack_owed) {
      ctx.send(neighbors_[j], {link.expected, Word{-1}});
      link.ack_owed = false;
      ++frames_sent_;
      if (rec != nullptr) {
        rec->count(rec->builtin().transport_frames);
        rec->count(rec->builtin().transport_acks);
      }
    }
  }
}

bool ReliableTransport::idle() const noexcept {
  for (const Link& link : links_) {
    if (!link.queue.empty() || link.ack_owed) return false;
  }
  return true;
}

std::int64_t ReliableTransport::backlog() const noexcept {
  std::int64_t total = 0;
  for (const Link& link : links_) {
    total += static_cast<std::int64_t>(link.queue.size());
  }
  return total;
}

}  // namespace ftc::sim
