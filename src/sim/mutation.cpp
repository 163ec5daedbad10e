#include "sim/mutation.h"

#include <cassert>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <system_error>

namespace ftc::sim {

using graph::Edge;
using graph::EdgeDelta;
using graph::NodeId;

const char* mutation_kind_name(MutationKind k) noexcept {
  switch (k) {
    case MutationKind::kJoin:
      return "join";
    case MutationKind::kLeave:
      return "leave";
    case MutationKind::kMove:
      return "move";
    case MutationKind::kFlip:
      return "flip";
  }
  return "?";
}

std::string to_string(const MutationTrace& trace) {
  std::string out;
  char buf[128];
  for (const TimedMutation& t : trace) {
    // %.17g round-trips any double exactly.
    std::snprintf(buf, sizeof(buf), "%" PRId64 ":%d:%d:%d:%.17g:%.17g",
                  t.round, static_cast<int>(t.m.kind), t.m.node, t.m.peer,
                  t.m.x, t.m.y);
    if (!out.empty()) out += ';';
    out += buf;
  }
  return out;
}

namespace {

/// Parses all of `field` as a T: false on an empty field, trailing junk or
/// a value outside T's range.
template <typename T>
bool parse_field(std::string_view field, T& out) {
  const char* last = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), last, out);
  return ec == std::errc{} && ptr == last;
}

/// Parses one "round:kind:node:peer:x:y" entry, or returns false.
bool parse_entry(std::string_view entry, TimedMutation& t) {
  std::string_view f[6];
  for (std::size_t i = 0; i < 6; ++i) {
    // Fields 0..4 end at a ':'; the sixth runs to the end of the entry.
    const std::size_t colon = entry.find(':');
    if ((colon == std::string_view::npos) != (i == 5)) return false;
    f[i] = entry.substr(0, colon);
    if (colon != std::string_view::npos) entry.remove_prefix(colon + 1);
  }
  int kind = 0;
  if (!parse_field(f[0], t.round) || !parse_field(f[1], kind) ||
      kind < 0 || kind >= kMutationKindCount ||
      !parse_field(f[2], t.m.node) || !parse_field(f[3], t.m.peer) ||
      !parse_field(f[4], t.m.x) || !parse_field(f[5], t.m.y)) {
    return false;
  }
  t.m.kind = static_cast<MutationKind>(kind);
  return std::isfinite(t.m.x) && std::isfinite(t.m.y);
}

}  // namespace

MutationTrace parse_mutation_trace(const std::string& text) {
  MutationTrace trace;
  if (text.empty()) return trace;
  const std::string_view all(text);
  std::size_t pos = 0;
  while (true) {
    const std::size_t end = all.find(';', pos);
    const std::string_view entry =
        all.substr(pos, end == std::string_view::npos ? end : end - pos);
    TimedMutation t;
    if (!parse_entry(entry, t)) {
      throw std::invalid_argument("parse_mutation_trace: bad entry '" +
                                  std::string(entry) + "'");
    }
    trace.push_back(t);
    if (end == std::string_view::npos) break;
    pos = end + 1;
  }
  return trace;
}

DynamicWorld::DynamicWorld(const geom::UnitDiskGraph& udg)
    : udg_(std::make_unique<geom::DynamicUdg>(udg)) {}

DynamicWorld::DynamicWorld(const graph::Graph& g)
    : plain_(g), active_(static_cast<std::size_t>(g.n()), 1) {}

bool DynamicWorld::active(NodeId v) const noexcept {
  if (udg_) return udg_->active(v);
  return v >= 0 && v < n() && active_[static_cast<std::size_t>(v)] != 0;
}

NodeId DynamicWorld::active_count() const noexcept {
  const auto& flags = active_flags();
  NodeId count = 0;
  for (std::uint8_t a : flags) count += a;
  return count;
}

AppliedMutation DynamicWorld::apply(const Mutation& m) {
  AppliedMutation out;
  out.m = m;
  EdgeDelta& delta = out.delta;
  auto norm = [](NodeId a, NodeId b) {
    return a < b ? Edge{a, b} : Edge{b, a};
  };

  if (udg_) {
    switch (m.kind) {
      case MutationKind::kJoin:
        out.m.node = udg_->node_join({m.x, m.y}, delta);
        out.applied = true;
        break;
      case MutationKind::kLeave:
        if (!udg_->active(m.node)) break;
        udg_->node_leave(m.node, delta);
        out.applied = true;
        break;
      case MutationKind::kMove:
        if (!udg_->active(m.node)) break;
        udg_->node_move(m.node, {m.x, m.y}, delta);
        out.applied = true;
        break;
      case MutationKind::kFlip:
        // A UDG's edges are a function of its embedding; see file header.
        break;
    }
    return out;
  }

  switch (m.kind) {
    case MutationKind::kJoin: {
      const NodeId v = plain_.add_node();
      active_.push_back(1);
      out.m.node = v;
      // Anchor to the peer's closed neighborhood when the peer is usable;
      // otherwise the node joins isolated (still a valid deployment — its
      // clamped demand is 1 and it can only cover itself).
      if (active(m.peer)) {
        plain_.add_edge(v, m.peer);
        delta.added.push_back(norm(v, m.peer));
        // Iterate a copy of the peer's row: add_edge may move any row.
        const auto nbrs = plain_.neighbors(m.peer);
        anchor_.assign(nbrs.begin(), nbrs.end());
        for (NodeId w : anchor_) {
          if (w == v) continue;
          if (plain_.add_edge(v, w)) delta.added.push_back(norm(v, w));
        }
      }
      out.applied = true;
      break;
    }
    case MutationKind::kLeave:
      if (!active(m.node)) break;
      active_[static_cast<std::size_t>(m.node)] = 0;
      plain_.isolate(m.node, delta.removed);
      out.applied = true;
      break;
    case MutationKind::kMove:
      // Re-anchor: drop all current edges, link to N[peer]. peer == node or
      // an unusable peer degrades to plain isolation — the node "moved out
      // of range of everyone".
      if (!active(m.node)) break;
      plain_.isolate(m.node, delta.removed);
      if (active(m.peer) && m.peer != m.node) {
        plain_.add_edge(m.node, m.peer);
        delta.added.push_back(norm(m.node, m.peer));
        const auto nbrs = plain_.neighbors(m.peer);
        anchor_.assign(nbrs.begin(), nbrs.end());
        for (NodeId w : anchor_) {
          if (w == m.node) continue;
          if (plain_.add_edge(m.node, w)) delta.added.push_back(norm(m.node, w));
        }
      }
      out.applied = true;
      break;
    case MutationKind::kFlip:
      if (!active(m.node) || !active(m.peer) || m.node == m.peer) break;
      if (plain_.remove_edge(m.node, m.peer)) {
        delta.removed.push_back(norm(m.node, m.peer));
      } else {
        plain_.add_edge(m.node, m.peer);
        delta.added.push_back(norm(m.node, m.peer));
      }
      out.applied = true;
      break;
  }
  return out;
}

}  // namespace ftc::sim
