#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>

namespace ftcbench {

using ftc::geom::Point;
using ftc::graph::Edge;
using ftc::graph::NodeId;
using ftc::sim::Mutation;
using ftc::sim::MutationKind;

void Fingerprint::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFu;
    h_ *= 0x100000001B3ULL;
  }
}

void Fingerprint::add(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

std::string Fingerprint::hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 0; i < 16; ++i) s[15 - i] = kDigits[(h_ >> (4 * i)) & 0xFu];
  return s;
}

std::vector<Edge> gnp_edges(NodeId n, double avg_degree, NodeId hub_degree,
                            SplitMix64& rng, Fingerprint& fp) {
  std::vector<Edge> edges;
  fp.add(static_cast<std::uint64_t>(n));
  if (n < 2) return edges;
  const double p = std::min(1.0, avg_degree / static_cast<double>(n - 1));
  edges.reserve(static_cast<std::size_t>(avg_degree * n / 2 * 1.01) + 16);
  const double log_q = std::log1p(-p);
  // Walk the lower triangle (w < v) row by row, jumping a geometric number
  // of non-edges between consecutive edges.
  std::int64_t v = 1;
  std::int64_t w = -1;
  while (v < n) {
    const double r = rng.uniform01();
    w += 1 + static_cast<std::int64_t>(std::floor(std::log1p(-r) / log_q));
    while (w >= v && v < n) {
      w -= v;
      ++v;
    }
    if (v < n) edges.push_back({static_cast<NodeId>(w), static_cast<NodeId>(v)});
  }

  // Top node 0 up to hub_degree distinct neighbors.
  std::vector<std::uint8_t> linked(static_cast<std::size_t>(n), 0);
  NodeId degree = 0;
  for (const Edge& e : edges) {
    if (e.u == 0) {
      linked[static_cast<std::size_t>(e.v)] = 1;
      ++degree;
    }
  }
  for (; degree < std::min(hub_degree, n - 1); ++degree) {
    NodeId peer = 0;
    do {
      peer = static_cast<NodeId>(1 + rng.below(static_cast<std::uint64_t>(n - 1)));
    } while (linked[static_cast<std::size_t>(peer)] != 0);
    linked[static_cast<std::size_t>(peer)] = 1;
    edges.push_back({0, peer});
  }
  for (const Edge& e : edges) {
    fp.add(static_cast<std::uint64_t>(e.u));
    fp.add(static_cast<std::uint64_t>(e.v));
  }
  return edges;
}

double udg_side(NodeId n, double avg_degree) {
  return std::sqrt(static_cast<double>(n) * std::numbers::pi / avg_degree);
}

std::vector<Point> uniform_points(NodeId n, double side, SplitMix64& rng,
                                  Fingerprint& fp) {
  std::vector<Point> points(static_cast<std::size_t>(n));
  fp.add(static_cast<std::uint64_t>(n));
  fp.add(side);
  for (Point& p : points) {
    p.x = rng.uniform01() * side;
    p.y = rng.uniform01() * side;
    fp.add(p.x);
    fp.add(p.y);
  }
  return points;
}

namespace {

/// The generator's own view of the evolving deployment: positions,
/// liveness, a live-node list for uniform draws, and a radius-1 grid for
/// ball queries.
class ShadowWorld {
 public:
  ShadowWorld(const std::vector<Point>& points, double side)
      : pos_(points),
        side_(side),
        cells_per_side_(std::max<std::int64_t>(
            1, static_cast<std::int64_t>(std::ceil(side)))),
        cells_(static_cast<std::size_t>(cells_per_side_ * cells_per_side_)) {
    live_.reserve(points.size());
    live_index_.reserve(points.size());
    for (std::size_t v = 0; v < points.size(); ++v) {
      live_index_.push_back(static_cast<std::int64_t>(live_.size()));
      live_.push_back(static_cast<NodeId>(v));
      cell(pos_[v]).push_back(static_cast<NodeId>(v));
    }
  }

  [[nodiscard]] bool empty() const noexcept { return live_.empty(); }
  [[nodiscard]] bool alive(NodeId v) const noexcept {
    return live_index_[static_cast<std::size_t>(v)] >= 0;
  }
  [[nodiscard]] const Point& pos(NodeId v) const noexcept {
    return pos_[static_cast<std::size_t>(v)];
  }
  NodeId random_live(SplitMix64& rng) const {
    return live_[rng.below(live_.size())];
  }

  /// Up to one radius away from `p` in each coordinate, kept in the square.
  Point jitter(const Point& p, SplitMix64& rng) const {
    const double x = p.x + (2.0 * rng.uniform01() - 1.0);
    const double y = p.y + (2.0 * rng.uniform01() - 1.0);
    return {std::clamp(x, 0.0, side_), std::clamp(y, 0.0, side_)};
  }

  NodeId join(const Point& p) {
    const auto v = static_cast<NodeId>(pos_.size());
    pos_.push_back(p);
    live_index_.push_back(static_cast<std::int64_t>(live_.size()));
    live_.push_back(v);
    cell(p).push_back(v);
    return v;
  }

  void leave(NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    const auto slot = static_cast<std::size_t>(live_index_[i]);
    live_index_[static_cast<std::size_t>(live_.back())] =
        static_cast<std::int64_t>(slot);
    live_[slot] = live_.back();
    live_.pop_back();
    live_index_[i] = -1;
    erase_from_cell(v);
  }

  void move(NodeId v, const Point& p) {
    erase_from_cell(v);
    pos_[static_cast<std::size_t>(v)] = p;
    cell(p).push_back(v);
  }

  /// Live nodes within distance 2 of p, in grid order.
  void within_two(const Point& p, std::vector<NodeId>& out) const {
    out.clear();
    const std::int64_t cx = coord(p.x);
    const std::int64_t cy = coord(p.y);
    for (std::int64_t x = std::max<std::int64_t>(0, cx - 2);
         x <= std::min(cells_per_side_ - 1, cx + 2); ++x) {
      for (std::int64_t y = std::max<std::int64_t>(0, cy - 2);
           y <= std::min(cells_per_side_ - 1, cy + 2); ++y) {
        for (NodeId w : cells_[static_cast<std::size_t>(x * cells_per_side_ + y)]) {
          const Point& q = pos(w);
          const double dx = q.x - p.x;
          const double dy = q.y - p.y;
          if (dx * dx + dy * dy <= 4.0) out.push_back(w);
        }
      }
    }
  }

 private:
  [[nodiscard]] std::int64_t coord(double c) const noexcept {
    return std::clamp<std::int64_t>(static_cast<std::int64_t>(c), 0,
                                    cells_per_side_ - 1);
  }
  std::vector<NodeId>& cell(const Point& p) {
    return cells_[static_cast<std::size_t>(coord(p.x) * cells_per_side_ +
                                           coord(p.y))];
  }
  void erase_from_cell(NodeId v) {
    auto& c = cell(pos(v));
    const auto it = std::find(c.begin(), c.end(), v);
    *it = c.back();
    c.pop_back();
  }

  std::vector<Point> pos_;
  double side_;
  std::int64_t cells_per_side_;
  std::vector<std::vector<NodeId>> cells_;
  std::vector<NodeId> live_;
  std::vector<std::int64_t> live_index_;  ///< slot in live_, -1 when gone
};

void add_to_fingerprint(Fingerprint& fp, const Mutation& m) {
  fp.add(static_cast<std::uint64_t>(m.kind));
  fp.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(m.node)));
  fp.add(m.x);
  fp.add(m.y);
}

}  // namespace

ChurnTrace churn_trace(const std::vector<Point>& points, double side,
                       std::size_t batches, std::size_t batch_size,
                       SplitMix64& rng, Fingerprint& fp) {
  ShadowWorld world(points, side);
  ChurnTrace trace;
  trace.mutations.reserve(batches * batch_size);
  trace.batch_begin.reserve(batches + 1);
  std::vector<NodeId> ball;
  fp.add(static_cast<std::uint64_t>(batches));
  fp.add(static_cast<std::uint64_t>(batch_size));

  // Draws a live target: uniform over the deployment for single-mutation
  // batches, from the anchor's ball (dropping departed entries) otherwise.
  // Returns -1 once a burst has emptied its ball.
  auto draw_target = [&](bool clustered) -> NodeId {
    if (!clustered) return world.random_live(rng);
    while (!ball.empty()) {
      const std::size_t i = rng.below(ball.size());
      const NodeId v = ball[i];
      if (world.alive(v)) return v;
      ball[i] = ball.back();
      ball.pop_back();
    }
    return -1;
  };

  for (std::size_t b = 0; b < batches; ++b) {
    trace.batch_begin.push_back(trace.mutations.size());
    const bool clustered = batch_size > 1;
    Point anchor{};
    if (clustered) {
      anchor = world.pos(world.random_live(rng));
      world.within_two(anchor, ball);
    }
    for (std::size_t i = 0; i < batch_size; ++i) {
      const double u = rng.uniform01();
      const NodeId target = world.empty() ? -1 : draw_target(clustered);
      const Point origin = target >= 0 ? world.pos(target) : anchor;
      Mutation m;
      if (u < 0.25 || target < 0) {
        m.kind = MutationKind::kJoin;
        const Point p = world.jitter(origin, rng);
        m.x = p.x;
        m.y = p.y;
        const NodeId v = world.join(p);
        if (clustered) ball.push_back(v);
      } else if (u < 0.60) {
        m.kind = MutationKind::kLeave;
        m.node = target;
        world.leave(target);
      } else {
        m.kind = MutationKind::kMove;
        m.node = target;
        const Point p = world.jitter(origin, rng);
        m.x = p.x;
        m.y = p.y;
        world.move(target, p);
      }
      add_to_fingerprint(fp, m);
      trace.mutations.push_back(m);
    }
  }
  trace.batch_begin.push_back(trace.mutations.size());
  return trace;
}

}  // namespace ftcbench
