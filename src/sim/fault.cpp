#include "sim/fault.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

namespace ftc::sim {

using graph::NodeId;

namespace {

/// Strict probability validation: a plan with an out-of-range rate is a
/// caller bug and is rejected loudly, never clamped into a plan that
/// silently means something else.
void check_rate(const char* factory, const char* name, double p) {
  if (std::isnan(p) || p < 0.0 || p > 1.0) {
    throw std::invalid_argument(std::string("FaultPlan::") + factory + ": " +
                                name + " must be in [0, 1], got " +
                                std::to_string(p));
  }
}

}  // namespace

FaultPlan FaultPlan::none() { return {}; }

FaultPlan FaultPlan::iid_crashes(double rate, std::int64_t from,
                                 std::int64_t until) {
  check_rate("iid_crashes", "rate", rate);
  FaultPlan plan;
  plan.kind_ = Kind::kIid;
  plan.rate_ = rate;
  plan.from_ = from;
  plan.until_ = until;
  return plan;
}

FaultPlan FaultPlan::targeted_by_degree(NodeId count, std::int64_t round) {
  if (count < 1) {
    throw std::invalid_argument(
        "FaultPlan::targeted_by_degree: count must be >= 1, got " +
        std::to_string(count));
  }
  FaultPlan plan;
  plan.kind_ = Kind::kTargeted;
  plan.count_ = count;
  plan.round_ = round;
  return plan;
}

FaultPlan FaultPlan::region(geom::Point center, double radius,
                            std::int64_t round) {
  if (std::isnan(radius) || radius < 0.0) {
    throw std::invalid_argument(
        "FaultPlan::region: radius must be >= 0, got " +
        std::to_string(radius));
  }
  FaultPlan plan;
  plan.kind_ = Kind::kRegion;
  plan.center_ = center;
  plan.radius_ = radius;
  plan.round_ = round;
  return plan;
}

FaultPlan FaultPlan::churn(double rate, std::int64_t min_downtime,
                           std::int64_t max_downtime, std::int64_t from,
                           std::int64_t until) {
  check_rate("churn", "rate", rate);
  if (min_downtime < 1 || max_downtime < min_downtime) {
    throw std::invalid_argument(
        "FaultPlan::churn: downtimes must satisfy 1 <= min <= max, got [" +
        std::to_string(min_downtime) + ", " + std::to_string(max_downtime) +
        "]");
  }
  FaultPlan plan;
  plan.kind_ = Kind::kChurn;
  plan.rate_ = rate;
  plan.min_downtime_ = min_downtime;
  plan.max_downtime_ = max_downtime;
  plan.from_ = from;
  plan.until_ = until;
  return plan;
}

std::vector<FaultEvent> compile_fault_plan(const FaultPlan& plan,
                                           const graph::Graph& g,
                                           const geom::UnitDiskGraph* udg,
                                           std::int64_t horizon,
                                           std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(g.n());
  std::vector<std::uint8_t> alive(n, 1);
  std::vector<FaultEvent> events;
  std::map<std::int64_t, std::vector<NodeId>> pending_recoveries;

  // Randomized plans draw from stream 0 of `seed`.
  util::Rng rng = util::Rng(seed).split(0);

  std::vector<std::uint8_t> rejoined_this_round(n, 0);
  for (std::int64_t r = 0; r < horizon; ++r) {
    // Rejoins first: a node that comes back at round r executes at least
    // one round before the plan may kill it again (the per-node
    // alternating-events invariant the installer relies on).
    std::fill(rejoined_this_round.begin(), rejoined_this_round.end(), 0);
    if (const auto it = pending_recoveries.find(r);
        it != pending_recoveries.end()) {
      for (NodeId v : it->second) {
        alive[static_cast<std::size_t>(v)] = 1;
        rejoined_this_round[static_cast<std::size_t>(v)] = 1;
        events.push_back({r, v, true});
      }
      pending_recoveries.erase(it);
    }

    auto kill = [&](NodeId v) {
      const auto vi = static_cast<std::size_t>(v);
      if (!alive[vi] || rejoined_this_round[vi]) return;
      alive[vi] = 0;
      events.push_back({r, v, false});
      if (plan.kind_ == FaultPlan::Kind::kChurn) {
        const std::int64_t down =
            rng.uniform_i64(plan.min_downtime_, plan.max_downtime_);
        if (r + down < horizon) pending_recoveries[r + down].push_back(v);
      }
    };

    switch (plan.kind_) {
      case FaultPlan::Kind::kNone:
        break;
      case FaultPlan::Kind::kIid:
      case FaultPlan::Kind::kChurn:
        if (r >= plan.from_ && r < plan.until_ && plan.rate_ > 0.0) {
          for (NodeId v = 0; v < g.n(); ++v) {
            // Draw for every node regardless of liveness so the stream
            // stays aligned across plans with different victims.
            const bool hit = rng.bernoulli(plan.rate_);
            if (hit) kill(v);
          }
        }
        break;
      case FaultPlan::Kind::kTargeted:
        if (plan.round_ == r) {
          std::vector<NodeId> order;
          for (NodeId v = 0; v < g.n(); ++v) {
            if (alive[static_cast<std::size_t>(v)] &&
                !rejoined_this_round[static_cast<std::size_t>(v)]) {
              order.push_back(v);
            }
          }
          std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
            if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
            return a < b;
          });
          const auto take = std::min<std::size_t>(
              order.size(), static_cast<std::size_t>(plan.count_));
          for (std::size_t i = 0; i < take; ++i) kill(order[i]);
        }
        break;
      case FaultPlan::Kind::kRegion:
        if (plan.round_ == r) {
          if (udg == nullptr) {
            throw std::invalid_argument(
                "compile_fault_plan: a region plan needs a UDG embedding");
          }
          for (NodeId v = 0; v < g.n(); ++v) {
            if (geom::dist(udg->positions[static_cast<std::size_t>(v)],
                           plan.center_) <= plan.radius_) {
              kill(v);
            }
          }
        }
        break;
    }
  }

  std::sort(events.begin(), events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.round != b.round) return a.round < b.round;
              if (a.recover != b.recover) return !a.recover;  // crashes first
              return a.node < b.node;
            });
  return events;
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), seed_(seed) {}

const std::vector<FaultEvent>& FaultInjector::install(SyncNetwork& net,
                                                      std::int64_t horizon,
                                                      ProcessFactory factory) {
  if (plan_.has_recoveries() && !factory) {
    throw std::invalid_argument(
        "FaultInjector: churn plans need a process factory for rejoins");
  }
  schedule_ = compile_fault_plan(plan_, net.graph(), net.udg(), horizon, seed_);
  for (const FaultEvent& e : schedule_) {
    if (e.recover) {
      net.schedule_recovery(e.node, e.round, factory(e.node));
    } else {
      net.schedule_crash(e.node, e.round);
    }
  }
  if (obs::Plane* pl = net.observability(); pl != nullptr) {
    pl->metrics().add(pl->builtin().scheduled_crashes, crash_count());
    pl->metrics().add(pl->builtin().scheduled_recoveries, recovery_count());
    obs::TraceEvent e;
    e.round = net.round();
    e.category = obs::Category::kFault;
    e.severity = obs::Severity::kInfo;
    e.name = pl->builtin().n_fault_plan;
    e.a0 = crash_count();
    e.a1 = recovery_count();
    pl->trace().emit(e);
  }
  return schedule_;
}

std::int64_t FaultInjector::crash_count() const noexcept {
  return static_cast<std::int64_t>(
      std::count_if(schedule_.begin(), schedule_.end(),
                    [](const FaultEvent& e) { return !e.recover; }));
}

std::int64_t FaultInjector::recovery_count() const noexcept {
  return static_cast<std::int64_t>(schedule_.size()) - crash_count();
}

}  // namespace ftc::sim
