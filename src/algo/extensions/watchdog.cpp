#include "algo/extensions/watchdog.h"

#include <cassert>
#include <utility>
#include <vector>

#include "algo/extensions/repair.h"
#include "obs/plane.h"

namespace ftc::algo {

using graph::NodeId;

CoverageWatchdog::CoverageWatchdog(domination::Demands demands,
                                   CoverageWatchdogOptions options,
                                   IsMember is_member, Promote promote)
    : options_(options),
      demands_(std::move(demands)),
      is_member_(std::move(is_member)),
      promote_(std::move(promote)) {
  assert(options_.patience >= 1);
  assert(is_member_ && promote_);
}

bool CoverageWatchdog::poll(const sim::SyncNetwork& net) {
  const graph::Graph& g = net.graph();
  assert(static_cast<NodeId>(demands_.size()) == g.n());

  std::vector<NodeId> failed;
  std::vector<NodeId> members;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (net.crashed(v)) {
      failed.push_back(v);
    } else if (is_member_(v)) {
      members.push_back(v);
    }
  }

  // Ground-truth audit on the live topology: dead nodes neither demand nor
  // provide coverage, and surviving demands are clamped to what their live
  // closed neighborhoods can still satisfy (unsatisfiable residue is an
  // instance property, not an SLO violation).
  const graph::Graph live = g.without_nodes(failed);
  const domination::Demands live_demands =
      domination::live_demands(live, failed, demands_);
  uncovered_demand_ =
      domination::deficiency(live, members, live_demands, options_.mode);

  const bool violated = uncovered_demand_ > 0;
  std::int64_t promoted = 0;
  std::int64_t repaired_after = 0;  // episode length if a repair completed
  if (!violated) {
    streak_ = 0;
    if (episode_rounds_ > 0) {
      // The violation episode just ended: its length in polls is the
      // repair latency (interventions do not end an episode — only
      // restored coverage does).
      repaired_after = episode_rounds_;
      episode_rounds_ = 0;
      ++repairs_completed_;
    }
  } else {
    ++violation_rounds_;
    ++streak_;
    ++episode_rounds_;
    if (streak_ >= options_.patience) {
      // Patience exhausted: run the centralized repair oracle around the
      // failed nodes and re-issue exactly the missing promotions. The
      // network gets a fresh patience window to absorb them before the
      // next escalation.
      const RepairResult fix = repair_after_failures(
          g, members, failed, live_demands, options_.mode);
      for (const NodeId v : fix.set) {
        if (!net.crashed(v) && !is_member_(v)) {
          promote_(v);
          ++promoted;
        }
      }
      ++interventions_;
      promotions_issued_ += promoted;
      streak_ = 0;
    }
  }
  publish(net, violated, promoted, repaired_after);
  return violated;
}

void CoverageWatchdog::publish(const sim::SyncNetwork& net, bool violated,
                               std::int64_t promoted,
                               std::int64_t repaired_after) {
  obs::Plane* const plane = net.observability();
  if (plane == nullptr) return;
  if (plane != plane_) {
    plane_ = plane;
    auto& reg = plane->metrics();
    slo_violation_rounds_ = reg.counter("slo.coverage_violation_rounds");
    slo_uncovered_ = reg.gauge("slo.uncovered_demand");
    interventions_id_ = reg.counter("watchdog.interventions");
    promotions_id_ = reg.counter("watchdog.promotions");
    repair_latency_id_ =
        reg.histogram("slo.repair_latency_rounds", obs::pow2_bounds(0, 10));
  }
  auto& reg = plane->metrics();
  if (violated) reg.add(slo_violation_rounds_, 1);
  reg.set(slo_uncovered_, uncovered_demand_);
  if (repaired_after > 0) {
    reg.record(repair_latency_id_, static_cast<double>(repaired_after));
  }
  if (promoted > 0 || (violated && streak_ == 0)) {
    reg.add(interventions_id_, 1);
    reg.add(promotions_id_, promoted);
    if (plane->trace().enabled(obs::Category::kRepair,
                               obs::Severity::kInfo)) {
      obs::TraceEvent e;
      e.round = net.round();
      e.node = -1;  // the watchdog is not a node
      e.category = obs::Category::kRepair;
      e.severity = obs::Severity::kInfo;
      e.name = plane->builtin().n_watchdog;
      e.a0 = uncovered_demand_;
      e.a1 = promoted;
      plane->trace().emit(e);
    }
  }
}

}  // namespace ftc::algo
