// Seed-driven random test-case generation for the adversarial fuzzing
// harness (DESIGN.md §8).
//
// The paper's guarantees quantify over *all* graphs, demand vectors, fault
// patterns, and message schedules; hand-picked unit-test instances explore a
// vanishingly small corner of that space. A FuzzCase is a declarative,
// fully-serializable description of one randomized instance — topology
// family and size, demands, algorithm parameters, engine width, synchronizer
// delay schedule, loss rate, and fault plan — derived as a pure function of a
// single 64-bit case seed. Everything downstream (materialization, the
// invariant checks in invariants.h, the runner) is deterministic given the
// case, which is what makes every failure a one-line repro and makes
// shrinking (runner.h) sound: a shrunk case is just another FuzzCase.
#pragma once

#include <cstdint>
#include <string>

#include "domination/domination.h"
#include "geom/udg.h"
#include "graph/graph.h"
#include "sim/channel.h"

namespace ftc::testing {

/// Topology families the generator draws from. UDG families carry an
/// embedding and additionally exercise Algorithm 3 + region faults.
enum class GraphFamily : std::int32_t {
  kGnp = 0,
  kGnm,
  kBarabasiAlbert,
  kTree,
  kGrid,
  kPath,
  kCycle,
  kStar,
  kComplete,
  kRegular,
  kCaveman,
  kWattsStrogatz,
  kUdgUniform,
  kUdgClustered,
};

/// Number of GraphFamily values (for drawing and validation).
inline constexpr std::int32_t kGraphFamilyCount = 14;

/// Fault-process shapes a case may carry (compiled via sim::FaultPlan).
enum class FaultKind : std::int32_t {
  kNone = 0,
  kIid,
  kTargeted,
  kChurn,
  kRegion,  ///< UDG families only
};

/// Fixed bounds the generator samples within. They keep instances small
/// enough that a full oracle battery runs in well under a millisecond and
/// tens of thousands of cases stay interactive.
inline constexpr graph::NodeId kFuzzMinN = 3;
inline constexpr std::int32_t kFuzzMaxK = 4;  ///< maximum coverage demand
inline constexpr int kFuzzMaxT = 4;  ///< maximum LP trade-off parameter
inline constexpr double kFuzzMaxLoss = 0.3;  ///< maximum message loss
/// Nodes at or below which the exact branch-and-bound oracle is eligible.
inline constexpr graph::NodeId kFuzzExactOracleMaxN = 22;
/// Longest mutation trace the generator draws.
inline constexpr std::int32_t kFuzzMaxMutations = 20;
/// Ranges the generator draws the family parameter `aux`, the fault-plan
/// horizon and the mutation batch from (the shrinker keeps their floors).
inline constexpr graph::NodeId kFuzzMaxAux = 6;
inline constexpr std::int64_t kFuzzMinHorizon = 8;
inline constexpr std::int64_t kFuzzMaxHorizon = 24;
inline constexpr std::int32_t kFuzzMaxMutationBatch = 4;
/// Widest engine a case may ask for. The generator draws from {1, 2, 3, 4,
/// 8}; replaying a case starts this many pool threads, so a case line
/// cannot ask for more.
inline constexpr int kFuzzMaxThreads = 64;

/// What a campaign chooses (ftc-fuzz --max-n, --lossy, --dynamic).
struct FuzzConfig {
  graph::NodeId max_n = 56;  ///< largest node count, >= kFuzzMinN
  /// Loss-fuzz mode: force every case onto an impaired channel (at least
  /// iid loss), so a campaign concentrates on the unreliable-link paths.
  bool force_lossy = false;
  /// Dynamic-fuzz mode: force every case to carry a mutation trace, so a
  /// campaign concentrates on the incremental-maintenance paths.
  bool force_dynamic = false;
};

/// One fully-specified fuzz case. All fields that affect execution are
/// explicit (no hidden state), so to_string()/parse_fuzz_case() round-trips
/// reproduce the exact instance bit for bit.
struct FuzzCase {
  std::uint64_t case_seed = 0;  ///< the seed this case was derived from

  // Topology.
  GraphFamily family = GraphFamily::kGnp;
  graph::NodeId n = 8;      ///< target node count (families may adjust)
  double p = 0.1;           ///< gnp edge prob / watts_strogatz beta
  graph::NodeId aux = 1;    ///< attach / degree / rows / cliques / k_nearest
  double avg_degree = 6.0;  ///< UDG families: target average degree
  std::uint64_t graph_seed = 1;  ///< randomness of the generator itself

  // Demands.
  std::int32_t k = 1;            ///< max (uniform_demands) demand level
  bool uniform_demand = true;    ///< false: per-node demand in [1, k]

  // Algorithm parameters.
  int t = 2;                     ///< Algorithm 1 trade-off parameter
  std::uint64_t algo_seed = 1;   ///< network / mirror seed

  // Schedule exploration.
  int threads = 1;               ///< parallel engine width to cross-check
  int max_delay = 8;             ///< synchronizer latency: 1..max_delay rounds
  std::uint64_t delay_seed = 1;  ///< synchronizer latency randomness
  double loss = 0.0;             ///< message-loss probability

  // Channel impairment beyond iid loss (sim/channel.h); all default to a
  // clean channel so pre-existing case lines shrink naturally.
  double dup = 0.0;              ///< per-delivery duplication probability
  double reorder = 0.0;          ///< per-delivery reorder probability
  int reorder_delay = 2;         ///< max extra rounds a delayed copy waits
  double burst = 0.0;            ///< Gilbert–Elliott burst-state loss
  double burst_in = 0.0;         ///< per-round good→burst probability
  double burst_out = 0.5;        ///< per-round burst→good probability
  double asym = 0.0;             ///< directed-link loss asymmetry in [0, 1]
  bool run_lossy_sync = false;   ///< α-synchronizer over this channel

  // Fault process.
  FaultKind fault_kind = FaultKind::kNone;
  double fault_rate = 0.0;       ///< iid / churn per-round crash probability
  graph::NodeId fault_count = 0; ///< targeted: victims; region: unused
  std::uint64_t fault_seed = 1;
  std::int64_t horizon = 20;     ///< rounds the fault plan spans

  // Dynamic churn: a seed-pure mutation trace replayed through
  // DynamicWorld + IncrementalMaintainer and audited by the DynamicOracle
  // (testing/dynamic.h). The trace itself is a pure function of
  // (mutation_seed, mutations, mutation_batch, instance), drawn
  // per-mutation in order, so truncating `mutations` yields an exact
  // prefix — that is what makes trace shrinking sound. Defaults mean
  // "off", so pre-existing case lines parse and shrink unchanged.
  bool run_dynamic = false;
  std::int32_t mutations = 0;      ///< trace length
  std::int32_t mutation_batch = 1; ///< mutations applied per batch (>= 1)
  std::uint64_t mutation_seed = 1; ///< trace randomness

  // Which optional invariant suites this case runs (the mandatory LP +
  // rounding battery always runs). Drawn as random toggles so a long fuzz
  // run amortizes the expensive oracles over the whole campaign.
  bool run_differential = true;   ///< mirror vs distributed vs parallel
  bool run_async = false;         ///< α-synchronizer schedule independence
  bool run_small_oracles = false; ///< exact / greedy cross-checks
  bool run_obs = false;           ///< observability-plane consistency

  friend bool operator==(const FuzzCase&, const FuzzCase&) = default;
};

/// A materialized case: the concrete topology plus the (feasible, clamped)
/// demand vector the invariants run against.
struct Instance {
  graph::Graph g;               ///< used when !has_udg
  geom::UnitDiskGraph udg;      ///< used when has_udg (graph lives inside)
  bool has_udg = false;
  domination::Demands demands;  ///< clamped to feasibility, size = n

  [[nodiscard]] const graph::Graph& graph() const noexcept {
    return has_udg ? udg.graph : g;
  }
};

/// Derives the case for `case_seed` — a pure function of (case_seed,
/// config); equal inputs yield equal cases.
[[nodiscard]] FuzzCase generate_case(std::uint64_t case_seed,
                                     const FuzzConfig& config = {});

/// Case seed of campaign case `index` under root seed `seed` (the stream
/// the runner and the CLI both use, so any reported case is replayable from
/// its seed alone).
[[nodiscard]] std::uint64_t case_seed_of(std::uint64_t root_seed,
                                         std::int64_t index);

/// Builds the concrete instance a case describes. Family parameters are
/// defensively clamped to valid ranges so that *any* field mutation the
/// shrinker performs still yields a well-formed instance. Deterministic.
[[nodiscard]] Instance materialize(const FuzzCase& c);

/// The channel mix a case describes, clamped into validity (same
/// shrinker-robust philosophy as materialize); impaired() == false iff the
/// case carries no link impairment at all.
[[nodiscard]] sim::ChannelOptions channel_from_case(const FuzzCase& c);

/// Human-readable family name ("gnp", "udg_uniform", ...).
[[nodiscard]] const char* family_name(GraphFamily family);

/// Serializes a case as a single "key=value key=value ..." line carrying
/// full double precision; parse_fuzz_case() inverts it exactly.
[[nodiscard]] std::string to_string(const FuzzCase& c);

/// Parses a line produced by to_string(). Throws std::invalid_argument on
/// malformed input, unknown keys, or an integer field outside its domain:
/// the generator's range where it draws from constants (k, t, aux, horizon,
/// mutations, mutation_batch), threads in [1, kFuzzMaxThreads], n in
/// [1, 2^31) and fault_count in [0, 2^31) (fault plans clamp it to n), and
/// max_delay and reorder_delay in [1, INT_MAX], the channel's delay type.
[[nodiscard]] FuzzCase parse_fuzz_case(const std::string& line);

}  // namespace ftc::testing
