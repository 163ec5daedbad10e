// The benchmark's five workloads. Each one owns its generated input and
// drives one of the paper's pipelines through the library's public API:
//
//   ingest()  program-side construction from the generated input (setup_s)
//   solve()   the pipeline from ingested input to output set (solve_s)
//   verify()  the benchmark's correctness checks (outside both timings)
//   traced()  one extra rep with spans around every layer call, for the
//             per-layer metrics
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spans.h"

namespace ftcbench {

/// Verified operations of one rep and how many of them failed.
struct Check {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void expect(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  Check& operator+=(const Check& o) {
    attempted += o.attempted;
    failed += o.failed;
    return *this;
  }
};

/// What the last solve produced, for the end-to-end counts.
struct Outcome {
  double set_size = 0.0;    ///< output dominating set size
  double population = 0.0;  ///< n, or live nodes at the end of a churn rep
  std::int64_t rounds = 0;     ///< simulated rounds (0 without a network)
  std::int64_t msg_words = 0;  ///< simulated payload words (0 likewise)
};

/// Per-layer metric values by name; names and units in layer_metrics().
using LayerValues = std::map<std::string, double>;

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run reports, for every workload (0 on
/// workloads that leave the layer idle). Times attributed to a layer are
/// shares of the traced span they sit in, so an idle layer reads 0 rather
/// than a time that never changes.
[[nodiscard]] const std::vector<LayerMetric>& layer_metrics();

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Worker threads the solve uses.
  [[nodiscard]] virtual int threads() const = 0;
  /// The workload's parameters as a JSON object.
  [[nodiscard]] virtual std::string config_json() const = 0;
  /// Fingerprint of every generated input, hex.
  [[nodiscard]] const std::string& fingerprint() const { return fingerprint_; }

  virtual void ingest() = 0;
  /// Static workloads leave `op_seconds` alone (the solve is the
  /// operation); churn workloads append one latency per batch.
  virtual void solve(std::vector<double>& op_seconds) = 0;
  /// Checks the last solve's output; with `against_reference`, also
  /// checks it bitwise against the library's reference path.
  [[nodiscard]] virtual Check verify(bool against_reference) = 0;

  /// Work items per solve: nodes for a static solve, mutations for churn.
  [[nodiscard]] virtual double items() const = 0;
  [[nodiscard]] virtual Outcome outcome() const = 0;

  /// One traced rep of ingest, solve and verify. Fills the per-layer
  /// metrics it can measure and checks that the traced output is bitwise
  /// equal to the last untraced one. The caller adds trace.* and obs.*.
  [[nodiscard]] virtual Check traced(Spans& spans, LayerValues& out) = 0;

  /// PerfPlane JSONL of the traced rep (empty without a PerfPlane).
  [[nodiscard]] const std::string& perf_jsonl() const { return perf_jsonl_; }

 protected:
  std::string fingerprint_;
  std::string perf_jsonl_;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Generates the workload's input from `seed`. `smoke` selects a tiny
/// configuration that finishes in about a second. Returns nullptr for an
/// unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed,
                                                      bool smoke);

}  // namespace ftcbench
