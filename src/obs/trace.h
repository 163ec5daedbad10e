// Structured trace layer for the observability plane (DESIGN.md §7).
//
// Events are fixed-size binary records held in a ring buffer (oldest events
// are evicted once capacity is reached; evictions are counted). Emission is
// filtered by severity and a category bitmask, so an attached-but-quiet
// trace costs one predicate per candidate event.
//
// Determinism contract: an event carries the logical clock only — (round,
// emission order) — which is fully determined by the simulated execution.
// The trace is owner-thread only; events from worker shards reach it
// through obs::Recorder staging, folded at the round barrier in the order
// plane.h pins down. Wall time never enters the trace: obs::PerfPlane is
// the one place it is kept (DESIGN.md §12).
//
// Both exports are therefore bitwise reproducible across thread counts and
// runs: export_jsonl() writes the structured log, export_chrome() the
// trace_event format (load in Perfetto / about:tracing) with every event an
// instant placed by its round.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ftc::obs {

/// Event categories, filterable as a bitmask.
enum class Category : std::uint8_t {
  kEngine = 0,   ///< round engine phases and per-round summaries
  kMessage = 1,  ///< message-plane details
  kFault = 2,    ///< crashes, recoveries, fault plans
  kDetector = 3, ///< failure-detector suspicions / refutations
  kRepair = 4,   ///< self-healing protocol activity
  kAlgo = 5,     ///< algorithm phase progress (LP, rounding, UDG)
  kUser = 6,     ///< application-defined events
};
inline constexpr int kCategoryCount = 7;

[[nodiscard]] std::string_view category_name(Category c) noexcept;
/// Parses one category name; returns false on an unknown name.
[[nodiscard]] bool parse_category(std::string_view name, Category& out) noexcept;
[[nodiscard]] constexpr std::uint32_t category_bit(Category c) noexcept {
  return 1u << static_cast<int>(c);
}
inline constexpr std::uint32_t kAllCategories = (1u << kCategoryCount) - 1;

enum class Severity : std::uint8_t { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

[[nodiscard]] std::string_view severity_name(Severity s) noexcept;
[[nodiscard]] bool parse_severity(std::string_view name, Severity& out) noexcept;

/// Interned event-name handle.
using NameId = std::uint16_t;

/// One trace record. `a0`/`a1` are event-defined arguments (node ids,
/// counts, phase indices) and must be deterministic quantities.
struct TraceEvent {
  std::int64_t round = 0;
  std::int32_t node = -1;  ///< -1 = engine-wide
  Category category = Category::kEngine;
  Severity severity = Severity::kInfo;
  NameId name = 0;
  std::int64_t a0 = 0;
  std::int64_t a1 = 0;
};

/// Ring-buffered event sink, owner-thread only (like obs::Registry). Worker
/// threads may call the const enabled() while staging.
class Trace {
 public:
  struct Options {
    std::size_t capacity = 1u << 18;  ///< max retained events
    Severity min_severity = Severity::kDebug;
    std::uint32_t category_mask = kAllCategories;
  };

  // Split instead of `Options options = {}`: GCC rejects a brace default
  // argument of a nested class with default member initializers (PR 96645).
  Trace();
  explicit Trace(Options options);

  /// Interns an event name (idempotent; sequential-only).
  NameId intern(std::string_view name);
  [[nodiscard]] const std::string& name(NameId id) const;

  [[nodiscard]] bool enabled(Category c, Severity s) const noexcept {
    return s >= options_.min_severity &&
           (options_.category_mask & category_bit(c)) != 0;
  }

  /// Appends an event (owner thread). Filtered events are dropped for free.
  void emit(const TraceEvent& e);

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::int64_t dropped() const noexcept { return dropped_; }
  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Deterministic structured log: one JSON object per line, logical fields
  /// only (round, node, cat, sev, name, a0, a1), in emission order.
  void export_jsonl(std::ostream& os) const;
  /// Chrome trace_event JSON (Perfetto / about:tracing): every event is an
  /// instant ("i") on tid = node + 1 (tid 0 = engine), at ts = round ms —
  /// one round is 1 ms of display time.
  void export_chrome(std::ostream& os) const;

 private:
  Options options_;
  std::vector<std::string> names_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< next write position
  std::size_t count_ = 0;
  std::int64_t dropped_ = 0;
};

}  // namespace ftc::obs
