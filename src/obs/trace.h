// Structured trace layer for the observability plane (DESIGN.md §7).
//
// Events are fixed-size binary records held in a ring buffer (oldest events
// are evicted once capacity is reached; evictions are counted). Emission is
// filtered by severity and a category bitmask, so an attached-but-quiet
// trace costs one predicate per candidate event.
//
// Determinism contract: an event carries two clocks.
//   * The logical clock — (round, emission order) — is fully determined by
//     the simulated execution. The trace itself is owner-thread only;
//     events from worker shards reach it through obs::Recorder staging,
//     folded at the round barrier in the order plane.h pins down.
//   * The wall clock — wall_ns / dur_ns, stamped from a steady clock — is
//     inherently nondeterministic and is confined to the Chrome exporter.
//
// export_jsonl() writes logical fields only and is therefore bitwise
// reproducible across thread counts and runs; export_chrome() writes the
// trace_event format (load in Perfetto / about:tracing) using wall time.
#pragma once

#include <chrono>
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
/// counts, phase indices) and must be deterministic quantities; wall_ns /
/// dur_ns never reach the JSONL stream (see file comment).
struct TraceEvent {
  std::int64_t round = 0;
  std::int32_t node = -1;  ///< -1 = engine-wide
  Category category = Category::kEngine;
  Severity severity = Severity::kInfo;
  NameId name = 0;
  std::int64_t a0 = 0;
  std::int64_t a1 = 0;
  std::int64_t wall_ns = 0;  ///< start, ns since trace construction
  std::int64_t dur_ns = 0;   ///< span duration; 0 = instant event
};

/// Ring-buffered event sink, owner-thread only (like obs::Registry). Worker
/// threads may call the const enabled() and now_ns() while staging.
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
  /// wall_ns is stamped here when the caller left it 0.
  void emit(TraceEvent e);

  /// Finishes a span event: a non-positive duration is clamped to 1 ns (so
  /// it still renders as a span) and counted in clamped_spans(). Called by
  /// ~SpanTimer; exposed so tests can drive the clamp path deterministically.
  void finish_span(TraceEvent e);

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::int64_t dropped() const noexcept { return dropped_; }
  /// Spans whose measured duration was <= 0 and was clamped to 1 ns. A
  /// wall-clock fact (clock resolution dependent), so it is reported via
  /// the perf JSONL summary, never the deterministic registry.
  [[nodiscard]] std::int64_t clamped_spans() const noexcept {
    return clamped_spans_;
  }
  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Deterministic structured log: one JSON object per line, logical fields
  /// only (round, node, cat, sev, name, a0, a1), in emission order.
  void export_jsonl(std::ostream& os) const;
  /// Chrome trace_event JSON (Perfetto / about:tracing). Spans render as
  /// complete ("X") events on tid = node + 1 (tid 0 = engine); instants as
  /// "i". Timestamps come from the wall clock.
  void export_chrome(std::ostream& os) const;

  /// Nanoseconds since construction (steady clock; callable from workers).
  [[nodiscard]] std::int64_t now_ns() const;

 private:
  void push(const TraceEvent& e);

  Options options_;
  std::vector<std::string> names_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< next write position
  std::size_t count_ = 0;
  std::int64_t dropped_ = 0;
  std::int64_t clamped_spans_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span: records construction→destruction as one complete event. The
/// wall-clock duration only ever reaches the Chrome exporter; a0/a1 (via
/// set_args) must be deterministic. A SpanTimer built with a null trace, or
/// whose (category, severity) is filtered out, is a no-op. Owner thread
/// only, like the trace it records into.
class SpanTimer {
 public:
  SpanTimer() = default;
  SpanTimer(Trace* trace, Category category, Severity severity, NameId name,
            std::int64_t round, std::int32_t node = -1);
  SpanTimer(SpanTimer&& other) noexcept;
  SpanTimer& operator=(SpanTimer&&) = delete;
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;
  ~SpanTimer();

  /// Attaches deterministic arguments to the span event.
  void set_args(std::int64_t a0, std::int64_t a1 = 0) noexcept;

 private:
  Trace* trace_ = nullptr;
  TraceEvent event_;
};

}  // namespace ftc::obs
