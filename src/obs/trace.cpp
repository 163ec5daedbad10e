#include "obs/trace.h"

#include <cassert>
#include <ostream>

namespace ftc::obs {

namespace {

constexpr std::string_view kCategoryNames[kCategoryCount] = {
    "engine", "message", "fault", "detector", "repair", "algo", "user"};

constexpr std::string_view kSeverityNames[4] = {"debug", "info", "warn",
                                                "error"};

}  // namespace

std::string_view category_name(Category c) noexcept {
  const auto i = static_cast<std::size_t>(c);
  assert(i < kCategoryCount);
  return kCategoryNames[i];
}

bool parse_category(std::string_view name, Category& out) noexcept {
  for (int i = 0; i < kCategoryCount; ++i) {
    if (name == kCategoryNames[i]) {
      out = static_cast<Category>(i);
      return true;
    }
  }
  return false;
}

std::string_view severity_name(Severity s) noexcept {
  const auto i = static_cast<std::size_t>(s);
  assert(i < 4);
  return kSeverityNames[i];
}

bool parse_severity(std::string_view name, Severity& out) noexcept {
  for (int i = 0; i < 4; ++i) {
    if (name == kSeverityNames[i]) {
      out = static_cast<Severity>(i);
      return true;
    }
  }
  return false;
}

Trace::Trace() : Trace(Options{}) {}

Trace::Trace(Options options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {
  assert(options_.capacity >= 1);
  names_.emplace_back("?");  // NameId 0: events emitted without interning
}

NameId Trace::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<NameId>(i);
  }
  names_.emplace_back(name);
  return static_cast<NameId>(names_.size() - 1);
}

const std::string& Trace::name(NameId id) const {
  assert(id < names_.size());
  return names_[id];
}

std::int64_t Trace::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Trace::push(const TraceEvent& e) {
  if (ring_.size() < options_.capacity) {
    ring_.push_back(e);
    ++count_;
    head_ = ring_.size() % options_.capacity;
    return;
  }
  // Full: overwrite the oldest event. Eviction depends only on the merged
  // event order, so it is as deterministic as the stream itself.
  ring_[head_] = e;
  head_ = (head_ + 1) % options_.capacity;
  ++dropped_;
}

void Trace::emit(TraceEvent e) {
  if (!enabled(e.category, e.severity)) return;
  if (e.wall_ns == 0) e.wall_ns = now_ns();
  push(e);
}

void Trace::finish_span(TraceEvent e) {
  if (e.dur_ns <= 0) {
    // Clamp so the span still renders, but make the fabrication visible:
    // a clamped duration means the clock could not resolve the interval.
    e.dur_ns = 1;
    ++clamped_spans_;
  }
  emit(e);
}

std::vector<TraceEvent> Trace::events() const {
  std::vector<TraceEvent> out;
  out.reserve(count_);
  if (count_ < options_.capacity || ring_.size() < options_.capacity) {
    out.assign(ring_.begin(), ring_.end());
    return out;
  }
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void Trace::export_jsonl(std::ostream& os) const {
  for (const TraceEvent& e : events()) {
    os << "{\"round\":" << e.round << ",\"node\":" << e.node << ",\"cat\":\""
       << category_name(e.category) << "\",\"sev\":\""
       << severity_name(e.severity) << "\",\"name\":\"" << name(e.name)
       << "\",\"a0\":" << e.a0 << ",\"a1\":" << e.a1 << "}\n";
  }
}

void Trace::export_chrome(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  const auto evs = events();
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const TraceEvent& e = evs[i];
    const double ts_us = static_cast<double>(e.wall_ns) / 1000.0;
    const long long tid = e.node >= 0 ? static_cast<long long>(e.node) + 1 : 0;
    os << "{\"name\":\"" << name(e.name) << "\",\"cat\":\""
       << category_name(e.category) << "\",\"ph\":\""
       << (e.dur_ns > 0 ? 'X' : 'i') << "\",\"pid\":0,\"tid\":" << tid
       << ",\"ts\":" << ts_us;
    if (e.dur_ns > 0) {
      os << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1000.0;
    } else {
      os << ",\"s\":\"t\"";  // instant scope: thread
    }
    os << ",\"args\":{\"round\":" << e.round << ",\"sev\":\""
       << severity_name(e.severity) << "\",\"a0\":" << e.a0
       << ",\"a1\":" << e.a1 << "}}";
    os << (i + 1 < evs.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

SpanTimer::SpanTimer(Trace* trace, Category category, Severity severity,
                     NameId name, std::int64_t round, std::int32_t node)
    : trace_(trace != nullptr && trace->enabled(category, severity) ? trace
                                                                    : nullptr) {
  if (trace_ == nullptr) return;
  event_.round = round;
  event_.node = node;
  event_.category = category;
  event_.severity = severity;
  event_.name = name;
  event_.wall_ns = trace_->now_ns();
}

SpanTimer::SpanTimer(SpanTimer&& other) noexcept
    : trace_(other.trace_), event_(other.event_) {
  other.trace_ = nullptr;
}

void SpanTimer::set_args(std::int64_t a0, std::int64_t a1) noexcept {
  event_.a0 = a0;
  event_.a1 = a1;
}

SpanTimer::~SpanTimer() {
  if (trace_ == nullptr) return;
  event_.dur_ns = trace_->now_ns() - event_.wall_ns;
  trace_->finish_span(event_);
}

}  // namespace ftc::obs
