#include "obs/trace.h"

#include <algorithm>
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

Trace::Trace(Options options) : options_(options) {
  assert(options_.capacity >= 1);
  // A small ring is allocated whole here, so emitting into it never
  // allocates; a larger one grows on demand up to its capacity.
  ring_.reserve(std::min<std::size_t>(options_.capacity, 1024));
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

void Trace::emit(const TraceEvent& e) {
  if (!enabled(e.category, e.severity)) return;
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
  // The display clock is the logical one: round r sits at r ms (ts is in
  // µs), and events of one round keep their emission order in the file.
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  const auto evs = events();
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const TraceEvent& e = evs[i];
    const long long tid = e.node >= 0 ? static_cast<long long>(e.node) + 1 : 0;
    os << "{\"name\":\"" << name(e.name) << "\",\"cat\":\""
       << category_name(e.category)
       << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" << tid
       << ",\"ts\":" << e.round * 1000 << ",\"args\":{\"round\":" << e.round
       << ",\"sev\":\"" << severity_name(e.severity) << "\",\"a0\":" << e.a0
       << ",\"a1\":" << e.a1 << "}}";
    os << (i + 1 < evs.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

}  // namespace ftc::obs
