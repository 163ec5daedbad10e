#include "spans.h"

#include <cassert>
#include <chrono>
#include <ostream>

namespace ftcbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t Spans::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.rep = rep_;
  const auto id = static_cast<std::int32_t>(spans_.size());
  open_.push_back(id);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return id;
}

void Spans::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  assert(!open_.empty() && open_.back() == id);
  open_.pop_back();
}

double Spans::seconds(std::int32_t id) const noexcept {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

double Spans::total_s(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double Spans::child_coverage(std::int32_t id) const {
  const Span& parent = spans_[static_cast<std::size_t>(id)];
  std::int64_t covered = 0;
  for (const Span& s : spans_) {
    if (s.parent == id) covered += s.end_ns - s.start_ns;
  }
  const std::int64_t total = parent.end_ns - parent.start_ns;
  return total > 0 ? static_cast<double>(covered) / static_cast<double>(total)
                   : 0.0;
}

void Spans::write_jsonl(std::ostream& os) const {
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"rep\":" << s.rep << ",\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns - t0
       << ",\"end_ns\":" << s.end_ns - t0 << "}\n";
  }
}

}  // namespace ftcbench
