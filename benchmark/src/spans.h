// In-memory span recorder for the traced rep.
//
// A span is (name, start, end, parent, rep) around one call into a library
// layer, recorded from the benchmark's side of the call. Spans stay in
// memory while the rep runs and are written out as JSONL afterwards, so
// recording costs two clock reads and one append.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

namespace ftcbench {

[[nodiscard]] std::int64_t now_ns() noexcept;

class Spans {
 public:
  struct Span {
    const char* name = "";  ///< string literal
    std::int32_t parent = -1;
    std::int32_t rep = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Closes the span it opened when it goes out of scope.
  class Scope {
   public:
    Scope(Spans& spans, const char* name) : spans_(spans), id_(spans.open(name)) {}
    ~Scope() { spans_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::int32_t id() const noexcept { return id_; }

   private:
    Spans& spans_;
    std::int32_t id_;
  };

  explicit Spans(std::int32_t rep) : rep_(rep) { spans_.reserve(1024); }

  /// Opens a span whose parent is the innermost open span.
  std::int32_t open(const char* name);
  void close(std::int32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] double seconds(std::int32_t id) const noexcept;

  /// Summed duration of every span called `name`, in seconds.
  [[nodiscard]] double total_s(std::string_view name) const;

  /// Share of span `id` covered by its direct children (they run one
  /// after another on one thread, so their durations add up).
  [[nodiscard]] double child_coverage(std::int32_t id) const;

  /// One JSON object per span, times relative to the first span's start.
  void write_jsonl(std::ostream& os) const;

 private:
  std::int32_t rep_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace ftcbench
