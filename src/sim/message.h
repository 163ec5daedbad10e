// Messages for the synchronous message-passing model (paper Section 3).
//
// The paper restricts messages to O(log n) bits, i.e. a constant number of
// "words" where one word holds a node identifier, a bounded counter, or a
// quantized numeric value. We model a message as a short sequence of 64-bit
// words and have the simulator account for the maximum words-per-message, so
// the experiments can verify each algorithm's O(log n)-bits claim (a
// constant word count).
//
// Payload storage is owned by the network, not by the Message: the
// synchronous engine writes every payload once into a per-round arena and
// hands processes WordSpan views into it (broadcasts share one payload
// across all receivers). A Message is therefore only valid for the duration
// of the `on_round()` call that delivered it.
//
// A Message is one 16-byte inbox slot: the payload pointer, a 32-bit length
// (the engine already caps arena offsets and lengths at uint32) and the
// sender id packed into the view's tail padding. The inbox store holds 2m
// slots, so the slot size sets both its footprint and the bytes every
// delivery pass and inbox walk moves per message.
#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "graph/graph.h"

namespace ftc::sim {

/// One word of payload: models O(log n) bits.
using Word = std::int64_t;

/// Non-owning view of a message payload (a span with vector-flavored
/// accessors, so process code written against std::vector<Word> still
/// compiles). The referenced words live in the network's round arena.
class WordSpan {
 public:
  constexpr WordSpan() noexcept = default;
  constexpr WordSpan(const Word* data, std::size_t size) noexcept
      : data_(data), size_(static_cast<std::uint32_t>(size)) {
    assert(size <= std::numeric_limits<std::uint32_t>::max());
  }
  explicit WordSpan(const std::vector<Word>& words) noexcept
      : WordSpan(words.data(), words.size()) {}
  // A view over a temporary vector would dangle as soon as the full
  // expression ends; force callers to bind to an lvalue they keep alive.
  explicit WordSpan(std::vector<Word>&&) = delete;

  [[nodiscard]] constexpr std::size_t size() const noexcept { return size_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] constexpr const Word* data() const noexcept { return data_; }
  [[nodiscard]] constexpr const Word* begin() const noexcept { return data_; }
  [[nodiscard]] constexpr const Word* end() const noexcept {
    return data_ + size_;
  }
  [[nodiscard]] constexpr Word operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return data_[i];
  }
  /// Bounds-checked access, matching std::vector::at.
  [[nodiscard]] Word at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("WordSpan::at");
    return data_[i];
  }
  [[nodiscard]] Word front() const noexcept { return (*this)[0]; }
  [[nodiscard]] Word back() const noexcept { return (*this)[size_ - 1]; }

 private:
  const Word* data_ = nullptr;
  std::uint32_t size_ = 0;
};

/// A delivered message. `from` is filled in by the network, not the sender.
/// Valid only during the on_round() call it was delivered to (the payload
/// view points into the network's round arena). `from` sits in the tail
/// padding of `words` ([[no_unique_address]]), so a slot is 16 bytes.
struct Message {
  [[no_unique_address]] WordSpan words;
  graph::NodeId from = -1;
};
static_assert(sizeof(Message) == 16, "an inbox slot is 16 bytes");

/// Fixed-point encoding for fractional values carried in messages.
///
/// Algorithm 1 exchanges x-values in [0, 1 + (Δ+1)^{-q/t}]; a 2^-40
/// fixed-point representation keeps quantization error far below the 1e-9
/// feasibility epsilon used by the checkers while still fitting a word
/// (log n bits in any realistic deployment; the paper's O(log n) budget
/// allows any polynomially bounded value).
inline constexpr double kFixedPointScale = 1099511627776.0;  // 2^40

/// Quantizes a real to a fixed-point word: std::llround(value · 2^40),
/// bit for bit, without the libm call on the hot path.
///
/// For |s| < 2^63 the cast truncates s toward zero without UB, and
/// (double)i is exactly trunc(s), so f = s − (double)i is the exact
/// fraction (Sterbenz: trunc(s) lies within a factor 2 of s once |s| ≥ 1,
/// and is 0 below). Adding ±1 when |f| ≥ 0.5 is llround's round half away
/// from zero, and cannot overflow: at |s| ≥ 2^52 every double is an
/// integer, so f = 0. NaN and |s| ≥ 2^63 take libm's own answer.
[[nodiscard]] inline Word encode_fixed(double value) noexcept {
  const double s = value * kFixedPointScale;
  if (!(std::fabs(s) < 0x1p63)) [[unlikely]] {
    return static_cast<Word>(std::llround(s));
  }
  const auto i = static_cast<Word>(s);
  const double f = s - static_cast<double>(i);
  return i + static_cast<Word>(f >= 0.5) - static_cast<Word>(f <= -0.5);
}

/// Inverse of encode_fixed.
[[nodiscard]] inline double decode_fixed(Word word) noexcept {
  return static_cast<double>(word) / kFixedPointScale;
}

}  // namespace ftc::sim
