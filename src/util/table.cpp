#include "util/table.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <ostream>

namespace ftc::util {

const std::string Table::kRuleSentinel = "\x01__rule__";

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  assert(cells.size() <= header_.size());
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

void Table::add_rule() { rows_.push_back({kRuleSentinel}); }

void Table::print(std::ostream& os, const std::string& title) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    if (!row.empty() && row[0] == kRuleSentinel) continue;
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto emit_cell = [&](const std::string& text, std::size_t c) {
    const std::size_t pad = widths[c] - text.size();
    if (c == 0) os << text << std::string(pad, ' ');
    else os << std::string(pad, ' ') << text;
  };
  auto emit_rule = [&] {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      os << (c == 0 ? "+-" : "-+-") << std::string(widths[c], '-');
    }
    os << (widths.empty() ? "+" : "-+") << '\n';
  };

  if (!title.empty()) os << title << '\n';
  emit_rule();
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << (c == 0 ? "| " : " | ");
    emit_cell(header_[c], c);
  }
  os << " |\n";
  emit_rule();
  for (const auto& row : rows_) {
    if (!row.empty() && row[0] == kRuleSentinel) {
      emit_rule();
      continue;
    }
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      emit_cell(row[c], c);
    }
    os << " |\n";
  }
  emit_rule();
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string fmt(long long value) { return std::to_string(value); }
std::string fmt(unsigned long long value) { return std::to_string(value); }
std::string fmt(long value) { return std::to_string(value); }
std::string fmt(unsigned long value) { return std::to_string(value); }
std::string fmt(int value) { return std::to_string(value); }
std::string fmt(unsigned int value) { return std::to_string(value); }

}  // namespace ftc::util
