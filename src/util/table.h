// Formatted ASCII table output for benchmark harnesses.
//
// Every bench binary prints its experiment as a table whose rows mirror the
// series the paper's claims describe. Cells are added row by row; the table
// computes column widths and renders with an aligned header and rule lines.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace ftc::util {

/// A simple monospace table builder.
///
/// Usage:
///   Table t({"n", "ratio"});
///   t.add_row({"100", "1.52"});
///   t.print(std::cout);
class Table {
 public:
  /// Creates a table with the given header cells. The first column (the
  /// row label) is left aligned; every other column is right aligned.
  explicit Table(std::vector<std::string> header);

  /// Appends one row. The row may have fewer cells than the header (missing
  /// cells render empty) but not more.
  void add_row(std::vector<std::string> cells);

  /// Appends a horizontal rule between the rows added before and after.
  void add_rule();

  /// Renders the table to `os`, with an optional title line above it.
  void print(std::ostream& os, const std::string& title = "") const;

 private:
  std::vector<std::string> header_;
  // A row with the special sentinel {kRuleSentinel} renders as a rule.
  std::vector<std::vector<std::string>> rows_;
  static const std::string kRuleSentinel;
};

/// Formats a double with `precision` digits after the decimal point.
[[nodiscard]] std::string fmt(double value, int precision = 3);

/// Formats an integral value in decimal.
[[nodiscard]] std::string fmt(long long value);
[[nodiscard]] std::string fmt(unsigned long long value);
[[nodiscard]] std::string fmt(long value);
[[nodiscard]] std::string fmt(unsigned long value);
[[nodiscard]] std::string fmt(int value);
[[nodiscard]] std::string fmt(unsigned int value);

}  // namespace ftc::util
