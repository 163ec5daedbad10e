#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace ftc::util {
namespace {

TEST(Table, HeaderOnlyRenders) {
  Table t({"a", "b"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| a"), std::string::npos);
  EXPECT_NE(out.find("b |"), std::string::npos);
}

TEST(Table, RowCellsAppear) {
  Table t({"name", "value"});
  t.add_row({"alpha", "42"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  // The missing cells render empty, so the row spans all three columns.
  EXPECT_NE(t.to_string().find("| x |   |   |"), std::string::npos);
}

TEST(Table, RuleNotCountedAsRow) {
  Table t({"a"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  // The added rule renders as a rule line, not as an empty data row.
  EXPECT_EQ(t.to_string(),
            "+---+\n| a |\n+---+\n| 1 |\n+---+\n| 2 |\n+---+\n");
}

TEST(Table, TitleAppearsFirst) {
  Table t({"a"});
  const std::string out = t.to_string("My Title");
  EXPECT_EQ(out.rfind("My Title", 0), 0u);
}

TEST(Table, ColumnsAlignByWidth) {
  Table t({"n", "x"});
  t.add_row({"1", "short"});
  t.add_row({"100000", "y"});
  std::istringstream lines(t.to_string());
  std::string line;
  std::size_t width = 0;
  bool first = true;
  while (std::getline(lines, line)) {
    if (first) {
      width = line.size();
      first = false;
    } else {
      EXPECT_EQ(line.size(), width) << "misaligned line: " << line;
    }
  }
}

TEST(Table, LeftAlignDefault) {
  Table t({"label", "num"});
  t.add_row({"ab", "1"});
  const std::string out = t.to_string();
  // Label column is left aligned: "ab" followed by padding spaces.
  EXPECT_NE(out.find("| ab "), std::string::npos);
}

TEST(Fmt, DoublesUsePrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 4), "3.1416");
  EXPECT_EQ(fmt(1.0, 0), "1");
}

TEST(Fmt, Integers) {
  EXPECT_EQ(fmt(42), "42");
  EXPECT_EQ(fmt(static_cast<long long>(-7)), "-7");
  EXPECT_EQ(fmt(std::size_t{9}), "9");
}

}  // namespace
}  // namespace ftc::util
