#include "util/csv.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace ftc::util {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Each test writes its own file, named after the test and the process, so
/// tests run side by side (ctest -j starts one process per test) never
/// write or delete each other's file.
class CsvWriterTest : public ::testing::Test {
 protected:
  std::string path_ =
      ::testing::TempDir() + "/ftc_csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid()) + ".csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST(CsvEscape, PlainCellUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscape, CommaTriggersQuoting) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
}

TEST(CsvEscape, QuotesAreDoubled) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscape, NewlineTriggersQuoting) {
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

TEST_F(CsvWriterTest, WritesHeaderAndRows) {
  {
    CsvWriter w(path_, {"n", "ratio"});
    w.write_row({"10", "1.5"});
    w.write_row({"20", "1.7"});
  }
  EXPECT_EQ(read_file(path_), "n,ratio\n10,1.5\n20,1.7\n");
}

TEST_F(CsvWriterTest, EscapesCells) {
  {
    CsvWriter w(path_, {"text"});
    w.write_row({"a,b"});
  }
  EXPECT_EQ(read_file(path_), "text\n\"a,b\"\n");
}

TEST(CsvWriter, DefaultConstructedIsNotOpen) {
  CsvWriter w;
  EXPECT_FALSE(w.is_open());
  w.write_row({"ignored"});  // must not crash
}

TEST(CsvWriter, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_zzz/file.csv", {"a"}),
               std::runtime_error);
}

TEST(CsvParse, PlainRecord) {
  std::size_t pos = 0;
  EXPECT_EQ(parse_csv_record("a,b,c", pos),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(pos, 5u);
}

TEST(CsvParse, EmptyCellsPreserved) {
  std::size_t pos = 0;
  EXPECT_EQ(parse_csv_record(",a,", pos),
            (std::vector<std::string>{"", "a", ""}));
}

TEST(CsvParse, QuotedCellWithCommaQuoteAndNewline) {
  std::size_t pos = 0;
  EXPECT_EQ(parse_csv_record("\"a,b\",\"say \"\"hi\"\"\",\"x\ny\"", pos),
            (std::vector<std::string>{"a,b", "say \"hi\"", "x\ny"}));
}

TEST(CsvParse, CrLfTerminator) {
  std::size_t pos = 0;
  const std::string text = "a,b\r\nc,d\n";
  EXPECT_EQ(parse_csv_record(text, pos),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(parse_csv_record(text, pos),
            (std::vector<std::string>{"c", "d"}));
  EXPECT_EQ(pos, text.size());
}

TEST(CsvParse, UnterminatedQuoteThrows) {
  std::size_t pos = 0;
  EXPECT_THROW((void)parse_csv_record("\"oops", pos), std::invalid_argument);
}

TEST(CsvParse, DataAfterClosingQuoteThrows) {
  std::size_t pos = 0;
  EXPECT_THROW((void)parse_csv_record("\"a\"b,c", pos),
               std::invalid_argument);
}

TEST(CsvParse, WholeDocumentIgnoresTrailingNewline) {
  EXPECT_EQ(parse_csv("h\n1\n2\n"),
            (std::vector<std::vector<std::string>>{{"h"}, {"1"}, {"2"}}));
  EXPECT_TRUE(parse_csv("").empty());
}

// Round-trip: every cell the writer can emit must come back verbatim
// through the parser, including the adversarial ones.
TEST_F(CsvWriterTest, RoundTripsThroughParser) {
  const std::vector<std::vector<std::string>> rows = {
      {"n", "label", "note"},
      {"1", "plain", ""},
      {"2", "comma,inside", "quote\"inside"},
      {"3", "line\nbreak", "\r\nwindows"},
      {"4", "\"fully quoted\"", ",\",\n\","},
  };
  {
    CsvWriter w(path_, rows[0]);
    for (std::size_t i = 1; i < rows.size(); ++i) w.write_row(rows[i]);
  }
  EXPECT_EQ(parse_csv(read_file(path_)), rows);
}

TEST(CsvParse, EscapeParseIsIdentityOnSingleCells) {
  for (const std::string cell :
       {"", "plain", "a,b", "\"", "\"\"", "a\nb", "a\r\nb", "trailing\"",
        ",,,", "\n"}) {
    std::size_t pos = 0;
    const std::string escaped = csv_escape(cell);
    EXPECT_EQ(parse_csv_record(escaped, pos),
              std::vector<std::string>{cell})
        << "cell: " << cell;
    EXPECT_EQ(pos, escaped.size());
  }
}

}  // namespace
}  // namespace ftc::util
