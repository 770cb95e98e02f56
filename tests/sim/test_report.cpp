#include "sim/report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace resex::sim {
namespace {

TEST(FormatCell, Variants) {
  EXPECT_EQ(format_cell(Cell{std::monostate{}}), "");
  EXPECT_EQ(format_cell(Cell{std::int64_t{42}}), "42");
  EXPECT_EQ(format_cell(Cell{3.14159}, 2), "3.14");
  EXPECT_EQ(format_cell(Cell{std::string{"abc"}}), "abc");
}

TEST(Table, RejectsEmptyColumns) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RejectsWrongRowWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({Cell{std::int64_t{1}}}), std::invalid_argument);
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({Cell{std::string{"x"}}, Cell{std::int64_t{1}}});
  t.add_row({Cell{std::string{"longer"}}, Cell{std::int64_t{22}}});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, CsvBasic) {
  Table t({"a", "b"});
  t.add_row({Cell{std::int64_t{1}}, Cell{2.5}});
  std::ostringstream os;
  t.write_csv(os, 1);
  EXPECT_EQ(os.str(), "a,b\n1,2.5\n");
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"s"});
  t.add_row({Cell{std::string{"a,b"}}});
  t.add_row({Cell{std::string{"q\"uote"}}});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "s\n\"a,b\"\n\"q\"\"uote\"\n");
}

TEST(Table, RowAccessors) {
  Table t({"a"});
  t.add_row({Cell{std::int64_t{5}}});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(t.row(0).at(0)), 5);
  EXPECT_THROW((void)t.row(3), std::out_of_range);
}

TEST(FormatDouble, ShortestRoundTrip) {
  EXPECT_EQ(format_double(100.0), "100");
  EXPECT_EQ(format_double(3.125), "3.125");
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(-2.5), "-2.5");
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape("\x01"), "\\u0001");
}

TEST(PrintHeading, ContainsTitle) {
  std::ostringstream os;
  print_heading(os, "Figure 1");
  EXPECT_NE(os.str().find("== Figure 1 =="), std::string::npos);
}

}  // namespace
}  // namespace resex::sim
