// Tests for util/strings.
#include "util/strings.hpp"

#include <gtest/gtest.h>

namespace upin::util {
namespace {

TEST(Split, BasicFields) {
  EXPECT_EQ(split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(split(",a,,b,", ','),
            (std::vector<std::string>{"", "a", "", "b", ""}));
}

TEST(Split, NoSeparator) {
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Split, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Trim, PreservesInnerWhitespace) {
  EXPECT_EQ(trim(" a b "), "a b");
}

TEST(Join, WithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({"solo"}, ","), "solo");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(starts_with("16-ffaa:0:1002", "16-"));
  EXPECT_FALSE(starts_with("16", "16-"));
  EXPECT_TRUE(ends_with("150Mbps", "Mbps"));
  EXPECT_FALSE(ends_with("Mb", "Mbps"));
  EXPECT_TRUE(ends_with("x", ""));
}

TEST(ParseInt, ValidAndInvalid) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-17"), -17);
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int(" 12").has_value());
  EXPECT_FALSE(parse_int("1.5").has_value());
}

TEST(ParseUint, DecimalAndHex) {
  EXPECT_EQ(parse_uint("255"), 255u);
  EXPECT_EQ(parse_uint("ff", 16), 255u);
  EXPECT_EQ(parse_uint("ffaa", 16), 0xffaau);
  EXPECT_FALSE(parse_uint("-1").has_value());
  EXPECT_FALSE(parse_uint("g", 16).has_value());
}

TEST(ParseDouble, ValidAndInvalid) {
  EXPECT_DOUBLE_EQ(*parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*parse_double("-1e3"), -1000.0);
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(Format, PrintfSemantics) {
  EXPECT_EQ(format("%d_%s", 2, "15"), "2_15");
  EXPECT_EQ(format("%.2f", 3.14159), "3.14");
  EXPECT_EQ(format("nothing"), "nothing");
}

}  // namespace
}  // namespace upin::util
