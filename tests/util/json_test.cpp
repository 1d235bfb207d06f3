// Tests for util/json: value model, parser, writer, path access.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <variant>

namespace upin::util {
namespace {

// ---------------------------------------------------------------- value model

TEST(JsonValue, DefaultIsNull) {
  const Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_STREQ(v.type_name(), "null");
}

TEST(JsonValue, BoolRoundTrip) {
  const Value v(true);
  ASSERT_TRUE(v.is_bool());
  EXPECT_TRUE(v.as_bool());
  EXPECT_FALSE(Value(false).as_bool());
}

TEST(JsonValue, IntRoundTrip) {
  const Value v(std::int64_t{-42});
  ASSERT_TRUE(v.is_int());
  EXPECT_TRUE(v.is_number());
  EXPECT_EQ(v.as_int(), -42);
  EXPECT_DOUBLE_EQ(v.as_double(), -42.0);
}

TEST(JsonValue, DoubleRoundTrip) {
  const Value v(2.5);
  ASSERT_TRUE(v.is_double());
  EXPECT_TRUE(v.is_number());
  EXPECT_DOUBLE_EQ(v.as_double(), 2.5);
}

TEST(JsonValue, StringRoundTrip) {
  const Value v("hello");
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.as_string(), "hello");
}

TEST(JsonValue, NumericEqualityAcrossRepresentations) {
  EXPECT_EQ(Value(1), Value(1.0));
  EXPECT_EQ(Value(0), Value(0.0));
  EXPECT_FALSE(Value(1) == Value(1.5));
}

TEST(JsonValue, StringNeverEqualsNumber) {
  EXPECT_FALSE(Value("1") == Value(1));
}

TEST(JsonValue, ArrayBuilder) {
  const Value v = Value::array({1, "two", 3.0});
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.as_array().size(), 3u);
  EXPECT_EQ(v.as_array()[1].as_string(), "two");
}

TEST(JsonValue, ObjectBuilderPreservesInsertionOrder) {
  const Value v = Value::object({{"z", 1}, {"a", 2}, {"m", 3}});
  ASSERT_TRUE(v.is_object());
  std::vector<std::string> keys;
  for (const auto& [key, unused] : v.as_object()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m"}));
}

TEST(JsonValue, ObjectEqualityIsOrderInsensitive) {
  const Value a = Value::object({{"x", 1}, {"y", 2}});
  const Value b = Value::object({{"y", 2}, {"x", 1}});
  EXPECT_EQ(a, b);
}

TEST(JsonValue, ObjectInequalityOnValue) {
  const Value a = Value::object({{"x", 1}});
  const Value b = Value::object({{"x", 2}});
  EXPECT_FALSE(a == b);
}

TEST(JsonValue, TryAccessorsReturnNulloptOnMismatch) {
  const Value v("text");
  EXPECT_FALSE(v.try_bool().has_value());
  EXPECT_FALSE(v.try_int().has_value());
  EXPECT_FALSE(v.try_double().has_value());
  ASSERT_TRUE(v.try_string().has_value());
  EXPECT_EQ(*v.try_string(), "text");
}

// The inline as_* accessors keep std::get's checked access: a mismatch
// asserts, and where assertions are compiled out it still throws.
TEST(JsonValue, CheckedAccessorsRejectTheWrongType) {
  Value text("text");
  const Value& read_only = text;
#ifdef NDEBUG
  EXPECT_THROW((void)read_only.as_bool(), std::bad_variant_access);
  EXPECT_THROW((void)read_only.as_int(), std::bad_variant_access);
  EXPECT_THROW((void)read_only.as_double(), std::bad_variant_access);
  EXPECT_THROW((void)read_only.as_array(), std::bad_variant_access);
  EXPECT_THROW((void)read_only.as_object(), std::bad_variant_access);
  EXPECT_THROW((void)text.as_array(), std::bad_variant_access);
  EXPECT_THROW((void)text.as_object(), std::bad_variant_access);
  EXPECT_THROW((void)Value(1).as_string(), std::bad_variant_access);
#else
  EXPECT_DEATH((void)read_only.as_int(), "");
  EXPECT_DEATH((void)read_only.as_object(), "");
  EXPECT_DEATH((void)Value(1).as_string(), "");
#endif
}

TEST(JsonValue, TryDoubleAcceptsInt) {
  EXPECT_DOUBLE_EQ(*Value(7).try_double(), 7.0);
}

TEST(JsonValue, GetOnNonObjectIsNull) {
  EXPECT_EQ(Value(3).get("x"), nullptr);
  EXPECT_EQ(Value().get("x"), nullptr);
}

TEST(JsonValue, GetPathTraversesNesting) {
  Value v;
  v["stats"]["latency_ms"] = Value(12.5);
  const Value* found = v.get_path("stats.latency_ms");
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->as_double(), 12.5);
}

TEST(JsonValue, GetPathMissingIntermediate) {
  Value v;
  v["stats"] = Value(1);
  EXPECT_EQ(v.get_path("stats.latency_ms"), nullptr);
  EXPECT_EQ(v.get_path("nothing.at.all"), nullptr);
}

TEST(JsonValue, SubscriptConvertsNullToObject) {
  Value v;
  v["a"] = Value(1);
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get("a")->as_int(), 1);
}

TEST(JsonValue, SubscriptOverwrites) {
  Value v;
  v["a"] = Value(1);
  v["a"] = Value(2);
  EXPECT_EQ(v.get("a")->as_int(), 2);
  EXPECT_EQ(v.as_object().size(), 1u);
}

// ------------------------------------------------------------------ JsonObject

TEST(JsonObject, SetAndFind) {
  JsonObject object;
  object.set("k", Value(5));
  ASSERT_TRUE(object.contains("k"));
  EXPECT_EQ(object.find("k")->as_int(), 5);
  EXPECT_EQ(object.find("missing"), nullptr);
}

TEST(JsonObject, EraseRemovesKey) {
  JsonObject object;
  object.set("k", Value(5));
  EXPECT_TRUE(object.erase("k"));
  EXPECT_FALSE(object.erase("k"));
  EXPECT_TRUE(object.empty());
}

// --------------------------------------------------------------------- writer

TEST(JsonWriter, CompactPrimitives) {
  EXPECT_EQ(Value().dump(), "null");
  EXPECT_EQ(Value(true).dump(), "true");
  EXPECT_EQ(Value(false).dump(), "false");
  EXPECT_EQ(Value(42).dump(), "42");
  EXPECT_EQ(Value("hi").dump(), "\"hi\"");
}

TEST(JsonWriter, DoubleAlwaysReparsesAsDouble) {
  const std::string text = Value(3.0).dump();
  const Value reparsed = Value::parse(text).value();
  EXPECT_TRUE(reparsed.is_double());
  EXPECT_DOUBLE_EQ(reparsed.as_double(), 3.0);
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(Value("a\"b").dump(), "\"a\\\"b\"");
  EXPECT_EQ(Value("line\nbreak").dump(), "\"line\\nbreak\"");
  EXPECT_EQ(Value(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(JsonWriter, PinsExactTextOfIntegersAndEscapes) {
  EXPECT_EQ(Value(std::numeric_limits<std::int64_t>::min()).dump(),
            "-9223372036854775808");
  EXPECT_EQ(Value(std::numeric_limits<std::int64_t>::max()).dump(),
            "9223372036854775807");
  EXPECT_EQ(Value(0).dump(), "0");
  EXPECT_EQ(Value(-1).dump(), "-1");

  std::string controls;
  for (char c = 0; c < 0x20; ++c) controls.push_back(c);
  controls.push_back('\x7f');
  EXPECT_EQ(Value(controls).dump(),
            "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
            "\\b\\t\\n\\u000b\\f\\r\\u000e\\u000f"
            "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
            "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
            "\x7f\"");
  EXPECT_EQ(Value("\"quoted\" back\\slash \\\"").dump(),
            R"("\"quoted\" back\\slash \\\"")");
  // Bytes >= 0x80 (UTF-8 here) pass through unescaped.
  EXPECT_EQ(Value("caf\xc3\xa9 \xe2\x82\xac \xff").dump(),
            "\"caf\xc3\xa9 \xe2\x82\xac \xff\"");
  // Escapes at both ends and between unescaped runs.
  EXPECT_EQ(Value("\nab\tcd\n").dump(), R"("\nab\tcd\n")");
  const Value object =
      Value::object({{"k\"ey", -7}, {"n", Value::array({INT64_C(-42), ""})}});
  EXPECT_EQ(object.dump(), R"({"k\"ey":-7,"n":[-42,""]})");
}

TEST(JsonWriter, CompactContainers) {
  const Value v = Value::object({{"a", Value::array({1, 2})}, {"b", "x"}});
  EXPECT_EQ(v.dump(), R"({"a":[1,2],"b":"x"})");
}

TEST(JsonWriter, EmptyContainers) {
  EXPECT_EQ(Value(Value::Array{}).dump(), "[]");
  EXPECT_EQ(Value(JsonObject{}).dump(), "{}");
}

TEST(JsonWriter, PrettyPrinting) {
  const Value v = Value::object({{"a", 1}});
  EXPECT_EQ(v.dump(2), "{\n  \"a\": 1\n}");
}

// --------------------------------------------------------------------- parser

TEST(JsonParser, ParsesPrimitives) {
  EXPECT_TRUE(Value::parse("null").value().is_null());
  EXPECT_TRUE(Value::parse("true").value().as_bool());
  EXPECT_FALSE(Value::parse("false").value().as_bool());
  EXPECT_EQ(Value::parse("-17").value().as_int(), -17);
  EXPECT_DOUBLE_EQ(Value::parse("2.75").value().as_double(), 2.75);
  EXPECT_EQ(Value::parse("\"s\"").value().as_string(), "s");
}

TEST(JsonParser, IntegerStaysInt) {
  const Value v = Value::parse("9007199254740993").value();
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), 9007199254740993LL);
}

TEST(JsonParser, ScientificNotation) {
  EXPECT_DOUBLE_EQ(Value::parse("1e3").value().as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(Value::parse("-2.5E-2").value().as_double(), -0.025);
}

TEST(JsonParser, NestedStructures) {
  const auto parsed =
      Value::parse(R"({"servers": [{"id": 1, "up": true}], "n": 2})");
  ASSERT_TRUE(parsed.ok());
  const Value& v = parsed.value();
  EXPECT_EQ(v.get_path("n")->as_int(), 2);
  EXPECT_TRUE(v.get("servers")->as_array()[0].get("up")->as_bool());
}

TEST(JsonParser, WhitespaceTolerant) {
  const auto parsed = Value::parse("  {\n\t\"a\" :\r [ 1 , 2 ]\n}  ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().get("a")->as_array().size(), 2u);
}

TEST(JsonParser, StringEscapes) {
  const auto parsed = Value::parse(R"("a\"b\\c\nd\teA")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().as_string(), "a\"b\\c\nd\teA");
}

TEST(JsonParser, UnicodeEscapeMultibyte) {
  // U+00E9 (é) -> two UTF-8 bytes; U+20AC (€) -> three.
  EXPECT_EQ(Value::parse(R"("é")").value().as_string(), "\xC3\xA9");
  EXPECT_EQ(Value::parse(R"("€")").value().as_string(), "\xE2\x82\xAC");
}

TEST(JsonParser, RejectsTrailingGarbage) {
  EXPECT_FALSE(Value::parse("1 2").ok());
  EXPECT_FALSE(Value::parse("{} x").ok());
}

TEST(JsonParser, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[", "\"unterminated", "{\"a\":}", "{\"a\" 1}", "[1,]",
        "{,}", "tru", "nul", "+1", "01x", "\"bad\\q\"", "--3", "-"}) {
    EXPECT_FALSE(Value::parse(bad).ok()) << "input: " << bad;
  }
}

TEST(JsonParser, RejectsBareMinusAndDot) {
  EXPECT_FALSE(Value::parse(".5").ok());
}

TEST(JsonParser, ErrorCarriesOffset) {
  const auto parsed = Value::parse("{\"a\": bad}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kParseError);
  EXPECT_NE(parsed.error().message.find("offset"), std::string::npos);
}

TEST(JsonParser, DuplicateKeysLastWins) {
  const auto parsed = Value::parse(R"({"a": 1, "a": 2})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().get("a")->as_int(), 2);
  EXPECT_EQ(parsed.value().as_object().size(), 1u);
}

TEST(JsonParser, DeeplyNestedArrays) {
  std::string text;
  for (int i = 0; i < 60; ++i) text += "[";
  text += "1";
  for (int i = 0; i < 60; ++i) text += "]";
  ASSERT_TRUE(Value::parse(text).ok());
}

TEST(JsonParser, RejectsAdversarialNestingDepth) {
  // Unbounded recursion would smash the stack; the parser caps depth.
  std::string bomb(100'000, '[');
  const auto parsed = Value::parse(bomb);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("nesting too deep"),
            std::string::npos);
  // Mixed container bomb too.
  std::string mixed;
  for (int i = 0; i < 50'000; ++i) mixed += R"({"a":[)";
  EXPECT_FALSE(Value::parse(mixed).ok());
}

// --------------------------------------------------------------- round trips

TEST(JsonRoundTrip, CompactAndPrettyAgree) {
  const auto original = Value::parse(
      R"({"_id":"2_15","isds":[16,17],"bw":{"up_64":4.1},"ok":true,"n":null})");
  ASSERT_TRUE(original.ok());
  const Value compact = Value::parse(original.value().dump()).value();
  const Value pretty = Value::parse(original.value().dump(4)).value();
  EXPECT_EQ(compact, original.value());
  EXPECT_EQ(pretty, original.value());
}

TEST(JsonRoundTrip, SpecialCharactersSurvive) {
  const Value original(std::string("tab\t nl\n quote\" back\\ unicode\xC3\xA9"));
  EXPECT_EQ(Value::parse(original.dump()).value(), original);
}

}  // namespace
}  // namespace upin::util
