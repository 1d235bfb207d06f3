// Tests for docdb/filter: operator semantics and value ordering.
#include "docdb/filter.hpp"

#include <gtest/gtest.h>

namespace upin::docdb {
namespace {

using util::Value;

Filter compile(const char* json) {
  const auto query = Value::parse(json);
  EXPECT_TRUE(query.ok()) << json;
  auto filter = Filter::compile(query.value());
  EXPECT_TRUE(filter.ok()) << json;
  return std::move(filter).value();
}

Document doc(const char* json) {
  auto parsed = Value::parse(json);
  EXPECT_TRUE(parsed.ok()) << json;
  return std::move(parsed).value();
}

TEST(Filter, EmptyQueryMatchesEverything) {
  const Filter f = compile("{}");
  EXPECT_TRUE(f.matches(doc(R"({"a": 1})")));
  EXPECT_TRUE(f.matches(doc("{}")));
}

TEST(Filter, MatchAllFactory) {
  EXPECT_TRUE(Filter::match_all().matches(doc(R"({"x": 9})")));
}

TEST(Filter, ImplicitEquality) {
  const Filter f = compile(R"({"server_id": 2})");
  EXPECT_TRUE(f.matches(doc(R"({"server_id": 2})")));
  EXPECT_FALSE(f.matches(doc(R"({"server_id": 3})")));
  EXPECT_FALSE(f.matches(doc("{}")));
}

TEST(Filter, EqualityNumericAcrossIntDouble) {
  const Filter f = compile(R"({"v": 2})");
  EXPECT_TRUE(f.matches(doc(R"({"v": 2.0})")));
}

TEST(Filter, EqualityOnStringsIsExact) {
  const Filter f = compile(R"({"status": "alive"})");
  EXPECT_TRUE(f.matches(doc(R"({"status": "alive"})")));
  EXPECT_FALSE(f.matches(doc(R"({"status": "Alive"})")));
}

TEST(Filter, ArrayContainsSemantics) {
  // "paths traversing ISD 17" — equality against an array field.
  const Filter f = compile(R"({"isds": 17})");
  EXPECT_TRUE(f.matches(doc(R"({"isds": [16, 17]})")));
  EXPECT_FALSE(f.matches(doc(R"({"isds": [16, 19]})")));
}

TEST(Filter, ExactArrayEqualityAlsoWorks) {
  const Filter f = compile(R"({"isds": [16, 17]})");
  EXPECT_TRUE(f.matches(doc(R"({"isds": [16, 17]})")));
  EXPECT_FALSE(f.matches(doc(R"({"isds": [17, 16]})")));
}

TEST(Filter, DottedPathLookup) {
  const Filter f = compile(R"({"bw.down_mtu": {"$gt": 10}})");
  EXPECT_TRUE(f.matches(doc(R"({"bw": {"down_mtu": 11.7}})")));
  EXPECT_FALSE(f.matches(doc(R"({"bw": {"down_mtu": 9.9}})")));
  EXPECT_FALSE(f.matches(doc(R"({"bw": {}})")));
}

TEST(Filter, ComparisonOperators) {
  EXPECT_TRUE(compile(R"({"x": {"$gt": 5}})").matches(doc(R"({"x": 6})")));
  EXPECT_FALSE(compile(R"({"x": {"$gt": 5}})").matches(doc(R"({"x": 5})")));
  EXPECT_TRUE(compile(R"({"x": {"$gte": 5}})").matches(doc(R"({"x": 5})")));
  EXPECT_TRUE(compile(R"({"x": {"$lt": 5}})").matches(doc(R"({"x": 4.5})")));
  EXPECT_FALSE(compile(R"({"x": {"$lt": 5}})").matches(doc(R"({"x": 5})")));
  EXPECT_TRUE(compile(R"({"x": {"$lte": 5}})").matches(doc(R"({"x": 5})")));
}

TEST(Filter, RangeConjunctionOnOneField) {
  const Filter f = compile(R"({"latency_ms": {"$gte": 20, "$lt": 50}})");
  EXPECT_TRUE(f.matches(doc(R"({"latency_ms": 20})")));
  EXPECT_TRUE(f.matches(doc(R"({"latency_ms": 49.9})")));
  EXPECT_FALSE(f.matches(doc(R"({"latency_ms": 50})")));
  EXPECT_FALSE(f.matches(doc(R"({"latency_ms": 19})")));
}

TEST(Filter, ComparisonOnMissingFieldNeverMatches) {
  EXPECT_FALSE(compile(R"({"x": {"$gt": 0}})").matches(doc("{}")));
  EXPECT_FALSE(compile(R"({"x": {"$lt": 100}})").matches(doc("{}")));
}

TEST(Filter, ComparisonAnyElementOfArray) {
  const Filter f = compile(R"({"loss": {"$gt": 50}})");
  EXPECT_TRUE(f.matches(doc(R"({"loss": [0, 100]})")));
  EXPECT_FALSE(f.matches(doc(R"({"loss": [0, 10]})")));
}

TEST(Filter, StringComparisonIsLexicographic) {
  const Filter f = compile(R"({"name": {"$lt": "m"}})");
  EXPECT_TRUE(f.matches(doc(R"({"name": "abc"})")));
  EXPECT_FALSE(f.matches(doc(R"({"name": "zebra"})")));
}

TEST(Filter, CrossTypeComparisonUsesTypeRank) {
  // null < bool < number < string: a string is never $lt a number.
  EXPECT_FALSE(compile(R"({"x": {"$lt": 5}})").matches(doc(R"({"x": "4"})")));
  EXPECT_TRUE(compile(R"({"x": {"$gt": 5}})").matches(doc(R"({"x": "4"})")));
}

TEST(Filter, NotEqual) {
  const Filter f = compile(R"({"status": {"$ne": "dead"}})");
  EXPECT_TRUE(f.matches(doc(R"({"status": "alive"})")));
  EXPECT_FALSE(f.matches(doc(R"({"status": "dead"})")));
  EXPECT_TRUE(f.matches(doc("{}")));  // missing != value
}

TEST(Filter, NeAgainstArrayContains) {
  const Filter f = compile(R"({"isds": {"$ne": 16}})");
  EXPECT_FALSE(f.matches(doc(R"({"isds": [16, 17]})")));
  EXPECT_TRUE(f.matches(doc(R"({"isds": [17, 19]})")));
}

TEST(Filter, InOperator) {
  const Filter f = compile(R"({"server_id": {"$in": [1, 3, 5]}})");
  EXPECT_TRUE(f.matches(doc(R"({"server_id": 3})")));
  EXPECT_FALSE(f.matches(doc(R"({"server_id": 2})")));
  EXPECT_FALSE(f.matches(doc("{}")));
}

TEST(Filter, InAgainstArrayField) {
  const Filter f = compile(R"({"isds": {"$in": [20, 25]}})");
  EXPECT_TRUE(f.matches(doc(R"({"isds": [16, 20]})")));
  EXPECT_FALSE(f.matches(doc(R"({"isds": [16, 17]})")));
}

TEST(Filter, NinOperator) {
  const Filter f = compile(R"({"server_id": {"$nin": [1, 2]}})");
  EXPECT_TRUE(f.matches(doc(R"({"server_id": 3})")));
  EXPECT_FALSE(f.matches(doc(R"({"server_id": 1})")));
  EXPECT_TRUE(f.matches(doc("{}")));  // vacuously true
}

TEST(Filter, ImplicitTopLevelConjunction) {
  const Filter f = compile(R"({"a": 1, "b": {"$lt": 5}})");
  EXPECT_TRUE(f.matches(doc(R"({"a": 1, "b": 3})")));
  EXPECT_FALSE(f.matches(doc(R"({"a": 1, "b": 7})")));
  EXPECT_FALSE(f.matches(doc(R"({"a": 2, "b": 3})")));
}

TEST(Filter, CompileRejectsBadQueries) {
  EXPECT_FALSE(Filter::compile(Value(3)).ok());
  EXPECT_FALSE(Filter::compile(Value::parse(R"({"$bogus": []})").value()).ok());
  EXPECT_FALSE(
      Filter::compile(Value::parse(R"({"a": {"$frob": 1}})").value()).ok());
  EXPECT_FALSE(
      Filter::compile(Value::parse(R"({"$and": []})").value()).ok());
  EXPECT_FALSE(
      Filter::compile(Value::parse(R"({"$and": 3})").value()).ok());
  EXPECT_FALSE(
      Filter::compile(Value::parse(R"({"a": {"$in": 5}})").value()).ok());
  EXPECT_FALSE(
      Filter::compile(Value::parse(R"({"a": {"$exists": 1}})").value()).ok());
  EXPECT_FALSE(
      Filter::compile(Value::parse(R"({"a": {"$size": "x"}})").value()).ok());
  EXPECT_FALSE(
      Filter::compile(Value::parse(R"({"a": {"$regex": "["}})").value()).ok());
  EXPECT_FALSE(
      Filter::compile(Value::parse(R"({"a": {"$regex": 7}})").value()).ok());
  // The logical and array operators are not part of the language.
  EXPECT_FALSE(
      Filter::compile(Value::parse(R"({"$or": [{"a": 1}]})").value()).ok());
  EXPECT_FALSE(
      Filter::compile(Value::parse(R"({"$nor": [{"a": 1}]})").value()).ok());
  EXPECT_FALSE(
      Filter::compile(Value::parse(R"({"a": {"$not": {"$gt": 1}}})").value())
          .ok());
  EXPECT_FALSE(
      Filter::compile(Value::parse(R"({"a": {"$all": [1]}})").value()).ok());
  EXPECT_FALSE(Filter::compile(
                   Value::parse(R"({"a": {"$elemMatch": {"b": 1}}})").value())
                   .ok());
  EXPECT_FALSE(
      Filter::compile(Value::parse(R"({"a": {"$like": "x*"}})").value()).ok());
}

TEST(CompareValues, TotalOrderAcrossTypes) {
  EXPECT_LT(compare_values(Value(nullptr), Value(false)), 0);
  EXPECT_LT(compare_values(Value(true), Value(0)), 0);
  EXPECT_LT(compare_values(Value(5), Value("a")), 0);
  EXPECT_LT(compare_values(Value("z"), Value(Value::Array{})), 0);
}

TEST(CompareValues, NumbersCompareNumerically) {
  EXPECT_EQ(compare_values(Value(2), Value(2.0)), 0);
  EXPECT_LT(compare_values(Value(2), Value(2.5)), 0);
  EXPECT_GT(compare_values(Value(3.5), Value(3)), 0);
}

TEST(CompareValues, ArraysCompareLexicographically) {
  EXPECT_LT(compare_values(Value::array({1, 2}), Value::array({1, 3})), 0);
  EXPECT_LT(compare_values(Value::array({1}), Value::array({1, 0})), 0);
  EXPECT_EQ(compare_values(Value::array({1, 2}), Value::array({1, 2})), 0);
}

// ------------------------------------------------------ what the planner reads

TEST(FilterBounds, ExtractsEqualityRangeAndIn) {
  const Filter f = compile(
      R"({"path_id": 3, "loss_pct": {"$gte": 0, "$lt": 10},
          "server_id": {"$in": [1, 2]}})");
  const auto& fields = f.fields();
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0].path, "path_id");
  ASSERT_EQ(fields[0].predicates.size(), 1u);
  EXPECT_EQ(fields[0].predicates[0].op, Filter::Op::kEq);
  EXPECT_EQ(fields[0].predicates[0].operand, Value(3));
  EXPECT_EQ(fields[1].path, "loss_pct");
  ASSERT_EQ(fields[1].predicates.size(), 2u);
  EXPECT_EQ(fields[1].predicates[0].op, Filter::Op::kGte);
  EXPECT_EQ(fields[1].predicates[1].op, Filter::Op::kLt);
  EXPECT_EQ(fields[2].path, "server_id");
  ASSERT_EQ(fields[2].predicates.size(), 1u);
  EXPECT_EQ(fields[2].predicates[0].op, Filter::Op::kIn);
  ASSERT_TRUE(fields[2].predicates[0].operand.is_array());
  EXPECT_EQ(fields[2].predicates[0].operand.as_array().size(), 2u);
  EXPECT_EQ(f.clause_count(), 4u);
}

TEST(FilterBounds, UnextractableOperatorsCountAsClauses) {
  const Filter f = compile(R"({"a": {"$ne": 1}, "b": {"$nin": [2]}})");
  ASSERT_EQ(f.fields().size(), 2u);
  EXPECT_EQ(f.fields()[0].predicates[0].op, Filter::Op::kNe);
  EXPECT_EQ(f.fields()[1].predicates[0].op, Filter::Op::kNin);
  EXPECT_EQ(f.clause_count(), 2u);
}

TEST(FilterBounds, MatchAllHasNoClauses) {
  EXPECT_EQ(Filter::match_all().clause_count(), 0u);
  EXPECT_EQ(compile("{}").clause_count(), 0u);
  EXPECT_EQ(compile(R"({"a": 1})").clause_count(), 1u);
}

}  // namespace
}  // namespace upin::docdb
