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

TEST(Filter, ExistsOperator) {
  const Filter yes = compile(R"({"latency_ms": {"$exists": true}})");
  const Filter no = compile(R"({"latency_ms": {"$exists": false}})");
  EXPECT_TRUE(yes.matches(doc(R"({"latency_ms": 12})")));
  EXPECT_FALSE(yes.matches(doc("{}")));
  EXPECT_TRUE(no.matches(doc("{}")));
  EXPECT_FALSE(no.matches(doc(R"({"latency_ms": null})")));  // null exists
}

TEST(Filter, SizeOperator) {
  const Filter f = compile(R"({"isds": {"$size": 2}})");
  EXPECT_TRUE(f.matches(doc(R"({"isds": [16, 17]})")));
  EXPECT_FALSE(f.matches(doc(R"({"isds": [16]})")));
  EXPECT_FALSE(f.matches(doc(R"({"isds": 2})")));
}

TEST(Filter, AllOperator) {
  const Filter f = compile(R"({"isds": {"$all": [16, 17]}})");
  EXPECT_TRUE(f.matches(doc(R"({"isds": [17, 19, 16]})")));
  EXPECT_FALSE(f.matches(doc(R"({"isds": [16, 19]})")));
}

TEST(Filter, ElemMatchOperator) {
  const Filter f = compile(
      R"({"runs": {"$elemMatch": {"loss": {"$gt": 50}, "size": 64}}})");
  EXPECT_TRUE(f.matches(
      doc(R"({"runs": [{"loss": 90, "size": 64}, {"loss": 0, "size": 1452}]})")));
  // No single element satisfies both conditions.
  EXPECT_FALSE(f.matches(
      doc(R"({"runs": [{"loss": 90, "size": 1452}, {"loss": 0, "size": 64}]})")));
}

TEST(Filter, AndOperator) {
  const Filter f = compile(
      R"({"$and": [{"server_id": 2}, {"hop_count": {"$lte": 6}}]})");
  EXPECT_TRUE(f.matches(doc(R"({"server_id": 2, "hop_count": 6})")));
  EXPECT_FALSE(f.matches(doc(R"({"server_id": 2, "hop_count": 7})")));
}

TEST(Filter, OrOperator) {
  const Filter f = compile(R"({"$or": [{"a": 1}, {"b": 2}]})");
  EXPECT_TRUE(f.matches(doc(R"({"a": 1})")));
  EXPECT_TRUE(f.matches(doc(R"({"b": 2})")));
  EXPECT_FALSE(f.matches(doc(R"({"a": 2, "b": 1})")));
}

TEST(Filter, NorOperator) {
  const Filter f = compile(R"({"$nor": [{"a": 1}, {"b": 2}]})");
  EXPECT_FALSE(f.matches(doc(R"({"a": 1})")));
  EXPECT_TRUE(f.matches(doc(R"({"a": 2})")));
}

TEST(Filter, NotOperator) {
  const Filter f = compile(R"({"loss_pct": {"$not": {"$gt": 10}}})");
  EXPECT_TRUE(f.matches(doc(R"({"loss_pct": 5})")));
  EXPECT_FALSE(f.matches(doc(R"({"loss_pct": 50})")));
  EXPECT_TRUE(f.matches(doc("{}")));  // $not of a non-match
}

TEST(Filter, ImplicitTopLevelConjunction) {
  const Filter f = compile(R"({"a": 1, "b": {"$lt": 5}})");
  EXPECT_TRUE(f.matches(doc(R"({"a": 1, "b": 3})")));
  EXPECT_FALSE(f.matches(doc(R"({"a": 1, "b": 7})")));
  EXPECT_FALSE(f.matches(doc(R"({"a": 2, "b": 3})")));
}

TEST(Filter, NestedLogicalOperators) {
  const Filter f = compile(
      R"({"$or": [{"$and": [{"a": 1}, {"b": 1}]}, {"c": {"$gte": 10}}]})");
  EXPECT_TRUE(f.matches(doc(R"({"a": 1, "b": 1})")));
  EXPECT_TRUE(f.matches(doc(R"({"c": 10})")));
  EXPECT_FALSE(f.matches(doc(R"({"a": 1, "c": 9})")));
}

TEST(Filter, RegexOperator) {
  const Filter f = compile(R"({"address": {"$regex": "^16-ffaa"}})");
  EXPECT_TRUE(f.matches(doc(R"({"address": "16-ffaa:0:1002,[1.2.3.4]"})")));
  EXPECT_FALSE(f.matches(doc(R"({"address": "17-ffaa:0:1107"})")));
  EXPECT_FALSE(f.matches(doc(R"({"address": 16})")));
}

TEST(Filter, LikeOperatorWildcards) {
  const Filter f = compile(R"({"path_id": {"$like": "2_*"}})");
  EXPECT_TRUE(f.matches(doc(R"({"path_id": "2_15"})")));
  EXPECT_FALSE(f.matches(doc(R"({"path_id": "3_15"})")));
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
}

TEST(Filter, EqualityOnDetectsIndexableField) {
  const Filter f = compile(R"({"path_id": "2_15", "loss": {"$lt": 5}})");
  const Value* pinned = f.equality_on("path_id");
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->as_string(), "2_15");
  EXPECT_EQ(f.equality_on("loss"), nullptr);
  EXPECT_EQ(f.equality_on("other"), nullptr);
}

TEST(Filter, EqualityOnSingleClause) {
  const Filter f = compile(R"({"server_id": 2})");
  ASSERT_NE(f.equality_on("server_id"), nullptr);
  EXPECT_EQ(f.equality_on("server_id")->as_int(), 2);
}

TEST(Filter, EqualityOnIgnoresDisjunctions) {
  const Filter f = compile(R"({"$or": [{"a": 1}, {"a": 2}]})");
  EXPECT_EQ(f.equality_on("a"), nullptr);
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

// ------------------------------------------------- planner bound extraction

TEST(FilterBounds, ExtractsEqualityRangeAndIn) {
  const Filter f = compile(
      R"({"path_id": 3, "loss_pct": {"$gte": 0, "$lt": 10},
          "server_id": {"$in": [1, 2]}})");
  const auto bounds = f.extractable_bounds();
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_EQ(bounds[0].first, "path_id");
  ASSERT_EQ(bounds[0].second.size(), 1u);
  EXPECT_EQ(bounds[0].second[0].op, Filter::Bound::Op::kEq);
  EXPECT_EQ(*bounds[0].second[0].operand, Value(3));
  EXPECT_EQ(bounds[1].first, "loss_pct");
  ASSERT_EQ(bounds[1].second.size(), 2u);
  EXPECT_EQ(bounds[1].second[0].op, Filter::Bound::Op::kGte);
  EXPECT_EQ(bounds[1].second[1].op, Filter::Bound::Op::kLt);
  EXPECT_EQ(bounds[2].first, "server_id");
  ASSERT_EQ(bounds[2].second.size(), 1u);
  EXPECT_EQ(bounds[2].second[0].op, Filter::Bound::Op::kIn);
  ASSERT_NE(bounds[2].second[0].list, nullptr);
  EXPECT_EQ(bounds[2].second[0].list->size(), 2u);
  EXPECT_EQ(f.clause_count(), 4u);
}

TEST(FilterBounds, FlattensNestedAnd) {
  const Filter f = compile(
      R"({"$and": [{"a": 1}, {"$and": [{"b": {"$gt": 2}}, {"c": 3}]}]})");
  const auto bounds = f.extractable_bounds();
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_EQ(bounds[0].first, "a");
  EXPECT_EQ(bounds[1].first, "b");
  EXPECT_EQ(bounds[2].first, "c");
  EXPECT_EQ(f.clause_count(), 3u);
}

TEST(FilterBounds, DisjunctionsStayOpaque) {
  const Filter f =
      compile(R"({"a": 1, "$or": [{"b": 2}, {"c": 3}]})");
  const auto bounds = f.extractable_bounds();
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_EQ(bounds[0].first, "a");
  // The $or subtree counts as one unextractable clause.
  EXPECT_EQ(f.clause_count(), 2u);
}

TEST(FilterBounds, UnextractableOperatorsCountAsClauses) {
  const Filter f = compile(R"({"a": {"$ne": 1}, "b": {"$exists": true}})");
  EXPECT_TRUE(f.extractable_bounds().empty());
  EXPECT_EQ(f.clause_count(), 2u);
}

TEST(FilterBounds, MatchAllHasNoClauses) {
  EXPECT_EQ(Filter::match_all().clause_count(), 0u);
  EXPECT_EQ(compile("{}").clause_count(), 0u);
  EXPECT_EQ(compile(R"({"a": 1})").clause_count(), 1u);
}

}  // namespace
}  // namespace upin::docdb
