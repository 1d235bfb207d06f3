// Tests for docdb/index (OrderedIndex).
#include "docdb/index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "docdb/collection.hpp"
#include "docdb/database.hpp"
#include "support/temp_path.hpp"
#include "util/rng.hpp"

namespace upin::docdb {
namespace {

using util::Value;

Document doc(const char* json) { return Value::parse(json).value(); }

/// Point range on a single-field index.
OrderedIndex::Range point(Value value) {
  OrderedIndex::Range range;
  range.prefix.push_back(std::move(value));
  return range;
}

std::vector<std::size_t> lookup(const OrderedIndex& index, Value value) {
  std::vector<std::size_t> hits;
  index.collect(point(std::move(value)), hits);
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  return hits;
}

TEST(OrderedIndex, SpecSplitAndJoin) {
  EXPECT_EQ(split_index_spec("path_id"), std::vector<std::string>{"path_id"});
  EXPECT_EQ(split_index_spec("path_id,timestamp_ms"),
            (std::vector<std::string>{"path_id", "timestamp_ms"}));
  EXPECT_EQ(join_index_spec({"a", "b"}), "a,b");
  const OrderedIndex index("path_id,timestamp_ms");
  EXPECT_EQ(index.spec(), "path_id,timestamp_ms");
  EXPECT_FALSE(index.single_field());
}

TEST(OrderedIndex, LookupAfterAdd) {
  OrderedIndex index("server_id");
  index.add(doc(R"({"server_id": 2})"), 0);
  index.add(doc(R"({"server_id": 2})"), 1);
  index.add(doc(R"({"server_id": 3})"), 2);
  EXPECT_EQ(lookup(index, Value(2)), (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(lookup(index, Value(9)).empty());
  EXPECT_EQ(index.entry_count(), 3u);
}

TEST(OrderedIndex, RemoveDropsPosition) {
  OrderedIndex index("k");
  const Document d = doc(R"({"k": "x"})");
  index.add(d, 0);
  index.add(d, 1);
  index.remove(d, 0);
  EXPECT_EQ(lookup(index, Value("x")), std::vector<std::size_t>{1});
  index.remove(d, 1);
  EXPECT_TRUE(lookup(index, Value("x")).empty());
  EXPECT_EQ(index.distinct_keys(), 0u);
  EXPECT_EQ(index.entry_count(), 0u);
}

TEST(OrderedIndex, MissingFieldFoldsToNull) {
  OrderedIndex index("k");
  index.add(doc(R"({"other": 1})"), 0);
  // Every live document appears in every index: missing keys fold to
  // null so index order matches the scan-side sort order.
  EXPECT_EQ(index.distinct_keys(), 1u);
  EXPECT_TRUE(index.has_missing());
  EXPECT_EQ(lookup(index, Value()), std::vector<std::size_t>{0});
  index.remove(doc(R"({"other": 1})"), 0);
  EXPECT_FALSE(index.has_missing());
}

TEST(OrderedIndex, DottedFieldPath) {
  OrderedIndex index("bw.up_64");
  index.add(doc(R"({"bw": {"up_64": 4.5}})"), 3);
  EXPECT_EQ(lookup(index, Value(4.5)), std::vector<std::size_t>{3});
}

TEST(OrderedIndex, MultikeyArrayIndexing) {
  OrderedIndex index("isds");
  index.add(doc(R"({"isds": [16, 17]})"), 0);
  EXPECT_TRUE(index.multikey());
  EXPECT_EQ(lookup(index, Value(16)), std::vector<std::size_t>{0});
  EXPECT_EQ(lookup(index, Value(17)), std::vector<std::size_t>{0});
  // Whole-array key also present (exact-array equality).
  EXPECT_EQ(lookup(index, Value::array({16, 17})),
            std::vector<std::size_t>{0});
  index.remove(doc(R"({"isds": [16, 17]})"), 0);
  EXPECT_EQ(index.entry_count(), 0u);
  // multikey() is sticky: the planner stays conservative.
  EXPECT_TRUE(index.multikey());
}

TEST(OrderedIndex, DuplicateArrayElementsSinglePosting) {
  OrderedIndex index("isds");
  index.add(doc(R"({"isds": [16, 16]})"), 0);
  EXPECT_EQ(lookup(index, Value(16)), std::vector<std::size_t>{0});
  index.remove(doc(R"({"isds": [16, 16]})"), 0);
  EXPECT_EQ(index.entry_count(), 0u);
}

TEST(OrderedIndex, CompoundKeysAndPrefixScan) {
  OrderedIndex index("path_id,timestamp_ms");
  index.add(doc(R"({"path_id": 1, "timestamp_ms": 10})"), 0);
  index.add(doc(R"({"path_id": 1, "timestamp_ms": 20})"), 1);
  index.add(doc(R"({"path_id": 2, "timestamp_ms": 5})"), 2);

  // Equality prefix alone scans every timestamp under path 1.
  OrderedIndex::Range prefix_only;
  prefix_only.prefix.push_back(Value(1));
  std::vector<std::size_t> hits;
  index.collect(prefix_only, hits);
  EXPECT_EQ(hits, (std::vector<std::size_t>{0, 1}));

  // Prefix plus a window on the next column.
  OrderedIndex::Range windowed = prefix_only;
  const Value since(15);
  windowed.lower = &since;
  hits.clear();
  index.collect(windowed, hits);
  EXPECT_EQ(hits, std::vector<std::size_t>{1});
}

TEST(OrderedIndex, RangeWindowRespectsInclusivity) {
  OrderedIndex index("v");
  index.add(doc(R"({"v": 1})"), 0);
  index.add(doc(R"({"v": 2})"), 1);
  index.add(doc(R"({"v": 3})"), 2);

  OrderedIndex::Range range;
  const Value lo(1);
  const Value hi(3);
  range.lower = &lo;
  range.lower_inclusive = false;
  range.upper = &hi;
  range.upper_inclusive = false;
  std::vector<std::size_t> hits;
  index.collect(range, hits);
  EXPECT_EQ(hits, std::vector<std::size_t>{1});

  range.lower_inclusive = true;
  range.upper_inclusive = true;
  hits.clear();
  index.collect(range, hits);
  EXPECT_EQ(hits, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(OrderedIndex, ScanWalksKeyOrderBothWays) {
  OrderedIndex index("v");
  index.add(doc(R"({"v": 30})"), 0);
  index.add(doc(R"({"v": 10})"), 1);
  index.add(doc(R"({"v": 20})"), 2);
  index.add(doc(R"({"v": 10})"), 3);

  std::vector<std::size_t> order;
  index.scan(OrderedIndex::Range{}, false,
             [&](const IndexKey&, const std::vector<std::size_t>& positions) {
               order.insert(order.end(), positions.begin(), positions.end());
               return true;
             });
  // Key order ascending; ties (both v=10) in insertion order.
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 3, 2, 0}));

  order.clear();
  index.scan(OrderedIndex::Range{}, true,
             [&](const IndexKey&, const std::vector<std::size_t>& positions) {
               order.insert(order.end(), positions.begin(), positions.end());
               return true;
             });
  // Descending keys, but positions within one key still ascend.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 2, 1, 3}));
}

TEST(OrderedIndex, ScanStopsWhenVisitorReturnsFalse) {
  OrderedIndex index("v");
  index.add(doc(R"({"v": 1})"), 0);
  index.add(doc(R"({"v": 2})"), 1);
  std::size_t visited = 0;
  index.scan(OrderedIndex::Range{}, false,
             [&](const IndexKey&, const std::vector<std::size_t>&) {
               ++visited;
               return false;
             });
  EXPECT_EQ(visited, 1u);
}

TEST(OrderedIndex, NumericKeysCollideAcrossIntDouble) {
  OrderedIndex index("v");
  index.add(doc(R"({"v": 2})"), 0);
  EXPECT_EQ(lookup(index, Value(2.0)), std::vector<std::size_t>{0});
  EXPECT_EQ(index.distinct_keys(), 1u);
  index.add(doc(R"({"v": 2.0})"), 1);
  EXPECT_EQ(index.distinct_keys(), 1u);
}

TEST(OrderedIndex, StringAndNumberKeysDoNotCollide) {
  OrderedIndex index("v");
  index.add(doc(R"({"v": "2"})"), 0);
  EXPECT_TRUE(lookup(index, Value(2)).empty());
}

TEST(OrderedIndex, BoolAndNullKeys) {
  OrderedIndex index("v");
  index.add(doc(R"({"v": true})"), 0);
  index.add(doc(R"({"v": null})"), 1);
  EXPECT_EQ(lookup(index, Value(true)), std::vector<std::size_t>{0});
  EXPECT_EQ(lookup(index, Value(nullptr)), std::vector<std::size_t>{1});
  EXPECT_TRUE(lookup(index, Value(false)).empty());
}

TEST(OrderedIndex, DistinctValuesSkipsMissingFolds) {
  OrderedIndex index("v");
  index.add(doc(R"({"v": 2})"), 0);
  index.add(doc(R"({"other": 1})"), 1);  // folded null, not a stored null
  std::vector<Value> values = index.distinct_values(OrderedIndex::Range{});
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], Value(2));

  index.add(doc(R"({"v": null})"), 2);  // a *stored* null counts
  values = index.distinct_values(OrderedIndex::Range{});
  ASSERT_EQ(values.size(), 2u);
  EXPECT_TRUE(values[0].is_null());
}

TEST(OrderedIndex, CountInRangeDedupsMultikey) {
  OrderedIndex index("isds");
  index.add(doc(R"({"isds": [16, 17]})"), 0);
  index.add(doc(R"({"isds": [17]})"), 1);
  OrderedIndex::Range range;
  const Value lo(16);
  range.lower = &lo;
  // Document 0 has two in-range elements but counts once.
  EXPECT_EQ(index.count_in_range(range), 2u);
}

TEST(OrderedIndex, ClearEmptiesEverything) {
  OrderedIndex index("k");
  index.add(doc(R"({"k": 1})"), 0);
  index.clear();
  EXPECT_EQ(index.distinct_keys(), 0u);
  EXPECT_EQ(index.entry_count(), 0u);
  EXPECT_FALSE(index.has_missing());
}

// ------------------------------------------------------ distinct_first()

/// Distinct first-column values among the index's keys, counted from a
/// full in-order walk: equal first columns are adjacent in key order.
std::size_t walked_distinct_first(const OrderedIndex& index) {
  std::size_t count = 0;
  const Value* previous = nullptr;
  index.scan(OrderedIndex::Range{}, false,
             [&](const IndexKey& key, const std::vector<std::size_t>&) {
               if (previous == nullptr ||
                   compare_values(*previous, key.front()) != 0) {
                 ++count;
               }
               previous = &key.front();
               return true;
             });
  return count;
}

TEST(OrderedIndex, DistinctFirstCountsFirstColumnValues) {
  OrderedIndex index("a,b");
  const Document a1b1 = doc(R"({"a": 1, "b": 1})");
  const Document a1b2 = doc(R"({"a": 1, "b": 2})");
  const Document a2b1 = doc(R"({"a": 2.0, "b": 1})");
  index.add(a1b1, 0);
  index.add(a1b2, 1);
  index.add(a2b1, 2);
  index.add(doc(R"({"a": 2, "b": 7})"), 3);  // 2 and 2.0 are one value
  EXPECT_EQ(index.distinct_keys(), 4u);
  EXPECT_EQ(index.distinct_first(), 2u);
  index.remove(a1b1, 0);
  EXPECT_EQ(index.distinct_first(), 2u);  // a = 1 still has (1, 2)
  index.remove(a1b2, 1);
  EXPECT_EQ(index.distinct_first(), 1u);
  index.clear();
  EXPECT_EQ(index.distinct_first(), 0u);

  OrderedIndex single("a");
  single.add(a1b1, 0);
  single.add(a1b2, 1);
  single.add(a2b1, 2);
  EXPECT_EQ(single.distinct_first(), single.distinct_keys());
  EXPECT_EQ(single.distinct_first(), 2u);
}

TEST(OrderedIndex, DistinctFirstStaysExactUnderRandomChurn) {
  // Arrays (multikey cartesian keys), missing fields (null folds) and
  // int/double collisions, added and removed at random.
  util::Rng rng(17);
  const auto random_value = [&rng]() -> Value {
    switch (rng.uniform_int(0, 4)) {
      case 0: return Value();
      case 1: return Value(rng.uniform_int(0, 5));
      case 2: return Value(static_cast<double>(rng.uniform_int(0, 10)) / 2.0);
      case 3: return Value::array({Value(rng.uniform_int(0, 5)),
                                   Value(rng.uniform_int(0, 5))});
      default: return Value("s" + std::to_string(rng.uniform_int(0, 3)));
    }
  };
  for (const char* spec : {"a,b", "a,b,c"}) {
    OrderedIndex index(spec);
    std::vector<std::pair<Document, std::size_t>> live;
    std::size_t next_position = 0;
    for (int step = 0; step < 600; ++step) {
      if (!live.empty() && rng.bernoulli(0.4)) {
        const auto victim = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        index.remove(live[victim].first, live[victim].second);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        util::JsonObject d;
        for (const char* field : {"a", "b", "c"}) {
          if (!rng.bernoulli(0.1)) d.set(field, random_value());
        }
        live.emplace_back(Value(std::move(d)), next_position);
        index.add(live.back().first, next_position++);
      }
      ASSERT_EQ(index.distinct_first(), walked_distinct_first(index))
          << spec << " step " << step;
    }
  }
}

/// Brute-force distinct `a` values among a collection's documents.
std::size_t documents_distinct_a(const Collection& coll) {
  std::set<std::int64_t> values;
  coll.for_each(
      [&](const Document& d) { values.insert(d.get("a")->as_int()); });
  return values.size();
}

/// The collection's "a,b" index's distinct_first(), as the planner sees
/// it: a one-column prefix is estimated at entries / distinct_first.
double planned_candidates_for_a(const Collection& coll) {
  const Filter by_a =
      Filter::compile(Value::parse(R"({"a": 0})").value()).value();
  return coll.explain(by_a).get("estimated_candidates")->as_double();
}

void expect_distinct_first_exact(const Collection& coll) {
  EXPECT_DOUBLE_EQ(planned_candidates_for_a(coll),
                   static_cast<double>(coll.size()) /
                       static_cast<double>(documents_distinct_a(coll)));
}

TEST(OrderedIndex, DistinctFirstFollowsUpdateRekeying) {
  Collection coll("c");
  coll.create_index("a,b");
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(coll.insert_one(Value::object({{"a", i % 6}, {"b", i}})).ok());
  }
  expect_distinct_first_exact(coll);  // 24 / 6
  const auto merged = coll.update_many(
      Filter::compile(Value::parse(R"({"a": {"$gte": 3}})").value()).value(),
      Value::parse(R"({"$set": {"a": 0}})").value());
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value(), 12u);
  expect_distinct_first_exact(coll);  // 24 / 3
  const auto split = coll.update_many(
      Filter::compile(Value::parse(R"({"b": {"$lt": 4}})").value()).value(),
      Value::parse(R"({"$inc": {"a": 100}})").value());
  ASSERT_TRUE(split.ok());
  expect_distinct_first_exact(coll);
}

TEST(OrderedIndex, DistinctFirstSurvivesReopenAndCompact) {
  const std::string path =
      test_support::temp_path("index_test_distinct_first", ".jsonl");
  std::filesystem::remove(path);
  double before = 0.0;
  {
    auto db = Database::open(path);
    ASSERT_TRUE(db.ok());
    Collection& coll = db.value()->collection("c");
    coll.create_index("a,b");
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(
          coll.insert_one(Value::object({{"a", i % 7}, {"b", i}})).ok());
    }
    ASSERT_TRUE(coll.delete_many(Filter::compile(
                                     Value::parse(R"({"a": 6})").value())
                                     .value())
                    .ok());
    expect_distinct_first_exact(coll);  // 26 / 6
    before = planned_candidates_for_a(coll);
    ASSERT_TRUE(db.value()->compact().ok());
    expect_distinct_first_exact(coll);
  }
  {
    auto reopened = Database::open(path);
    ASSERT_TRUE(reopened.ok());
    const Collection* coll = reopened.value()->find_collection("c");
    ASSERT_NE(coll, nullptr);
    expect_distinct_first_exact(*coll);
    EXPECT_DOUBLE_EQ(planned_candidates_for_a(*coll), before);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace upin::docdb
