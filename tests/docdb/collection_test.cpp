// Tests for docdb/collection: CRUD, batching, planner, sort/limit.
#include "docdb/collection.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "util/strings.hpp"

namespace upin::docdb {
namespace {

using util::ErrorCode;
using util::Value;

Document doc(const char* json) {
  auto parsed = Value::parse(json);
  EXPECT_TRUE(parsed.ok()) << json;
  return std::move(parsed).value();
}

Filter filter(const char* json) {
  return Filter::compile(Value::parse(json).value()).value();
}

TEST(Collection, InsertAndFindById) {
  Collection coll("paths");
  const auto id = coll.insert_one(doc(R"({"_id": "2_15", "server_id": 2})"));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), "2_15");
  const auto found = coll.find_by_id("2_15");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().get("server_id")->as_int(), 2);
}

TEST(Collection, AutoAssignsIds) {
  Collection coll("c");
  const auto first = coll.insert_one(doc(R"({"v": 1})"));
  const auto second = coll.insert_one(doc(R"({"v": 2})"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first.value(), second.value());
  EXPECT_TRUE(coll.find_by_id(first.value()).ok());
}

TEST(Collection, RejectsDuplicateId) {
  Collection coll("c");
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "x"})")).ok());
  const auto dup = coll.insert_one(doc(R"({"_id": "x"})"));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, ErrorCode::kConflict);
  EXPECT_EQ(coll.size(), 1u);
}

TEST(Collection, RejectsNonObjectAndNonStringId) {
  Collection coll("c");
  EXPECT_EQ(coll.insert_one(Value(5)).error().code,
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(coll.insert_one(doc(R"({"_id": 7})")).error().code,
            ErrorCode::kInvalidArgument);
}

TEST(Collection, FindByIdMissing) {
  Collection coll("c");
  EXPECT_EQ(coll.find_by_id("nope").error().code, ErrorCode::kNotFound);
}

TEST(Collection, InsertManyAtomicOnInternalDuplicate) {
  Collection coll("c");
  std::vector<Document> batch;
  batch.push_back(doc(R"({"_id": "a"})"));
  batch.push_back(doc(R"({"_id": "b"})"));
  batch.push_back(doc(R"({"_id": "a"})"));  // duplicate within batch
  const auto result = coll.insert_many(std::move(batch));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kConflict);
  EXPECT_EQ(coll.size(), 0u) << "batch must be all-or-nothing";
}

TEST(Collection, InsertManyAtomicOnExistingDuplicate) {
  Collection coll("c");
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "b"})")).ok());
  std::vector<Document> batch;
  batch.push_back(doc(R"({"_id": "a"})"));
  batch.push_back(doc(R"({"_id": "b"})"));
  ASSERT_FALSE(coll.insert_many(std::move(batch)).ok());
  EXPECT_EQ(coll.size(), 1u);
}

TEST(Collection, InsertManyReturnsIdsInOrder) {
  Collection coll("c");
  std::vector<Document> batch;
  batch.push_back(doc(R"({"_id": "one"})"));
  batch.push_back(doc(R"({"v": 2})"));  // auto id
  const auto ids = coll.insert_many(std::move(batch));
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids.value().size(), 2u);
  EXPECT_EQ(ids.value()[0], "one");
  EXPECT_FALSE(ids.value()[1].empty());
}

TEST(Collection, InsertManyEmptyBatch) {
  Collection coll("c");
  const auto ids = coll.insert_many({});
  ASSERT_TRUE(ids.ok());
  EXPECT_TRUE(ids.value().empty());
}

TEST(Collection, FindWithFilter) {
  Collection coll("c");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(coll.insert_one(doc(util::Value::object(
        {{"_id", std::to_string(i)}, {"v", i}}).dump().c_str())).ok());
  }
  const auto results = coll.find(filter(R"({"v": {"$gte": 7}})"));
  EXPECT_EQ(results.size(), 3u);
}

TEST(Collection, FindPreservesInsertionOrderByDefault) {
  Collection coll("c");
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "z", "v": 3})")).ok());
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "a", "v": 1})")).ok());
  const auto results = coll.find(Filter::match_all());
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(*document_id(results[0]), "z");
}

TEST(Collection, FindSortAscendingDescending) {
  Collection coll("c");
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "a", "v": 2})")).ok());
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "b", "v": 1})")).ok());
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "c", "v": 3})")).ok());

  FindOptions ascending;
  ascending.sort_by = "v";
  auto results = coll.find(Filter::match_all(), ascending);
  EXPECT_EQ(results.front().get("v")->as_int(), 1);
  EXPECT_EQ(results.back().get("v")->as_int(), 3);

  FindOptions descending;
  descending.sort_by = "v";
  descending.descending = true;
  results = coll.find(Filter::match_all(), descending);
  EXPECT_EQ(results.front().get("v")->as_int(), 3);
}

TEST(Collection, SortMissingFieldSortsFirst) {
  Collection coll("c");
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "a", "v": 2})")).ok());
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "b"})")).ok());
  FindOptions by_v;
  by_v.sort_by = "v";
  const auto results = coll.find(Filter::match_all(), by_v);
  EXPECT_EQ(*document_id(results.front()), "b");  // null sorts before numbers
}

TEST(Collection, SkipAndLimit) {
  Collection coll("c");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(coll.insert_one(doc(util::Value::object(
        {{"_id", std::to_string(i)}, {"v", i}}).dump().c_str())).ok());
  }
  FindOptions options;
  options.sort_by = "v";
  options.skip = 3;
  options.limit = 4;
  const auto results = coll.find(Filter::match_all(), options);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results.front().get("v")->as_int(), 3);
  EXPECT_EQ(results.back().get("v")->as_int(), 6);
}

TEST(Collection, SkipBeyondEnd) {
  Collection coll("c");
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "a"})")).ok());
  FindOptions options;
  options.skip = 10;
  EXPECT_TRUE(coll.find(Filter::match_all(), options).empty());
}

TEST(Collection, Count) {
  Collection coll("c");
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(coll.insert_one(doc(util::Value::object(
        {{"_id", std::to_string(i)}, {"even", i % 2 == 0}}).dump().c_str())).ok());
  }
  EXPECT_EQ(coll.count(filter(R"({"even": true})")), 3u);
  EXPECT_EQ(coll.size(), 6u);
}

TEST(Collection, UpdateKeepsIndexConsistent) {
  Collection coll("c");
  coll.create_index("v");
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "a", "v": 1})")).ok());
  ASSERT_TRUE(coll.delete_by_id("a"));
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "a", "v": 2})")).ok());
  EXPECT_EQ(coll.count(filter(R"({"v": 2})")), 1u);
  EXPECT_EQ(coll.count(filter(R"({"v": 1})")), 0u);
}

TEST(Collection, DeleteByIdThenReinsert) {
  Collection coll("c");
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "x", "v": 1})")).ok());
  EXPECT_TRUE(coll.delete_by_id("x"));
  EXPECT_FALSE(coll.delete_by_id("x"));
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "x", "v": 2})")).ok());
  EXPECT_EQ(coll.find_by_id("x").value().get("v")->as_int(), 2);
}

TEST(Collection, IndexedEqualityReturnsSameAsScan) {
  Collection indexed("a");
  Collection scanned("b");
  indexed.create_index("server_id");
  for (int i = 0; i < 50; ++i) {
    const Document d = doc(util::Value::object(
        {{"_id", std::to_string(i)}, {"server_id", i % 5}}).dump().c_str());
    ASSERT_TRUE(indexed.insert_one(d).ok());
    ASSERT_TRUE(scanned.insert_one(d).ok());
  }
  const Filter by_server = filter(R"({"server_id": 3})");
  const auto via_index = indexed.find(by_server);
  const auto via_scan = scanned.find(by_server);
  ASSERT_EQ(via_index.size(), via_scan.size());
  for (std::size_t i = 0; i < via_index.size(); ++i) {
    EXPECT_EQ(via_index[i], via_scan[i]);
  }
}

TEST(Collection, IndexCreatedAfterInsertsIsBackfilled) {
  Collection coll("c");
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "a", "k": 7})")).ok());
  coll.create_index("k");
  EXPECT_EQ(coll.count(filter(R"({"k": 7})")), 1u);
  EXPECT_EQ(coll.indexed_fields(), std::vector<std::string>{"k"});
}

TEST(Collection, CreateIndexIsIdempotent) {
  Collection coll("c");
  coll.create_index("k");
  coll.create_index("k");
  EXPECT_EQ(coll.indexed_fields().size(), 1u);
}

TEST(Collection, ForEachVisitsOnlyLiveDocuments) {
  Collection coll("c");
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "a"})")).ok());
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "b"})")).ok());
  coll.delete_by_id("a");
  int visits = 0;
  coll.for_each([&](const Document&) { ++visits; });
  EXPECT_EQ(visits, 1);
}

TEST(Collection, InsertManyRejectsBatchDuplicatesAtScale) {
  // The duplicate-id batch check is a hash set: a paper-scale batch with
  // one duplicate at the end is still rejected atomically.
  Collection coll("c");
  std::vector<Document> batch;
  for (int i = 0; i < 500; ++i) {
    batch.push_back(
        doc(("{\"_id\": \"d" + std::to_string(i) + "\"}").c_str()));
  }
  batch.push_back(doc(R"({"_id": "d0"})"));
  const auto result = coll.insert_many(std::move(batch));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::ErrorCode::kConflict);
  EXPECT_EQ(coll.size(), 0u) << "atomicity: nothing from the batch lands";
}

TEST(Collection, MultikeyIndexAnswersArrayContainsQueries) {
  Collection indexed("a");
  Collection scanned("b");
  indexed.create_index("isds");
  const char* docs_json[] = {
      R"({"_id": "p0", "isds": [16, 17]})",
      R"({"_id": "p1", "isds": [17, 19]})",
      R"({"_id": "p2", "isds": [20]})",
  };
  for (const char* json : docs_json) {
    ASSERT_TRUE(indexed.insert_one(doc(json)).ok());
    ASSERT_TRUE(scanned.insert_one(doc(json)).ok());
  }
  // {"isds": 17} = array-contains; the multikey index must agree with the
  // scan (paths traversing ISD 17, the paper's grouping query).
  const Filter by_isd = filter(R"({"isds": 17})");
  EXPECT_EQ(indexed.count(by_isd), 2u);
  EXPECT_EQ(indexed.count(by_isd), scanned.count(by_isd));
  const Filter exact = filter(R"({"isds": [16, 17]})");
  EXPECT_EQ(indexed.count(exact), 1u);
}

TEST(Collection, IndexStaysConsistentAfterDeleteAndReinsert) {
  Collection coll("c");
  coll.create_index("k");
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "a", "k": 1})")).ok());
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "b", "k": 1})")).ok());
  coll.delete_by_id("a");
  EXPECT_EQ(coll.count(filter(R"({"k": 1})")), 1u);
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "a", "k": 1})")).ok());
  EXPECT_EQ(coll.count(filter(R"({"k": 1})")), 2u);
}

TEST(Collection, ConcurrentReadersAndWriters) {
  Collection coll("c");
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&coll, w] {
      for (int i = 0; i < 100; ++i) {
        const std::string id = std::to_string(w) + "_" + std::to_string(i);
        auto inserted = coll.insert_one(
            Value::object({{"_id", id}, {"w", w}}));
        ASSERT_TRUE(inserted.ok());
        (void)coll.count(Filter::match_all());
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(coll.size(), 400u);
}

// ------------------------------------------------------------ query planner

/// The plan kind explain() reports for a query.
std::string plan_kind(const Collection& coll, const char* query,
                      const FindOptions& options = {}) {
  const Value plan = coll.explain(filter(query), options);
  return plan.get("plan")->as_string();
}

TEST(QueryPlanner, ExplainPicksIndexPointOverScan) {
  Collection coll("stats");
  coll.create_index("path_id");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(coll.insert_one(Value::object({{"path_id", i % 5}})).ok());
  }
  EXPECT_EQ(plan_kind(coll, R"({"path_id": 2})"), "index_point");
  EXPECT_EQ(plan_kind(coll, R"({"hop_count": 3})"), "scan");

  const Value plan = coll.explain(filter(R"({"path_id": 2})"));
  EXPECT_EQ(plan.get("index")->as_string(), "path_id");
  EXPECT_FALSE(plan.get("residual")->as_bool());
  EXPECT_EQ(plan.get_path("clauses.consumed")->as_int(), 1);
}

TEST(QueryPlanner, RangeQueriesUseIndexRange) {
  Collection coll("stats");
  coll.create_index("latency_ms");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(coll.insert_one(Value::object({{"latency_ms", i * 10}})).ok());
  }
  EXPECT_EQ(plan_kind(coll, R"({"latency_ms": {"$gte": 20, "$lt": 50}})"),
            "index_range");
  const auto docs = coll.find(filter(R"({"latency_ms": {"$gte": 20, "$lt": 50}})"));
  EXPECT_EQ(docs.size(), 3u);
}

TEST(QueryPlanner, ForceScanBypassesIndexes) {
  Collection coll("stats");
  coll.create_index("path_id");
  ASSERT_TRUE(coll.insert_one(doc(R"({"path_id": 1})")).ok());
  FindOptions options;
  options.force_scan = true;
  EXPECT_EQ(plan_kind(coll, R"({"path_id": 1})", options), "scan");
}

TEST(QueryPlanner, CompoundIndexConsumesPrefixAndWindow) {
  Collection coll("stats");
  coll.create_index("path_id,timestamp_ms");
  for (int path = 0; path < 3; ++path) {
    for (int t = 0; t < 5; ++t) {
      ASSERT_TRUE(coll.insert_one(Value::object(
                                      {{"path_id", path}, {"timestamp_ms", t * 100}}))
                      .ok());
    }
  }
  const char* query = R"({"path_id": 1, "timestamp_ms": {"$gte": 200}})";
  const Value plan = coll.explain(filter(query));
  EXPECT_EQ(plan.get("plan")->as_string(), "index_range");
  EXPECT_EQ(plan.get("index")->as_string(), "path_id,timestamp_ms");
  EXPECT_EQ(plan.get_path("clauses.consumed")->as_int(), 2);
  EXPECT_FALSE(plan.get("residual")->as_bool());

  const auto docs = coll.find(filter(query));
  ASSERT_EQ(docs.size(), 3u);
  for (const Document& d : docs) {
    EXPECT_EQ(d.get("path_id")->as_int(), 1);
    EXPECT_GE(d.get("timestamp_ms")->as_int(), 200);
  }
}

TEST(QueryPlanner, WindowedPerPathQueryUsesCompoundIndexBesideSingleFields) {
  // measure::TestSuite's real paths_stats index set on a select-mix-shaped
  // population: 21 destinations x 13 paths x 40 samples.  A one-column
  // prefix of the compound index used to be costed as entries /
  // distinct_keys^(1/2) = sqrt(10920) / 2 = 52 for the window, which lost
  // to the single-field path_id estimate of 40: the windowed query ran as
  // a point scan over all 40 samples with a residual timestamp check.
  // The prefix now costs entries / distinct_first = 10920 / 273 / 2 = 20.
  Collection coll("paths_stats");
  coll.create_index("path_id");
  coll.create_index("server_id");
  coll.create_index("path_id,timestamp_ms");
  for (int t = 0; t < 40; ++t) {
    for (int server = 1; server <= 21; ++server) {
      for (int path = 0; path < 13; ++path) {
        const std::string path_id = util::format("%d_%d", server, path);
        ASSERT_TRUE(coll.insert_one(Value::object({{"path_id", path_id},
                                                   {"server_id", server},
                                                   {"timestamp_ms", t * 1000}}))
                        .ok());
      }
    }
  }
  const char* windowed =
      R"({"path_id": "3_2", "timestamp_ms": {"$gte": 36000}})";
  const Value plan = coll.explain(filter(windowed));
  EXPECT_EQ(plan.get("plan")->as_string(), "index_range");
  EXPECT_EQ(plan.get("index")->as_string(), "path_id,timestamp_ms");
  EXPECT_FALSE(plan.get("residual")->as_bool());
  EXPECT_DOUBLE_EQ(plan.get("estimated_candidates")->as_double(), 20.0);
  EXPECT_EQ(coll.find(filter(windowed)).size(), 4u);

  // The full-history query ties at 40 and keeps the first-declared
  // single-field index.
  const Value full = coll.explain(filter(R"({"path_id": "3_2"})"));
  EXPECT_EQ(full.get("plan")->as_string(), "index_point");
  EXPECT_EQ(full.get("index")->as_string(), "path_id");
  EXPECT_DOUBLE_EQ(full.get("estimated_candidates")->as_double(), 40.0);
}

TEST(Collection, ForEachMatchVisitsInPlaceInFindOrder) {
  Collection coll("c");
  coll.create_index("k");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(coll.insert_one(Value::object({{"k", i % 3}, {"i", i}})).ok());
  }
  FindOptions options;
  options.sort_by = "i";
  options.descending = true;
  options.skip = 1;
  const Filter by_k = filter(R"({"k": {"$in": [0, 2]}})");
  const std::vector<Document> found = coll.find(by_k, options);
  std::vector<const Document*> visited;
  coll.for_each_match(by_k, options, [&](const Document& d) {
    visited.push_back(&d);
    return true;
  });
  ASSERT_EQ(visited.size(), found.size());
  for (std::size_t i = 0; i < found.size(); ++i) {
    EXPECT_EQ(*visited[i], found[i]);
  }
  // In place: a second walk hands over the very same documents.
  std::size_t at = 0;
  coll.for_each_match(by_k, options, [&](const Document& d) {
    EXPECT_EQ(&d, visited[at++]);
    return true;
  });
  EXPECT_EQ(at, visited.size());
}

TEST(Collection, ForEachMatchStopsWhenTheVisitorSaysSo) {
  Collection coll("c");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(coll.insert_one(Value::object({{"i", i}})).ok());
  }
  std::vector<std::int64_t> seen;
  coll.for_each_match(Filter::match_all(), {}, [&](const Document& d) {
    seen.push_back(d.get("i")->as_int());
    return seen.size() < 3;
  });
  EXPECT_EQ(seen, (std::vector<std::int64_t>{0, 1, 2}));

  FindOptions none;
  none.limit = 0;
  bool called = false;
  coll.for_each_match(Filter::match_all(), none, [&](const Document&) {
    called = true;
    return true;
  });
  EXPECT_FALSE(called);
}

TEST(QueryPlanner, InFansOutToPointRanges) {
  Collection coll("stats");
  coll.create_index("server_id");
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(coll.insert_one(Value::object({{"server_id", i % 4}})).ok());
  }
  const char* query = R"({"server_id": {"$in": [1, 3]}})";
  EXPECT_EQ(plan_kind(coll, query), "index_point");
  EXPECT_EQ(coll.explain(filter(query)).get("ranges")->as_int(), 2);
  EXPECT_EQ(coll.count(filter(query)), 6u);
}

TEST(QueryPlanner, IndexedFindPreservesInsertionOrder) {
  Collection coll("stats");
  coll.create_index("server_id");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(coll.insert_one(Value::object({{"_id", util::format("d%d", i)},
                                               {"server_id", i % 2}}))
                    .ok());
  }
  const Filter query = filter(R"({"server_id": 1})");
  FindOptions forced;
  forced.force_scan = true;
  const auto planned = coll.find(query);
  const auto scanned = coll.find(query, forced);
  ASSERT_EQ(planned.size(), scanned.size());
  for (std::size_t i = 0; i < planned.size(); ++i) {
    EXPECT_EQ(planned[i], scanned[i]) << "position " << i;
  }
  // Insertion order: d1, d3, d5, ...
  EXPECT_EQ(planned.front().get("_id")->as_string(), "d1");
}

TEST(QueryPlanner, CoveredCountSkipsDocuments) {
  Collection coll("stats");
  coll.create_index("path_id");
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(coll.insert_one(Value::object({{"path_id", i % 3}})).ok());
  }
  EXPECT_EQ(coll.count(filter(R"({"path_id": 0})")), 10u);
  EXPECT_EQ(coll.count(filter(R"({"path_id": {"$gte": 1}})")), 20u);
  EXPECT_EQ(coll.count(Filter::match_all()), 30u);
}

TEST(QueryPlanner, CountMatchesScanWithResidual) {
  Collection coll("stats");
  coll.create_index("path_id");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(coll.insert_one(Value::object(
                                    {{"path_id", i % 4}, {"loss", i % 2}}))
                    .ok());
  }
  // path_id consumed by the index, loss stays residual.
  EXPECT_EQ(coll.count(filter(R"({"path_id": 1, "loss": 0})")), 0u);
  EXPECT_EQ(coll.count(filter(R"({"path_id": 1, "loss": 1})")), 5u);
}

TEST(QueryPlanner, SortStreamsOffIndexOrder) {
  Collection coll("stats");
  coll.create_index("latency_ms");
  for (const int v : {50, 10, 40, 20, 30}) {
    ASSERT_TRUE(coll.insert_one(Value::object({{"latency_ms", v}})).ok());
  }
  FindOptions options;
  options.sort_by = "latency_ms";
  options.limit = 3;
  const Value plan = coll.explain(Filter::match_all(), options);
  EXPECT_TRUE(plan.get("covers_sort")->as_bool());
  const auto docs = coll.find(Filter::match_all(), options);
  ASSERT_EQ(docs.size(), 3u);
  EXPECT_EQ(docs[0].get("latency_ms")->as_int(), 10);
  EXPECT_EQ(docs[1].get("latency_ms")->as_int(), 20);
  EXPECT_EQ(docs[2].get("latency_ms")->as_int(), 30);

  options.descending = true;
  const auto top = coll.find(Filter::match_all(), options);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].get("latency_ms")->as_int(), 50);
}

TEST(QueryPlanner, SortedStreamingMatchesScanOnTies) {
  Collection coll("stats");
  coll.create_index("v");
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(coll.insert_one(Value::object({{"_id", util::format("d%d", i)},
                                               {"v", i % 3}}))
                    .ok());
  }
  FindOptions sorted;
  sorted.sort_by = "v";
  FindOptions forced = sorted;
  forced.force_scan = true;
  const auto streamed = coll.find(Filter::match_all(), sorted);
  const auto scanned = coll.find(Filter::match_all(), forced);
  ASSERT_EQ(streamed.size(), scanned.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i], scanned[i]) << "position " << i;
  }
}

TEST(QueryPlanner, TopKHeapMatchesFullSortOnNonIndexedField) {
  Collection coll("stats");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(coll.insert_one(Value::object({{"_id", util::format("d%d", i)},
                                               {"v", (i * 37) % 50},
                                               {"tie", i % 5}}))
                    .ok());
  }
  FindOptions limited;
  limited.sort_by = "tie";  // heavy ties exercise the position tie-break
  limited.skip = 3;
  limited.limit = 10;
  FindOptions full = limited;
  full.skip = 0;
  full.limit.reset();
  const auto topk = coll.find(Filter::match_all(), limited);
  const auto everything = coll.find(Filter::match_all(), full);
  ASSERT_EQ(topk.size(), 10u);
  for (std::size_t i = 0; i < topk.size(); ++i) {
    EXPECT_EQ(topk[i], everything[i + 3]) << "position " << i;
  }
}

TEST(QueryPlanner, MultikeyRangeDoesNotIntersectBounds) {
  Collection coll("stats");
  coll.create_index("isds");
  // [-5, 100] matches {$gt: 0, $lt: 10} (any-element per clause) even
  // though no single element is inside (0, 10).
  ASSERT_TRUE(coll.insert_one(doc(R"({"isds": [-5, 100]})")).ok());
  ASSERT_TRUE(coll.insert_one(doc(R"({"isds": [5]})")).ok());
  ASSERT_TRUE(coll.insert_one(doc(R"({"isds": [200]})")).ok());
  const Filter query = filter(R"({"isds": {"$gt": 0, "$lt": 10}})");
  const auto docs = coll.find(query);
  EXPECT_EQ(docs.size(), 2u);
  EXPECT_EQ(coll.count(query), 2u);
  FindOptions forced;
  forced.force_scan = true;
  EXPECT_EQ(coll.find(query, forced).size(), 2u);
}

TEST(QueryPlanner, MissingFieldsFoldButNeverLeakIntoMatches) {
  Collection coll("stats");
  coll.create_index("v");
  ASSERT_TRUE(coll.insert_one(doc(R"({"v": 1})")).ok());
  ASSERT_TRUE(coll.insert_one(doc(R"({"other": 1})")).ok());
  ASSERT_TRUE(coll.insert_one(doc(R"({"v": null})")).ok());

  // $lt matches stored nulls (rank order) but never missing fields.
  const Filter query = filter(R"({"v": {"$lt": 5}})");
  EXPECT_EQ(coll.find(query).size(), 2u);
  EXPECT_EQ(coll.count(query), 2u);
  // Equality on null matches stored nulls only.
  const Filter null_eq = filter(R"({"v": null})");
  EXPECT_EQ(coll.find(null_eq).size(), 1u);
  EXPECT_EQ(coll.count(null_eq), 1u);
}

TEST(QueryPlanner, CompoundIndexDeclarationRoundTrips) {
  Collection coll("stats");
  coll.create_index("path_id,timestamp_ms");
  coll.create_index("path_id,timestamp_ms");  // idempotent
  coll.create_index(std::vector<std::string>{"server_id"});
  const auto specs = coll.indexed_fields();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0], "path_id,timestamp_ms");
  EXPECT_EQ(specs[1], "server_id");
}

}  // namespace
}  // namespace upin::docdb
