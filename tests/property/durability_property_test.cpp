// Property suites for durability and selection monotonicity.
#include <gtest/gtest.h>

#include <filesystem>

#include <map>

#include "apps/host.hpp"
#include "docdb/aggregate.hpp"
#include "docdb/database.hpp"
#include "measure/testsuite.hpp"
#include "select/selector.hpp"
#include "support/temp_path.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace upin {
namespace {

using docdb::Collection;
using docdb::Database;
using docdb::Document;
using util::Rng;
using util::Value;

// ----------------------------------------------- journal replay equivalence

/// Apply an identical random operation sequence to an in-memory database
/// and a journaled one; after reopening the journaled database, both must
/// hold exactly the same documents.  This is the crash-free half of the
/// §4.1.2 durability story (the crash half is the truncated-tail test in
/// journal_test.cpp).
class JournalEquivalenceProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

void random_operation(Rng& rng, Collection& coll, int& id_counter) {
  const auto choice = rng.uniform_int(0, 9);
  if (choice <= 4) {  // insert (most frequent)
    util::JsonObject doc;
    doc.set("_id", Value(util::format("d%d", id_counter++)));
    doc.set("v", Value(rng.uniform_int(0, 20)));
    doc.set("w", Value(rng.uniform(0.0, 1.0)));
    (void)coll.insert_one(Value(std::move(doc)));
  } else if (choice <= 6 && id_counter > 0) {  // delete a random id
    const auto victim = rng.uniform_int(0, id_counter - 1);
    (void)coll.delete_by_id("d" + std::to_string(victim));
  } else if (choice == 7) {  // batch insert
    std::vector<Document> batch;
    for (int i = 0; i < 3; ++i) {
      util::JsonObject doc;
      doc.set("_id", Value(util::format("d%d", id_counter++)));
      doc.set("v", Value(rng.uniform_int(0, 20)));
      batch.push_back(Value(std::move(doc)));
    }
    (void)coll.insert_many(std::move(batch));
  } else {  // update a slice
    util::JsonObject query;
    query.set("v", Value(rng.uniform_int(0, 20)));
    const auto filter = docdb::Filter::compile(Value(std::move(query)));
    util::JsonObject set;
    util::JsonObject fields;
    fields.set("touched", Value(true));
    set.set("$set", Value(std::move(fields)));
    (void)coll.update_many(filter.value(), Value(std::move(set)));
  }
}

TEST_P(JournalEquivalenceProperty, ReplayedStateMatchesInMemory) {
  const std::string path = test_support::temp_path("journal_prop", ".jsonl");
  std::filesystem::remove(path);

  Database memory;
  std::vector<Document> expected;
  {
    auto durable = Database::open(path);
    ASSERT_TRUE(durable.ok());
    Rng rng_memory(GetParam());
    Rng rng_durable(GetParam());
    int id_memory = 0;
    int id_durable = 0;
    for (int i = 0; i < 120; ++i) {
      random_operation(rng_memory, memory.collection("c"), id_memory);
      random_operation(rng_durable, durable.value()->collection("c"),
                       id_durable);
    }
  }

  auto reopened = Database::open(path);
  ASSERT_TRUE(reopened.ok());
  Collection& replayed = reopened.value()->collection("c");
  Collection& reference = memory.collection("c");
  ASSERT_EQ(replayed.size(), reference.size());
  reference.for_each([&](const Document& doc) {
    const auto id = docdb::document_id(doc);
    ASSERT_TRUE(id.has_value());
    const auto twin = replayed.find_by_id(*id);
    ASSERT_TRUE(twin.ok()) << "missing " << *id;
    EXPECT_EQ(twin.value(), doc);
  });
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalEquivalenceProperty,
                         ::testing::Values(3, 17, 58, 101, 999));

// ----------------------------------------- aggregation-vs-manual property

/// $group with $avg/$sum/$count must agree with a hand-rolled group-by
/// over randomly generated documents.
class AggregationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AggregationProperty, GroupMatchesManualComputation) {
  Rng rng(GetParam());
  Collection coll("c");
  std::map<std::int64_t, std::pair<double, std::size_t>> manual;  // key -> (sum, n)
  const auto docs = rng.uniform_int(1, 200);
  for (std::int64_t i = 0; i < docs; ++i) {
    const std::int64_t key = rng.uniform_int(0, 6);
    const double value = rng.uniform(-50.0, 50.0);
    util::JsonObject doc;
    doc.set("_id", Value(util::format("d%lld", static_cast<long long>(i))));
    doc.set("k", Value(key));
    doc.set("v", Value(value));
    ASSERT_TRUE(coll.insert_one(Value(std::move(doc))).ok());
    manual[key].first += value;
    ++manual[key].second;
  }

  const auto result = docdb::aggregate(
      coll, Value::parse(R"([
        {"$group": {"_id": "$k", "avg": {"$avg": "$v"},
                    "sum": {"$sum": "$v"}, "n": {"$count": {}}}},
        {"$sort": {"_id": 1}}
      ])").value());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), manual.size());
  std::size_t index = 0;
  for (const auto& [key, sums] : manual) {
    const Document& group = result.value()[index++];
    EXPECT_EQ(group.get("_id")->as_int(), key);
    EXPECT_EQ(group.get("n")->as_int(),
              static_cast<std::int64_t>(sums.second));
    EXPECT_NEAR(group.get("sum")->as_double(), sums.first, 1e-9);
    EXPECT_NEAR(group.get("avg")->as_double(),
                sums.first / static_cast<double>(sums.second), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregationProperty,
                         ::testing::Values(5, 25, 125, 625));

// -------------------------------------------- selection monotonicity laws

/// Adding a constraint can only shrink the admissible set, and the
/// admissible sets of a stricter request are subsets of the looser one's.
class SelectorMonotonicityProperty : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    env_ = new scion::ScionlabEnv(scion::scionlab_topology());
    db_ = new Database();
    apps::ScionHost host(*env_, 42, env_->user_as, "10.0.8.1");
    measure::TestSuiteConfig config;
    config.iterations = 5;
    config.server_ids = {{1, 2, 3, 4, 5}};
    measure::TestSuite suite(host, *db_, config);
    ASSERT_TRUE(suite.run().ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    delete env_;
    db_ = nullptr;
    env_ = nullptr;
  }
  static scion::ScionlabEnv* env_;
  static Database* db_;
};

scion::ScionlabEnv* SelectorMonotonicityProperty::env_ = nullptr;
Database* SelectorMonotonicityProperty::db_ = nullptr;

std::set<std::string> admissible(const select::PathSelector& selector,
                                 const select::UserRequest& request) {
  std::set<std::string> ids;
  const auto selection = selector.select(request);
  EXPECT_TRUE(selection.ok());
  if (selection.ok()) {
    for (const auto& ranked : selection.value().ranked) {
      ids.insert(ranked.summary.path_id);
    }
  }
  return ids;
}

bool is_subset(const std::set<std::string>& small,
               const std::set<std::string>& big) {
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

TEST_P(SelectorMonotonicityProperty, ConstraintsOnlyShrinkTheSet) {
  const select::PathSelector selector(*db_, env_->topology);
  const int server_id = GetParam();

  select::UserRequest loose;
  loose.server_id = server_id;
  const auto all = admissible(selector, loose);
  ASSERT_FALSE(all.empty());

  // Single constraints.
  for (const auto& constrain :
       std::vector<std::function<void(select::UserRequest&)>>{
           [](auto& r) { r.max_latency_ms = 100.0; },
           [](auto& r) { r.max_loss_pct = 1.0; },
           [](auto& r) { r.max_jitter_ms = 1.0; },
           [](auto& r) { r.exclude_countries = {"US"}; },
           [](auto& r) { r.exclude_countries = {"SG"}; },
           [](auto& r) { r.exclude_isds = {19}; },
           [](auto& r) { r.min_samples = 5; },
       }) {
    select::UserRequest strict = loose;
    constrain(strict);
    const auto subset = admissible(selector, strict);
    EXPECT_TRUE(is_subset(subset, all));

    // Composition with a second constraint shrinks further.
    select::UserRequest stricter = strict;
    stricter.max_latency_ms = 60.0;
    EXPECT_TRUE(is_subset(admissible(selector, stricter), subset));
  }
}

TEST_P(SelectorMonotonicityProperty, RankedPlusRejectedIsTotal) {
  const select::PathSelector selector(*db_, env_->topology);
  select::UserRequest request;
  request.server_id = GetParam();
  request.max_latency_ms = 120.0;
  request.exclude_countries = {"US"};
  const auto selection = selector.select(request);
  ASSERT_TRUE(selection.ok());
  const auto summaries = selector.summarize(GetParam());
  ASSERT_TRUE(summaries.ok());
  EXPECT_EQ(selection.value().ranked.size() + selection.value().rejected.size(),
            summaries.value().size());
}

INSTANTIATE_TEST_SUITE_P(FeaturedServers, SelectorMonotonicityProperty,
                         ::testing::Range(1, 6));

}  // namespace
}  // namespace upin
