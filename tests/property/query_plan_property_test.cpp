// Planner equivalence property: for generated documents, index
// declarations, filters and find options, the planner-chosen execution
// and a forced collection scan must return identical ordered results —
// same documents, same order, same counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "docdb/collection.hpp"
#include "docdb/filter.hpp"
#include "support/rewrite_matches.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace upin {
namespace {

using docdb::Collection;
using docdb::Filter;
using docdb::FindOptions;
using test_support::delete_matches;
using test_support::rewrite_matches;
using util::Rng;
using util::Value;

constexpr const char* kFields[] = {"a", "b", "c"};

Value random_scalar(Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0: return Value(nullptr);
    case 1: return Value(rng.bernoulli(0.5));
    case 2: return Value(rng.uniform_int(0, 9));
    // Halves collide with the ints half the time — exercises the
    // int/double key folding.
    case 3: return Value(static_cast<double>(rng.uniform_int(0, 18)) / 2.0);
    default: return Value("s" + std::to_string(rng.uniform_int(0, 5)));
  }
}

Value random_field_value(Rng& rng) {
  if (rng.bernoulli(0.15)) {  // arrays drive the multikey machinery
    Value::Array array;
    const std::int64_t n = rng.uniform_int(0, 3);
    for (std::int64_t i = 0; i < n; ++i) array.push_back(random_scalar(rng));
    return Value(std::move(array));
  }
  return random_scalar(rng);
}

Value random_query(Rng& rng) {
  util::JsonObject query;
  const std::int64_t clauses = rng.uniform_int(1, 3);
  for (std::int64_t i = 0; i < clauses; ++i) {
    const std::string field = kFields[rng.uniform_int(0, 2)];
    const std::int64_t op = rng.uniform_int(0, 8);
    if (op == 0) {
      query.set(field, random_field_value(rng));
      continue;
    }
    util::JsonObject block;
    switch (op) {
      case 1: block.set("$eq", random_scalar(rng)); break;
      case 2: block.set("$gt", random_scalar(rng)); break;
      case 3: block.set("$gte", random_scalar(rng)); break;
      case 4: block.set("$lt", random_scalar(rng)); break;
      case 5: block.set("$lte", random_scalar(rng)); break;
      case 6:
      case 7: {
        Value::Array list;
        const std::int64_t n = rng.uniform_int(0, 3);
        for (std::int64_t j = 0; j < n; ++j) list.push_back(random_scalar(rng));
        block.set(op == 6 ? "$in" : "$nin", Value(std::move(list)));
        break;
      }
      default: block.set("$ne", random_scalar(rng)); break;
    }
    // Mixed windows ($gte + $lt on one field) probe bound intersection.
    if (op >= 2 && op <= 5 && rng.bernoulli(0.35)) {
      block.set(rng.bernoulli(0.5) ? "$lt" : "$gte", random_scalar(rng));
    }
    query.set(field, Value(std::move(block)));
  }
  return Value(std::move(query));
}

std::string options_label(const FindOptions& options) {
  std::string label = "sort_by=" + options.sort_by;
  label += options.descending ? " desc" : " asc";
  label += " skip=" + std::to_string(options.skip);
  if (options.limit.has_value()) {
    label += " limit=" + std::to_string(*options.limit);
  }
  return label;
}

class QueryPlanProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueryPlanProperty, PlannedAndScannedExecutionAgree) {
  Rng rng(GetParam());
  Collection coll("stats");

  // Random index declarations, including compound ones.
  for (const char* spec : {"a", "b", "c", "a,b", "b,c"}) {
    if (rng.bernoulli(0.5)) coll.create_index(spec);
  }

  const std::int64_t docs = rng.uniform_int(60, 180);
  for (std::int64_t i = 0; i < docs; ++i) {
    util::JsonObject d;
    for (const char* field : kFields) {
      if (!rng.bernoulli(0.15)) d.set(field, random_field_value(rng));
    }
    ASSERT_TRUE(coll.insert_one(Value(std::move(d))).ok());
  }
  // Churn exercises index maintenance under the same invariant.
  for (int round = 0; round < 2; ++round) {
    const auto to_delete = Filter::compile(random_query(rng));
    ASSERT_TRUE(to_delete.ok());
    delete_matches(coll, to_delete.value());
    const auto to_update = Filter::compile(random_query(rng));
    ASSERT_TRUE(to_update.ok());
    const std::string field = kFields[rng.uniform_int(0, 2)];
    const Value value = random_field_value(rng);
    rewrite_matches(coll, to_update.value(),
                    [&](docdb::Document& d) { d[field] = value; });
  }

  // Visitor stop points draw from their own stream, so the documents,
  // indexes and queries above stay those of the scan-only property.
  Rng stop_rng(GetParam() + 1000);
  for (int q = 0; q < 25; ++q) {
    const Value query = random_query(rng);
    const auto compiled = Filter::compile(query);
    ASSERT_TRUE(compiled.ok()) << query.dump();
    const Filter& filter = compiled.value();

    FindOptions options;
    if (rng.bernoulli(0.6)) {
      options.sort_by = kFields[rng.uniform_int(0, 2)];
      options.descending = rng.bernoulli(0.5);
    }
    if (rng.bernoulli(0.4)) {
      options.skip = static_cast<std::size_t>(rng.uniform_int(0, 5));
    }
    if (rng.bernoulli(0.5)) {
      options.limit = static_cast<std::size_t>(rng.uniform_int(0, 20));
    }
    FindOptions forced = options;
    forced.force_scan = true;

    const std::string context =
        query.dump() + " [" + options_label(options) + "] plan=" +
        coll.explain(filter, options).dump();
    const auto planned = coll.find(filter, options);
    const auto scanned = coll.find(filter, forced);
    ASSERT_EQ(planned.size(), scanned.size()) << context;
    for (std::size_t i = 0; i < planned.size(); ++i) {
      ASSERT_EQ(planned[i], scanned[i]) << context << " position " << i;
    }

    // The visitor walks exactly find()'s documents, in find()'s order —
    // the collection's own, not copies — and a residual-free plan, which
    // skips the per-candidate filter, still agrees with the forced scan.
    std::vector<const docdb::Document*> visited;
    coll.for_each_match(filter, options, [&](const docdb::Document& d) {
      visited.push_back(&d);
      return true;
    });
    ASSERT_EQ(visited.size(), scanned.size()) << context;
    for (std::size_t i = 0; i < visited.size(); ++i) {
      ASSERT_EQ(*visited[i], scanned[i]) << context << " visit " << i;
    }
    // Stopping after k documents sees exactly the first k.
    if (!visited.empty()) {
      const auto k = static_cast<std::size_t>(stop_rng.uniform_int(
          1, static_cast<std::int64_t>(visited.size())));
      std::vector<const docdb::Document*> stopped;
      coll.for_each_match(filter, options, [&](const docdb::Document& d) {
        stopped.push_back(&d);
        return stopped.size() < k;
      });
      ASSERT_EQ(stopped.size(), k) << context;
      for (std::size_t i = 0; i < k; ++i) {
        ASSERT_EQ(stopped[i], visited[i]) << context << " stop " << i;
      }
    }

    // count() agrees with an unlimited forced scan.
    FindOptions scan_all;
    scan_all.force_scan = true;
    EXPECT_EQ(coll.count(filter), coll.find(filter, scan_all).size())
        << context;
  }
}

TEST_P(QueryPlanProperty, ResidualFreePlansSkipTheFilterAndStillAgree) {
  // Residual-free plans are rare above (arrays, missing fields and extra
  // clauses keep the filter), so this population is built to produce
  // them: scalar fields only, every field present, every field indexed,
  // queries the indexes consume whole.  for_each_match() then never runs
  // the filter, and must still visit exactly the forced scan's documents.
  Rng rng(GetParam());
  Collection coll("stats");
  for (const char* spec : {"a", "b", "c", "a,b"}) coll.create_index(spec);
  const auto random_doc = [&rng] {
    util::JsonObject d;
    for (const char* field : kFields) d.set(field, random_scalar(rng));
    return Value(std::move(d));
  };
  const std::int64_t docs = rng.uniform_int(60, 180);
  for (std::int64_t i = 0; i < docs; ++i) {
    ASSERT_TRUE(coll.insert_one(random_doc()).ok());
  }
  const Value new_a = random_scalar(rng);
  rewrite_matches(
      coll, Filter::compile(Value::object({{"b", random_scalar(rng)}})).value(),
      [&](docdb::Document& d) { d["a"] = new_a; });
  delete_matches(coll, Filter::compile(Value::object(
                                           {{"c", random_scalar(rng)}}))
                           .value());

  std::size_t residual_free = 0;
  for (int q = 0; q < 25; ++q) {
    util::JsonObject query;
    const std::string field =
        rng.bernoulli(0.3) ? "a" : kFields[rng.uniform_int(0, 2)];
    util::JsonObject block;
    switch (rng.uniform_int(0, 3)) {
      case 0: query.set(field, random_scalar(rng)); break;
      case 1: {
        Value::Array in;
        for (std::int64_t j = rng.uniform_int(1, 3); j > 0; --j) {
          in.push_back(random_scalar(rng));
        }
        block.set("$in", Value(std::move(in)));
        break;
      }
      default:
        block.set(rng.bernoulli(0.5) ? "$gt" : "$gte", random_scalar(rng));
        if (rng.bernoulli(0.5)) {
          block.set(rng.bernoulli(0.5) ? "$lt" : "$lte", random_scalar(rng));
        }
        break;
    }
    if (!block.empty()) query.set(field, Value(std::move(block)));
    if (field == "a" && rng.bernoulli(0.5)) {  // the compound shape
      query.set("b", Value::object({{"$gte", random_scalar(rng)}}));
    }
    const Value query_value(std::move(query));
    const auto compiled = Filter::compile(query_value);
    ASSERT_TRUE(compiled.ok()) << query_value.dump();

    FindOptions options;
    if (rng.bernoulli(0.5)) {
      options.sort_by = kFields[rng.uniform_int(0, 2)];
      options.descending = rng.bernoulli(0.5);
    }
    if (rng.bernoulli(0.3)) {
      options.skip = static_cast<std::size_t>(rng.uniform_int(0, 5));
    }
    if (rng.bernoulli(0.3)) {
      options.limit = static_cast<std::size_t>(rng.uniform_int(0, 20));
    }
    FindOptions forced = options;
    forced.force_scan = true;

    const Value plan = coll.explain(compiled.value(), options);
    if (!plan.get("residual")->as_bool()) ++residual_free;
    const std::string context = query_value.dump() + " [" +
                                options_label(options) +
                                "] plan=" + plan.dump();
    const auto scanned = coll.find(compiled.value(), forced);
    std::vector<docdb::Document> visited;
    coll.for_each_match(compiled.value(), options,
                        [&](const docdb::Document& d) {
                          visited.push_back(d);
                          return true;
                        });
    ASSERT_EQ(visited.size(), scanned.size()) << context;
    for (std::size_t i = 0; i < visited.size(); ++i) {
      ASSERT_EQ(visited[i], scanned[i]) << context << " position " << i;
    }
  }
  EXPECT_GE(residual_free, 10u) << "population no longer exercises the skip";
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryPlanProperty,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace upin
