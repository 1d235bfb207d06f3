// ablation_query — ordered secondary indexes vs collection scans.
//
// The selection layer queries paths_stats by path_id thousands of times
// per aggregation, and §6's per-path summaries add timestamp windows on
// top.  This harness measures the planner's five core shapes — point,
// range, compound prefix+window, $in fan-out, and sort+limit — against a
// forced collection scan of the same data, at paper scale (~3k docs),
// 100k, and 1M documents.  Results land in BENCH_query.json.
//
// Usage:
//   ablation_query                 full sweep (3k / 100k / 1M)
//   ablation_query --gate          100k only; exit 1 unless the indexed
//                                  point query is >= 10x faster than the
//                                  scan (CI smoke gate)
//   ablation_query --out FILE      write the JSON report to FILE
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "docdb/collection.hpp"
#include "docdb/filter.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using namespace upin;
using util::Value;

docdb::Filter compile(const std::string& query) {
  auto filter = docdb::Filter::compile(Value::parse(query).value());
  if (!filter.ok()) std::abort();
  return std::move(filter).value();
}

/// ~125 documents per path at every scale, so the point query's result
/// size stays constant while the scanned corpus grows.
int paths_for(int documents) { return documents < 3000 ? 24 : documents / 125; }

std::unique_ptr<docdb::Collection> make_collection(int documents) {
  auto coll = std::make_unique<docdb::Collection>("paths_stats");
  coll->create_index("path_id");
  coll->create_index("timestamp_ms");
  coll->create_index("path_id,timestamp_ms");
  const int paths = paths_for(documents);
  std::vector<docdb::Document> docs;
  docs.reserve(static_cast<std::size_t>(documents));
  for (int i = 0; i < documents; ++i) {
    docs.push_back(Value::object({
        {"_id", util::format("d%d", i)},
        {"path_id", util::format("p%d", i % paths)},
        {"server_id", i % paths / 12 + 1},
        {"timestamp_ms", static_cast<std::int64_t>(i) * 1000},
        {"latency_ms", 30.0 + i % 50},
        {"hop_count", 6 + i % 2},
    }));
  }
  if (!coll->insert_many(std::move(docs)).ok()) std::abort();
  return coll;
}

template <typename Fn>
double mean_us(int iterations, Fn&& fn) {
  // One warm-up pass, then a timed loop; the sink defeats dead-code
  // elimination of the find() results.
  static volatile std::size_t sink = 0;
  sink = sink + fn();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) sink = sink + fn();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::micro>(elapsed).count() /
         iterations;
}

struct QueryCase {
  std::string name;
  docdb::Filter filter;
  docdb::FindOptions options;  // force_scan toggled per side
};

std::vector<QueryCase> make_cases(int documents) {
  const int paths = paths_for(documents);
  std::vector<QueryCase> cases;
  auto add = [&](std::string name, std::string query,
                 docdb::FindOptions options = {}) {
    cases.push_back({std::move(name), compile(query), std::move(options)});
  };
  // Every shape targets the middle of the corpus so neither side gets an
  // early-exit advantage.
  const std::int64_t mid_ts = static_cast<std::int64_t>(documents) / 2 * 1000;
  const std::string mid_path = "p" + std::to_string(paths / 2);
  add("point", "{\"path_id\": \"" + mid_path + "\"}");
  add("range", "{\"timestamp_ms\": {\"$gte\": " + std::to_string(mid_ts) +
                   ", \"$lt\": " + std::to_string(mid_ts + 1000 * 1000) +
                   "}}");
  add("compound", "{\"path_id\": \"" + mid_path +
                      "\", \"timestamp_ms\": {\"$gte\": " +
                      std::to_string(mid_ts) + "}}");
  add("in", "{\"path_id\": {\"$in\": [\"p1\", \"" + mid_path + "\", \"p" +
                std::to_string(paths - 1) + "\"]}}");
  docdb::FindOptions sorted;
  sorted.sort_by = "timestamp_ms";
  sorted.descending = true;
  sorted.limit = 100;
  add("sort_limit", "{\"hop_count\": {\"$gte\": 6}}", sorted);
  return cases;
}

Value run_scale(int documents, bool* gate_ok) {
  std::fprintf(stderr, "[ablation_query] building %d documents...\n",
               documents);
  const auto build_start = std::chrono::steady_clock::now();
  const auto coll = make_collection(documents);
  const double build_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - build_start)
          .count();

  // Size iteration counts off the scan side so each cell costs roughly
  // the same wall-clock regardless of scale.
  const int iterations = documents >= 1'000'000 ? 3
                         : documents >= 100'000 ? 20
                                                : 200;
  Value::Array queries;
  for (QueryCase& qc : make_cases(documents)) {
    docdb::FindOptions forced = qc.options;
    forced.force_scan = true;
    const Value plan = coll->explain(qc.filter, qc.options);
    const std::size_t matches = coll->find(qc.filter, forced).size();
    const double indexed_us = mean_us(
        iterations, [&] { return coll->find(qc.filter, qc.options).size(); });
    const double scan_us = mean_us(
        iterations, [&] { return coll->find(qc.filter, forced).size(); });
    const double speedup = indexed_us > 0.0 ? scan_us / indexed_us : 0.0;
    std::fprintf(stderr,
                 "[ablation_query] %8d docs  %-10s  indexed %10.1f us  "
                 "scan %12.1f us  speedup %7.1fx  (%zu matches)\n",
                 documents, qc.name.c_str(), indexed_us, scan_us, speedup,
                 matches);
    if (gate_ok != nullptr && qc.name == "point" && speedup < 10.0) {
      *gate_ok = false;
    }
    queries.push_back(Value::object({
        {"name", qc.name},
        {"plan", plan},
        {"matches", static_cast<std::int64_t>(matches)},
        {"iterations", iterations},
        {"indexed_us", indexed_us},
        {"scan_us", scan_us},
        {"speedup", speedup},
    }));
  }
  return Value::object({
      {"documents", documents},
      {"build_ms", build_ms},
      {"queries", Value(std::move(queries))},
  });
}

}  // namespace

int main(int argc, char** argv) {
  bool gate = false;
  std::string out_path = "BENCH_query.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  const std::vector<int> scales =
      gate ? std::vector<int>{100'000}
           : std::vector<int>{3'000, 100'000, 1'000'000};
  bool gate_ok = true;
  Value::Array results;
  for (const int documents : scales) {
    results.push_back(run_scale(documents, gate ? &gate_ok : nullptr));
  }

  const Value report = Value::object({
      {"bench", "ablation_query"},
      {"gate", gate},
      {"scales", Value(std::move(results))},
  });
  std::ofstream out(out_path);
  out << report.dump(2) << "\n";
  out.close();
  std::fprintf(stderr, "[ablation_query] wrote %s\n", out_path.c_str());

  if (gate && !gate_ok) {
    std::fprintf(stderr,
                 "[ablation_query] GATE FAILED: indexed point query is "
                 "not >= 10x faster than the scan at 100k documents\n");
    return 1;
  }
  return 0;
}
