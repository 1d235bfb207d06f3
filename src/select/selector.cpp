#include "select/selector.hpp"

#include <algorithm>
#include <array>

#include "measure/schema.hpp"
#include "scion/path.hpp"
#include "util/strings.hpp"

namespace upin::select {

using docdb::Document;
using docdb::Filter;
using measure::PathRecord;
using measure::StatsView;
using util::ErrorCode;
using util::Result;
using util::Value;

PathSelector::PathSelector(const docdb::Database& db,
                           const scion::Topology& topology)
    : db_(db), topology_(topology) {}

namespace {

/// The seven sample columns a path's summary aggregates, reused across
/// the paths of a summarize() call so their buffers are allocated once.
using SampleColumns = std::array<std::vector<double>, 7>;

/// `record`'s summary over the paths_stats documents `stats` holds for it
/// (at or after `since_ms` when set).  Moves the record's strings out.
Result<PathSummary> summarize_path(PathRecord&& record,
                                   const docdb::Collection& stats,
                                   std::optional<std::int64_t> since_ms,
                                   SampleColumns& columns) {
  PathSummary summary;
  summary.path_id = std::move(record.id);
  summary.server_id = record.server_id;
  summary.sequence = std::move(record.sequence);
  summary.hop_count = record.hop_count;
  summary.isds = std::move(record.isds);
  summary.mtu = record.mtu;

  Result<scion::Path> parsed = scion::Path::parse_sequence(summary.sequence);
  if (parsed.ok()) {
    for (const scion::PathHop& hop : parsed.value().hops()) {
      summary.hops.push_back(hop.ia);
    }
  }

  util::JsonObject query;
  query.set("path_id", Value(summary.path_id));
  if (since_ms.has_value()) {
    query.set("timestamp_ms", Value::object({{"$gte", Value(*since_ms)}}));
  }
  Result<Filter> by_path = Filter::compile(Value(std::move(query)));
  if (!by_path.ok()) return Result<PathSummary>(by_path.error());

  for (std::vector<double>& column : columns) column.clear();
  auto& [latencies, losses, jitters, bw_down_mtu, bw_up_mtu, bw_down_64,
         bw_up_64] = columns;
  const auto add = [](std::vector<double>& to, std::optional<double> value) {
    if (value.has_value()) to.push_back(*value);
  };
  // Read each document in place, in find()'s order, so every mean sums
  // the same values in the same order as a copying read would.
  stats.for_each_match(by_path.value(), {}, [&](const Document& doc) {
    Result<StatsView> sample = measure::view_stats_document(doc);
    if (!sample.ok()) return true;  // tolerate foreign documents
    const StatsView& view = sample.value();
    ++summary.samples;
    losses.push_back(view.loss_pct);
    add(latencies, view.latency_ms);
    add(jitters, view.jitter_ms);
    add(bw_down_mtu, view.bw_down_mtu);
    add(bw_up_mtu, view.bw_up_mtu);
    add(bw_down_64, view.bw_down_64);
    add(bw_up_64, view.bw_up_64);
    return true;
  });

  summary.latency_samples = latencies.size();
  if (!latencies.empty()) summary.latency_ms = util::box_stats(latencies);
  if (!losses.empty()) summary.mean_loss_pct = util::mean(losses);
  if (!jitters.empty()) summary.mean_jitter_ms = util::mean(jitters);
  if (!bw_down_mtu.empty()) summary.mean_bw_down_mtu = util::mean(bw_down_mtu);
  if (!bw_up_mtu.empty()) summary.mean_bw_up_mtu = util::mean(bw_up_mtu);
  if (!bw_down_64.empty()) summary.mean_bw_down_64 = util::mean(bw_down_64);
  if (!bw_up_64.empty()) summary.mean_bw_up_64 = util::mean(bw_up_64);
  return summary;
}

}  // namespace

Result<std::vector<PathSummary>> PathSelector::summarize(
    int server_id, std::optional<std::int64_t> since_ms) const {
  const docdb::Collection* paths = db_.find_collection(measure::kPaths);
  if (paths == nullptr) {
    return util::Error{ErrorCode::kNotFound, "paths collection does not exist"};
  }
  util::JsonObject query;
  query.set("server_id", Value(server_id));
  Result<Filter> by_server = Filter::compile(Value(std::move(query)));
  if (!by_server.ok()) {
    return Result<std::vector<PathSummary>>(by_server.error());
  }
  docdb::FindOptions in_order;
  in_order.sort_by = "path_index";

  // Decode the path documents in place, stopping at the first malformed
  // one.  The stats queries run after this returns, so no collection
  // lock is held while another is taken.
  std::vector<PathRecord> records;
  std::optional<util::Error> malformed;
  paths->for_each_match(by_server.value(), in_order, [&](const Document& doc) {
    Result<PathRecord> record = measure::parse_path_document(doc);
    if (!record.ok()) {
      malformed = record.error();
      return false;
    }
    records.push_back(std::move(record).value());
    return true;
  });

  // Errors surface in the order a path-by-path read meets them: the
  // first path's own decoding, then the missing stats collection.
  const docdb::Collection* stats = db_.find_collection(measure::kPathsStats);
  if (stats == nullptr && !records.empty()) {
    return util::Error{ErrorCode::kNotFound, "paths_stats does not exist"};
  }
  if (malformed.has_value()) {
    return Result<std::vector<PathSummary>>(std::move(*malformed));
  }

  std::vector<PathSummary> summaries;
  summaries.reserve(records.size());
  SampleColumns columns;
  for (PathRecord& record : records) {
    Result<PathSummary> summary =
        summarize_path(std::move(record), *stats, since_ms, columns);
    if (!summary.ok()) return Result<std::vector<PathSummary>>(summary.error());
    summaries.push_back(std::move(summary).value());
  }
  return summaries;
}

namespace {

/// The shared paper-objective instance the façade entry points delegate
/// to (it is stateless, so one is enough).
const PathSelectionStrategy& paper_strategy() {
  static const std::unique_ptr<PathSelectionStrategy> strategy =
      std::move(StrategyRegistry::global().create(kPaperObjective)).value();
  return *strategy;
}

}  // namespace

std::optional<std::string> PathSelector::rejection_reason(
    const PathSummary& summary, const UserRequest& request) const {
  return check_admission(summary, request, context(), paper_strategy())
      .rejection;
}

Result<Selection> PathSelector::select(const UserRequest& request) const {
  return select_with(kPaperObjective, request);
}

Result<Selection> PathSelector::select_with(std::string_view strategy_key,
                                            const UserRequest& request,
                                            const util::JsonObject& knobs) const {
  Result<std::unique_ptr<PathSelectionStrategy>> strategy =
      StrategyRegistry::global().create(strategy_key, knobs);
  if (!strategy.ok()) return Result<Selection>(strategy.error());
  Result<std::vector<PathSummary>> summaries =
      summarize(request.server_id, request.since_timestamp_ms);
  if (!summaries.ok()) return Result<Selection>(summaries.error());
  return strategy.value()->rank(summaries.value(), request, context());
}

Result<RankedPath> PathSelector::best(const UserRequest& request) const {
  Result<Selection> selection = select(request);
  if (!selection.ok()) return Result<RankedPath>(selection.error());
  if (selection.value().ranked.empty()) {
    return util::Error{ErrorCode::kNotFound,
                       "no path satisfies: " + request.describe()};
  }
  return selection.value().ranked.front();
}

}  // namespace upin::select
