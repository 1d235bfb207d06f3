#include "measure/schema.hpp"

#include <array>
#include <string_view>
#include <utility>

#include "util/strings.hpp"

namespace upin::measure {

using docdb::Document;
using util::ErrorCode;
using util::JsonObject;
using util::Result;
using util::Value;

std::string path_doc_id(int server_id, int path_index) {
  return std::to_string(server_id) + "_" + std::to_string(path_index);
}

std::string stats_doc_id(const std::string& path_id, util::SimTime t) {
  return path_id + "_" + util::timestamp_token(t);
}

Document server_document(int server_id, const scion::SnetAddress& addr) {
  JsonObject doc;
  doc.set("_id", Value(std::to_string(server_id)));
  doc.set("server_id", Value(server_id));
  doc.set("address", Value(addr.to_string()));
  doc.set("isd_as", Value(addr.ia.to_string()));
  doc.set("host", Value(addr.host));
  return Value(std::move(doc));
}

namespace {

Value isd_array(const std::set<std::uint16_t>& isds) {
  Value::Array array;
  for (const std::uint16_t isd : isds) {
    array.emplace_back(static_cast<std::int64_t>(isd));
  }
  return Value(std::move(array));
}

}  // namespace

Document path_document(int server_id, int path_index,
                       const scion::Path& path) {
  JsonObject doc;
  doc.set("_id", Value(path_doc_id(server_id, path_index)));
  doc.set("server_id", Value(server_id));
  doc.set("path_index", Value(path_index));
  doc.set("sequence", Value(path.sequence()));
  Value::Array hops;
  for (const scion::PathHop& hop : path.hops()) {
    hops.emplace_back(hop.ia.to_string());
  }
  doc.set("hops", Value(std::move(hops)));
  doc.set("isds", isd_array(path.isd_set()));
  doc.set("hop_count", Value(path.hop_count()));
  doc.set("mtu", Value(path.mtu()));
  doc.set("status", Value(path.status()));
  doc.set("static_latency_ms", Value(util::to_millis(path.static_latency())));
  return Value(std::move(doc));
}

Document stats_document(const StatsSample& sample) {
  JsonObject doc;
  doc.reserve(9 + static_cast<std::size_t>(sample.latency_ms.has_value()) +
              static_cast<std::size_t>(sample.jitter_ms.has_value()));
  doc.set("_id", Value(stats_doc_id(sample.path_id, sample.timestamp)));
  doc.set("path_id", Value(sample.path_id));
  doc.set("server_id", Value(sample.server_id));
  doc.set("timestamp_ms",
          Value(static_cast<std::int64_t>(sample.timestamp.count() / 1'000'000)));
  doc.set("hop_count", Value(sample.hop_count));
  Value::Array isds;
  isds.reserve(sample.isds.size());
  for (const std::int64_t isd : sample.isds) isds.emplace_back(isd);
  doc.set("isds", Value(std::move(isds)));
  if (sample.latency_ms.has_value()) {
    doc.set("latency_ms", Value(*sample.latency_ms));
  }
  doc.set("loss_pct", Value(sample.loss_pct));
  if (sample.jitter_ms.has_value()) {
    doc.set("jitter_ms", Value(*sample.jitter_ms));
  }
  JsonObject bw;
  bw.reserve(static_cast<std::size_t>(sample.bw_up_64.has_value()) +
             static_cast<std::size_t>(sample.bw_down_64.has_value()) +
             static_cast<std::size_t>(sample.bw_up_mtu.has_value()) +
             static_cast<std::size_t>(sample.bw_down_mtu.has_value()));
  if (sample.bw_up_64.has_value()) bw.set("up_64", Value(*sample.bw_up_64));
  if (sample.bw_down_64.has_value()) bw.set("down_64", Value(*sample.bw_down_64));
  if (sample.bw_up_mtu.has_value()) bw.set("up_mtu", Value(*sample.bw_up_mtu));
  if (sample.bw_down_mtu.has_value()) bw.set("down_mtu", Value(*sample.bw_down_mtu));
  doc.set("bw", Value(std::move(bw)));
  doc.set("target_mbps", Value(sample.target_mbps));
  return Value(std::move(doc));
}

namespace {

Result<std::vector<std::int64_t>> read_isds(const Document& doc) {
  const Value* isds = doc.get("isds");
  if (isds == nullptr || !isds->is_array()) {
    return util::Error{ErrorCode::kParseError, "document missing isds array"};
  }
  std::vector<std::int64_t> result;
  for (const Value& isd : isds->as_array()) {
    if (!isd.is_int()) {
      return util::Error{ErrorCode::kParseError, "non-integer isd entry"};
    }
    result.push_back(isd.as_int());
  }
  return result;
}

}  // namespace

Result<PathRecord> parse_path_document(const Document& doc) {
  PathRecord record;
  const auto id = docdb::document_id(doc);
  if (!id.has_value()) {
    return util::Error{ErrorCode::kParseError, "paths doc missing _id"};
  }
  record.id = std::string(*id);

  const Value* server_id = doc.get("server_id");
  const Value* path_index = doc.get("path_index");
  const Value* sequence = doc.get("sequence");
  const Value* hop_count = doc.get("hop_count");
  const Value* mtu = doc.get("mtu");
  const Value* status = doc.get("status");
  if (server_id == nullptr || !server_id->is_int() || path_index == nullptr ||
      !path_index->is_int() || sequence == nullptr || !sequence->is_string() ||
      hop_count == nullptr || !hop_count->is_int() || mtu == nullptr ||
      !mtu->is_number()) {
    return util::Error{ErrorCode::kParseError, "paths doc missing fields"};
  }
  record.server_id = static_cast<int>(server_id->as_int());
  record.path_index = static_cast<int>(path_index->as_int());
  record.sequence = sequence->as_string();
  record.hop_count = static_cast<std::size_t>(hop_count->as_int());
  record.mtu = mtu->as_double();
  record.status = status != nullptr && status->is_string()
                      ? status->as_string()
                      : std::string("unknown");
  Result<std::vector<std::int64_t>> isds = read_isds(doc);
  if (!isds.ok()) return Result<PathRecord>(isds.error());
  record.isds = std::move(isds).value();
  return record;
}

namespace {

/// The top-level fields view_stats_document() reads, picked up in one
/// walk over the document.
enum StatsField {
  kPathId,
  kServerId,
  kTimestampMs,
  kHopCount,
  kLossPct,
  kIsds,
  kLatencyMs,
  kJitterMs,
  kBw,
  kTargetMbps,
  kStatsFieldCount
};

/// The field `key` names, or kStatsFieldCount for a foreign key.  The
/// length (and, among the three 9-character names, the first letter)
/// leaves one candidate, so each key is compared with one name at most.
StatsField stats_field(std::string_view key) noexcept {
  const auto if_named = [key](std::string_view name, StatsField field) {
    return key == name ? field : kStatsFieldCount;
  };
  switch (key.size()) {
    case 2: return if_named("bw", kBw);
    case 4: return if_named("isds", kIsds);
    case 7: return if_named("path_id", kPathId);
    case 8: return if_named("loss_pct", kLossPct);
    case 9:
      switch (key[0]) {
        case 's': return if_named("server_id", kServerId);
        case 'h': return if_named("hop_count", kHopCount);
        case 'j': return if_named("jitter_ms", kJitterMs);
        default: return kStatsFieldCount;
      }
    case 10: return if_named("latency_ms", kLatencyMs);
    case 11: return if_named("target_mbps", kTargetMbps);
    case 12: return if_named("timestamp_ms", kTimestampMs);
    default: return kStatsFieldCount;
  }
}

/// The `bw` columns, told apart by length alone.
enum BwColumn { kUp64, kDown64, kUpMtu, kDownMtu, kBwColumnCount };

BwColumn bw_column(std::string_view key) noexcept {
  const auto if_named = [key](std::string_view name, BwColumn column) {
    return key == name ? column : kBwColumnCount;
  };
  switch (key.size()) {
    case 5: return if_named("up_64", kUp64);
    case 6: return if_named("up_mtu", kUpMtu);
    case 7: return if_named("down_64", kDown64);
    case 8: return if_named("down_mtu", kDownMtu);
    default: return kBwColumnCount;
  }
}

std::optional<double> optional_double(const Value* value) {
  if (value == nullptr || !value->is_number()) return std::nullopt;
  return value->as_double();
}

}  // namespace

Result<StatsView> view_stats_document(const Document& doc) {
  // The first entry of a name wins, as with JsonObject::find.
  std::array<const Value*, kStatsFieldCount> field{};
  if (doc.is_object()) {
    for (const auto& [key, value] : doc.as_object()) {
      const StatsField which = stats_field(key);
      if (which != kStatsFieldCount && field[which] == nullptr) {
        field[which] = &value;
      }
    }
  }
  const Value* path_id = field[kPathId];
  const Value* server_id = field[kServerId];
  const Value* timestamp = field[kTimestampMs];
  const Value* hop_count = field[kHopCount];
  const Value* loss = field[kLossPct];
  const Value* isds = field[kIsds];
  if (path_id == nullptr || !path_id->is_string() || server_id == nullptr ||
      !server_id->is_int() || timestamp == nullptr || !timestamp->is_int() ||
      hop_count == nullptr || !hop_count->is_int() || loss == nullptr ||
      !loss->is_number()) {
    return util::Error{ErrorCode::kParseError, "stats doc missing fields"};
  }
  if (isds == nullptr || !isds->is_array()) {
    return util::Error{ErrorCode::kParseError, "document missing isds array"};
  }
  for (const Value& isd : isds->as_array()) {
    if (!isd.is_int()) {
      return util::Error{ErrorCode::kParseError, "non-integer isd entry"};
    }
  }

  StatsView view;
  view.path_id = path_id;
  view.isds = isds;
  view.server_id = static_cast<int>(server_id->as_int());
  view.timestamp_ms = timestamp->as_int();
  view.hop_count = static_cast<std::size_t>(hop_count->as_int());
  view.loss_pct = loss->as_double();
  view.latency_ms = optional_double(field[kLatencyMs]);
  view.jitter_ms = optional_double(field[kJitterMs]);
  if (const Value* bw = field[kBw]; bw != nullptr && bw->is_object()) {
    std::array<const Value*, kBwColumnCount> column{};
    for (const auto& [key, value] : bw->as_object()) {
      const BwColumn which = bw_column(key);
      if (which != kBwColumnCount && column[which] == nullptr) {
        column[which] = &value;
      }
    }
    view.bw_up_64 = optional_double(column[kUp64]);
    view.bw_down_64 = optional_double(column[kDown64]);
    view.bw_up_mtu = optional_double(column[kUpMtu]);
    view.bw_down_mtu = optional_double(column[kDownMtu]);
  }
  view.target_mbps = optional_double(field[kTargetMbps]).value_or(0.0);
  return view;
}

Result<StatsSample> parse_stats_document(const Document& doc) {
  Result<StatsView> viewed = view_stats_document(doc);
  if (!viewed.ok()) return Result<StatsSample>(viewed.error());
  const StatsView& view = viewed.value();
  StatsSample sample;
  sample.path_id = view.path_id->as_string();
  sample.server_id = view.server_id;
  sample.timestamp = util::SimTime(view.timestamp_ms * 1'000'000);
  sample.hop_count = view.hop_count;
  for (const Value& isd : view.isds->as_array()) {
    sample.isds.push_back(isd.as_int());
  }
  sample.latency_ms = view.latency_ms;
  sample.loss_pct = view.loss_pct;
  sample.jitter_ms = view.jitter_ms;
  sample.bw_up_64 = view.bw_up_64;
  sample.bw_down_64 = view.bw_down_64;
  sample.bw_up_mtu = view.bw_up_mtu;
  sample.bw_down_mtu = view.bw_down_mtu;
  sample.target_mbps = view.target_mbps;
  return sample;
}

std::string checkpoint_doc_id(int server_id, int iteration) {
  return "ckpt_" + std::to_string(server_id) + "_" + std::to_string(iteration);
}

Document checkpoint_document(CampaignCheckpoint checkpoint) {
  JsonObject doc;
  doc.set("_id",
          Value(checkpoint_doc_id(checkpoint.server_id, checkpoint.iteration)));
  doc.set("server_id", Value(checkpoint.server_id));
  doc.set("iteration", Value(checkpoint.iteration));
  // Nanoseconds, not milliseconds: the resumed clock must land on the
  // identical instant or every later timestamped document id diverges.
  doc.set("clock_end_ns", Value(checkpoint.clock_end.count()));
  doc.set("samples_stored", Value(checkpoint.samples_stored));
  doc.set("breaker_failures", Value(checkpoint.breaker_failures));
  doc.set("breaker_open", Value(checkpoint.breaker_open));
  doc.set("breaker_opened_at_ns", Value(checkpoint.breaker_opened_at.count()));
  if (!checkpoint.path_cache.is_null()) {
    doc.set("path_cache", std::move(checkpoint.path_cache));
  }
  return Value(std::move(doc));
}

Result<CampaignCheckpoint> parse_checkpoint_document(const Document& doc) {
  CampaignCheckpoint checkpoint;
  const Value* server_id = doc.get("server_id");
  const Value* iteration = doc.get("iteration");
  const Value* clock_end = doc.get("clock_end_ns");
  if (server_id == nullptr || !server_id->is_int() || iteration == nullptr ||
      !iteration->is_int() || clock_end == nullptr || !clock_end->is_int()) {
    return util::Error{ErrorCode::kParseError, "checkpoint doc missing fields"};
  }
  checkpoint.server_id = static_cast<int>(server_id->as_int());
  checkpoint.iteration = static_cast<int>(iteration->as_int());
  checkpoint.clock_end = util::SimTime(clock_end->as_int());
  if (const Value* samples = doc.get("samples_stored");
      samples != nullptr && samples->is_int()) {
    checkpoint.samples_stored = static_cast<std::size_t>(samples->as_int());
  }
  if (const Value* failures = doc.get("breaker_failures");
      failures != nullptr && failures->is_int()) {
    checkpoint.breaker_failures = static_cast<int>(failures->as_int());
  }
  if (const Value* open = doc.get("breaker_open");
      open != nullptr && open->is_bool()) {
    checkpoint.breaker_open = open->as_bool();
  }
  if (const Value* opened_at = doc.get("breaker_opened_at_ns");
      opened_at != nullptr && opened_at->is_int()) {
    checkpoint.breaker_opened_at = util::SimTime(opened_at->as_int());
  }
  if (const Value* path_cache = doc.get("path_cache");
      path_cache != nullptr && path_cache->is_object()) {
    checkpoint.path_cache = *path_cache;
  }
  return checkpoint;
}

Document metrics_document(const std::string& id, const std::string& stage,
                          util::SimTime clock, Value snapshot) {
  JsonObject doc;
  doc.set("_id", Value(id));
  doc.set("stage", Value(stage));
  doc.set("clock_ns", Value(clock.count()));
  doc.set("metrics", std::move(snapshot));
  return Value(std::move(doc));
}

}  // namespace upin::measure
