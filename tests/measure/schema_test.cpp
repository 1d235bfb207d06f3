// Tests for measure/schema: document ids, builders, round trips.
#include "measure/schema.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <functional>

namespace upin::measure {
namespace {

using scion::IsdAsn;
using scion::make_asn;
using scion::Path;
using scion::PathHop;

Path sample_path() {
  std::vector<PathHop> hops{
      {IsdAsn(17, make_asn(1, 0xf00)), 0, 1},
      {IsdAsn(17, make_asn(0, 0x1107)), 4, 1},
      {IsdAsn(16, make_asn(0, 0x1002)), 1, 0},
  };
  return Path(std::move(hops), 1452.0, util::sim_millis(23.0));
}

TEST(Schema, PathDocIdMatchesPaperFormat) {
  // "a path whose id is 2_15 identifies the path 15 of the destination 2".
  EXPECT_EQ(path_doc_id(2, 15), "2_15");
}

TEST(Schema, StatsDocIdAppendsTimestamp) {
  EXPECT_EQ(stats_doc_id("2_15", util::sim_seconds(12.0)),
            "2_15_000000012000");
}

TEST(Schema, ServerDocumentFields) {
  const scion::SnetAddress addr{IsdAsn(16, make_asn(0, 0x1002)), "172.31.43.7"};
  const docdb::Document doc = server_document(3, addr);
  EXPECT_EQ(doc.get("_id")->as_string(), "3");
  EXPECT_EQ(doc.get("server_id")->as_int(), 3);
  EXPECT_EQ(doc.get("address")->as_string(), "16-ffaa:0:1002,[172.31.43.7]");
  EXPECT_EQ(doc.get("isd_as")->as_string(), "16-ffaa:0:1002");
  EXPECT_EQ(doc.get("host")->as_string(), "172.31.43.7");
}

TEST(Schema, PathDocumentFields) {
  const docdb::Document doc = path_document(3, 7, sample_path());
  EXPECT_EQ(doc.get("_id")->as_string(), "3_7");
  EXPECT_EQ(doc.get("server_id")->as_int(), 3);
  EXPECT_EQ(doc.get("path_index")->as_int(), 7);
  EXPECT_EQ(doc.get("hop_count")->as_int(), 3);
  EXPECT_EQ(doc.get("hops")->as_array().size(), 3u);
  EXPECT_EQ(doc.get("isds")->as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(doc.get("mtu")->as_double(), 1452.0);
  EXPECT_EQ(doc.get("status")->as_string(), "alive");
  EXPECT_NEAR(doc.get("static_latency_ms")->as_double(), 23.0, 1e-6);
}

TEST(Schema, PathDocumentRoundTrip) {
  const docdb::Document doc = path_document(3, 7, sample_path());
  const auto record = parse_path_document(doc);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().id, "3_7");
  EXPECT_EQ(record.value().server_id, 3);
  EXPECT_EQ(record.value().path_index, 7);
  EXPECT_EQ(record.value().hop_count, 3u);
  EXPECT_EQ(record.value().isds, (std::vector<std::int64_t>{16, 17}));
  EXPECT_EQ(record.value().sequence, sample_path().sequence());
}

TEST(Schema, ParsePathDocumentRejectsMalformed) {
  EXPECT_FALSE(parse_path_document(util::Value()).ok());
  EXPECT_FALSE(
      parse_path_document(util::Value::object({{"_id", "x"}})).ok());
  docdb::Document no_isds = path_document(1, 0, sample_path());
  no_isds.as_object().erase("isds");
  EXPECT_FALSE(parse_path_document(no_isds).ok());
}

StatsSample full_sample() {
  StatsSample sample;
  sample.path_id = "3_7";
  sample.server_id = 3;
  sample.timestamp = util::sim_seconds(100.0);
  sample.hop_count = 5;
  sample.isds = {16, 17};
  sample.latency_ms = 41.5;
  sample.loss_pct = 3.3;
  sample.jitter_ms = 0.6;
  sample.bw_up_64 = 4.1;
  sample.bw_down_64 = 11.2;
  sample.bw_up_mtu = 9.0;
  sample.bw_down_mtu = 11.7;
  sample.target_mbps = 12.0;
  return sample;
}

TEST(Schema, StatsDocumentRoundTrip) {
  const docdb::Document doc = stats_document(full_sample());
  EXPECT_EQ(doc.get("_id")->as_string(), "3_7_000000100000");
  const auto parsed = parse_stats_document(doc);
  ASSERT_TRUE(parsed.ok());
  const StatsSample& s = parsed.value();
  EXPECT_EQ(s.path_id, "3_7");
  EXPECT_EQ(s.server_id, 3);
  EXPECT_EQ(s.timestamp, util::sim_seconds(100.0));
  EXPECT_EQ(s.hop_count, 5u);
  EXPECT_EQ(s.isds, (std::vector<std::int64_t>{16, 17}));
  EXPECT_DOUBLE_EQ(*s.latency_ms, 41.5);
  EXPECT_DOUBLE_EQ(s.loss_pct, 3.3);
  EXPECT_DOUBLE_EQ(*s.jitter_ms, 0.6);
  EXPECT_DOUBLE_EQ(*s.bw_up_64, 4.1);
  EXPECT_DOUBLE_EQ(*s.bw_down_mtu, 11.7);
  EXPECT_DOUBLE_EQ(s.target_mbps, 12.0);
}

TEST(Schema, StatsDocumentOmitsUnavailableMetrics) {
  // A fully lost ping has no latency/jitter; failed bwtests no bandwidth.
  StatsSample sample = full_sample();
  sample.latency_ms.reset();
  sample.jitter_ms.reset();
  sample.bw_up_64.reset();
  sample.bw_down_64.reset();
  sample.bw_up_mtu.reset();
  sample.bw_down_mtu.reset();
  sample.loss_pct = 100.0;
  const docdb::Document doc = stats_document(sample);
  EXPECT_EQ(doc.get("latency_ms"), nullptr);
  EXPECT_EQ(doc.get("jitter_ms"), nullptr);
  const auto parsed = parse_stats_document(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().latency_ms.has_value());
  EXPECT_FALSE(parsed.value().bw_down_mtu.has_value());
  EXPECT_DOUBLE_EQ(parsed.value().loss_pct, 100.0);
}

TEST(Schema, ParseStatsDocumentRejectsMalformed) {
  EXPECT_FALSE(parse_stats_document(util::Value()).ok());
  docdb::Document missing = stats_document(full_sample());
  missing.as_object().erase("path_id");
  EXPECT_FALSE(parse_stats_document(missing).ok());
}

// ------------------------------------------- in-place reader vs the copy

/// The copying decoder as it was before view_stats_document(): the
/// reference the in-place reader must agree with.
util::Result<StatsSample> reference_parse_stats(const docdb::Document& doc) {
  using util::ErrorCode;
  using util::Value;
  StatsSample sample;
  const Value* path_id = doc.get("path_id");
  const Value* server_id = doc.get("server_id");
  const Value* timestamp = doc.get("timestamp_ms");
  const Value* hop_count = doc.get("hop_count");
  const Value* loss = doc.get("loss_pct");
  if (path_id == nullptr || !path_id->is_string() || server_id == nullptr ||
      !server_id->is_int() || timestamp == nullptr || !timestamp->is_int() ||
      hop_count == nullptr || !hop_count->is_int() || loss == nullptr ||
      !loss->is_number()) {
    return util::Error{ErrorCode::kParseError, "stats doc missing fields"};
  }
  sample.path_id = path_id->as_string();
  sample.server_id = static_cast<int>(server_id->as_int());
  sample.timestamp = util::SimTime(timestamp->as_int() * 1'000'000);
  sample.hop_count = static_cast<std::size_t>(hop_count->as_int());
  sample.loss_pct = loss->as_double();
  const Value* isds = doc.get("isds");
  if (isds == nullptr || !isds->is_array()) {
    return util::Error{ErrorCode::kParseError, "document missing isds array"};
  }
  for (const Value& isd : isds->as_array()) {
    if (!isd.is_int()) {
      return util::Error{ErrorCode::kParseError, "non-integer isd entry"};
    }
    sample.isds.push_back(isd.as_int());
  }
  const auto optional_double =
      [&](std::string_view path) -> std::optional<double> {
    const Value* value = doc.get_path(path);
    if (value == nullptr || !value->is_number()) return std::nullopt;
    return value->as_double();
  };
  sample.latency_ms = optional_double("latency_ms");
  sample.jitter_ms = optional_double("jitter_ms");
  sample.bw_up_64 = optional_double("bw.up_64");
  sample.bw_down_64 = optional_double("bw.down_64");
  sample.bw_up_mtu = optional_double("bw.up_mtu");
  sample.bw_down_mtu = optional_double("bw.down_mtu");
  if (const Value* target = doc.get("target_mbps");
      target != nullptr && target->is_number()) {
    sample.target_mbps = target->as_double();
  }
  return sample;
}

/// Bitwise equality, so -0.0 vs 0.0 or a differently rounded value shows.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool same_bits(const std::optional<double>& a, const std::optional<double>& b) {
  return a.has_value() == b.has_value() &&
         (!a.has_value() || same_bits(*a, *b));
}

/// view_stats_document, parse_stats_document and the reference accept
/// and reject the same document; accepted, every field agrees bit for bit.
void expect_readers_agree(const docdb::Document& doc,
                          const std::string& label) {
  SCOPED_TRACE(label + ": " + doc.dump());
  const auto reference = reference_parse_stats(doc);
  const auto view = view_stats_document(doc);
  const auto parsed = parse_stats_document(doc);
  ASSERT_EQ(view.ok(), reference.ok());
  ASSERT_EQ(parsed.ok(), reference.ok());
  if (!reference.ok()) {
    EXPECT_EQ(view.error().code, reference.error().code);
    EXPECT_EQ(view.error().message, reference.error().message);
    return;
  }
  const StatsSample& want = reference.value();
  const StatsView& v = view.value();
  EXPECT_EQ(v.path_id->as_string(), want.path_id);
  EXPECT_EQ(v.path_id, doc.get("path_id"));  // a view, not a copy
  EXPECT_EQ(v.isds, doc.get("isds"));
  EXPECT_EQ(v.server_id, want.server_id);
  EXPECT_EQ(util::SimTime(v.timestamp_ms * 1'000'000), want.timestamp);
  EXPECT_EQ(v.hop_count, want.hop_count);
  EXPECT_TRUE(same_bits(v.loss_pct, want.loss_pct));
  EXPECT_TRUE(same_bits(v.latency_ms, want.latency_ms));
  EXPECT_TRUE(same_bits(v.jitter_ms, want.jitter_ms));
  EXPECT_TRUE(same_bits(v.bw_up_64, want.bw_up_64));
  EXPECT_TRUE(same_bits(v.bw_down_64, want.bw_down_64));
  EXPECT_TRUE(same_bits(v.bw_up_mtu, want.bw_up_mtu));
  EXPECT_TRUE(same_bits(v.bw_down_mtu, want.bw_down_mtu));
  EXPECT_TRUE(same_bits(v.target_mbps, want.target_mbps));

  const StatsSample& got = parsed.value();
  EXPECT_EQ(got.path_id, want.path_id);
  EXPECT_EQ(got.server_id, want.server_id);
  EXPECT_EQ(got.timestamp, want.timestamp);
  EXPECT_EQ(got.hop_count, want.hop_count);
  EXPECT_EQ(got.isds, want.isds);
  EXPECT_TRUE(same_bits(got.loss_pct, want.loss_pct));
  EXPECT_TRUE(same_bits(got.latency_ms, want.latency_ms));
  EXPECT_TRUE(same_bits(got.jitter_ms, want.jitter_ms));
  EXPECT_TRUE(same_bits(got.bw_up_64, want.bw_up_64));
  EXPECT_TRUE(same_bits(got.bw_down_64, want.bw_down_64));
  EXPECT_TRUE(same_bits(got.bw_up_mtu, want.bw_up_mtu));
  EXPECT_TRUE(same_bits(got.bw_down_mtu, want.bw_down_mtu));
  EXPECT_TRUE(same_bits(got.target_mbps, want.target_mbps));
}

/// Give `fields` one more `key` entry ahead of (`first`) or behind its
/// own, even where it has `key` already: JsonObject::set would overwrite,
/// so a placeholder key is added and renamed in place.
void add_entry(util::JsonObject& fields, const std::string& key,
               util::Value value, bool first) {
  const std::string placeholder = "\x01";
  if (!first) {
    fields.set(placeholder, std::move(value));
    (fields.end() - 1)->first = key;
    return;
  }
  util::JsonObject reordered;
  reordered.set(placeholder, std::move(value));
  for (const auto& [name, field] : fields) reordered.set(name, field);
  reordered.begin()->first = key;
  fields = std::move(reordered);
}

TEST(Schema, InPlaceReaderMatchesTheCopyingReference) {
  using util::Value;
  const docdb::Document full = stats_document(full_sample());
  StatsSample sparse = full_sample();
  sparse.latency_ms.reset();
  sparse.jitter_ms.reset();
  sparse.bw_up_64.reset();
  sparse.bw_down_mtu.reset();
  sparse.loss_pct = -0.0;
  const std::vector<std::pair<std::string, docdb::Document>> bases = {
      {"full", full}, {"sparse", stats_document(sparse)}};

  // Mutations of a well-formed document: name + edit.
  using Fields = util::JsonObject;
  using Edit = std::function<void(Fields&)>;
  std::vector<std::pair<std::string, Edit>> edits = {
      {"as built", [](util::JsonObject&) {}},
      {"int loss_pct", [](Fields& d) { d.set("loss_pct", Value(2)); }},
      {"bw not an object", [](Fields& d) { d.set("bw", Value(5.0)); }},
      {"bw an array",
       [](Fields& d) { d.set("bw", Value::array({Value(1.0)})); }},
      {"bw field mistyped",
       [](Fields& d) {
         d.set("bw", Value::object({{"up_64", Value("fast")},
                                    {"down_mtu", Value(7)}}));
       }},
      {"non-int isd entry",
       [](Fields& d) {
         d.set("isds", Value::array({Value(16), Value(17.5)}));
       }},
      {"isds not an array", [](Fields& d) { d.set("isds", Value(16)); }},
      {"empty isds", [](Fields& d) { d.set("isds", Value::array({})); }},
      {"latency mistyped",
       [](Fields& d) { d.set("latency_ms", Value("slow")); }},
      {"int latency", [](Fields& d) { d.set("latency_ms", Value(40)); }},
      {"target mistyped",
       [](Fields& d) { d.set("target_mbps", Value(true)); }},
      {"foreign extra fields",
       [](Fields& d) {
         d.set("note", Value("imported"));
         d.set("bw.up_64", Value(99.0));  // a literal dotted key
         d.set("latency", Value(1.0));
       }},
  };
  // The reader tells keys apart by length first: duplicates (the first
  // entry wins), foreign keys as long as a known one, placed ahead of the
  // real fields so a mismatch would be picked up, and the same for `bw`.
  const auto bw = [](Fields& d) -> Fields& { return d.find("bw")->as_object(); };
  const std::vector<std::pair<std::string, Edit>> dispatch_edits = {
      {"duplicate loss_pct behind",
       [](Fields& d) { add_entry(d, "loss_pct", Value("x"), false); }},
      {"duplicate loss_pct ahead",
       [](Fields& d) { add_entry(d, "loss_pct", Value("x"), true); }},
      {"duplicate path_id ahead",
       [](Fields& d) { add_entry(d, "path_id", Value("9_9"), true); }},
      {"duplicate latency_ms ahead",
       [](Fields& d) { add_entry(d, "latency_ms", Value(1.25), true); }},
      {"duplicate server_id behind",
       [](Fields& d) { add_entry(d, "server_id", Value(8), false); }},
      {"duplicate bw ahead",
       [](Fields& d) {
         add_entry(d, "bw", Value::object({{"up_64", Value(1.0)}}), true);
       }},
      {"foreign 9-character keys",
       [](Fields& d) {
         for (const char* key :
              {"server_ix", "sample_no", "hop_total", "hops_seen",
               "jitter_us", "jitterms_", "xerver_id", "op_count_"}) {
           add_entry(d, key, Value("x"), true);
         }
       }},
      {"foreign keys as long as known ones",
       [](Fields& d) {
         for (const char* key :
              {"ts", "isdz", "path_ix", "loss_pc_", "latency_us",
               "target_gbps", "timestamp_us", "xw", "xsds", "xarget_mbps"}) {
           add_entry(d, key, Value("x"), true);
         }
       }},
      {"duplicate bw up_64 ahead",
       [bw](Fields& d) { add_entry(bw(d), "up_64", Value("fast"), true); }},
      {"duplicate bw down_mtu behind",
       [bw](Fields& d) { add_entry(bw(d), "down_mtu", Value(1.0), false); }},
      {"foreign bw columns as long as real ones",
       [bw](Fields& d) {
         for (const char* key : {"up_6x", "up_mtx", "down_mt", "down_mtx",
                                 "xp_64", "xown_64", "up_64_", "down"}) {
           add_entry(bw(d), key, Value(42.0), true);
         }
       }},
      {"empty bw", [](Fields& d) { d.set("bw", Value(util::JsonObject{})); }},
  };
  edits.insert(edits.end(), dispatch_edits.begin(), dispatch_edits.end());
  for (const char* field :
       {"path_id", "server_id", "timestamp_ms", "hop_count", "loss_pct", "isds",
        "latency_ms", "jitter_ms", "bw", "target_mbps", "_id"}) {
    edits.emplace_back(std::string("without ") + field,
                       [field](Fields& d) { d.erase(field); });
    edits.emplace_back(std::string("null ") + field,
                       [field](Fields& d) { d.set(field, Value()); });
    edits.emplace_back(std::string("string ") + field,
                       [field](Fields& d) { d.set(field, Value("x")); });
    edits.emplace_back(std::string("double ") + field,
                       [field](Fields& d) { d.set(field, Value(3.5)); });
  }

  for (const auto& [base_name, base] : bases) {
    for (const auto& [edit_name, edit] : edits) {
      docdb::Document doc = base;
      edit(doc.as_object());
      expect_readers_agree(doc, base_name + " / " + edit_name);
    }
  }
  // The existing malformed cases and non-object documents.
  expect_readers_agree(Value(), "null document");
  expect_readers_agree(Value::array({full}), "array document");
  expect_readers_agree(Value("stats"), "string document");
  expect_readers_agree(Value::object({}), "empty object");
}

TEST(Schema, CollectionNamesMatchPaperFig3) {
  EXPECT_STREQ(kAvailableServers, "availableServers");
  EXPECT_STREQ(kPaths, "paths");
  EXPECT_STREQ(kPathsStats, "paths_stats");
}

}  // namespace
}  // namespace upin::measure
