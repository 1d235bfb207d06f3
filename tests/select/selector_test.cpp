// Tests for select/selector: aggregation, constraints, ranking.
#include "select/selector.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "measure/schema.hpp"
#include "measure/testsuite.hpp"

namespace upin::select {
namespace {

using measure::StatsSample;
using scion::scionlab::kIreland;
using scion::scionlab::kOhio;
using scion::scionlab::kSingapore;

/// Shared campaign dataset: Ireland, 6 iterations.  Built once.
class SelectorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new scion::ScionlabEnv(scion::scionlab_topology());
    db_ = new docdb::Database();
    apps::ScionHost host(*env_, 42, env_->user_as, "10.0.8.1");
    measure::TestSuiteConfig config;
    config.iterations = 6;
    config.server_ids = {{3}};
    measure::TestSuite suite(host, *db_, config);
    ASSERT_TRUE(suite.run().ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    delete env_;
    db_ = nullptr;
    env_ = nullptr;
  }

  [[nodiscard]] PathSelector selector() const {
    return PathSelector(*db_, env_->topology);
  }

  static scion::ScionlabEnv* env_;
  static docdb::Database* db_;
};

scion::ScionlabEnv* SelectorTest::env_ = nullptr;
docdb::Database* SelectorTest::db_ = nullptr;

TEST_F(SelectorTest, SummarizeAggregatesEveryPath) {
  const auto summaries = selector().summarize(3);
  ASSERT_TRUE(summaries.ok());
  EXPECT_EQ(summaries.value().size(), db_->collection(measure::kPaths).size());
  for (const PathSummary& s : summaries.value()) {
    EXPECT_EQ(s.server_id, 3);
    EXPECT_EQ(s.samples, 6u);
    ASSERT_TRUE(s.latency_ms.has_value());
    EXPECT_GT(s.latency_ms->median, 0.0);
    EXPECT_FALSE(s.hops.empty());
    EXPECT_EQ(s.hops.size(), s.hop_count);
    EXPECT_TRUE(s.mean_bw_down_mtu.has_value());
  }
}

TEST_F(SelectorTest, SummarizeUnknownServerIsEmpty) {
  const auto summaries = selector().summarize(99);
  ASSERT_TRUE(summaries.ok());
  EXPECT_TRUE(summaries.value().empty());
}

TEST_F(SelectorTest, LowestLatencySelectsEuropeanPath) {
  UserRequest request;
  request.server_id = 3;
  request.objective = Objective::kLowestLatency;
  const auto best = selector().best(request);
  ASSERT_TRUE(best.ok());
  // The winner must avoid both long-distance detours.
  for (const scion::IsdAsn hop : best.value().summary.hops) {
    EXPECT_NE(hop, kOhio);
    EXPECT_NE(hop, kSingapore);
  }
  EXPECT_LT(best.value().summary.latency_ms->median, 60.0);
}

TEST_F(SelectorTest, RankingIsMonotoneInScore) {
  UserRequest request;
  request.server_id = 3;
  request.objective = Objective::kLowestLatency;
  const auto selection = selector().select(request);
  ASSERT_TRUE(selection.ok());
  double previous = -1.0;
  for (const RankedPath& ranked : selection.value().ranked) {
    EXPECT_GE(ranked.score, previous);
    previous = ranked.score;
  }
}

TEST_F(SelectorTest, HighestBandwidthDirectionMatters) {
  UserRequest down;
  down.server_id = 3;
  down.objective = Objective::kHighestBandwidth;
  down.bw_direction = BwDirection::kDownstream;
  UserRequest up = down;
  up.bw_direction = BwDirection::kUpstream;
  const auto best_down = selector().best(down);
  const auto best_up = selector().best(up);
  ASSERT_TRUE(best_down.ok());
  ASSERT_TRUE(best_up.ok());
  EXPECT_GT(*best_down.value().summary.bandwidth(BwDirection::kDownstream),
            *best_up.value().summary.bandwidth(BwDirection::kUpstream))
      << "downstream capacity exceeds upstream (paper §6.2)";
}

TEST_F(SelectorTest, MostConsistentPrefersLowIqr) {
  UserRequest request;
  request.server_id = 3;
  request.objective = Objective::kMostConsistent;
  const auto selection = selector().select(request);
  ASSERT_TRUE(selection.ok());
  ASSERT_FALSE(selection.value().ranked.empty());
  // Every later-ranked path has an IQR at least as large.
  const double best_iqr =
      selection.value().ranked.front().summary.latency_ms->iqr;
  for (const RankedPath& ranked : selection.value().ranked) {
    EXPECT_GE(ranked.summary.latency_ms->iqr, best_iqr);
  }
}

TEST_F(SelectorTest, ExcludeCountrySingaporeRemovesDetours) {
  UserRequest request;
  request.server_id = 3;
  request.exclude_countries = {"SG"};
  const auto selection = selector().select(request);
  ASSERT_TRUE(selection.ok());
  for (const RankedPath& ranked : selection.value().ranked) {
    for (const scion::IsdAsn hop : ranked.summary.hops) {
      EXPECT_NE(hop, kSingapore);
    }
  }
  bool saw_rejection = false;
  for (const auto& [path_id, reason] : selection.value().rejected) {
    if (reason.find("SG") != std::string::npos) saw_rejection = true;
  }
  EXPECT_TRUE(saw_rejection);
}

TEST_F(SelectorTest, ExcludeCountryUsRemovesOhioPaths) {
  UserRequest request;
  request.server_id = 3;
  request.exclude_countries = {"US"};
  const auto selection = selector().select(request);
  ASSERT_TRUE(selection.ok());
  for (const RankedPath& ranked : selection.value().ranked) {
    for (const scion::IsdAsn hop : ranked.summary.hops) {
      EXPECT_NE(env_->topology.find_as(hop)->country, "US");
    }
  }
}

TEST_F(SelectorTest, ExcludeOperatorAwsKillsAllIrelandPaths) {
  // The destination itself is AWS: excluding the operator must reject
  // every path — the selector reports why instead of picking something.
  UserRequest request;
  request.server_id = 3;
  request.exclude_operators = {"AWS"};
  const auto selection = selector().select(request);
  ASSERT_TRUE(selection.ok());
  EXPECT_TRUE(selection.value().ranked.empty());
  EXPECT_EQ(selection.value().rejected.size(),
            db_->collection(measure::kPaths).size());
  EXPECT_EQ(selector().best(request).error().code, util::ErrorCode::kNotFound);
}

TEST_F(SelectorTest, ExcludeSpecificAs) {
  UserRequest request;
  request.server_id = 3;
  request.exclude_ases = {kOhio};
  const auto selection = selector().select(request);
  ASSERT_TRUE(selection.ok());
  for (const RankedPath& ranked : selection.value().ranked) {
    for (const scion::IsdAsn hop : ranked.summary.hops) EXPECT_NE(hop, kOhio);
  }
}

TEST_F(SelectorTest, ExcludeIsdAndAllowList) {
  UserRequest exclude;
  exclude.server_id = 3;
  exclude.exclude_isds = {19};
  const auto excluded = selector().select(exclude);
  ASSERT_TRUE(excluded.ok());
  for (const RankedPath& ranked : excluded.value().ranked) {
    for (const std::int64_t isd : ranked.summary.isds) EXPECT_NE(isd, 19);
  }

  UserRequest allow;
  allow.server_id = 3;
  allow.allowed_isds = {16, 17};
  const auto allowed = selector().select(allow);
  ASSERT_TRUE(allowed.ok());
  ASSERT_FALSE(allowed.value().ranked.empty());
  for (const RankedPath& ranked : allowed.value().ranked) {
    for (const std::int64_t isd : ranked.summary.isds) {
      EXPECT_TRUE(isd == 16 || isd == 17);
    }
  }
}

TEST_F(SelectorTest, MaxLatencyConstraintFilters) {
  UserRequest request;
  request.server_id = 3;
  request.max_latency_ms = 60.0;
  const auto selection = selector().select(request);
  ASSERT_TRUE(selection.ok());
  ASSERT_FALSE(selection.value().ranked.empty());
  for (const RankedPath& ranked : selection.value().ranked) {
    EXPECT_LE(ranked.summary.latency_ms->median, 60.0);
  }
  EXPECT_FALSE(selection.value().rejected.empty())
      << "the Singapore/Ohio layers must be rejected";
}

TEST_F(SelectorTest, MinBandwidthConstraintFilters) {
  UserRequest request;
  request.server_id = 3;
  request.objective = Objective::kHighestBandwidth;
  request.min_bandwidth_mbps = 5000.0;  // impossible
  const auto selection = selector().select(request);
  ASSERT_TRUE(selection.ok());
  EXPECT_TRUE(selection.value().ranked.empty());
}

TEST_F(SelectorTest, MinSamplesConstraint) {
  UserRequest request;
  request.server_id = 3;
  request.min_samples = 7;  // campaign ran 6 iterations
  const auto selection = selector().select(request);
  ASSERT_TRUE(selection.ok());
  EXPECT_TRUE(selection.value().ranked.empty());
}

TEST_F(SelectorTest, FreshnessWindowRestrictsSamples) {
  // The campaign ran 6 iterations back to back; a window starting after
  // the midpoint keeps only the later iterations' samples.
  const auto all = selector().summarize(3);
  ASSERT_TRUE(all.ok());
  ASSERT_FALSE(all.value().empty());
  const std::size_t full_samples = all.value().front().samples;
  ASSERT_EQ(full_samples, 6u);

  // Find the midpoint timestamp from the stored documents.
  std::vector<std::int64_t> timestamps;
  db_->collection(measure::kPathsStats)
      .for_each([&](const docdb::Document& doc) {
        timestamps.push_back(doc.get("timestamp_ms")->as_int());
      });
  std::sort(timestamps.begin(), timestamps.end());
  const std::int64_t midpoint = timestamps[timestamps.size() / 2];

  const auto windowed = selector().summarize(3, midpoint);
  ASSERT_TRUE(windowed.ok());
  for (const PathSummary& s : windowed.value()) {
    EXPECT_LT(s.samples, full_samples);
    EXPECT_GT(s.samples, 0u);
  }
}

TEST_F(SelectorTest, FreshnessBoundaryIsInclusive) {
  // The staleness threshold is $gte: a sample stamped *exactly* at
  // since_timestamp_ms is still fresh; one millisecond past it is not.
  std::vector<std::int64_t> timestamps;
  db_->collection(measure::kPathsStats)
      .for_each([&](const docdb::Document& doc) {
        timestamps.push_back(doc.get("timestamp_ms")->as_int());
      });
  ASSERT_FALSE(timestamps.empty());
  const std::int64_t latest =
      *std::max_element(timestamps.begin(), timestamps.end());

  const auto at_boundary = selector().summarize(3, latest);
  ASSERT_TRUE(at_boundary.ok());
  std::size_t samples_at_boundary = 0;
  for (const PathSummary& s : at_boundary.value()) {
    samples_at_boundary += s.samples;
  }
  EXPECT_GT(samples_at_boundary, 0u)
      << "a sample taken exactly at the threshold counts as fresh";

  const auto past_boundary = selector().summarize(3, latest + 1);
  ASSERT_TRUE(past_boundary.ok());
  for (const PathSummary& s : past_boundary.value()) {
    EXPECT_EQ(s.samples, 0u) << "nothing is newer than the newest sample";
  }
}

TEST_F(SelectorTest, FreshnessWindowInTheFutureRejectsEverything) {
  UserRequest request;
  request.server_id = 3;
  request.since_timestamp_ms = std::int64_t{1} << 60;
  const auto selection = selector().select(request);
  ASSERT_TRUE(selection.ok());
  EXPECT_TRUE(selection.value().ranked.empty())
      << "no samples in the window -> min_samples rejects all paths";
  EXPECT_NE(request.describe().find("samples since"), std::string::npos);
}

TEST_F(SelectorTest, RationaleMentionsTheObjective) {
  UserRequest request;
  request.server_id = 3;
  request.objective = Objective::kLowestLatency;
  const auto best = selector().best(request);
  ASSERT_TRUE(best.ok());
  EXPECT_NE(best.value().rationale.find("median latency"), std::string::npos);
}

TEST_F(SelectorTest, SelectOnMissingCollectionsFails) {
  docdb::Database empty;
  PathSelector fresh(empty, env_->topology);
  UserRequest request;
  request.server_id = 3;
  EXPECT_FALSE(fresh.select(request).ok());
}

TEST(SelectorScore, LowestLossTieBreaksByLatency) {
  PathSummary fast, slow;
  fast.mean_loss_pct = slow.mean_loss_pct = 0.0;
  fast.latency_ms = util::BoxStats{};
  fast.latency_ms->median = 20.0;
  slow.latency_ms = util::BoxStats{};
  slow.latency_ms->median = 200.0;
  UserRequest request;
  request.objective = Objective::kLowestLoss;
  EXPECT_LT(*paper_objective_score(fast, request),
            *paper_objective_score(slow, request));
  // Any real loss difference dominates the latency tie-break.
  slow.mean_loss_pct = 0.0;
  fast.mean_loss_pct = 0.1;
  EXPECT_GT(*paper_objective_score(fast, request),
            *paper_objective_score(slow, request));
}

TEST(SelectorScore, StaticBehaviour) {
  PathSummary summary;
  UserRequest request;
  request.objective = Objective::kLowestLatency;
  EXPECT_FALSE(paper_objective_score(summary, request).has_value())
      << "no latency data -> no score";
  summary.latency_ms = util::BoxStats{};
  summary.latency_ms->median = 42.0;
  summary.latency_samples = 3;
  EXPECT_DOUBLE_EQ(*paper_objective_score(summary, request), 42.0);

  request.objective = Objective::kHighestBandwidth;
  EXPECT_FALSE(paper_objective_score(summary, request).has_value());
  summary.mean_bw_down_mtu = 11.5;
  EXPECT_DOUBLE_EQ(*paper_objective_score(summary, request), -11.5);
}

TEST(RequestDescribe, MentionsAllConstraints) {
  UserRequest request;
  request.server_id = 3;
  request.objective = Objective::kMostConsistent;
  request.max_latency_ms = 50.0;
  request.exclude_countries = {"US", "SG"};
  request.exclude_isds = {19};
  const std::string text = request.describe();
  EXPECT_NE(text.find("server 3"), std::string::npos);
  EXPECT_NE(text.find("most-consistent"), std::string::npos);
  EXPECT_NE(text.find("50.0ms"), std::string::npos);
  EXPECT_NE(text.find("US,SG"), std::string::npos);
  EXPECT_NE(text.find("ISD 19"), std::string::npos);
}

// --------------------------------------- in-place summaries vs the copies

/// summarize() as it was before the in-place read path: find() copies of
/// the path's paths_stats documents, each decoded by parse_stats_document.
std::vector<PathSummary> reference_summaries(
    const docdb::Database& db, int server_id,
    std::optional<std::int64_t> since_ms) {
  using util::Value;
  docdb::FindOptions in_order;
  in_order.sort_by = "path_index";
  const auto by_server = docdb::Filter::compile(
      Value::object({{"server_id", Value(server_id)}}));
  std::vector<PathSummary> out;
  for (const docdb::Document& path_doc :
       db.find_collection(measure::kPaths)->find(by_server.value(), in_order)) {
    const measure::PathRecord record =
        measure::parse_path_document(path_doc).value();
    PathSummary summary;
    summary.path_id = record.id;
    summary.server_id = record.server_id;
    summary.sequence = record.sequence;
    summary.hop_count = record.hop_count;
    summary.isds = record.isds;
    summary.mtu = record.mtu;
    if (auto parsed = scion::Path::parse_sequence(record.sequence);
        parsed.ok()) {
      for (const scion::PathHop& hop : parsed.value().hops()) {
        summary.hops.push_back(hop.ia);
      }
    }
    util::JsonObject query;
    query.set("path_id", Value(summary.path_id));
    if (since_ms.has_value()) {
      query.set("timestamp_ms", Value::object({{"$gte", Value(*since_ms)}}));
    }
    std::vector<double> latencies, losses, jitters;
    std::vector<double> bw_down_mtu, bw_up_mtu, bw_down_64, bw_up_64;
    const auto add = [](std::vector<double>& to, std::optional<double> value) {
      if (value.has_value()) to.push_back(*value);
    };
    for (const docdb::Document& doc :
         db.find_collection(measure::kPathsStats)
             ->find(docdb::Filter::compile(Value(std::move(query))).value())) {
      const auto sample = measure::parse_stats_document(doc);
      if (!sample.ok()) continue;
      ++summary.samples;
      losses.push_back(sample.value().loss_pct);
      add(latencies, sample.value().latency_ms);
      add(jitters, sample.value().jitter_ms);
      add(bw_down_mtu, sample.value().bw_down_mtu);
      add(bw_up_mtu, sample.value().bw_up_mtu);
      add(bw_down_64, sample.value().bw_down_64);
      add(bw_up_64, sample.value().bw_up_64);
    }
    summary.latency_samples = latencies.size();
    if (!latencies.empty()) summary.latency_ms = util::box_stats(latencies);
    if (!losses.empty()) summary.mean_loss_pct = util::mean(losses);
    if (!jitters.empty()) summary.mean_jitter_ms = util::mean(jitters);
    const auto mean_of = [](const std::vector<double>& values) {
      return values.empty() ? std::nullopt
                            : std::optional<double>(util::mean(values));
    };
    summary.mean_bw_down_mtu = mean_of(bw_down_mtu);
    summary.mean_bw_up_mtu = mean_of(bw_up_mtu);
    summary.mean_bw_down_64 = mean_of(bw_down_64);
    summary.mean_bw_up_64 = mean_of(bw_up_64);
    out.push_back(std::move(summary));
  }
  return out;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_same_bits(const std::optional<double>& a,
                      const std::optional<double>& b, const char* what) {
  ASSERT_EQ(a.has_value(), b.has_value()) << what;
  if (a.has_value()) {
    EXPECT_EQ(bits(*a), bits(*b)) << what;
  }
}

void expect_same_summary(const PathSummary& got, const PathSummary& want) {
  SCOPED_TRACE(want.path_id);
  EXPECT_EQ(got.path_id, want.path_id);
  EXPECT_EQ(got.server_id, want.server_id);
  EXPECT_EQ(got.sequence, want.sequence);
  EXPECT_EQ(got.hops, want.hops);
  EXPECT_EQ(got.hop_count, want.hop_count);
  EXPECT_EQ(got.isds, want.isds);
  EXPECT_EQ(bits(got.mtu), bits(want.mtu));
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.latency_samples, want.latency_samples);
  EXPECT_EQ(bits(got.mean_loss_pct), bits(want.mean_loss_pct));
  expect_same_bits(got.mean_jitter_ms, want.mean_jitter_ms, "jitter");
  expect_same_bits(got.mean_bw_down_mtu, want.mean_bw_down_mtu, "down_mtu");
  expect_same_bits(got.mean_bw_up_mtu, want.mean_bw_up_mtu, "up_mtu");
  expect_same_bits(got.mean_bw_down_64, want.mean_bw_down_64, "down_64");
  expect_same_bits(got.mean_bw_up_64, want.mean_bw_up_64, "up_64");
  ASSERT_EQ(got.latency_ms.has_value(), want.latency_ms.has_value());
  if (!want.latency_ms.has_value()) return;
  const util::BoxStats& g = *got.latency_ms;
  const util::BoxStats& w = *want.latency_ms;
  EXPECT_EQ(g.count, w.count);
  for (const auto& [a, b] :
       {std::pair{g.minimum, w.minimum}, {g.maximum, w.maximum},
        {g.mean, w.mean}, {g.q1, w.q1}, {g.median, w.median}, {g.q3, w.q3},
        {g.iqr, w.iqr}, {g.whisker_low, w.whisker_low},
        {g.whisker_high, w.whisker_high}}) {
    EXPECT_EQ(bits(a), bits(b));
  }
  EXPECT_EQ(g.outliers, w.outliers);
}

TEST(SelectorReadPath, SummariesEqualTheCopyingReferenceWithForeignDocuments) {
  using util::Value;
  const scion::ScionlabEnv env = scion::scionlab_topology();
  docdb::Database db;
  {
    apps::ScionHost host(env, 7, env.user_as, "10.0.8.1");
    measure::TestSuiteConfig config;
    config.iterations = 5;
    config.server_ids = {{3, 4}};
    measure::TestSuite suite(host, db, config);
    ASSERT_TRUE(suite.run().ok());
  }
  docdb::Collection& stats = db.collection(measure::kPathsStats);
  std::vector<std::int64_t> timestamps;
  stats.for_each([&](const docdb::Document& doc) {
    timestamps.push_back(doc.get("timestamp_ms")->as_int());
  });
  std::sort(timestamps.begin(), timestamps.end());
  const std::int64_t midpoint = timestamps[timestamps.size() / 2];
  const std::int64_t late = timestamps.back();

  // Foreign documents on real path ids, inside and outside the window:
  // malformed ones both readers must skip, odd-but-valid ones (int loss,
  // mistyped optional metrics, extra fields) both must count alike.
  const std::string path = "3_0";
  const std::vector<Value> foreign = {
      Value::object({{"path_id", Value(path)}, {"note", Value("imported")}}),
      Value::object({{"path_id", Value(path)}, {"server_id", Value(3)},
                     {"timestamp_ms", Value(late)}, {"hop_count", Value(4)},
                     {"loss_pct", Value(1.0)},
                     {"isds", Value::array({Value(16), Value("x")})}}),
      Value::object({{"path_id", Value(path)}, {"server_id", Value(3)},
                     {"timestamp_ms", Value(late)}, {"hop_count", Value(2)},
                     {"loss_pct", Value(7)}, {"isds", Value::array({})},
                     {"latency_ms", Value("n/a")}, {"bw", Value(5.0)},
                     {"origin", Value("other-tool")}}),
      Value::object({{"path_id", Value(path)}, {"server_id", Value(3)},
                     {"timestamp_ms", Value(timestamps.front())},
                     {"hop_count", Value(2)}, {"loss_pct", Value(0.5)},
                     {"isds", Value::array({Value(17)})},
                     {"latency_ms", Value(123.25)}, {"jitter_ms", Value(2)},
                     {"bw", Value::object({{"up_mtu", Value(3)},
                                           {"down_mtu", Value("fast")}})}}),
      Value::object({{"path_id", Value("4_1")}, {"server_id", Value("4")},
                     {"timestamp_ms", Value(late)}}),
  };
  for (const Value& doc : foreign) ASSERT_TRUE(stats.insert_one(doc).ok());

  const PathSelector selector(db, env.topology);
  for (const int server : {3, 4}) {
    for (const std::optional<std::int64_t> since :
         {std::optional<std::int64_t>(), std::optional<std::int64_t>(midpoint),
          std::optional<std::int64_t>(late)}) {
      SCOPED_TRACE("server " + std::to_string(server) + " since " +
                   (since ? std::to_string(*since) : std::string("-")));
      const auto got = selector.summarize(server, since);
      ASSERT_TRUE(got.ok());
      const std::vector<PathSummary> want =
          reference_summaries(db, server, since);
      ASSERT_FALSE(want.empty());
      ASSERT_EQ(got.value().size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        expect_same_summary(got.value()[i], want[i]);
      }
    }
  }
  // The two well-formed foreign documents did reach path 3_0's summary.
  const auto full = selector.summarize(3);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().front().path_id, path);
  EXPECT_EQ(full.value().front().samples, 5u + 2u);
}

TEST(SelectorReadPath, ErrorsSurfaceInPathOrder) {
  using util::ErrorCode;
  using util::Value;
  const scion::Topology topology = scion::scionlab_topology().topology;
  const auto path_doc = [](int index, bool well_formed) {
    util::JsonObject doc;
    doc.set("_id", Value(measure::path_doc_id(3, index)));
    doc.set("server_id", Value(3));
    doc.set("path_index", Value(index));
    if (well_formed) doc.set("sequence", Value("not-a-hop-sequence"));
    doc.set("isds", Value::array({Value(16), Value(17)}));
    doc.set("hop_count", Value(2));
    doc.set("mtu", Value(1452));
    return Value(std::move(doc));
  };
  const auto summarize = [&](const docdb::Database& db) {
    return PathSelector(db, topology).summarize(3);
  };

  docdb::Database empty;
  EXPECT_EQ(summarize(empty).error().code, ErrorCode::kNotFound);

  // Paths but no paths_stats: the first path's own decoding comes first.
  docdb::Database first_malformed;
  ASSERT_TRUE(first_malformed.collection(measure::kPaths)
                  .insert_one(path_doc(1, true)).ok());
  ASSERT_TRUE(first_malformed.collection(measure::kPaths)
                  .insert_one(path_doc(0, false)).ok());
  EXPECT_EQ(summarize(first_malformed).error().code, ErrorCode::kParseError);

  docdb::Database second_malformed;
  ASSERT_TRUE(second_malformed.collection(measure::kPaths)
                  .insert_one(path_doc(1, false)).ok());
  ASSERT_TRUE(second_malformed.collection(measure::kPaths)
                  .insert_one(path_doc(0, true)).ok());
  const auto no_stats = summarize(second_malformed);
  ASSERT_FALSE(no_stats.ok());
  EXPECT_EQ(no_stats.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(no_stats.error().message, "paths_stats does not exist");
  (void)second_malformed.collection(measure::kPathsStats);
  EXPECT_EQ(summarize(second_malformed).error().code, ErrorCode::kParseError);

  // A destination without paths needs no paths_stats.
  docdb::Database other_server;
  (void)other_server.collection(measure::kPaths);
  const auto none = summarize(other_server);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());

  // Well-formed paths with an unparseable sequence summarize with no hops.
  docdb::Database unparsed;
  ASSERT_TRUE(unparsed.collection(measure::kPaths)
                  .insert_one(path_doc(0, true)).ok());
  (void)unparsed.collection(measure::kPathsStats);
  const auto summaries = summarize(unparsed);
  ASSERT_TRUE(summaries.ok());
  ASSERT_EQ(summaries.value().size(), 1u);
  EXPECT_EQ(summaries.value().front().path_id, "3_0");
  EXPECT_TRUE(summaries.value().front().hops.empty());
  EXPECT_EQ(summaries.value().front().samples, 0u);
}

}  // namespace
}  // namespace upin::select
