// Tests for select/selector: aggregation, constraints, ranking.
#include "select/selector.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace upin::select
