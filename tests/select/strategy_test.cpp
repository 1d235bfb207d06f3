// Tests for select/strategy: the registry, knob validation, explain
// traces, packet-size-aware bandwidth, and the golden bit-identity of
// paper-objective against a verbatim copy of the legacy pipeline.
#include "select/strategy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "measure/testsuite.hpp"
#include "select/selector.hpp"
#include "util/strings.hpp"

namespace upin::select {
namespace {

using util::Value;

/// Shared campaign dataset: Ireland, 6 iterations.  Built once.
class StrategyTest : public ::testing::Test {
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

scion::ScionlabEnv* StrategyTest::env_ = nullptr;
docdb::Database* StrategyTest::db_ = nullptr;

// ------------------------------------------------------------- registry

TEST(StrategyRegistry, GlobalShipsTheFiveBuiltins) {
  const auto keys = StrategyRegistry::global().keys();
  const std::vector<std::string> expected = {
      std::string(kPaperObjective), std::string(kLatencyGreedy),
      std::string(kLossAverse), std::string(kGeoConstrained),
      std::string(kDisjointnessMax)};
  for (const std::string& key : expected) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end())
        << "missing builtin " << key;
    const auto* entry = StrategyRegistry::global().find(key);
    ASSERT_NE(entry, nullptr);
    EXPECT_FALSE(entry->description.empty());
  }
  EXPECT_GE(keys.size(), 5u);
}

TEST(StrategyRegistry, CreateUnknownKeyFails) {
  const auto made = StrategyRegistry::global().create("no-such-strategy");
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.error().code, util::ErrorCode::kNotFound);
}

TEST(StrategyRegistry, CreateValidatesKnobNames) {
  util::JsonObject knobs;
  knobs.set("bogus_knob", Value(1.0));
  const auto made = StrategyRegistry::global().create(kLatencyGreedy, knobs);
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.error().code, util::ErrorCode::kInvalidArgument);
}

TEST(StrategyRegistry, CreateValidatesKnobTypes) {
  util::JsonObject knobs;
  knobs.set("statistic", Value(true));  // declared as a string knob
  const auto made = StrategyRegistry::global().create(kLatencyGreedy, knobs);
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.error().code, util::ErrorCode::kInvalidArgument);
}

TEST(StrategyRegistry, NumericKnobsAreInterchangeable) {
  util::JsonObject knobs;
  knobs.set("pool", Value(4.0));  // declared int, given a double
  EXPECT_TRUE(StrategyRegistry::global().create(kDisjointnessMax, knobs).ok());
}

TEST(StrategyRegistry, FactoryVetoesBadKnobValues) {
  util::JsonObject knobs;
  knobs.set("statistic", Value(std::string("p99")));  // not a box statistic
  const auto made = StrategyRegistry::global().create(kLatencyGreedy, knobs);
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.error().code, util::ErrorCode::kInvalidArgument);
}

TEST(StrategyRegistry, KnobSchemaRendersTypesAndDefaults) {
  const Value schema = StrategyRegistry::global().knob_schema(kLossAverse);
  const Value* weight = schema.get("latency_weight");
  ASSERT_NE(weight, nullptr);
  EXPECT_EQ(weight->get("type")->as_string(), "number");
  EXPECT_DOUBLE_EQ(weight->get("default")->as_double(), 0.01);
  EXPECT_TRUE(StrategyRegistry::global().knob_schema("nope").is_null());
}

TEST(StrategyRegistry, AddRejectsDuplicatesAndEmptyKeys) {
  StrategyRegistry registry;
  StrategyRegistry::Entry entry;
  entry.description = "noop";
  entry.factory = [](const util::JsonObject&) {
    return std::unique_ptr<PathSelectionStrategy>();
  };
  EXPECT_TRUE(registry.add("mine", entry).ok());
  EXPECT_EQ(registry.add("mine", entry).error().code,
            util::ErrorCode::kConflict);
  EXPECT_EQ(registry.add("", entry).error().code,
            util::ErrorCode::kInvalidArgument);
}

// ------------------------------------- packet-size-aware bandwidth (fix)

TEST(PathSummaryBandwidth, PacketSizeSelectsTheMeasuredColumn) {
  PathSummary summary;
  summary.mtu = 1452.0;
  summary.mean_bw_down_mtu = 30.0;
  summary.mean_bw_down_64 = 4.0;
  // Small packets read the 64 B column, large packets the MTU column.
  EXPECT_DOUBLE_EQ(*summary.bandwidth(BwDirection::kDownstream, 64.0), 4.0);
  EXPECT_DOUBLE_EQ(*summary.bandwidth(BwDirection::kDownstream, 1400.0), 30.0);
  // Legacy single-argument lookup is unchanged: MTU column only.
  EXPECT_DOUBLE_EQ(*summary.bandwidth(BwDirection::kDownstream), 30.0);
}

TEST(PathSummaryBandwidth, FallsBackWhenThePreferredColumnIsMissing) {
  PathSummary summary;
  summary.mtu = 1452.0;
  summary.mean_bw_up_mtu = 12.0;
  EXPECT_DOUBLE_EQ(*summary.bandwidth(BwDirection::kUpstream, 64.0), 12.0);
  summary.mean_bw_up_mtu = std::nullopt;
  EXPECT_FALSE(summary.bandwidth(BwDirection::kUpstream, 64.0).has_value());
}

TEST(RequestBandwidth, ProbeBytesOptInChangesTheFigure) {
  PathSummary summary;
  summary.mtu = 1452.0;
  summary.mean_bw_down_mtu = 30.0;
  summary.mean_bw_down_64 = 4.0;
  UserRequest request;
  // Unset: bit-identical to the legacy MTU-only lookup.
  EXPECT_DOUBLE_EQ(*request_bandwidth(summary, request), 30.0);
  request.bw_probe_bytes = 64.0;
  EXPECT_DOUBLE_EQ(*request_bandwidth(summary, request), 4.0);
}

TEST_F(StrategyTest, SmallPacketBandwidthConstraintUses64ByteColumn) {
  // The campaign measures both columns; pick the path where they differ
  // most and set the threshold between them — the admission verdict must
  // then flip when the request opts into 64 B probes.
  const auto summaries = selector().summarize(3);
  ASSERT_TRUE(summaries.ok());
  const PathSummary* sample = nullptr;
  double gap = 0.0;
  for (const PathSummary& candidate : summaries.value()) {
    if (!candidate.mean_bw_down_mtu.has_value() ||
        !candidate.mean_bw_down_64.has_value()) {
      continue;
    }
    const double d =
        std::abs(*candidate.mean_bw_down_64 - *candidate.mean_bw_down_mtu);
    if (d > gap) {
      gap = d;
      sample = &candidate;
    }
  }
  ASSERT_NE(sample, nullptr);
  ASSERT_GT(gap, 1e-6) << "campaign produced identical 64B/MTU figures";
  const double threshold =
      (*sample->mean_bw_down_64 + *sample->mean_bw_down_mtu) / 2.0;

  UserRequest mtu_sized;
  mtu_sized.server_id = 3;
  mtu_sized.min_bandwidth_mbps = threshold;
  UserRequest small = mtu_sized;
  small.bw_probe_bytes = 64.0;

  const auto selector_ = selector();
  const auto with_mtu = selector_.select_with(kPaperObjective, mtu_sized);
  const auto with_64 = selector_.select_with(kPaperObjective, small);
  ASSERT_TRUE(with_mtu.ok());
  ASSERT_TRUE(with_64.ok());
  const auto admitted = [&](const Selection& s, const std::string& id) {
    for (const RankedPath& r : s.ranked) {
      if (r.summary.path_id == id) return true;
    }
    return false;
  };
  // Whichever column clears the threshold, the verdicts must differ.
  EXPECT_EQ(admitted(with_mtu.value(), sample->path_id),
            *sample->mean_bw_down_mtu >= threshold);
  EXPECT_EQ(admitted(with_64.value(), sample->path_id),
            *sample->mean_bw_down_64 >= threshold);
  EXPECT_NE(admitted(with_mtu.value(), sample->path_id),
            admitted(with_64.value(), sample->path_id))
      << "a 64 B flow must be judged against the 64 B bandwidth figures";
}

// ----------------------------------------------------------- explain()

TEST_F(StrategyTest, ExplainRendersTheFullDecisionTrace) {
  UserRequest request;
  request.server_id = 3;
  request.max_latency_ms = 60.0;
  const auto selection = selector().select_with(kPaperObjective, request);
  ASSERT_TRUE(selection.ok());
  ASSERT_FALSE(selection.value().ranked.empty());
  ASSERT_FALSE(selection.value().rejected.empty());

  const Value trace = selection.value().explain();
  EXPECT_EQ(trace.get("strategy")->as_string(), "paper-objective");
  EXPECT_EQ(trace.get("request")->as_string(), request.describe());

  const Value* admitted = trace.get("admitted");
  ASSERT_NE(admitted, nullptr);
  ASSERT_EQ(admitted->as_array().size(), selection.value().ranked.size());
  const Value& first = admitted->as_array().front();
  EXPECT_EQ(first.get("rank")->as_int(), 0);
  EXPECT_EQ(first.get("path_id")->as_string(),
            selection.value().ranked.front().summary.path_id);
  ASSERT_NE(first.get("score_terms"), nullptr);
  EXPECT_FALSE(first.get("score_terms")->as_object().empty());

  const Value* rejected = trace.get("rejected");
  ASSERT_NE(rejected, nullptr);
  ASSERT_EQ(rejected->as_array().size(), selection.value().rejected.size());
  bool saw_failed_verdict = false;
  for (const Value& row : rejected->as_array()) {
    EXPECT_FALSE(row.get("reason")->as_string().empty());
    for (const Value& verdict : row.get("verdicts")->as_array()) {
      if (!verdict.get("passed")->as_bool()) saw_failed_verdict = true;
    }
  }
  EXPECT_TRUE(saw_failed_verdict);
}

// ------------------------------------------------------ the golden test
//
// A verbatim copy of the legacy PathSelector::select pipeline (the code
// this PR replaced), run against the same summaries.  paper-objective
// must reproduce its output bit for bit: same admitted order, same score
// doubles, same rationale strings, same rejection pairs.

std::optional<double> legacy_score(const PathSummary& summary,
                                   const UserRequest& request) {
  switch (request.objective) {
    case Objective::kLowestLatency:
      if (!summary.latency_ms.has_value()) return std::nullopt;
      return summary.latency_ms->median;
    case Objective::kHighestBandwidth: {
      const std::optional<double> bw = summary.bandwidth(request.bw_direction);
      if (!bw.has_value()) return std::nullopt;
      return -*bw;  // lower score = better
    }
    case Objective::kLowestLoss:
      // Tie-break equal losses by latency when available.
      return summary.mean_loss_pct * 1e6 +
             (summary.latency_ms.has_value() ? summary.latency_ms->median : 0.0);
    case Objective::kMostConsistent:
      if (!summary.latency_ms.has_value() || summary.latency_samples < 2) {
        return std::nullopt;
      }
      return summary.latency_ms->iqr;
  }
  return std::nullopt;
}

std::optional<std::string> legacy_rejection_reason(
    const scion::Topology& topology, const PathSummary& summary,
    const UserRequest& request) {
  if (summary.samples < request.min_samples) {
    return util::format("only %zu samples (need %zu)", summary.samples,
                        request.min_samples);
  }

  for (const scion::IsdAsn& hop : summary.hops) {
    const scion::AsInfo* info = topology.find_as(hop);
    if (info == nullptr) continue;
    for (const std::string& country : request.exclude_countries) {
      if (info->country == country) {
        return "traverses excluded country " + country + " (" +
               hop.to_string() + ")";
      }
    }
    for (const std::string& op : request.exclude_operators) {
      if (info->operator_name == op) {
        return "traverses excluded operator " + op + " (" + hop.to_string() +
               ")";
      }
    }
    if (std::find(request.exclude_ases.begin(), request.exclude_ases.end(),
                  hop) != request.exclude_ases.end()) {
      return "traverses excluded AS " + hop.to_string();
    }
  }
  for (const std::int64_t isd : summary.isds) {
    if (std::find(request.exclude_isds.begin(), request.exclude_isds.end(),
                  static_cast<std::uint16_t>(isd)) !=
        request.exclude_isds.end()) {
      return "traverses excluded ISD " + std::to_string(isd);
    }
    if (!request.allowed_isds.empty() &&
        std::find(request.allowed_isds.begin(), request.allowed_isds.end(),
                  static_cast<std::uint16_t>(isd)) ==
            request.allowed_isds.end()) {
      return "traverses ISD " + std::to_string(isd) +
             " outside the allow-list";
    }
  }

  if (request.max_latency_ms.has_value()) {
    if (!summary.latency_ms.has_value()) return "no latency data";
    if (summary.latency_ms->median > *request.max_latency_ms) {
      return util::format("median latency %.1fms exceeds %.1fms",
                          summary.latency_ms->median, *request.max_latency_ms);
    }
  }
  if (request.min_bandwidth_mbps.has_value()) {
    const std::optional<double> bw = summary.bandwidth(request.bw_direction);
    if (!bw.has_value()) return "no bandwidth data";
    if (*bw < *request.min_bandwidth_mbps) {
      return util::format("bandwidth %.1fMbps below %.1fMbps", *bw,
                          *request.min_bandwidth_mbps);
    }
  }
  if (request.max_loss_pct.has_value() &&
      summary.mean_loss_pct > *request.max_loss_pct) {
    return util::format("loss %.1f%% exceeds %.1f%%", summary.mean_loss_pct,
                        *request.max_loss_pct);
  }
  if (request.max_jitter_ms.has_value()) {
    if (!summary.mean_jitter_ms.has_value()) return "no jitter data";
    if (*summary.mean_jitter_ms > *request.max_jitter_ms) {
      return util::format("jitter %.1fms exceeds %.1fms",
                          *summary.mean_jitter_ms, *request.max_jitter_ms);
    }
  }

  if (!legacy_score(summary, request).has_value()) {
    return std::string("no data for objective ") + to_string(request.objective);
  }
  return std::nullopt;
}

Selection legacy_select(const scion::Topology& topology,
                        std::vector<PathSummary> summaries,
                        const UserRequest& request) {
  Selection selection;
  for (PathSummary& summary : summaries) {
    const std::optional<std::string> rejection =
        legacy_rejection_reason(topology, summary, request);
    if (rejection.has_value()) {
      selection.rejected.emplace_back(summary.path_id, *rejection);
      continue;
    }
    RankedPath ranked;
    ranked.score = *legacy_score(summary, request);
    switch (request.objective) {
      case Objective::kLowestLatency:
        ranked.rationale = util::format("median latency %.2fms over %zu samples",
                                        summary.latency_ms->median,
                                        summary.latency_samples);
        break;
      case Objective::kHighestBandwidth:
        ranked.rationale = util::format(
            "mean %s bandwidth %.2fMbps",
            request.bw_direction == BwDirection::kDownstream ? "downstream"
                                                             : "upstream",
            -ranked.score);
        break;
      case Objective::kLowestLoss:
        ranked.rationale =
            util::format("mean loss %.2f%%", summary.mean_loss_pct);
        break;
      case Objective::kMostConsistent:
        ranked.rationale =
            util::format("latency IQR %.2fms", summary.latency_ms->iqr);
        break;
    }
    ranked.summary = std::move(summary);
    selection.ranked.push_back(std::move(ranked));
  }

  std::stable_sort(selection.ranked.begin(), selection.ranked.end(),
                   [](const RankedPath& a, const RankedPath& b) {
                     return a.score < b.score;
                   });
  return selection;
}

std::vector<UserRequest> golden_request_matrix() {
  std::vector<UserRequest> matrix;
  for (const Objective objective :
       {Objective::kLowestLatency, Objective::kHighestBandwidth,
        Objective::kLowestLoss, Objective::kMostConsistent}) {
    UserRequest base;
    base.server_id = 3;
    base.objective = objective;
    matrix.push_back(base);

    UserRequest constrained = base;
    constrained.max_latency_ms = 60.0;
    constrained.max_loss_pct = 2.0;
    matrix.push_back(constrained);

    UserRequest sovereign = base;
    sovereign.exclude_countries = {"US"};
    sovereign.exclude_isds = {18};
    matrix.push_back(sovereign);

    UserRequest strict = base;
    strict.min_bandwidth_mbps = 8.0;
    strict.bw_direction = BwDirection::kUpstream;
    strict.max_jitter_ms = 5.0;
    matrix.push_back(strict);

    UserRequest starved = base;
    starved.min_samples = 7;  // campaign ran 6 iterations
    matrix.push_back(starved);

    UserRequest walled = base;
    walled.allowed_isds = {16, 17};
    walled.exclude_operators = {"SWITCH"};
    matrix.push_back(walled);
  }
  return matrix;
}

TEST_F(StrategyTest, GoldenPaperObjectiveIsBitIdenticalToLegacySelect) {
  const PathSelector selector_ = selector();
  for (const UserRequest& request : golden_request_matrix()) {
    const auto summaries = selector_.summarize(3, request.since_timestamp_ms);
    ASSERT_TRUE(summaries.ok());
    const Selection expected =
        legacy_select(env_->topology, summaries.value(), request);

    const auto actual = selector_.select_with(kPaperObjective, request);
    ASSERT_TRUE(actual.ok()) << request.describe();

    ASSERT_EQ(actual.value().ranked.size(), expected.ranked.size())
        << request.describe();
    for (std::size_t i = 0; i < expected.ranked.size(); ++i) {
      EXPECT_EQ(actual.value().ranked[i].summary.path_id,
                expected.ranked[i].summary.path_id)
          << request.describe();
      // Bit-identical, not approximately equal.
      EXPECT_EQ(actual.value().ranked[i].score, expected.ranked[i].score)
          << request.describe();
      EXPECT_EQ(actual.value().ranked[i].rationale,
                expected.ranked[i].rationale)
          << request.describe();
    }
    ASSERT_EQ(actual.value().rejected.size(), expected.rejected.size())
        << request.describe();
    for (std::size_t i = 0; i < expected.rejected.size(); ++i) {
      EXPECT_EQ(actual.value().rejected[i], expected.rejected[i])
          << request.describe();
    }
  }
}

TEST_F(StrategyTest, FacadeSelectEqualsSelectWithPaperObjective) {
  UserRequest request;
  request.server_id = 3;
  request.objective = Objective::kMostConsistent;
  const PathSelector selector_ = selector();
  const auto via_facade = selector_.select(request);
  const auto via_registry = selector_.select_with(kPaperObjective, request);
  ASSERT_TRUE(via_facade.ok());
  ASSERT_TRUE(via_registry.ok());
  ASSERT_EQ(via_facade.value().ranked.size(),
            via_registry.value().ranked.size());
  for (std::size_t i = 0; i < via_facade.value().ranked.size(); ++i) {
    EXPECT_EQ(via_facade.value().ranked[i].summary.path_id,
              via_registry.value().ranked[i].summary.path_id);
    EXPECT_EQ(via_facade.value().ranked[i].score,
              via_registry.value().ranked[i].score);
  }
  EXPECT_EQ(via_facade.value().rejected, via_registry.value().rejected);
}

// ----------------------------------------------------- other strategies

TEST_F(StrategyTest, LatencyGreedyStatisticKnobChangesTheOrdering) {
  UserRequest request;
  request.server_id = 3;
  const PathSelector selector_ = selector();
  const auto by_median = selector_.select_with(kLatencyGreedy, request);
  util::JsonObject knobs;
  knobs.set("statistic", Value(std::string("whisker_high")));
  const auto by_tail = selector_.select_with(kLatencyGreedy, request, knobs);
  ASSERT_TRUE(by_median.ok());
  ASSERT_TRUE(by_tail.ok());
  ASSERT_FALSE(by_median.value().ranked.empty());
  EXPECT_EQ(by_median.value().ranked.size(), by_tail.value().ranked.size());
  for (std::size_t i = 0; i < by_median.value().ranked.size(); ++i) {
    const auto& box = by_tail.value().ranked[i].summary.latency_ms;
    ASSERT_TRUE(box.has_value());
    EXPECT_EQ(by_tail.value().ranked[i].score, box->whisker_high);
  }
}

TEST_F(StrategyTest, GeoConstrainedRanksByGeodesicDistance) {
  UserRequest request;
  request.server_id = 3;
  const auto selection = selector().select_with(kGeoConstrained, request);
  ASSERT_TRUE(selection.ok());
  ASSERT_FALSE(selection.value().ranked.empty());
  double previous = -1.0;
  for (const RankedPath& ranked : selection.value().ranked) {
    EXPECT_GE(ranked.score, previous);
    previous = ranked.score;
    bool has_km_term = false;
    for (const ScoreTerm& term : ranked.terms) {
      if (term.name == "geodesic_km") has_km_term = true;
    }
    EXPECT_TRUE(has_km_term);
  }
}

TEST_F(StrategyTest, DisjointnessMaxSecondPickMinimizesOverlap) {
  UserRequest request;
  request.server_id = 3;
  const auto selection = selector().select_with(kDisjointnessMax, request);
  ASSERT_TRUE(selection.ok());
  ASSERT_GE(selection.value().ranked.size(), 2u);
  // The interior hops of picks 1 and 2 must overlap no more than any
  // alternative ordering could achieve — on the single-AP testbed, the
  // overlap term is still reported per path.
  for (const RankedPath& ranked : selection.value().ranked) {
    bool has_overlap_term = false;
    for (const ScoreTerm& term : ranked.terms) {
      if (term.name == "overlap_fraction") {
        has_overlap_term = true;
        EXPECT_GE(term.value, 0.0);
        EXPECT_LE(term.value, 1.0);
      }
    }
    EXPECT_TRUE(has_overlap_term);
  }
}

TEST_F(StrategyTest, EveryStrategyEnforcesSovereigntyIdentically) {
  UserRequest request;
  request.server_id = 3;
  request.exclude_countries = {"SG"};
  const PathSelector selector_ = selector();
  for (const std::string& key : StrategyRegistry::global().keys()) {
    const auto selection = selector_.select_with(key, request);
    ASSERT_TRUE(selection.ok()) << key;
    for (const RankedPath& ranked : selection.value().ranked) {
      for (const scion::IsdAsn hop : ranked.summary.hops) {
        EXPECT_NE(hop, scion::scionlab::kSingapore) << key;
      }
    }
  }
}

}  // namespace
}  // namespace upin::select
