// Tests for select/strategy: the registry, knob validation, explain
// traces, packet-size-aware bandwidth, and the golden bit-identity of
// paper-objective against a verbatim copy of the legacy pipeline.
#include "select/strategy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <map>

#include "apps/host.hpp"
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

// ------------------------------------------- two-pass admission oracle
//
// rank() admits a path through admitted_score() and asks check_admission()
// only for a rejected path's verdicts.  The reference decides admission by
// the full check_admission() on every path and lets the strategy rank
// exactly the admitted ones: the two must agree field for field.

/// What rank() must return when check_admission() alone decides.
Selection reference_rank(const PathSelectionStrategy& strategy,
                         const std::vector<PathSummary>& paths,
                         const UserRequest& request,
                         const SelectionContext& context) {
  std::vector<PathSummary> admitted;
  Selection want;
  for (const PathSummary& summary : paths) {
    AdmissionReport report =
        check_admission(summary, request, context, strategy);
    if (!report.rejection.has_value()) {
      admitted.push_back(summary);
      continue;
    }
    want.rejected.emplace_back(summary.path_id, *report.rejection);
    want.rejected_detail.push_back(RejectedPath{
        summary.path_id, *report.rejection, std::move(report.verdicts)});
  }
  Selection ranked = strategy.rank(admitted, request, context);
  EXPECT_TRUE(ranked.rejected.empty()) << "an admissible path was rejected";
  want.strategy = std::move(ranked.strategy);
  want.request_description = std::move(ranked.request_description);
  want.ranked = std::move(ranked.ranked);
  return want;
}

void expect_same_selection(const Selection& got, const Selection& want) {
  EXPECT_EQ(got.strategy, want.strategy);
  EXPECT_EQ(got.request_description, want.request_description);
  ASSERT_EQ(got.ranked.size(), want.ranked.size());
  for (std::size_t i = 0; i < want.ranked.size(); ++i) {
    const RankedPath& g = got.ranked[i];
    const RankedPath& w = want.ranked[i];
    EXPECT_EQ(g.summary.path_id, w.summary.path_id) << "rank " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.score),
              std::bit_cast<std::uint64_t>(w.score))
        << "rank " << i;
    EXPECT_EQ(g.rationale, w.rationale) << "rank " << i;
    ASSERT_EQ(g.terms.size(), w.terms.size()) << "rank " << i;
    for (std::size_t t = 0; t < w.terms.size(); ++t) {
      EXPECT_EQ(g.terms[t].name, w.terms[t].name);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.terms[t].value),
                std::bit_cast<std::uint64_t>(w.terms[t].value));
    }
  }
  EXPECT_EQ(got.rejected, want.rejected);
  ASSERT_EQ(got.rejected_detail.size(), want.rejected_detail.size());
  for (std::size_t i = 0; i < want.rejected_detail.size(); ++i) {
    const RejectedPath& g = got.rejected_detail[i];
    const RejectedPath& w = want.rejected_detail[i];
    EXPECT_EQ(g.path_id, w.path_id);
    EXPECT_EQ(g.reason, w.reason);
    ASSERT_EQ(g.verdicts.size(), w.verdicts.size()) << w.path_id;
    for (std::size_t v = 0; v < w.verdicts.size(); ++v) {
      EXPECT_EQ(g.verdicts[v].constraint, w.verdicts[v].constraint);
      EXPECT_EQ(g.verdicts[v].passed, w.verdicts[v].passed);
      EXPECT_EQ(g.verdicts[v].detail, w.verdicts[v].detail);
    }
  }
}

/// The middle of a per-path figure, so a cap on it splits the paths.
double median_of(const std::vector<PathSummary>& paths,
                 const std::function<std::optional<double>(const PathSummary&)>&
                     figure) {
  std::vector<double> values;
  for (const PathSummary& summary : paths) {
    if (const std::optional<double> value = figure(summary)) {
      values.push_back(*value);
    }
  }
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Requests over every constraint, each set to split the paths where the
/// data allows: caps at the median, exclusions drawn from the paths' hops.
std::vector<UserRequest> admission_request_matrix(
    const scion::Topology& topology, const std::vector<PathSummary>& paths) {
  const PathSummary& first = paths.front();
  const PathSummary& last = paths.back();
  const scion::IsdAsn interior = first.hops[first.hops.size() / 2];
  const scion::AsInfo* info = topology.find_as(interior);
  const std::string country = info != nullptr ? info->country : "CH";
  const std::string op = info != nullptr ? info->operator_name : "SWITCH";
  const scion::IsdAsn excluded_as = last.hops[last.hops.size() / 2];
  const double latency = median_of(paths, [](const PathSummary& p) {
    return p.latency_ms ? std::optional<double>(p.latency_ms->median)
                        : std::nullopt;
  });
  const double bandwidth = median_of(paths, [](const PathSummary& p) {
    return p.bandwidth(BwDirection::kDownstream);
  });
  const double loss = median_of(
      paths, [](const PathSummary& p) { return p.mean_loss_pct; });
  const double jitter = median_of(
      paths, [](const PathSummary& p) { return p.mean_jitter_ms; });

  std::vector<UserRequest> matrix;
  for (const Objective objective :
       {Objective::kLowestLatency, Objective::kHighestBandwidth,
        Objective::kLowestLoss, Objective::kMostConsistent}) {
    UserRequest base;
    base.server_id = 3;
    base.objective = objective;
    const auto add = [&](const std::function<void(UserRequest&)>& edit) {
      UserRequest request = base;
      edit(request);
      matrix.push_back(request);
    };
    add([](UserRequest&) {});
    add([](UserRequest& r) { r.min_samples = 6; });
    add([](UserRequest& r) { r.min_samples = 7; });
    add([&](UserRequest& r) { r.exclude_countries = {country}; });
    add([&](UserRequest& r) { r.exclude_operators = {op}; });
    add([&](UserRequest& r) { r.exclude_ases = {excluded_as}; });
    add([](UserRequest& r) { r.exclude_isds = {18}; });
    add([](UserRequest& r) { r.allowed_isds = {16, 17}; });
    add([](UserRequest& r) { r.allowed_isds = {17}; });
    add([&](UserRequest& r) { r.max_latency_ms = latency; });
    add([&](UserRequest& r) { r.min_bandwidth_mbps = bandwidth; });
    add([&](UserRequest& r) {
      r.min_bandwidth_mbps = bandwidth;
      r.bw_probe_bytes = 64.0;
      r.bw_direction = BwDirection::kUpstream;
    });
    add([&](UserRequest& r) { r.max_loss_pct = loss; });
    add([&](UserRequest& r) { r.max_jitter_ms = jitter; });
    add([&](UserRequest& r) {  // several failures on one path
      r.exclude_countries = {country};
      r.exclude_isds = {16};
      r.max_latency_ms = latency;
      r.max_loss_pct = loss;
      r.max_jitter_ms = jitter;
    });
  }
  return matrix;
}

TEST_F(StrategyTest, TwoPassAdmissionEqualsFullCheckAdmission) {
  const PathSelector selector_ = selector();
  const auto full = selector_.summarize(3);
  ASSERT_TRUE(full.ok());
  ASSERT_GE(full.value().size(), 2u);

  // Every built-in, plus the knob settings that change admission.
  std::vector<std::unique_ptr<PathSelectionStrategy>> strategies;
  const auto create = [&](std::string_view key, util::JsonObject knobs) {
    auto made = StrategyRegistry::global().create(key, knobs);
    ASSERT_TRUE(made.ok()) << key;
    strategies.push_back(std::move(made).value());
  };
  for (const std::string_view key : {kPaperObjective, kLatencyGreedy,
                                     kLossAverse, kGeoConstrained,
                                     kDisjointnessMax}) {
    create(key, {});
  }
  create(kGeoConstrained, util::JsonObject{{"require_geo", Value(true)}});
  create(kDisjointnessMax,
         util::JsonObject{{"base", Value("loss")}, {"pool", Value(2)}});

  // Liveness: a flap storm's control plane, at instants where it has
  // revoked some of the destination's paths.
  simnet::NetworkConfig storm;
  storm.server_error_prob = 0.0;
  storm.faults.link_flap_per_hour = 6.0;
  apps::ScionHost host(*env_, 42, env_->user_as, "10.0.8.1", storm);
  std::vector<util::SimTime> revoked_instants;
  for (int step = 0; step < 24 * 12 && revoked_instants.size() < 3; ++step) {
    host.clock().advance(util::sim_seconds(300.0));
    const util::SimTime now = host.clock().now();
    const auto revoked = std::count_if(
        full.value().begin(), full.value().end(), [&](const PathSummary& p) {
          return host.control_plane().hops_revoked(p.hops, now);
        });
    if (revoked > 0) revoked_instants.push_back(now);
  }
  ASSERT_FALSE(revoked_instants.empty())
      << "the storm never revoked a path; liveness would go untested";

  // Contexts: the selector's (topology, no liveness), none at all (the
  // sovereignty check's topology-free branch), and liveness at each
  // instant.
  util::VirtualClock clock;
  const SelectionContext live{&env_->topology, &host.control_plane(), &clock};
  std::vector<std::pair<SelectionContext, util::SimTime>> contexts = {
      {selector_.context(), util::SimTime{}},
      {SelectionContext{}, util::SimTime{}}};
  for (const util::SimTime instant : revoked_instants) {
    contexts.emplace_back(live, instant);
  }

  // Full history and a freshness window over its later half.
  std::vector<std::int64_t> timestamps;
  db_->find_collection(measure::kPathsStats)
      ->for_each([&](const docdb::Document& doc) {
        timestamps.push_back(doc.get("timestamp_ms")->as_int());
      });
  std::sort(timestamps.begin(), timestamps.end());
  const std::int64_t midpoint = timestamps[timestamps.size() / 2];

  std::map<std::string, std::size_t> failed;  // constraint -> verdicts seen
  std::size_t admitted = 0;
  const std::vector<UserRequest> matrix =
      admission_request_matrix(env_->topology, full.value());
  for (const std::optional<std::int64_t> since :
       {std::optional<std::int64_t>(), std::optional<std::int64_t>(midpoint)}) {
    const auto paths = selector_.summarize(3, since);
    ASSERT_TRUE(paths.ok());
    for (std::size_t c = 0; c < contexts.size(); ++c) {
      const auto& [context, instant] = contexts[c];
      clock.reset();
      clock.advance_to(instant);
      for (const UserRequest& request : matrix) {
        for (const auto& strategy : strategies) {
          SCOPED_TRACE(std::string(strategy->key()) + " context " +
                       std::to_string(c) + " " + request.describe());
          const Selection got = strategy->rank(paths.value(), request, context);
          const Selection want =
              reference_rank(*strategy, paths.value(), request, context);
          expect_same_selection(got, want);
          admitted += got.ranked.size();
          for (const RejectedPath& rejected : got.rejected_detail) {
            for (const ConstraintVerdict& verdict : rejected.verdicts) {
              if (!verdict.passed) ++failed[verdict.constraint];
            }
          }
        }
      }
    }
  }
  // The matrix reached every constraint, failing and passing.
  EXPECT_GT(admitted, 0u);
  for (const char* constraint :
       {"min-samples", "liveness", "sovereignty", "isd-policy", "max-latency",
        "min-bandwidth", "max-loss", "max-jitter", "objective-data"}) {
    EXPECT_GT(failed[constraint], 0u) << constraint << " never failed";
  }
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
