// Integration tests: the full pipeline of the paper — testbed, campaign,
// database (durable + signed), selection — plus the figure-shape
// assertions the reproduction stands on.
#include <gtest/gtest.h>

#include <filesystem>

#include "apps/host.hpp"
#include "measure/testsuite.hpp"
#include "scion/scionlab.hpp"
#include "select/selector.hpp"
#include "support/temp_path.hpp"

namespace upin {
namespace {

using measure::TestSuite;
using measure::TestSuiteConfig;
using scion::scionlab::kIreland;
using scion::scionlab::kOhio;
using scion::scionlab::kSingapore;

TEST(Integration, FullCampaignThenSelection) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  apps::ScionHost host(env, 42, env.user_as, "10.0.8.1");
  docdb::Database db;

  TestSuiteConfig config;
  config.iterations = 4;
  config.server_ids = {{1, 3}};  // Germany + Ireland
  TestSuite suite(host, db, config);
  ASSERT_TRUE(suite.run().ok());

  select::PathSelector selector(db, env.topology);
  for (const int server_id : {1, 3}) {
    select::UserRequest request;
    request.server_id = server_id;
    request.objective = select::Objective::kLowestLatency;
    const auto best = selector.best(request);
    ASSERT_TRUE(best.ok()) << "server " << server_id;
    EXPECT_EQ(best.value().summary.samples, 4u);
  }
}

TEST(Integration, DurableCampaignSurvivesReopen) {
  const std::string path =
      test_support::temp_path("upin_integration", ".jsonl");
  std::filesystem::remove(path);

  const scion::ScionlabEnv env = scion::scionlab_topology();
  std::string best_before;
  {
    auto db = docdb::Database::open(path);
    ASSERT_TRUE(db.ok());
    apps::ScionHost host(env, 42, env.user_as, "10.0.8.1");
    TestSuiteConfig config;
    config.iterations = 2;
    config.server_ids = {{3}};
    TestSuite suite(host, *db.value(), config);
    ASSERT_TRUE(suite.run().ok());

    select::PathSelector selector(*db.value(), env.topology);
    select::UserRequest request;
    request.server_id = 3;
    best_before = selector.best(request).value().summary.path_id;
  }
  {
    auto reopened = docdb::Database::open(path);
    ASSERT_TRUE(reopened.ok());
    select::PathSelector selector(*reopened.value(), env.topology);
    select::UserRequest request;
    request.server_id = 3;
    const auto best = selector.best(request);
    ASSERT_TRUE(best.ok());
    EXPECT_EQ(best.value().summary.path_id, best_before);
    EXPECT_EQ(best.value().summary.samples, 2u);
  }
  std::filesystem::remove(path);
}

TEST(Integration, SignedCampaignEndToEnd) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  apps::ScionHost host(env, 42, env.user_as, "10.0.8.1");
  docdb::Database db;
  scion::TrustStore trust;
  ASSERT_TRUE(
      trust.register_core(scion::IsdAsn(17, scion::make_asn(0, 0x1101))).ok());
  db.set_write_guard(trust.make_write_guard());

  TestSuiteConfig config;
  config.iterations = 2;
  config.server_ids = {{3}};
  TestSuite suite(host, db, config);
  suite.enable_signed_writes(trust);
  ASSERT_TRUE(suite.run().ok());
  EXPECT_EQ(suite.progress().batches_rejected, 0u);
  EXPECT_EQ(suite.progress().batches_inserted, 2u);
  EXPECT_GT(db.collection(measure::kPathsStats).size(), 0u);
}

// ---- figure-shape assertions -----------------------------------------

class FigureShapes : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new scion::ScionlabEnv(scion::scionlab_topology());
    host_ = new apps::ScionHost(*env_, 42, env_->user_as, "10.0.8.1");
    db_ = new docdb::Database();
    TestSuiteConfig config;
    config.iterations = 8;
    config.server_ids = {{1, 3}};  // Germany (bw), Ireland (latency)
    TestSuite suite(*host_, *db_, config);
    ASSERT_TRUE(suite.run().ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    delete host_;
    delete env_;
    db_ = nullptr;
    host_ = nullptr;
    env_ = nullptr;
  }

  static std::vector<select::PathSummary> summaries(int server_id) {
    select::PathSelector selector(*db_, env_->topology);
    auto result = selector.summarize(server_id);
    EXPECT_TRUE(result.ok());
    if (!result.ok()) return {};
    return std::move(result).value();
  }

  static scion::ScionlabEnv* env_;
  static apps::ScionHost* host_;
  static docdb::Database* db_;
};

scion::ScionlabEnv* FigureShapes::env_ = nullptr;
apps::ScionHost* FigureShapes::host_ = nullptr;
docdb::Database* FigureShapes::db_ = nullptr;

TEST_F(FigureShapes, Fig4ReachabilityHeadlines) {
  const scion::Beaconing& beacons = host_->beaconing();
  double hop_sum = 0.0;
  std::size_t reachable = 0, within_six = 0;
  for (const scion::SnetAddress& server : env_->servers) {
    const auto paths = beacons.paths(env_->user_as, server.ia);
    if (paths.empty()) continue;
    ++reachable;
    hop_sum += static_cast<double>(paths.front().hop_count());
    if (paths.front().hop_count() <= 6) ++within_six;
  }
  EXPECT_EQ(reachable, 21u);  // paper: 21 reachable destinations
  const double avg = hop_sum / static_cast<double>(reachable);
  EXPECT_NEAR(avg, 5.66, 0.4);  // paper: 5.66
  const double pct = 100.0 * static_cast<double>(within_six) /
                     static_cast<double>(reachable);
  EXPECT_NEAR(pct, 70.0, 10.0);  // paper: ~70%
}

TEST_F(FigureShapes, Fig5ThreeLatencyLayers) {
  double europe = 0, ohio = 0, singapore = 0;
  for (const select::PathSummary& s : summaries(3)) {
    if (!s.latency_ms.has_value()) continue;
    const scion::IsdAsn second_last = s.hops[s.hops.size() - 2];
    double& slot = second_last == kOhio        ? ohio
                   : second_last == kSingapore ? singapore
                                               : europe;
    if (slot == 0) slot = s.latency_ms->median;
  }
  ASSERT_GT(europe, 0);
  ASSERT_GT(ohio, 0);
  ASSERT_GT(singapore, 0);
  EXPECT_GT(ohio, 2.0 * europe) << "layer 2 clearly above layer 1";
  EXPECT_GT(singapore, 1.3 * ohio) << "layer 3 clearly above layer 2";
}

TEST_F(FigureShapes, Fig5GeographyBeatsHopCount) {
  // A min-hop-count path via Europe is *faster* than equal-hop paths via
  // Ohio: hop count does not explain latency (paper §6.1).
  std::optional<double> europe_6hop, ohio_6hop;
  for (const select::PathSummary& s : summaries(3)) {
    if (!s.latency_ms.has_value() || s.hop_count != 6) continue;
    const scion::IsdAsn second_last = s.hops[s.hops.size() - 2];
    if (second_last == kOhio && !ohio_6hop.has_value()) {
      ohio_6hop = s.latency_ms->median;
    }
    if (second_last != kOhio && second_last != kSingapore &&
        !europe_6hop.has_value()) {
      europe_6hop = s.latency_ms->median;
    }
  }
  ASSERT_TRUE(europe_6hop.has_value());
  ASSERT_TRUE(ohio_6hop.has_value());
  EXPECT_LT(*europe_6hop, *ohio_6hop / 2.0);
}

TEST_F(FigureShapes, Fig6ExclusionCompactsTheSpread) {
  // Within the 6-hop group, the spread of per-path medians collapses
  // once Singapore/Ohio members are excluded.
  std::vector<double> all, without_detours;
  for (const select::PathSummary& s : summaries(3)) {
    if (!s.latency_ms.has_value() || s.hop_count != 6) continue;
    all.push_back(s.latency_ms->median);
    const bool detour =
        std::any_of(s.hops.begin(), s.hops.end(), [](scion::IsdAsn ia) {
          return ia == kOhio || ia == kSingapore;
        });
    if (!detour) without_detours.push_back(s.latency_ms->median);
  }
  ASSERT_GE(all.size(), 3u);
  ASSERT_GE(without_detours.size(), 2u);
  const auto spread = [](const std::vector<double>& xs) {
    return *std::max_element(xs.begin(), xs.end()) -
           *std::min_element(xs.begin(), xs.end());
  };
  EXPECT_LT(spread(without_detours), spread(all) / 10.0);
}

TEST_F(FigureShapes, Fig7OrderingAt12Mbps) {
  for (const select::PathSummary& s : summaries(1)) {
    ASSERT_TRUE(s.mean_bw_up_64.has_value());
    EXPECT_LT(*s.mean_bw_up_64, *s.mean_bw_up_mtu)
        << "64B below MTU at 12 Mbps (paper Fig 7)";
    EXPECT_LT(*s.mean_bw_down_64, *s.mean_bw_down_mtu);
    EXPECT_LT(*s.mean_bw_up_mtu, *s.mean_bw_down_mtu)
        << "upstream below downstream (paper §6.2)";
  }
}

TEST_F(FigureShapes, Fig8InversionAt150Mbps) {
  // Separate campaign at the saturating target.
  docdb::Database db150;
  apps::ScionHost host150(*env_, 42, env_->user_as, "10.0.8.1");
  TestSuiteConfig config;
  config.iterations = 4;
  config.server_ids = {{1}};
  config.bw_target_mbps = 150.0;
  TestSuite suite(host150, db150, config);
  ASSERT_TRUE(suite.run().ok());

  select::PathSelector selector(db150, env_->topology);
  const auto result = selector.summarize(1);
  ASSERT_TRUE(result.ok());
  for (const select::PathSummary& s : result.value()) {
    EXPECT_GT(*s.mean_bw_up_64, *s.mean_bw_up_mtu)
        << "inversion upstream (paper Fig 8)";
    EXPECT_GT(*s.mean_bw_down_64, *s.mean_bw_down_mtu)
        << "inversion downstream (paper Fig 8)";
  }
}

TEST_F(FigureShapes, Fig9LossMostlyZero) {
  // Per-measurement, not per-path: "the majority of paths exhibits a loss
  // ratio of 0%, with a few instances occasionally reaching almost the
  // 10% mark" (§6.3).
  std::size_t zero_loss = 0, moderate = 0, total = 0;
  db_->collection(measure::kPathsStats)
      .for_each([&](const docdb::Document& doc) {
        const double loss = doc.get("loss_pct")->as_double();
        ++total;
        if (loss < 1.0) ++zero_loss;
        if (loss >= 1.0 && loss <= 40.0) ++moderate;
      });
  ASSERT_GT(total, 0u);
  EXPECT_GE(static_cast<double>(zero_loss) / static_cast<double>(total), 0.7);
  EXPECT_GT(moderate, 0u) << "occasional visible loss readings exist";
}

}  // namespace
}  // namespace upin
