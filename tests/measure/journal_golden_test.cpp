// Golden bytes for durable campaign journals: the size and sha256 of the
// journal two fixed-seed campaigns write.  Every record a campaign
// journals — path documents, paths_stats batches, checkpoints with the
// path-cache metadata, and the campaign_metrics snapshots of a
// per-campaign registry — is a pure function of the seed, so any change
// to probe dispatch, path choice, path status, error class, retry timing
// or cache counters shows up here as different bytes.
//
//   * the §6 survey (servers 1–5, 55 iterations) stepped through its
//     first ten units on a calm network;
//   * a campaign under a fault storm that runs past the 6-hour segment
//     lifetime, so its probes meet revoked, cache-stale and expired paths
//     and its operations retry.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/host.hpp"
#include "docdb/database.hpp"
#include "measure/testsuite.hpp"
#include "obs/metrics.hpp"
#include "scion/scionlab.hpp"
#include "support/temp_path.hpp"
#include "util/sha256.hpp"

namespace upin::measure {
namespace {

constexpr std::uint64_t kSeed = 1100;

class JournalGolden : public ::testing::Test {
 protected:
  JournalGolden()
      : env_(scion::scionlab_topology()),
        journal_(test_support::temp_path("journal_golden", ".jsonl")) {
    std::filesystem::remove(journal_);
  }
  ~JournalGolden() override { std::filesystem::remove(journal_); }

  /// Run `units` steps of a campaign on `host` into a fresh durable
  /// journal (all of them when `units` is 0), finish it, and return the
  /// journal bytes.
  std::string run_durable(apps::ScionHost& host, TestSuiteConfig config,
                          int units = 0, double unit_gap_s = 0.0) {
    obs::Registry registry;
    config.registry = &registry;
    {
      auto opened = docdb::Database::open(journal_);
      EXPECT_TRUE(opened.ok());
      if (!opened.ok()) return {};
      TestSuite suite(host, *opened.value(), config);
      EXPECT_TRUE(suite.begin().ok());
      for (int unit = 0; units == 0 || unit < units; ++unit) {
        const auto outcome = suite.step();
        EXPECT_TRUE(outcome.ok());
        if (!outcome.ok() || outcome.value() == TestSuite::StepOutcome::kDone) {
          break;
        }
        host.clock().advance(util::sim_seconds(unit_gap_s));
      }
      EXPECT_TRUE(suite.finish().ok());
      progress_ = suite.progress();
    }
    std::ifstream in(journal_, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  }

  static std::string digest(const std::string& bytes) {
    return util::to_hex(util::Sha256::hash(bytes));
  }

  scion::ScionlabEnv env_;
  std::string journal_;
  TestSuiteProgress progress_;
};

TEST_F(JournalGolden, SurveyTenUnits) {
  apps::ScionHost host(env_, kSeed, env_.user_as, "10.0.8.1");
  TestSuiteConfig config;
  config.iterations = 55;
  config.server_ids = {{1, 2, 3, 4, 5}};
  const std::string bytes = run_durable(host, config, 10);
  EXPECT_EQ(progress_.path_tests_run, 118u);
  EXPECT_EQ(bytes.size(), 94215u);
  EXPECT_EQ(digest(bytes),
            "8f98f7e6b84b7b7e8940c04bf00a3f905838c9123e92efba3cfe8eb2eee22fe8");
}

TEST_F(JournalGolden, FaultedCampaignMeetsRevokedStaleAndExpiredPaths) {
  simnet::FaultPlanConfig faults;
  faults.link_flap_per_hour = 3.0;
  faults.server_down_per_hour = 0.5;
  faults.slow_per_hour = 2.0;
  faults.garble_prob = 0.1;
  simnet::NetworkConfig net;
  net.faults = faults;
  apps::ScionHost host(env_, kSeed, env_.user_as, "10.0.8.1", net);
  TestSuiteConfig config;
  config.iterations = 100;
  config.server_ids = {{3, 5}};
  const std::string bytes = run_durable(host, config, 0, 60.0);

  const TestSuiteProgress& progress = progress_;
  EXPECT_GT(progress.errors.revoked, 0u);
  EXPECT_GT(progress.errors.expired, 0u);
  EXPECT_GT(progress.retry.retries, 0u);
  EXPECT_GT(host.control_plane().cache().stats().stale_served, 0u);
  EXPECT_GT(util::to_seconds(host.clock().now()), 21600.0)
      << "the campaign must outlive the segment lifetime";
  EXPECT_EQ(progress.path_tests_run, 1226u);
  EXPECT_EQ(progress.errors.total(), 1707u);
  EXPECT_EQ(bytes.size(), 743517u);
  EXPECT_EQ(digest(bytes),
            "4ed997c7632ec479906c7dabc7088a2feff65a5c651d26659875f81f28d3d2e2");
}

}  // namespace
}  // namespace upin::measure
