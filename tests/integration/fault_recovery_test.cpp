// Integration tests for the fault-injection harness and crash-safe
// resume: a campaign under an aggressive FaultPlan still terminates with
// partial, fully-classified results; retry recovers transient faults;
// the breaker stops hammering dark servers; and a killed campaign,
// resumed from its checkpoints (even over a torn journal tail),
// reproduces the identical paths_stats document set.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "docdb/database.hpp"
#include "fleet/fleet.hpp"
#include "measure/testsuite.hpp"
#include "scion/scionlab.hpp"
#include "support/temp_path.hpp"

namespace upin::measure {
namespace {

using util::Value;

class FaultRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    journal_path_ = test_support::temp_path("fault_recovery", ".jsonl");
    std::filesystem::remove(journal_path_);
  }
  void TearDown() override { std::filesystem::remove(journal_path_); }

  static simnet::NetworkConfig reliable() {
    simnet::NetworkConfig config;
    config.server_error_prob = 0.0;
    return config;
  }

  static simnet::NetworkConfig faulty(const simnet::FaultPlanConfig& faults) {
    simnet::NetworkConfig config;
    config.server_error_prob = 0.0;
    config.faults = faults;
    return config;
  }

  /// All paths_stats documents as id -> serialized JSON.
  static std::map<std::string, std::string> stats_snapshot(
      docdb::Database& db) {
    std::map<std::string, std::string> snapshot;
    db.collection(kPathsStats).for_each([&](const docdb::Document& doc) {
      snapshot.emplace(std::string(docdb::document_id(doc).value_or("")),
                       doc.dump());
    });
    return snapshot;
  }

  FaultRecoveryTest() : env_(scion::scionlab_topology()) {}

  scion::ScionlabEnv env_;
  std::string journal_path_;
};

TEST_F(FaultRecoveryTest, AggressiveFaultsCampaignTerminatesClassified) {
  simnet::FaultPlanConfig faults;
  faults.garble_prob = 0.35;
  faults.server_down_per_hour = 8.0;
  faults.slow_per_hour = 8.0;
  apps::ScionHost host(env_, 42, env_.user_as, "10.0.8.1", faulty(faults));
  docdb::Database db;
  TestSuiteConfig config;
  config.iterations = 2;
  config.server_ids = {{3}};
  config.retry.enabled = false;  // every injected fault is recorded
  TestSuite suite(host, db, config);
  ASSERT_TRUE(suite.run().ok()) << "faults must not abort the campaign";

  const TestSuiteProgress& p = suite.progress();
  // Partial results: some samples landed, some operations failed.
  EXPECT_GT(p.stats_inserted, 0u);
  EXPECT_GT(p.errors.total(), 0u);
  // Every operation failure is classified — the taxonomy reconciles
  // exactly with the per-operation failure counters.
  EXPECT_EQ(p.errors.total() - p.errors.storage,
            p.ping_failures + p.bwtest_failures);
  EXPECT_EQ(p.errors.storage, 0u);
  // This plan injects all three network fault classes.
  EXPECT_GT(p.errors.garbled, 0u);
  // Aggressive regime: at least 20 % of attempted operations failed.
  const std::size_t attempted = 3 * p.path_tests_run + p.ping_failures;
  EXPECT_GE(p.errors.total() * 5, attempted)
      << p.errors.total() << " failures of " << attempted << " operations";
}

TEST_F(FaultRecoveryTest, RetryRecoversTransientFaults) {
  simnet::FaultPlanConfig faults;
  faults.garble_prob = 0.25;  // redrawn per attempt: retries usually win
  TestSuiteConfig config;
  config.iterations = 2;
  config.server_ids = {{3}};

  apps::ScionHost host_off(env_, 42, env_.user_as, "10.0.8.1", faulty(faults));
  docdb::Database db_off;
  TestSuiteConfig no_retry = config;
  no_retry.retry.enabled = false;
  TestSuite without(host_off, db_off, no_retry);
  ASSERT_TRUE(without.run().ok());

  apps::ScionHost host_on(env_, 42, env_.user_as, "10.0.8.1", faulty(faults));
  docdb::Database db_on;
  TestSuite with(host_on, db_on, config);
  ASSERT_TRUE(with.run().ok());

  EXPECT_GT(with.progress().retry.retries, 0u);
  EXPECT_LT(with.progress().errors.total(), without.progress().errors.total())
      << "backoff-and-retry must recover transient garbles";
  EXPECT_GE(with.progress().stats_inserted, without.progress().stats_inserted);
}

TEST_F(FaultRecoveryTest, BreakerStopsHammeringDarkDestination) {
  simnet::NetworkConfig dark = reliable();
  dark.server_error_prob = 1.0;  // every bwtest fails, even after retries
  apps::ScionHost host(env_, 42, env_.user_as, "10.0.8.1", dark);
  docdb::Database db;
  TestSuiteConfig config;
  config.iterations = 2;
  config.server_ids = {{3}};
  config.retry.max_attempts = 2;  // keep the virtual timeline short
  TestSuite suite(host, db, config);
  ASSERT_TRUE(suite.run().ok());
  EXPECT_GE(suite.progress().breaker_trips, 1u);
  EXPECT_GT(suite.progress().breaker_skips, 0u)
      << "after tripping, remaining path tests are skipped";
  EXPECT_GT(suite.progress().stats_inserted, 0u)
      << "samples measured before the trip are kept";
}

TEST_F(FaultRecoveryTest, CheckpointsAreRecordedPerCompletedUnit) {
  auto opened = docdb::Database::open(journal_path_);
  ASSERT_TRUE(opened.ok());
  docdb::Database& db = *opened.value();
  apps::ScionHost host(env_, 42, env_.user_as, "10.0.8.1", reliable());
  TestSuiteConfig config;
  config.iterations = 3;
  config.server_ids = {{3}};
  TestSuite suite(host, db, config);
  ASSERT_TRUE(suite.run().ok());
  EXPECT_EQ(suite.progress().checkpoints_recorded, 3u);
  EXPECT_EQ(db.collection(kCampaignCheckpoints).size(), 3u);
  const auto doc = db.collection(kCampaignCheckpoints).find_by_id("ckpt_3_1");
  ASSERT_TRUE(doc.ok());
  const auto checkpoint = parse_checkpoint_document(doc.value());
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(checkpoint.value().server_id, 3);
  EXPECT_EQ(checkpoint.value().iteration, 1);
  EXPECT_GT(checkpoint.value().clock_end, util::SimTime::zero());
  EXPECT_GT(checkpoint.value().samples_stored, 0u);
}

TEST_F(FaultRecoveryTest, KillThenResumeReproducesIdenticalDocuments) {
  // Garbles (mostly recovered by retry) plus occasional slow-responder
  // windows: enough injected faults to exercise the recovery machinery
  // without tripping breakers so hard that units go empty.
  simnet::FaultPlanConfig faults;
  faults.garble_prob = 0.1;
  faults.slow_per_hour = 2.0;
  TestSuiteConfig config;
  config.iterations = 2;
  config.server_ids = {{3, 5}};

  // Reference: the same campaign, never interrupted (in-memory db).
  std::map<std::string, std::string> reference;
  {
    apps::ScionHost host(env_, 42, env_.user_as, "10.0.8.1", faulty(faults));
    docdb::Database db;
    TestSuite suite(host, db, config);
    ASSERT_TRUE(suite.run().ok());
    reference = stats_snapshot(db);
    ASSERT_FALSE(reference.empty());
  }

  // Crashed run: killed after the third committed batch (mid-iteration).
  std::size_t stored_before_crash = 0;
  {
    auto opened = docdb::Database::open(journal_path_);
    ASSERT_TRUE(opened.ok());
    docdb::Database& db = *opened.value();
    apps::ScionHost host(env_, 42, env_.user_as, "10.0.8.1", faulty(faults));
    TestSuiteConfig crashing = config;
    crashing.crash_after_batches = 3;
    TestSuite suite(host, db, crashing);
    const util::Status crashed = suite.run();
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.error().code, util::ErrorCode::kDataLoss);
    stored_before_crash = db.collection(kPathsStats).size();
    ASSERT_GT(stored_before_crash, 0u);
    ASSERT_LT(stored_before_crash, reference.size());
  }

  // The kill also tore the journal mid-append: leftover partial record.
  {
    std::ofstream out(journal_path_, std::ios::binary | std::ios::app);
    out << "crc32=0123abcd {\"op\":\"ins";
  }

  // Resume: fresh process, fresh host, fresh clock.
  {
    auto reopened = docdb::Database::open(journal_path_);
    ASSERT_TRUE(reopened.ok()) << "torn tail is recovered on open";
    docdb::Database& db = *reopened.value();
    EXPECT_EQ(db.collection(kPathsStats).size(), stored_before_crash)
        << "no committed samples lost to the torn tail";
    apps::ScionHost host(env_, 42, env_.user_as, "10.0.8.1", faulty(faults));
    TestSuiteConfig resuming = config;
    resuming.skip_collection = true;
    resuming.resume = true;
    TestSuite suite(host, db, resuming);
    ASSERT_TRUE(suite.run().ok());
    EXPECT_EQ(suite.progress().units_skipped, 3u)
        << "exactly the checkpointed units are skipped";

    const std::map<std::string, std::string> resumed = stats_snapshot(db);
    ASSERT_EQ(resumed.size(), reference.size());
    for (const auto& [id, json] : reference) {
      const auto it = resumed.find(id);
      ASSERT_NE(it, resumed.end()) << "missing document " << id;
      EXPECT_EQ(it->second, json) << "document " << id << " diverged";
    }
  }
}

TEST_F(FaultRecoveryTest, FleetKillThenResumeReproducesIdenticalDocuments) {
  // Whole-fleet crash recovery: kill a three-tenant fleet mid-campaign
  // (every tenant at a different committed-batch boundary, tenant 0 with
  // a torn journal tail on top), resume the fleet over the same shard
  // directory, and require every tenant's paths_stats document set to
  // match an uninterrupted reference fleet exactly.
  namespace fs = std::filesystem;
  const std::string base = test_support::temp_path("fleet_resume");
  fs::remove_all(base);

  fleet::FleetConfig config;
  config.seed = 42;
  config.net_config = reliable();
  config.suite.iterations = 3;
  config.error_budget = 0;  // ladder off: pure crash/resume mechanics
  config.watchdog_deadline_s = 0.0;
  config.threads = 3;
  std::vector<fleet::CampaignSpec> specs(3);
  for (int id = 0; id < 3; ++id) {
    specs[static_cast<std::size_t>(id)].campaign_id = id;
    specs[static_cast<std::size_t>(id)].server_ids = {3 + 2 * id};
  }

  const auto shard = [&](const char* dir, int id) {
    return (fs::path(base) / dir / fleet::shard_filename(id)).string();
  };
  const auto stats_in_shard = [&](const std::string& path) {
    auto opened = docdb::Database::open(path);
    EXPECT_TRUE(opened.ok()) << path;
    return opened.ok() ? stats_snapshot(*opened.value())
                       : std::map<std::string, std::string>{};
  };

  // Reference: the same fleet, never interrupted.
  {
    fleet::FleetConfig reference = config;
    reference.data_dir = base + "/ref";
    const auto result = fleet::FleetScheduler(env_, reference).run(specs);
    ASSERT_TRUE(result.ok());
    for (const auto& campaign : result.value().campaigns) {
      ASSERT_EQ(campaign.state, fleet::TenantState::kHealthy);
    }
  }

  // Crashed fleet: every tenant killed at its own batch boundary.
  const std::size_t crash_points[3] = {1, 2, 2};
  {
    fleet::FleetConfig crashing = config;
    crashing.data_dir = base + "/crash";
    std::vector<fleet::CampaignSpec> crash_specs = specs;
    for (std::size_t i = 0; i < 3; ++i) {
      crash_specs[i].crash_after_batches = crash_points[i];
    }
    const auto result = fleet::FleetScheduler(env_, crashing).run(crash_specs);
    ASSERT_TRUE(result.ok()) << "tenant crashes are contained, not fatal";
    EXPECT_EQ(result.value().failed, 3u);
    for (const auto& campaign : result.value().campaigns) {
      EXPECT_EQ(campaign.state, fleet::TenantState::kFailed);
      ASSERT_FALSE(campaign.failure.ok());
      EXPECT_EQ(campaign.failure.error().code, util::ErrorCode::kDataLoss);
    }
  }

  // The kill also tore tenant 0's journal mid-append.
  {
    std::ofstream out(shard("crash", 0), std::ios::binary | std::ios::app);
    out << "crc32=0123abcd {\"op\":\"ins";
  }

  // Resume the whole fleet over the crashed directory.
  {
    fleet::FleetConfig resuming = config;
    resuming.data_dir = base + "/crash";
    resuming.resume = true;
    const auto result = fleet::FleetScheduler(env_, resuming).run(specs);
    ASSERT_TRUE(result.ok());
    for (std::size_t i = 0; i < 3; ++i) {
      const fleet::CampaignStatus& campaign = result.value().campaigns[i];
      EXPECT_EQ(campaign.state, fleet::TenantState::kHealthy);
      EXPECT_EQ(campaign.units_resumed, crash_points[i])
          << "exactly the checkpointed units fast-forward";
      EXPECT_EQ(campaign.units_run + campaign.units_resumed, 3u);
    }
  }

  // Bit-identical recovery, per tenant: the resumed shards hold exactly
  // the reference document sets.
  for (int id = 0; id < 3; ++id) {
    const auto reference = stats_in_shard(shard("ref", id));
    const auto resumed = stats_in_shard(shard("crash", id));
    ASSERT_FALSE(reference.empty());
    ASSERT_EQ(resumed.size(), reference.size()) << "campaign " << id;
    for (const auto& [doc_id, json] : reference) {
      const auto it = resumed.find(doc_id);
      ASSERT_NE(it, resumed.end())
          << "campaign " << id << " missing document " << doc_id;
      EXPECT_EQ(it->second, json)
          << "campaign " << id << " document " << doc_id << " diverged";
    }
  }
  fs::remove_all(base);
}

TEST_F(FaultRecoveryTest, SyncedBatchesAreOnDiskAtCrashTime) {
  // The group-commit durability contract: when insert_many (and the
  // checkpoint insert behind it) returns, its records are flushed.  A
  // file snapshot taken at the instant the injected crash fires — the
  // bytes a real kill would leave — must therefore replay to exactly the
  // committed in-memory state, not to some earlier group.
  const std::string snapshot = journal_path_ + ".crash";
  std::size_t stored_before_crash = 0;
  std::size_t checkpoints_before_crash = 0;
  {
    auto opened = docdb::Database::open(journal_path_);
    ASSERT_TRUE(opened.ok());
    docdb::Database& db = *opened.value();
    apps::ScionHost host(env_, 42, env_.user_as, "10.0.8.1", reliable());
    TestSuiteConfig config;
    config.iterations = 2;
    config.server_ids = {{3, 5}};
    config.crash_after_batches = 3;
    TestSuite suite(host, db, config);
    ASSERT_FALSE(suite.run().ok());
    stored_before_crash = db.collection(kPathsStats).size();
    checkpoints_before_crash = db.collection(kCampaignCheckpoints).size();
    ASSERT_GT(stored_before_crash, 0u);
    // Snapshot the journal file while the database (and its writer
    // thread) is still alive — no destructor drain has happened yet.
    std::filesystem::copy_file(journal_path_, snapshot,
                               std::filesystem::copy_options::overwrite_existing);
  }

  auto recovered = docdb::Database::open(snapshot);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value()->collection(kPathsStats).size(),
            stored_before_crash)
      << "every batch whose insert_many returned must be on disk";
  EXPECT_EQ(recovered.value()->collection(kCampaignCheckpoints).size(),
            checkpoints_before_crash)
      << "checkpoints committed before the crash must be on disk";
  std::filesystem::remove(snapshot);
}

TEST_F(FaultRecoveryTest, ResumeWithoutCrashInjectionIsIdempotent) {
  // Run to completion, then resume with the same target: nothing re-runs.
  {
    auto opened = docdb::Database::open(journal_path_);
    ASSERT_TRUE(opened.ok());
    apps::ScionHost host(env_, 42, env_.user_as, "10.0.8.1", reliable());
    TestSuiteConfig config;
    config.iterations = 2;
    config.server_ids = {{3}};
    TestSuite suite(host, *opened.value(), config);
    ASSERT_TRUE(suite.run().ok());
  }
  auto reopened = docdb::Database::open(journal_path_);
  ASSERT_TRUE(reopened.ok());
  docdb::Database& db = *reopened.value();
  const std::size_t stats = db.collection(kPathsStats).size();
  apps::ScionHost host(env_, 42, env_.user_as, "10.0.8.1", reliable());
  TestSuiteConfig config;
  config.iterations = 2;
  config.server_ids = {{3}};
  config.skip_collection = true;
  config.resume = true;
  TestSuite suite(host, db, config);
  ASSERT_TRUE(suite.run().ok());
  EXPECT_EQ(suite.progress().path_tests_run, 0u);
  EXPECT_EQ(suite.progress().units_skipped, 2u);
  EXPECT_EQ(db.collection(kPathsStats).size(), stats);
}

}  // namespace
}  // namespace upin::measure
