// Tests for the multi-tenant fleet scheduler: seed splitting, worker
// claims (any worker count, tenants finished before any claim), the
// Healthy -> Degraded -> Quarantined ladder, watchdog trips, per-tenant
// failure containment, and the plain run == solo == in-fleet
// determinism contract the isolation gate builds on.
#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "apps/host.hpp"
#include "measure/schema.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/temp_path.hpp"

namespace upin::fleet {
namespace {

class FleetTest : public ::testing::Test {
 protected:
  FleetTest() : env_(scion::scionlab_topology()) {}

  /// In-memory fleet, deterministic network, ladder off unless a test
  /// opts in.  Tests route fleet metrics into a local registry so runs
  /// stay independent of each other and of the process-wide registry.
  FleetConfig base_config() {
    FleetConfig config;
    config.seed = 42;
    config.net_config.server_error_prob = 0.0;
    config.suite.iterations = 2;
    config.error_budget = 0;
    config.watchdog_deadline_s = 0.0;
    config.metrics = &metrics_;
    return config;
  }

  static CampaignSpec spec_for(int id, int server) {
    CampaignSpec spec;
    spec.campaign_id = id;
    spec.server_ids = {server};
    return spec;
  }

  /// Every tenant-side counter that the determinism contract covers.
  static void expect_progress_equal(const measure::TestSuiteProgress& a,
                                    const measure::TestSuiteProgress& b) {
    EXPECT_EQ(a.path_tests_run, b.path_tests_run);
    EXPECT_EQ(a.stats_inserted, b.stats_inserted);
    EXPECT_EQ(a.batches_inserted, b.batches_inserted);
    EXPECT_EQ(a.ping_failures, b.ping_failures);
    EXPECT_EQ(a.bwtest_failures, b.bwtest_failures);
    EXPECT_EQ(a.errors.total(), b.errors.total());
    EXPECT_EQ(a.retry.retries, b.retry.retries);
    EXPECT_EQ(a.breaker_trips, b.breaker_trips);
    EXPECT_EQ(a.breaker_skips, b.breaker_skips);
    EXPECT_EQ(a.units_skipped, b.units_skipped);
    EXPECT_EQ(a.checkpoints_recorded, b.checkpoints_recorded);
    EXPECT_EQ(a.probes_shed, b.probes_shed);
  }

  scion::ScionlabEnv env_;
  obs::Registry metrics_;
};

TEST_F(FleetTest, CampaignSeedSplitsStableDecorrelatedStreams) {
  std::set<std::uint64_t> seeds;
  for (int id = 0; id < 64; ++id) {
    EXPECT_TRUE(seeds.insert(campaign_seed(42, id)).second)
        << "campaign " << id << " collided";
  }
  EXPECT_EQ(campaign_seed(42, 7), campaign_seed(42, 7))
      << "the split must be a pure function";
  EXPECT_NE(campaign_seed(42, 7), campaign_seed(43, 7))
      << "different fleet seeds give different tenant streams";
}

TEST_F(FleetTest, ShardFilenameEncodesCampaignId) {
  EXPECT_EQ(shard_filename(3), "campaign_3.jsonl");
}

TEST_F(FleetTest, RejectsEmptyAndDuplicateSpecLists) {
  FleetScheduler scheduler(env_, base_config());
  EXPECT_FALSE(scheduler.run({}).ok());
  const auto duplicate = scheduler.run({spec_for(1, 3), spec_for(1, 5)});
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.error().code, util::ErrorCode::kInvalidArgument);
}

TEST_F(FleetTest, RunsIndependentTenantsToCompletion) {
  FleetScheduler scheduler(env_, base_config());
  const auto result =
      scheduler.run({spec_for(0, 3), spec_for(1, 5), spec_for(2, 7)});
  ASSERT_TRUE(result.ok()) << result.error().message;
  ASSERT_EQ(result.value().campaigns.size(), 3u);
  EXPECT_EQ(result.value().quarantined, 0u);
  EXPECT_EQ(result.value().failed, 0u);
  for (std::size_t i = 0; i < 3; ++i) {
    const CampaignStatus& status = result.value().campaigns[i];
    EXPECT_EQ(status.campaign_id, static_cast<int>(i)) << "spec order kept";
    EXPECT_EQ(status.state, TenantState::kHealthy);
    EXPECT_EQ(status.units_run, 2u) << "iterations x one destination";
    EXPECT_GT(status.progress.stats_inserted, 0u);
    EXPECT_EQ(status.progress.checkpoints_recorded, 2u);
    EXPECT_TRUE(status.failure.ok());
  }
}

TEST_F(FleetTest, SoloRunMatchesInFleetRun) {
  // The isolation contract in its cheapest form: a tenant's campaign
  // counters in a multiplexed fleet equal its solo run's, exactly.
  const std::vector<CampaignSpec> specs = {spec_for(0, 3), spec_for(1, 5)};
  FleetScheduler scheduler(env_, base_config());
  const auto fleet = scheduler.run(specs);
  ASSERT_TRUE(fleet.ok());
  for (const CampaignSpec& spec : specs) {
    const auto solo = run_campaign_solo(env_, base_config(), spec);
    ASSERT_TRUE(solo.ok());
    const CampaignStatus& in_fleet =
        fleet.value().campaigns[static_cast<std::size_t>(spec.campaign_id)];
    EXPECT_EQ(solo.value().seed, in_fleet.seed);
    EXPECT_EQ(solo.value().state, in_fleet.state);
    expect_progress_equal(solo.value().progress, in_fleet.progress);
  }
}

TEST_F(FleetTest, TenantShardMatchesPlainTestSuiteRun) {
  // The runner-equivalence oracle: a tenant's stored samples equal those
  // of a plain TestSuite::run() on the same destination, given the
  // tenant's split seed and a private registry.  With
  // SoloRunMatchesInFleetRun this pins run() == solo == in-fleet.
  const std::filesystem::path dir = test_support::temp_path("fleet_oracle");
  std::filesystem::remove_all(dir);
  FleetConfig config = base_config();
  config.suite.iterations = 3;
  config.threads = 2;
  config.data_dir = dir.string();
  const std::vector<CampaignSpec> specs = {spec_for(0, 3), spec_for(1, 5)};
  ASSERT_TRUE(FleetScheduler(env_, config).run(specs).ok());

  docdb::FindOptions by_id;
  by_id.sort_by = "_id";
  const docdb::Filter all = docdb::Filter::match_all();
  for (const CampaignSpec& spec : specs) {
    auto shard = docdb::Database::open(
        (dir / shard_filename(spec.campaign_id)).string());
    ASSERT_TRUE(shard.ok()) << shard.error().message;

    obs::Registry registry;
    apps::ScionHost host(env_, campaign_seed(config.seed, spec.campaign_id),
                         env_.user_as, "10.0.8.1", config.net_config);
    measure::TestSuiteConfig suite = config.suite;
    suite.server_ids = spec.server_ids;
    suite.registry = &registry;
    docdb::Database plain_db;
    measure::TestSuite plain(host, plain_db, suite);
    ASSERT_TRUE(plain.run().ok());

    const auto tenant_docs =
        shard.value()->collection(measure::kPathsStats).find(all, by_id);
    const auto plain_docs =
        plain_db.collection(measure::kPathsStats).find(all, by_id);
    ASSERT_FALSE(plain_docs.empty());
    ASSERT_EQ(tenant_docs.size(), plain_docs.size())
        << "campaign " << spec.campaign_id;
    for (std::size_t i = 0; i < plain_docs.size(); ++i) {
      EXPECT_EQ(tenant_docs[i], plain_docs[i])
          << "campaign " << spec.campaign_id << " doc " << i;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST_F(FleetTest, FleetOutcomesAreDeterministicAcrossRuns) {
  // Scheduling differs with the worker count and from run to run;
  // outcomes must not.  threads = 4 is capped at the three tenants.
  const std::vector<CampaignSpec> specs = {spec_for(0, 3), spec_for(1, 5),
                                           spec_for(2, 7)};
  FleetConfig config = base_config();
  config.threads = 1;
  const auto reference = FleetScheduler(env_, config).run(specs);
  ASSERT_TRUE(reference.ok());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{4}}) {
    config.threads = threads;
    const auto run = FleetScheduler(env_, config).run(specs);
    ASSERT_TRUE(run.ok()) << "threads " << threads;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", campaign " +
                   std::to_string(i));
      const CampaignStatus& want = reference.value().campaigns[i];
      const CampaignStatus& got = run.value().campaigns[i];
      EXPECT_EQ(got.state, want.state);
      EXPECT_EQ(got.units_run, want.units_run);
      EXPECT_EQ(got.error_score, want.error_score);
      expect_progress_equal(got.progress, want.progress);
    }
  }
}

TEST_F(FleetTest, TenantFinishedBeforeAnyClaimLeavesTheFleetRunning) {
  // A directory where campaign 0's shard should be: the open fails, so
  // the tenant is Failed before any worker could claim it.  The finished
  // count starts at one; the fleet must still return, at every worker
  // count, with the other tenant run in full.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::filesystem::path dir =
        test_support::temp_path("fleet_unopenable");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir / shard_filename(0));
    FleetConfig config = base_config();
    config.threads = threads;
    config.data_dir = dir.string();
    const auto result =
        FleetScheduler(env_, config).run({spec_for(0, 3), spec_for(1, 5)});
    ASSERT_TRUE(result.ok()) << result.error().message;
    const CampaignStatus& broken = result.value().campaigns[0];
    EXPECT_EQ(broken.state, TenantState::kFailed);
    EXPECT_EQ(broken.units_run, 0u);
    EXPECT_FALSE(broken.failure.ok());
    EXPECT_EQ(result.value().failed, 1u);

    const CampaignStatus& healthy = result.value().campaigns[1];
    EXPECT_EQ(healthy.state, TenantState::kHealthy);
    EXPECT_EQ(healthy.units_run, 2u);
    const auto solo = run_campaign_solo(env_, base_config(), spec_for(1, 5));
    ASSERT_TRUE(solo.ok());
    expect_progress_equal(healthy.progress, solo.value().progress);
    std::filesystem::remove_all(dir);
  }
}

TEST_F(FleetTest, TenantBurningItsErrorBudgetIsQuarantined) {
  FleetConfig config = base_config();
  config.suite.iterations = 6;
  config.suite.retry.max_attempts = 2;
  config.error_budget = 6;
  config.shed_enabled = false;  // force the ladder straight to quarantine

  CampaignSpec faulty = spec_for(0, 3);
  simnet::NetworkConfig dark = config.net_config;
  dark.server_error_prob = 1.0;  // every bandwidth probe fails
  faulty.net_config = dark;

  const auto result =
      FleetScheduler(env_, config).run({faulty, spec_for(1, 5)});
  ASSERT_TRUE(result.ok());
  const CampaignStatus& bad = result.value().campaigns[0];
  const CampaignStatus& good = result.value().campaigns[1];
  EXPECT_EQ(bad.state, TenantState::kQuarantined);
  EXPECT_GE(bad.error_score, 6u) << "quarantine fires at the budget";
  EXPECT_LT(bad.units_run, 6u) << "the tenant was stopped early";
  EXPECT_EQ(result.value().quarantined, 1u);

  // Blast radius zero: the clean tenant neither saw the faults nor the
  // quarantine machinery.
  EXPECT_EQ(good.state, TenantState::kHealthy);
  const auto solo = run_campaign_solo(env_, config, spec_for(1, 5));
  ASSERT_TRUE(solo.ok());
  expect_progress_equal(good.progress, solo.value().progress);
}

TEST_F(FleetTest, DegradedTenantShedsBandwidthProbesAndStabilizes) {
  // Bandwidth probes fail hard, pings are fine: the tenant burns error
  // budget until the ladder degrades it to ping-only units — at which
  // point the failures stop and it finishes Degraded, not Quarantined.
  FleetConfig config = base_config();
  config.suite.iterations = 8;
  config.suite.retry.max_attempts = 2;
  config.error_budget = 12;  // degrade at 6, quarantine at 12

  CampaignSpec tenant = spec_for(0, 3);
  simnet::NetworkConfig dark = config.net_config;
  dark.server_error_prob = 1.0;
  tenant.net_config = dark;

  const auto result = FleetScheduler(env_, config).run({tenant});
  ASSERT_TRUE(result.ok());
  const CampaignStatus& status = result.value().campaigns[0];
  EXPECT_EQ(status.state, TenantState::kDegraded)
      << "shedding must stabilize the tenant below its budget, score="
      << status.error_score;
  EXPECT_GT(status.progress.probes_shed, 0u);
  EXPECT_EQ(status.units_run, 8u) << "a degraded tenant still completes";
  EXPECT_GT(status.progress.stats_inserted, 0u)
      << "ping-only units still produce samples";
  EXPECT_EQ(result.value().degraded, 1u);
}

TEST_F(FleetTest, PriorityZeroTenantsShedEarlier) {
  // Same faults, same budget: the priority-0 tenant degrades at a
  // quarter of the budget, the priority-1 tenant at half — so the
  // low-priority tenant sheds at least as many probes.
  FleetConfig config = base_config();
  config.suite.iterations = 8;
  config.suite.retry.max_attempts = 2;
  config.error_budget = 16;  // degrade thresholds: 4 (priority 0), 8 (priority 1)

  simnet::NetworkConfig dark = config.net_config;
  dark.server_error_prob = 1.0;
  CampaignSpec low = spec_for(0, 3);
  low.priority = 0;
  low.net_config = dark;
  CampaignSpec high = spec_for(1, 3);
  high.priority = 1;
  high.net_config = dark;

  const auto result = FleetScheduler(env_, config).run({low, high});
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().campaigns[0].progress.probes_shed,
            result.value().campaigns[1].progress.probes_shed);
  EXPECT_GT(result.value().campaigns[0].progress.probes_shed, 0u);
}

TEST_F(FleetTest, WatchdogFlagsStalledTenantUnitsOnly) {
  // Healthy units against server 3 burn ~170 virtual seconds.  A tenant
  // whose responses are heavily garbled keeps (mostly) succeeding after
  // retries, so its breaker stays quiet while retry backoff stretches
  // each unit past 200 virtual seconds — a stalled tenant, not a dark
  // one.  The watchdog deadline sits between the two regimes.
  FleetConfig config = base_config();
  config.suite.iterations = 2;
  config.watchdog_deadline_s = 190.0;

  CampaignSpec stalled = spec_for(0, 3);
  simnet::NetworkConfig slow = config.net_config;
  simnet::FaultPlanConfig faults;
  faults.garble_prob = 0.4;
  faults.slow_per_hour = 6.0;
  slow.faults = faults;
  stalled.net_config = slow;

  const auto result =
      FleetScheduler(env_, config).run({stalled, spec_for(1, 3)});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().campaigns[0].watchdog_trips, 0u)
      << "retry backoff under garbling must trip the per-unit deadline";
  EXPECT_EQ(result.value().campaigns[1].watchdog_trips, 0u)
      << "healthy units stay under the deadline";
}

TEST_F(FleetTest, HardTenantFailureIsContained) {
  FleetConfig config = base_config();
  CampaignSpec crashing = spec_for(0, 3);
  crashing.crash_after_batches = 1;  // kDataLoss after the first commit

  const auto result =
      FleetScheduler(env_, config).run({crashing, spec_for(1, 5)});
  ASSERT_TRUE(result.ok()) << "a tenant crash must not fail the fleet";
  const CampaignStatus& crashed = result.value().campaigns[0];
  EXPECT_EQ(crashed.state, TenantState::kFailed);
  ASSERT_FALSE(crashed.failure.ok());
  EXPECT_EQ(crashed.failure.error().code, util::ErrorCode::kDataLoss);
  EXPECT_EQ(result.value().failed, 1u);

  const CampaignStatus& clean = result.value().campaigns[1];
  EXPECT_EQ(clean.state, TenantState::kHealthy);
  const auto solo = run_campaign_solo(env_, config, spec_for(1, 5));
  ASSERT_TRUE(solo.ok());
  expect_progress_equal(clean.progress, solo.value().progress);
}

TEST_F(FleetTest, FleetMetricsCarryTheCampaignLabel) {
  FleetConfig config = base_config();
  const auto result =
      FleetScheduler(env_, config).run({spec_for(0, 3), spec_for(1, 5)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(metrics_.counter("upin_fleet_units_total", "0").value(),
            result.value().campaigns[0].units_run);
  EXPECT_EQ(metrics_.counter("upin_fleet_units_total", "1").value(),
            result.value().campaigns[1].units_run);
  const std::string exposition = metrics_.to_prometheus();
  EXPECT_NE(exposition.find("upin_fleet_units_total{campaign=\"0\"}"),
            std::string::npos);
}

TEST_F(FleetTest, TracerAdoptsTenantTreesInCampaignOrder) {
  FleetConfig config = base_config();
  config.suite.iterations = 1;
  obs::SpanTracer tracer("fleet");
  config.tracer = &tracer;
  const auto result =
      FleetScheduler(env_, config).run({spec_for(0, 3), spec_for(1, 5)});
  ASSERT_TRUE(result.ok());
  const std::string render = tracer.render();
  const std::size_t first = render.find("campaign 0");
  const std::size_t second = render.find("campaign 1");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second) << "merge order is campaign order";
}

}  // namespace
}  // namespace upin::fleet
