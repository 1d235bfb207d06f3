// The fleet chaos harness: network faults (simnet::FaultPlan) and
// storage faults (docdb::FaultVfs) are injected into exactly ONE tenant
// of a multiplexed fleet, and the blast radius must be zero — every
// other campaign's journal bytes, metrics and progress counters equal
// its solo run exactly.  This is the isolation acceptance gate: not
// "the other tenants still finish" but "the other tenants cannot tell".
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "docdb/vfs.hpp"
#include "fleet/fleet.hpp"
#include "support/temp_path.hpp"

namespace upin::fleet {
namespace {

class FleetIsolationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = test_support::temp_path("fleet_iso");
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
  }
  void TearDown() override { std::filesystem::remove_all(base_); }

  FleetIsolationTest() : env_(scion::scionlab_topology()) {}

  /// Deterministic fleet baseline: reliable network, short retry
  /// timelines, the full degradation ladder armed.
  FleetConfig base_config() {
    FleetConfig config;
    config.seed = 42;
    config.net_config.server_error_prob = 0.0;
    config.suite.iterations = 2;
    config.suite.retry.max_attempts = 2;
    config.error_budget = 8;
    config.watchdog_deadline_s = 0.0;
    config.threads = 3;
    return config;
  }

  static CampaignSpec spec_for(int id, int server) {
    CampaignSpec spec;
    spec.campaign_id = id;
    spec.server_ids = {server};
    return spec;
  }

  /// Aggressive single-tenant network chaos: garbled frames, dark
  /// server windows, slow-responder windows, and hard bandwidth-probe
  /// failures.
  static simnet::NetworkConfig chaos_network() {
    simnet::NetworkConfig config;
    config.server_error_prob = 1.0;
    simnet::FaultPlanConfig faults;
    faults.garble_prob = 0.35;
    faults.server_down_per_hour = 8.0;
    faults.slow_per_hour = 8.0;
    config.faults = faults;
    return config;
  }

  static std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  static void expect_progress_equal(const measure::TestSuiteProgress& a,
                                    const measure::TestSuiteProgress& b) {
    EXPECT_EQ(a.path_tests_run, b.path_tests_run);
    EXPECT_EQ(a.stats_inserted, b.stats_inserted);
    EXPECT_EQ(a.batches_inserted, b.batches_inserted);
    EXPECT_EQ(a.errors.total(), b.errors.total());
    EXPECT_EQ(a.retry.retries, b.retry.retries);
    EXPECT_EQ(a.breaker_trips, b.breaker_trips);
    EXPECT_EQ(a.checkpoints_recorded, b.checkpoints_recorded);
    EXPECT_EQ(a.probes_shed, b.probes_shed);
  }

  std::string shard_in(const std::string& dir, int campaign_id) const {
    return (std::filesystem::path(base_) / dir / shard_filename(campaign_id))
        .string();
  }

  scion::ScionlabEnv env_;
  std::string base_;
};

TEST_F(FleetIsolationTest, BlastRadiusZeroUnderSingleTenantChaos) {
  // Tenant 0 gets the full chaos treatment — network faults AND storage
  // faults (a short write torn into its journal plus a failed fsync).
  // Tenants 1 and 2 run clean campaigns against disjoint servers.
  docdb::FaultVfsConfig storage_faults;
  storage_faults.short_write_at = 30;
  storage_faults.fail_sync_at = 3;
  docdb::FaultVfs fault_vfs(storage_faults);

  CampaignSpec chaotic = spec_for(0, 3);
  chaotic.net_config = chaos_network();
  chaotic.storage.vfs = &fault_vfs;
  chaotic.storage.salvage_mode = true;  // survive its own torn records
  const CampaignSpec clean_1 = spec_for(1, 5);
  const CampaignSpec clean_2 = spec_for(2, 7);

  const FleetConfig config = base_config();

  // Reference: the clean tenants alone in the process, bit for bit the
  // execution the fleet must reproduce for them.
  std::filesystem::create_directories(base_ + "/solo");
  std::vector<CampaignStatus> solo_status;
  for (const CampaignSpec& spec : {clean_1, clean_2}) {
    const auto solo =
        run_campaign_solo(env_, config, spec, shard_in("solo", spec.campaign_id));
    ASSERT_TRUE(solo.ok());
    ASSERT_EQ(solo.value().state, TenantState::kHealthy);
    solo_status.push_back(solo.value());
  }
  const std::string solo_bytes_1 = read_file(shard_in("solo", 1));
  const std::string solo_bytes_2 = read_file(shard_in("solo", 2));
  ASSERT_FALSE(solo_bytes_1.empty());

  FleetConfig fleet_config = config;
  fleet_config.data_dir = base_ + "/fleet";
  const auto fleet =
      FleetScheduler(env_, fleet_config).run({chaotic, clean_1, clean_2});
  ASSERT_TRUE(fleet.ok()) << "single-tenant chaos must not fail the fleet";

  // The chaotic tenant is contained: degraded, quarantined, or failed —
  // but stopped by its own budget, never by taking the fleet down.
  const CampaignStatus& chaos_status = fleet.value().campaigns[0];
  EXPECT_NE(chaos_status.state, TenantState::kHealthy);
  EXPECT_TRUE(chaos_status.error_score > 0 || !chaos_status.failure.ok())
      << "the chaos plan must actually have hurt tenant 0";
  EXPECT_GT(fault_vfs.op_count(), 0u) << "storage faults were exercised";

  // Blast radius zero: identical journal BYTES for the clean tenants.
  for (int id : {1, 2}) {
    const CampaignStatus& status =
        fleet.value().campaigns[static_cast<std::size_t>(id)];
    EXPECT_EQ(status.state, TenantState::kHealthy);
    EXPECT_EQ(read_file(shard_in("fleet", id)),
              id == 1 ? solo_bytes_1 : solo_bytes_2)
        << "campaign " << id << " shard diverged from its solo run";
    expect_progress_equal(status.progress,
                          solo_status[static_cast<std::size_t>(id - 1)].progress);
  }

  // Graceful degradation, storage edition: whatever the FaultVfs tore
  // into tenant 0's shard, a salvage-mode reopen recovers the committed
  // prefix rather than abandoning the dataset.
  docdb::DatabaseOptions salvage;
  salvage.salvage_mode = true;
  const auto reopened = docdb::Database::open(shard_in("fleet", 0), salvage);
  EXPECT_TRUE(reopened.ok()) << "chaotic tenant's shard must stay salvageable";
}

TEST_F(FleetIsolationTest, FleetShardBytesAreDeterministicAcrossRuns) {
  // Same fleet, run twice (multi-threaded, one tenant under network
  // chaos): every tenant's shard — including the chaotic one — must be
  // byte-identical across runs.  Worker scheduling and wall time must
  // leave no fingerprint in the data.
  CampaignSpec chaotic = spec_for(0, 3);
  chaotic.net_config = chaos_network();
  const std::vector<CampaignSpec> specs = {chaotic, spec_for(1, 5),
                                           spec_for(2, 7)};

  for (const char* dir : {"a", "b"}) {
    FleetConfig config = base_config();
    config.data_dir = (std::filesystem::path(base_) / dir).string();
    const auto result = FleetScheduler(env_, config).run(specs);
    ASSERT_TRUE(result.ok());
  }
  for (int id = 0; id < 3; ++id) {
    const std::string bytes_a = read_file(shard_in("a", id));
    ASSERT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, read_file(shard_in("b", id)))
        << "campaign " << id << " shard bytes differ between fleet runs";
  }
}

}  // namespace
}  // namespace upin::fleet
