// Tests for measure/testsuite: the three-phase campaign engine (§5).
#include "measure/testsuite.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "obs/metrics.hpp"
#include "support/temp_path.hpp"

namespace upin::measure {
namespace {

using docdb::Filter;
using util::Value;

class TestSuiteTest : public ::testing::Test {
 protected:
  /// Server-side bwtest errors off: these tests do exact accounting of
  /// documents and timeline; the fault class has its own tests below.
  static simnet::NetworkConfig reliable() {
    simnet::NetworkConfig config;
    config.server_error_prob = 0.0;
    return config;
  }

  TestSuiteTest()
      : env_(scion::scionlab_topology()),
        host_(env_, 42, env_.user_as, "10.0.8.1", reliable()) {}

  TestSuiteConfig ireland_config(int iterations = 1) {
    TestSuiteConfig config;
    config.iterations = iterations;
    config.server_ids = {{3}};  // Ireland
    return config;
  }

  scion::ScionlabEnv env_;
  apps::ScionHost host_;
  docdb::Database db_;
};

TEST_F(TestSuiteTest, DurableUnitsWaitOnceForThePreviousUnitsWrites) {
  // begin() makes one journal durability wait for all its writes.  Each
  // unit makes one, for the previous unit's writes, and stores its own
  // without waiting; finish() waits for the last ones.  The journal then
  // holds every write.
  const std::string path = test_support::temp_path("testsuite_sync", ".jsonl");
  std::filesystem::remove(path);
  obs::LatencyHistogram& sync_waits = obs::Registry::global().histogram(
      "upin_journal_sync_wait_us", 0.0, 5000.0, 50);
  auto opened = docdb::Database::open(path);
  ASSERT_TRUE(opened.ok());
  docdb::Database& db = *opened.value();
  obs::Registry registry;
  TestSuiteConfig config = ireland_config(2);
  config.registry = &registry;
  TestSuite suite(host_, db, config);

  std::uint64_t waits = sync_waits.total();
  ASSERT_TRUE(suite.begin().ok());
  EXPECT_EQ(sync_waits.total() - waits, 1u) << "set-up";
  std::size_t units = 0;
  for (;;) {
    waits = sync_waits.total();
    const auto outcome = suite.step();
    ASSERT_TRUE(outcome.ok());
    if (outcome.value() == TestSuite::StepOutcome::kDone) break;
    ++units;
    EXPECT_EQ(sync_waits.total() - waits, 1u) << "unit " << units;
  }
  EXPECT_EQ(units, 2u);
  waits = sync_waits.total();
  ASSERT_TRUE(suite.finish().ok());
  EXPECT_EQ(sync_waits.total() - waits, 1u) << "finish";
  EXPECT_EQ(suite.progress().errors.total(), 0u);

  // Durable before the database closes: read the file, not the drain.
  auto reopened = docdb::Database::open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_GT(suite.progress().stats_inserted, 0u);
  EXPECT_EQ(reopened.value()->collection(kPathsStats).size(),
            suite.progress().stats_inserted);
  EXPECT_EQ(reopened.value()->collection(kCampaignCheckpoints).size(), 2u);
  EXPECT_EQ(reopened.value()->collection(kAvailableServers).size(), 21u);
  reopened.value().reset();
  opened.value().reset();
  std::filesystem::remove(path);
}

TEST_F(TestSuiteTest, BeginLeavesItsWaitToACallersDeferral) {
  // Under a DeferredSync its caller holds on the same database, begin()
  // enqueues the set-up writes and makes no durability wait; the
  // caller's sync() makes the one wait, and then the journal holds the
  // server registry, the index declarations and the path snapshots.
  const std::string path =
      test_support::temp_path("testsuite_deferred_setup", ".jsonl");
  std::filesystem::remove(path);
  obs::LatencyHistogram& sync_waits = obs::Registry::global().histogram(
      "upin_journal_sync_wait_us", 0.0, 5000.0, 50);
  auto opened = docdb::Database::open(path);
  ASSERT_TRUE(opened.ok());
  docdb::Database& db = *opened.value();
  obs::Registry registry;
  TestSuiteConfig config = ireland_config();
  config.registry = &registry;
  TestSuite suite(host_, db, config);

  const std::uint64_t waits = sync_waits.total();
  {
    const docdb::DeferredSync setup_writes(db);
    ASSERT_TRUE(suite.begin().ok());
    EXPECT_EQ(sync_waits.total() - waits, 0u) << "begin";
  }
  ASSERT_TRUE(db.sync().ok());
  EXPECT_EQ(sync_waits.total() - waits, 1u) << "the caller's sync";

  // Durable before the database closes: read the file, not the drain.
  auto reopened = docdb::Database::open(path);
  ASSERT_TRUE(reopened.ok());
  docdb::Database& journal = *reopened.value();
  EXPECT_EQ(journal.collection(kAvailableServers).size(), 21u);
  for (const char* name : {kAvailableServers, kPaths, kPathsStats}) {
    EXPECT_EQ(journal.collection(name).indexed_fields(),
              db.collection(name).indexed_fields())
        << name;
  }
  const auto snapshots = db.collection(kPaths).find(Filter::match_all());
  ASSERT_FALSE(snapshots.empty());
  EXPECT_EQ(journal.collection(kPaths).find(Filter::match_all()), snapshots);
  reopened.value().reset();
  opened.value().reset();
  std::filesystem::remove(path);
}

TEST_F(TestSuiteTest, InitializePopulatesAvailableServers) {
  TestSuite suite(host_, db_, {});
  ASSERT_TRUE(suite.initialize().ok());
  EXPECT_EQ(db_.collection(kAvailableServers).size(), 21u);
  const auto first = db_.collection(kAvailableServers).find_by_id("1");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().get("isd_as")->as_string(), "19-ffaa:0:1303");
}

TEST_F(TestSuiteTest, InitializeIsIdempotent) {
  TestSuite suite(host_, db_, {});
  ASSERT_TRUE(suite.initialize().ok());
  ASSERT_TRUE(suite.initialize().ok());
  EXPECT_EQ(db_.collection(kAvailableServers).size(), 21u);
}

TEST_F(TestSuiteTest, InitializeCreatesIndexes) {
  TestSuite suite(host_, db_, {});
  ASSERT_TRUE(suite.initialize().ok());
  EXPECT_EQ(db_.collection(kPathsStats).indexed_fields().size(), 3u);
  EXPECT_EQ(db_.collection(kPaths).indexed_fields().size(), 1u);
}

TEST_F(TestSuiteTest, CollectPathsAppliesHopPruning) {
  TestSuite suite(host_, db_, ireland_config());
  ASSERT_TRUE(suite.initialize().ok());
  ASSERT_TRUE(suite.collect_paths().ok());
  const auto docs = db_.collection(kPaths).find(Filter::match_all());
  ASSERT_FALSE(docs.empty());
  std::size_t min_hops = SIZE_MAX;
  for (const auto& doc : docs) {
    min_hops = std::min(min_hops,
                        static_cast<std::size_t>(doc.get("hop_count")->as_int()));
  }
  for (const auto& doc : docs) {
    EXPECT_LE(static_cast<std::size_t>(doc.get("hop_count")->as_int()),
              min_hops + 1)
        << "paper §5.2: keep hop count <= min + 1";
  }
}

TEST_F(TestSuiteTest, CollectPathsAssignsSequentialIds) {
  TestSuite suite(host_, db_, ireland_config());
  ASSERT_TRUE(suite.initialize().ok());
  ASSERT_TRUE(suite.collect_paths().ok());
  const std::size_t count = db_.collection(kPaths).size();
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(db_.collection(kPaths)
                    .find_by_id("3_" + std::to_string(i))
                    .ok());
  }
}

TEST_F(TestSuiteTest, CollectPathsDeletesVanishedPaths) {
  TestSuite suite(host_, db_, ireland_config());
  ASSERT_TRUE(suite.initialize().ok());
  // A stale path document that no current path will reclaim.
  ASSERT_TRUE(db_.collection(kPaths)
                  .insert_one(Value::object({{"_id", "3_999"},
                                             {"server_id", 3},
                                             {"path_index", 999}}))
                  .ok());
  ASSERT_TRUE(suite.collect_paths().ok());
  EXPECT_FALSE(db_.collection(kPaths).find_by_id("3_999").ok());
  EXPECT_GE(suite.progress().paths_deleted, 1u);
}

TEST_F(TestSuiteTest, CollectPathsIsIdempotentSnapshot) {
  TestSuite suite(host_, db_, ireland_config());
  ASSERT_TRUE(suite.initialize().ok());
  ASSERT_TRUE(suite.collect_paths().ok());
  const std::size_t first = db_.collection(kPaths).size();
  ASSERT_TRUE(suite.collect_paths().ok());
  EXPECT_EQ(db_.collection(kPaths).size(), first);
}

TEST_F(TestSuiteTest, RunTestsProducesOneDocPerPathPerIteration) {
  TestSuiteConfig config = ireland_config(3);
  TestSuite suite(host_, db_, config);
  ASSERT_TRUE(suite.run().ok());
  const std::size_t paths = db_.collection(kPaths).size();
  EXPECT_EQ(db_.collection(kPathsStats).size(), 3 * paths);
  EXPECT_EQ(suite.progress().path_tests_run, 3 * paths);
  EXPECT_EQ(suite.progress().batches_inserted, 3u);
}

TEST_F(TestSuiteTest, StatsDocumentsAreWellFormed) {
  TestSuite suite(host_, db_, ireland_config());
  ASSERT_TRUE(suite.run().ok());
  db_.collection(kPathsStats).for_each([&](const docdb::Document& doc) {
    const auto sample = parse_stats_document(doc);
    ASSERT_TRUE(sample.ok());
    EXPECT_EQ(sample.value().server_id, 3);
    EXPECT_GE(sample.value().loss_pct, 0.0);
    EXPECT_LE(sample.value().loss_pct, 100.0);
    EXPECT_TRUE(sample.value().bw_down_mtu.has_value());
    EXPECT_DOUBLE_EQ(sample.value().target_mbps, 12.0);
  });
}

TEST_F(TestSuiteTest, SkipCollectionReusesExistingPaths) {
  TestSuite first(host_, db_, ireland_config());
  ASSERT_TRUE(first.run().ok());
  const std::size_t stats_before = db_.collection(kPathsStats).size();

  TestSuiteConfig config = ireland_config();
  config.skip_collection = true;  // --skip
  TestSuite second(host_, db_, config);
  ASSERT_TRUE(second.run().ok());
  EXPECT_EQ(second.progress().paths_collected, 0u);
  EXPECT_GT(db_.collection(kPathsStats).size(), stats_before);
}

TEST_F(TestSuiteTest, SomeOnlyRestrictsToFirstDestination) {
  TestSuiteConfig config;
  config.iterations = 1;
  config.some_only = true;  // --some_only
  TestSuite suite(host_, db_, config);
  ASSERT_TRUE(suite.run().ok());
  EXPECT_EQ(suite.progress().destinations_visited, 1u);
  // Every stats doc belongs to server 1 (the first destination).
  db_.collection(kPathsStats).for_each([](const docdb::Document& doc) {
    EXPECT_EQ(doc.get("server_id")->as_int(), 1);
  });
}

TEST_F(TestSuiteTest, OutageDestinationStillProducesLossDocuments) {
  // Server failure mode (§4.1.2): destination dark -> 100% loss recorded,
  // campaign keeps going.
  host_.inject_outage(scion::scionlab::kIreland, util::SimTime::zero(),
                      util::sim_seconds(24 * 3600.0));
  TestSuite suite(host_, db_, ireland_config());
  ASSERT_TRUE(suite.run().ok());
  ASSERT_GT(db_.collection(kPathsStats).size(), 0u);
  db_.collection(kPathsStats).for_each([](const docdb::Document& doc) {
    EXPECT_DOUBLE_EQ(doc.get("loss_pct")->as_double(), 100.0);
    EXPECT_EQ(doc.get("latency_ms"), nullptr);
  });
}

TEST_F(TestSuiteTest, TimelineAdvancesAcrossCampaign) {
  TestSuite suite(host_, db_, ireland_config(2));
  ASSERT_TRUE(suite.run().ok());
  const double elapsed = util::to_seconds(host_.clock().now());
  const std::size_t tests = suite.progress().path_tests_run;
  // Each test occupies 3 s ping + 12 s bwtests + 0.5 s gap.
  EXPECT_NEAR(elapsed, static_cast<double>(tests) * 15.5, 1.0);
}

TEST_F(TestSuiteTest, ResumeTopsUpToTargetIterations) {
  // Simulated crash-and-restart: 2 iterations land, then a resume run
  // targeting 5 adds exactly the missing 3.
  TestSuite first(host_, db_, ireland_config(2));
  ASSERT_TRUE(first.run().ok());
  const std::size_t paths = db_.collection(kPaths).size();
  ASSERT_EQ(db_.collection(kPathsStats).size(), 2 * paths);

  TestSuiteConfig config = ireland_config(5);
  config.skip_collection = true;
  config.resume = true;
  TestSuite resumed(host_, db_, config);
  EXPECT_EQ(resumed.completed_iterations(3), 2u);
  ASSERT_TRUE(resumed.run().ok());
  EXPECT_EQ(resumed.progress().path_tests_run, 3 * paths);
  EXPECT_EQ(db_.collection(kPathsStats).size(), 5 * paths);
}

TEST_F(TestSuiteTest, ResumeIsNoopWhenTargetAlreadyMet) {
  TestSuite first(host_, db_, ireland_config(3));
  ASSERT_TRUE(first.run().ok());
  TestSuiteConfig config = ireland_config(3);
  config.skip_collection = true;
  config.resume = true;
  TestSuite resumed(host_, db_, config);
  ASSERT_TRUE(resumed.run().ok());
  EXPECT_EQ(resumed.progress().path_tests_run, 0u);
}

TEST_F(TestSuiteTest, ResumeWithNoHistoryRunsEverything) {
  TestSuiteConfig config = ireland_config(2);
  config.resume = true;
  TestSuite suite(host_, db_, config);
  EXPECT_EQ(suite.completed_iterations(3), 0u);
  ASSERT_TRUE(suite.run().ok());
  const std::size_t paths = db_.collection(kPaths).size();
  EXPECT_EQ(suite.progress().path_tests_run, 2 * paths);
}

TEST_F(TestSuiteTest, BwtestServerErrorsAreToleratedAndCounted) {
  // A host whose bwtest servers always answer with errors (§4.1.2):
  // the campaign keeps running, counts the failures, and stores stats
  // documents that simply lack the bandwidth fields.
  simnet::NetworkConfig faulty;
  faulty.server_error_prob = 1.0;
  apps::ScionHost flaky_host(env_, 42, env_.user_as, "10.0.8.1", faulty);
  TestSuite suite(flaky_host, db_, ireland_config());
  ASSERT_TRUE(suite.run().ok());
  EXPECT_GT(suite.progress().bwtest_failures, 0u);
  EXPECT_GT(suite.progress().stats_inserted, 0u);
  db_.collection(kPathsStats).for_each([](const docdb::Document& doc) {
    EXPECT_NE(doc.get("latency_ms"), nullptr) << "ping still worked";
    EXPECT_TRUE(doc.get("bw")->as_object().empty())
        << "no bandwidth numbers from erroring servers";
  });
}

TEST_F(TestSuiteTest, MalformedPathDocumentIsSkippedGracefully) {
  TestSuite suite(host_, db_, ireland_config());
  ASSERT_TRUE(suite.initialize().ok());
  ASSERT_TRUE(suite.collect_paths().ok());
  const std::size_t real_paths = db_.collection(kPaths).size();
  // Inject a garbage document for destination 3 (simulating data loss /
  // a bad writer — §4.1.2's "bad response" class).
  ASSERT_TRUE(db_.collection(kPaths)
                  .insert_one(Value::object({{"_id", "3_garbage"},
                                             {"server_id", 3},
                                             {"path_index", 500}}))
                  .ok());
  TestSuiteConfig config = ireland_config();
  config.skip_collection = true;
  TestSuite runner(host_, db_, config);
  ASSERT_TRUE(runner.run().ok());
  EXPECT_EQ(runner.progress().path_tests_run, real_paths)
      << "only well-formed paths are tested";
}

TEST_F(TestSuiteTest, ZeroIterationsProducesNoStats) {
  TestSuiteConfig config = ireland_config(0);
  TestSuite suite(host_, db_, config);
  ASSERT_TRUE(suite.run().ok());
  EXPECT_GT(suite.progress().paths_collected, 0u);  // collection still ran
  EXPECT_EQ(suite.progress().stats_inserted, 0u);
}

TEST_F(TestSuiteTest, SkipWithoutPriorCollectionTestsNothing) {
  TestSuiteConfig config = ireland_config();
  config.skip_collection = true;
  TestSuite suite(host_, db_, config);
  ASSERT_TRUE(suite.run().ok());
  EXPECT_EQ(suite.progress().path_tests_run, 0u);
}

TEST_F(TestSuiteTest, TargetMbpsIsRecordedInDocuments) {
  TestSuiteConfig config = ireland_config();
  config.bw_target_mbps = 150.0;
  TestSuite suite(host_, db_, config);
  ASSERT_TRUE(suite.run().ok());
  db_.collection(kPathsStats).for_each([](const docdb::Document& doc) {
    EXPECT_DOUBLE_EQ(doc.get("target_mbps")->as_double(), 150.0);
  });
}

TEST_F(TestSuiteTest, HopSlackZeroKeepsOnlyMinHopPaths) {
  TestSuiteConfig config = ireland_config();
  config.hop_slack = 0;
  TestSuite suite(host_, db_, config);
  ASSERT_TRUE(suite.initialize().ok());
  ASSERT_TRUE(suite.collect_paths().ok());
  std::size_t min_hops = SIZE_MAX;
  db_.collection(kPaths).for_each([&](const docdb::Document& doc) {
    min_hops = std::min(
        min_hops, static_cast<std::size_t>(doc.get("hop_count")->as_int()));
  });
  db_.collection(kPaths).for_each([&](const docdb::Document& doc) {
    EXPECT_EQ(static_cast<std::size_t>(doc.get("hop_count")->as_int()),
              min_hops);
  });
}

TEST_F(TestSuiteTest, SignedWritesAcceptedWithTrustStore) {
  scion::TrustStore trust;
  ASSERT_TRUE(
      trust.register_core(scion::IsdAsn(17, scion::make_asn(0, 0x1101))).ok());
  db_.set_write_guard(trust.make_write_guard());

  TestSuite suite(host_, db_, ireland_config());
  suite.enable_signed_writes(trust);
  ASSERT_TRUE(suite.run().ok());
  EXPECT_GT(suite.progress().stats_inserted, 0u);
  EXPECT_EQ(suite.progress().batches_rejected, 0u);
}

TEST_F(TestSuiteTest, UnsignedWritesRejectedWhenGuarded) {
  scion::TrustStore trust;
  ASSERT_TRUE(
      trust.register_core(scion::IsdAsn(17, scion::make_asn(0, 0x1101))).ok());
  db_.set_write_guard(trust.make_write_guard());

  TestSuite suite(host_, db_, ireland_config());
  // enable_signed_writes NOT called: batches go through guarded_insert?
  // No — unsigned suites write directly to the collection, which models
  // the in-process trusted writer.  Verify that the *remote* surface
  // rejects instead.
  const auto rejected = db_.guarded_insert_many(
      kPathsStats, {Value::object({{"_id", "x"}})}, Value());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, util::ErrorCode::kPermissionDenied);
}

TEST_F(TestSuiteTest, SignedWritesFailWithoutRegisteredCore) {
  scion::TrustStore trust;  // no core registered for ISD 17
  TestSuite suite(host_, db_, ireland_config());
  suite.enable_signed_writes(trust);
  ASSERT_TRUE(suite.run().ok());  // campaign survives (fault tolerance)
  EXPECT_EQ(suite.progress().stats_inserted, 0u);
  EXPECT_GT(suite.progress().batches_rejected, 0u);
}

}  // namespace
}  // namespace upin::measure
