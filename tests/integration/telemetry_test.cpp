// Integration: the telemetry determinism contract and the telemetry
// smoke.
//
// The acceptance invariant for the observability layer: a fixed-seed
// fleet run yields a bit-identical virtual-clock span tree and identical
// per-tenant progress counters on every run, however the workers were
// scheduled.  Wall-clock metrics (journal flush latency and sync wait)
// are explicitly outside the contract and not compared.
//
// The smoke runs the campaign of `survey_runner 3 --servers 1,3 --db <j>
// --metrics --trace-out <t>` and checks the three artifacts it leaves:
// the Prometheus exposition, the span tree and the journal.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/host.hpp"
#include "docdb/database.hpp"
#include "fleet/fleet.hpp"
#include "measure/testsuite.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "scion/scionlab.hpp"
#include "support/temp_path.hpp"

namespace upin::fleet {
namespace {

struct RunArtifacts {
  std::string span_render;
  std::vector<measure::TestSuiteProgress> progress;
};

RunArtifacts run_once() {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  obs::Registry fleet_metrics;
  obs::SpanTracer tracer("fleet");
  FleetConfig config;
  config.seed = 42;
  config.suite.iterations = 2;
  config.threads = 3;
  config.metrics = &fleet_metrics;
  config.tracer = &tracer;
  std::vector<CampaignSpec> specs;
  for (const int server : {1, 3, 5}) {
    CampaignSpec spec;
    spec.campaign_id = static_cast<int>(specs.size());
    spec.server_ids = {server};
    specs.push_back(spec);
  }
  const auto result = FleetScheduler(env, config).run(specs);
  EXPECT_TRUE(result.ok());
  RunArtifacts artifacts;
  artifacts.span_render = tracer.render();
  if (result.ok()) {
    for (const CampaignStatus& status : result.value().campaigns) {
      artifacts.progress.push_back(status.progress);
    }
  }
  return artifacts;
}

TEST(TelemetryDeterminism, FixedSeedRunsProduceIdenticalArtifacts) {
  const RunArtifacts first = run_once();
  const RunArtifacts second = run_once();

  // The span tree actually recorded the campaign hierarchy...
  for (const char* level :
       {"campaign 0", "campaign 2", "unit s5 i1", "path ", "ping"}) {
    EXPECT_NE(first.span_render.find(level), std::string::npos) << level;
  }

  // ...and both artifacts are identical across runs.
  EXPECT_EQ(first.span_render, second.span_render);
  ASSERT_EQ(first.progress.size(), 3u);
  ASSERT_EQ(second.progress.size(), 3u);
  for (std::size_t i = 0; i < first.progress.size(); ++i) {
    EXPECT_GT(first.progress[i].stats_inserted, 0u) << "campaign " << i;
    EXPECT_TRUE(first.progress[i] == second.progress[i]) << "campaign " << i;
  }
}

class TelemetrySmoke : public ::testing::Test {
 protected:
  void SetUp() override {
    std::filesystem::remove(journal_);
    // The campaign instruments the process-wide registry; start it from
    // zero so counters bumped by earlier tests in this process cannot
    // stand in for the campaign's own.
    obs::Registry::global().reset_values();

    const scion::ScionlabEnv env = scion::scionlab_topology();
    apps::ScionHost host(env, 42, env.user_as, "10.0.8.1");
    auto opened = docdb::Database::open(journal_);
    ASSERT_TRUE(opened.ok());
    measure::TestSuiteConfig config;
    config.iterations = 3;
    config.server_ids = {{1, 3}};
    config.tracer = &tracer_;
    measure::TestSuite suite(host, *opened.value(), config);
    ASSERT_TRUE(suite.run().ok());
    ASSERT_TRUE(opened.value()->compact().ok());
    metrics_ = obs::Registry::global().to_prometheus();
  }
  void TearDown() override { std::filesystem::remove(journal_); }

  const std::string journal_ = test_support::temp_path("telemetry", ".jsonl");
  obs::SpanTracer tracer_{"campaign"};
  std::string metrics_;
};

/// The sample value of the series `name` in a Prometheus exposition, or
/// "" when no sample line carries it.
std::string sample_value(const std::string& exposition,
                         std::string_view name) {
  std::istringstream lines(exposition);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t space = line.find(' ');
    if (space != std::string::npos && line.compare(0, space, name) == 0) {
      return line.substr(space + 1);
    }
  }
  return "";
}

TEST_F(TelemetrySmoke, AllowListedMetricsArePresentAndNonZero) {
  for (const char* name : {
           "upin_journal_events_enqueued_total",
           "upin_journal_groups_committed_total",
           "upin_journal_bytes_written_total",
           "upin_journal_flush_latency_us_count",
           "upin_measure_pings_total",
           "upin_measure_bwtests_total",
           "upin_measure_path_tests_total",
           "upin_measure_stats_inserted_total",
           "upin_measure_batches_inserted_total",
           "upin_measure_checkpoints_total",
       }) {
    const std::string value = sample_value(metrics_, name);
    EXPECT_FALSE(value.empty()) << name << " missing";
    EXPECT_NE(value, "0") << name << " is zero";
  }
}

TEST_F(TelemetrySmoke, SpanTreeCoversTheCampaignHierarchy) {
  const std::string render = tracer_.render();
  const auto starts_a_line = [&render](std::string_view prefix) {
    for (std::size_t at = render.find(prefix); at != std::string::npos;
         at = render.find(prefix, at + 1)) {
      if (at == 0 || render[at - 1] == '\n') return true;
    }
    return false;
  };
  for (const char* prefix :
       {"campaign [", "  unit s", "    path ", "      ping ["}) {
    EXPECT_TRUE(starts_a_line(prefix))
        << "no line starts with '" << prefix << "'";
  }
}

TEST_F(TelemetrySmoke, FinalCampaignMetricsAreJournaled) {
  std::ifstream in(journal_);
  std::string line;
  bool final_stage = false;
  while (std::getline(in, line)) {
    final_stage =
        final_stage ||
        (line.find("\"campaign_metrics\"") != std::string::npos &&
         line.find("\"stage\":\"final\"") != std::string::npos);
  }
  EXPECT_TRUE(final_stage) << "no campaign_metrics document with stage final";
}

}  // namespace
}  // namespace upin::fleet
