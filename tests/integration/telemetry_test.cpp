// Integration: the telemetry determinism contract.
//
// The acceptance invariant for the observability layer: a fixed-seed
// fleet run yields a bit-identical virtual-clock span tree and identical
// per-tenant progress counters on every run, however the workers were
// scheduled.  Wall-clock metrics (journal flush latency, fleet
// backpressure) are explicitly outside the contract and not compared.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "scion/scionlab.hpp"

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

}  // namespace
}  // namespace upin::fleet
