// Golden bytes for the SCION address text the control plane emits: the
// path-cache checkpoint a §6 survey records and the `showpaths` order of
// segment combination.  The showpaths order was recorded from the
// printf-based formatter; the checkpoint holds entry metadata only and
// equals the earlier full checkpoint with every `paths` array removed.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "apps/host.hpp"
#include "docdb/database.hpp"
#include "measure/testsuite.hpp"
#include "obs/metrics.hpp"
#include "scion/scionlab.hpp"
#include "util/sha256.hpp"

namespace upin::scion {
namespace {

constexpr std::uint64_t kSeed = 1100;

std::string digest(std::string_view text) {
  return util::to_hex(util::Sha256::hash(text));
}

/// The §6 survey (servers 1–5, 55 iterations) stepped through its first
/// ten (destination, iteration) units on a fixed seed.
class SurveyCheckpointGolden : public ::testing::Test {
 protected:
  SurveyCheckpointGolden()
      : env_(scionlab_topology()),
        host_(env_, kSeed, env_.user_as, "10.0.8.1") {}

  void run_ten_units() {
    measure::TestSuiteConfig config;
    config.iterations = 55;
    config.server_ids = {{1, 2, 3, 4, 5}};
    config.registry = &registry_;
    measure::TestSuite suite(host_, db_, config);
    ASSERT_TRUE(suite.begin().ok());
    for (int unit = 0; unit < 10; ++unit) {
      const auto outcome = suite.step();
      ASSERT_TRUE(outcome.ok());
      ASSERT_EQ(outcome.value(), measure::TestSuite::StepOutcome::kRan);
    }
  }

  ScionlabEnv env_;
  apps::ScionHost host_;
  obs::Registry registry_;
  docdb::Database db_;
};

TEST_F(SurveyCheckpointGolden, CheckpointBytesAfterTenUnits) {
  run_ten_units();
  const std::string text = host_.control_plane().checkpoint().dump();
  EXPECT_EQ(text.size(), 557u);
  EXPECT_EQ(digest(text),
            "c8499222f43c24ac40099351062276e28da68a5c5b1649e1188778ca24c09c08");
}

TEST_F(SurveyCheckpointGolden, RestoreThenCheckpointGivesTheSameBytes) {
  run_ten_units();
  const std::string text = host_.control_plane().checkpoint().dump();
  const util::Result<util::Value> parsed = util::Value::parse(text);
  ASSERT_TRUE(parsed.ok());

  apps::ScionHost fresh(env_, kSeed, env_.user_as, "10.0.8.1");
  ASSERT_TRUE(
      fresh.control_plane().restore(parsed.value(), host_.clock().now()).ok());
  EXPECT_EQ(fresh.control_plane().checkpoint().dump(), text);
}

TEST(ShowpathsOrderGolden, EveryServerFromTheUserAs) {
  const ScionlabEnv env = scionlab_topology();
  const Beaconing beaconing(env.topology);
  ASSERT_EQ(env.servers.size(), 21u);
  std::string listing;
  std::size_t paths = 0;
  for (const SnetAddress& server : env.servers) {
    listing += server.ia.to_string();
    listing += ':';
    for (const Path& path : beaconing.paths(env.user_as, server.ia)) {
      listing += '\n';
      listing += path.sequence();
      ++paths;
    }
    listing += '\n';
  }
  EXPECT_EQ(paths, 844u);
  EXPECT_EQ(digest(listing),
            "9bc25c47b6fece0554fcd0cd862235fe089639ae3926d383ff5055bd032acd47");
}

}  // namespace
}  // namespace upin::scion
