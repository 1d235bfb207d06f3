// Tests for simnet/faultplan: determinism, episode bounds and rates, and
// the Network integration (injected kUnreachable / kTimeout /
// kBadResponse and flapped links).
#include "simnet/faultplan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <thread>
#include <vector>

#include "simnet/network.hpp"

namespace upin::simnet {
namespace {

using util::sim_seconds;
using util::SimTime;

TEST(FaultPlan, DefaultPlanIsInert) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.active());
  EXPECT_TRUE(plan.server_down_windows(0).empty());
  EXPECT_TRUE(plan.slow_windows(3).empty());
  EXPECT_TRUE(plan.link_flap_windows(0, 1).empty());
  EXPECT_FALSE(plan.server_down(0, sim_seconds(100)));
  EXPECT_FALSE(plan.slow_responder(0, sim_seconds(100)));
  EXPECT_FALSE(plan.link_flapped(0, 1, sim_seconds(100)));
  EXPECT_FALSE(plan.garbled("ping:x", sim_seconds(100)));
}

TEST(FaultPlan, ZeroRateConfigInjectsNothing) {
  FaultPlanConfig config;  // all rates zero
  const FaultPlan plan(42, config);
  EXPECT_FALSE(plan.active());
  EXPECT_TRUE(plan.server_down_windows(7).empty());
}

TEST(FaultPlan, SameSeedSameSchedule) {
  FaultPlanConfig config;
  config.server_down_per_hour = 2.0;
  config.link_flap_per_hour = 3.0;
  config.slow_per_hour = 1.0;
  const FaultPlan plan_a(123, config);
  const FaultPlan plan_b(123, config);
  const auto down_a = plan_a.server_down_windows(4);
  const auto down_b = plan_b.server_down_windows(4);
  ASSERT_EQ(down_a.size(), down_b.size());
  for (std::size_t i = 0; i < down_a.size(); ++i) {
    EXPECT_EQ(down_a[i].start, down_b[i].start);
    EXPECT_EQ(down_a[i].end, down_b[i].end);
  }
  const auto flap_a = plan_a.link_flap_windows(1, 2);
  const auto flap_b = plan_b.link_flap_windows(1, 2);
  ASSERT_EQ(flap_a.size(), flap_b.size());
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  FaultPlanConfig config;
  config.server_down_per_hour = 4.0;
  const FaultPlan plan_a(1, config);
  const FaultPlan plan_b(2, config);
  const auto down_a = plan_a.server_down_windows(0);
  const auto down_b = plan_b.server_down_windows(0);
  const bool differs =
      down_a.size() != down_b.size() ||
      (!down_a.empty() && down_a.front().start != down_b.front().start);
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, NodesHaveIndependentSchedules) {
  FaultPlanConfig config;
  config.server_down_per_hour = 4.0;
  const FaultPlan plan(99, config);
  const auto down_a = plan.server_down_windows(0);
  const auto down_b = plan.server_down_windows(1);
  const bool differs =
      down_a.size() != down_b.size() ||
      (!down_a.empty() && down_a.front().start != down_b.front().start);
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, WindowsRespectHorizonAndDurations) {
  FaultPlanConfig config;
  config.horizon_s = 3600.0;
  config.server_down_per_hour = 6.0;
  config.server_down_min_s = 30.0;
  config.server_down_max_s = 300.0;
  const FaultPlan plan(7, config);
  const auto windows = plan.server_down_windows(2);
  ASSERT_FALSE(windows.empty());
  SimTime previous_start = SimTime::zero();
  for (const FaultWindow& window : windows) {
    EXPECT_GE(window.start, SimTime::zero());
    EXPECT_LT(window.start, sim_seconds(config.horizon_s));
    EXPECT_GE(window.start, previous_start) << "windows sorted by start";
    const double duration = util::to_seconds(window.end - window.start);
    EXPECT_GE(duration, config.server_down_min_s);
    EXPECT_LE(duration, config.server_down_max_s);
    previous_start = window.start;
  }
}

TEST(FaultPlan, EpisodeRateRoughlyMatchesConfig) {
  FaultPlanConfig config;
  config.horizon_s = 24.0 * 3600.0;
  config.server_down_per_hour = 2.0;  // expect ~48 episodes over 24 h
  config.server_down_min_s = 5.0;
  config.server_down_max_s = 10.0;
  const FaultPlan plan(11, config);
  double total = 0.0;
  const int nodes = 8;
  for (int node = 0; node < nodes; ++node) {
    total +=
        static_cast<double>(plan.server_down_windows(
                                    static_cast<std::uint32_t>(node))
                                .size());
  }
  const double mean = total / nodes;
  EXPECT_GT(mean, 24.0);
  EXPECT_LT(mean, 96.0);
}

TEST(FaultPlan, QueriesMatchWindowEdges) {
  FaultPlanConfig config;
  config.server_down_per_hour = 6.0;
  const FaultPlan plan(5, config);
  const auto windows = plan.server_down_windows(1);
  ASSERT_FALSE(windows.empty());
  const FaultWindow& window = windows.front();
  const SimTime middle = window.start + (window.end - window.start) / 2;
  EXPECT_TRUE(plan.server_down(1, middle));
  EXPECT_TRUE(plan.server_down(1, window.start)) << "start is inclusive";
  EXPECT_FALSE(plan.server_down(1, window.end)) << "end is exclusive";
  if (window.start > SimTime::zero()) {
    EXPECT_FALSE(plan.server_down(1, window.start - SimTime(1)));
  }
}

TEST(FaultPlan, GarbledDrawIsDeterministicPerLabelAndTime) {
  FaultPlanConfig config;
  config.garble_prob = 0.5;
  const FaultPlan plan(21, config);
  const bool first = plan.garbled("ping:p1", sim_seconds(10));
  EXPECT_EQ(plan.garbled("ping:p1", sim_seconds(10)), first);
  // Across many (label, time) draws both outcomes appear.
  int garbled_count = 0;
  const int draws = 200;
  for (int i = 0; i < draws; ++i) {
    if (plan.garbled("ping:p1", sim_seconds(i))) ++garbled_count;
  }
  EXPECT_GT(garbled_count, draws / 5);
  EXPECT_LT(garbled_count, draws * 4 / 5);
}

TEST(FaultPlan, GarbledExtremes) {
  FaultPlanConfig always;
  always.garble_prob = 1.0;
  const FaultPlan plan_always(3, always);
  EXPECT_TRUE(plan_always.garbled("bw:x", sim_seconds(1)));

  FaultPlanConfig never;
  never.garble_prob = 0.0;
  never.slow_per_hour = 1.0;  // keep the plan active
  const FaultPlan plan_never(3, never);
  EXPECT_FALSE(plan_never.garbled("bw:x", sim_seconds(1)));
}

/// Schedules are drawn once per node or link and kept; four threads
/// asking one plan at once (first queries racing) must get exactly what a
/// plan that has answered nothing before answers, one query at a time.
TEST(FaultPlan, ConcurrentQueriesMatchSequentialAnswers) {
  FaultPlanConfig config;
  config.server_down_per_hour = 8.0;
  config.slow_per_hour = 8.0;
  config.link_flap_per_hour = 6.0;
  constexpr std::uint32_t kNodes = 12;
  constexpr int kInstants = 400;
  constexpr int kThreads = 4;

  // One query row per (node, instant): down, slow, and flapped on the
  // links to node+1 and node+2.
  using Row = std::array<bool, 4>;
  const auto instant = [](int i) { return sim_seconds(216.0 * i + 7.5); };
  const auto fresh = [&] { return FaultPlan(77, config); };
  std::vector<Row> want;
  std::vector<std::size_t> want_windows;
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    for (int i = 0; i < kInstants; ++i) {
      want.push_back({fresh().server_down(node, instant(i)),
                      fresh().slow_responder(node, instant(i)),
                      fresh().link_flapped(node, node + 1, instant(i)),
                      fresh().link_flapped(node, node + 2, instant(i))});
    }
    want_windows.push_back(fresh().server_down_windows(node).size() +
                           fresh().slow_windows(node).size() +
                           fresh().link_flap_windows(node, node + 1).size() +
                           fresh().link_flap_windows(node, node + 2).size());
  }
  ASSERT_NE(std::count(want.begin(), want.end(), Row{}),
            static_cast<std::ptrdiff_t>(want.size()))
      << "the schedule must hit some queries";

  const FaultPlan shared(77, config);
  std::vector<std::vector<Row>> got(kThreads);
  std::vector<std::vector<std::size_t>> got_windows(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<Row>& rows = got[static_cast<std::size_t>(t)];
      for (std::uint32_t node = 0; node < kNodes; ++node) {
        for (int i = 0; i < kInstants; ++i) {
          rows.push_back({shared.server_down(node, instant(i)),
                          shared.slow_responder(node, instant(i)),
                          shared.link_flapped(node, node + 1, instant(i)),
                          shared.link_flapped(node, node + 2, instant(i))});
        }
        got_windows[static_cast<std::size_t>(t)].push_back(
            shared.server_down_windows(node).size() +
            shared.slow_windows(node).size() +
            shared.link_flap_windows(node, node + 1).size() +
            shared.link_flap_windows(node, node + 2).size());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)], want) << "thread " << t;
    EXPECT_EQ(got_windows[static_cast<std::size_t>(t)], want_windows)
        << "thread " << t;
  }
}

// ---------------------------------------------------------------------------
// Network integration: injected faults surface as typed operation errors.
// ---------------------------------------------------------------------------

struct FaultyLine {
  Network net;
  NodeId a = 0, b = 0, c = 0;

  explicit FaultyLine(const FaultPlanConfig& faults, std::uint64_t seed = 42)
      : net(seed, [&] {
          NetworkConfig config;
          config.faults = faults;
          return config;
        }()) {
    a = net.add_node({"A", {52.37, 4.90}, 0.05, 0.1});
    b = net.add_node({"B", {50.11, 8.68}, 0.05, 0.1});
    c = net.add_node({"C", {53.35, -6.26}, 0.05, 0.1});
    EXPECT_TRUE(net.add_duplex(a, b, 100.0, 100.0, 0.2).ok());
    EXPECT_TRUE(net.add_duplex(b, c, 100.0, 100.0, 0.2).ok());
  }

  [[nodiscard]] std::vector<NodeId> route() const { return {a, b, c}; }
};

TEST(NetworkFaults, ServerDownWindowMakesPingUnreachable) {
  FaultPlanConfig faults;
  faults.server_down_per_hour = 6.0;
  FaultyLine fix(faults);
  const auto windows = fix.net.faults().server_down_windows(fix.c);
  ASSERT_FALSE(windows.empty());
  const SimTime inside =
      windows.front().start + (windows.front().end - windows.front().start) / 2;
  const auto down = fix.net.ping(fix.route(), {}, inside);
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(down.error().code, util::ErrorCode::kUnreachable);
  // Well past the horizon there are no episodes: the ping succeeds.
  const auto up = fix.net.ping(
      fix.route(), {},
      sim_seconds(fix.net.faults().config().horizon_s + 1000.0));
  EXPECT_TRUE(up.ok());
}

TEST(NetworkFaults, SlowResponderWindowTimesOut) {
  FaultPlanConfig faults;
  faults.slow_per_hour = 6.0;
  FaultyLine fix(faults);
  const auto windows = fix.net.faults().slow_windows(fix.c);
  ASSERT_FALSE(windows.empty());
  const SimTime inside =
      windows.front().start + (windows.front().end - windows.front().start) / 2;
  const auto slow = fix.net.ping(fix.route(), {}, inside);
  ASSERT_FALSE(slow.ok());
  EXPECT_EQ(slow.error().code, util::ErrorCode::kTimeout);
}

TEST(NetworkFaults, GarbledResponseIsBadResponse) {
  FaultPlanConfig faults;
  faults.garble_prob = 1.0;
  FaultyLine fix(faults);
  const auto garbled = fix.net.ping(fix.route(), {}, sim_seconds(10));
  ASSERT_FALSE(garbled.ok());
  EXPECT_EQ(garbled.error().code, util::ErrorCode::kBadResponse);
  BwtestOptions bw;
  bw.packet_bytes = 1000.0;
  const auto bw_garbled = fix.net.bwtest(fix.route(), bw, sim_seconds(10));
  ASSERT_FALSE(bw_garbled.ok());
  EXPECT_EQ(bw_garbled.error().code, util::ErrorCode::kBadResponse);
}

TEST(NetworkFaults, FlappedLinkDropsEveryFrame) {
  FaultPlanConfig faults;
  faults.link_flap_per_hour = 6.0;
  FaultyLine fix(faults);
  const auto windows = fix.net.faults().link_flap_windows(fix.a, fix.b);
  ASSERT_FALSE(windows.empty());
  const SimTime inside =
      windows.front().start + (windows.front().end - windows.front().start) / 2;
  EXPECT_DOUBLE_EQ(fix.net.frame_loss(fix.a, fix.b, inside), 1.0);
}

TEST(NetworkFaults, InertPlanLeavesBaseModelUnchanged) {
  FaultPlanConfig no_faults;
  FaultyLine faulty(no_faults, 42);
  Network plain(42);
  const NodeId a = plain.add_node({"A", {52.37, 4.90}, 0.05, 0.1});
  const NodeId b = plain.add_node({"B", {50.11, 8.68}, 0.05, 0.1});
  const NodeId c = plain.add_node({"C", {53.35, -6.26}, 0.05, 0.1});
  ASSERT_TRUE(plain.add_duplex(a, b, 100.0, 100.0, 0.2).ok());
  ASSERT_TRUE(plain.add_duplex(b, c, 100.0, 100.0, 0.2).ok());
  const auto with_plan = faulty.net.ping(faulty.route(), {}, sim_seconds(50));
  const auto without = plain.ping({a, b, c}, {}, sim_seconds(50));
  ASSERT_TRUE(with_plan.ok());
  ASSERT_TRUE(without.ok());
  ASSERT_EQ(with_plan.value().rtt_ms.size(), without.value().rtt_ms.size());
  for (std::size_t i = 0; i < with_plan.value().rtt_ms.size(); ++i) {
    EXPECT_EQ(with_plan.value().rtt_ms[i], without.value().rtt_ms[i]);
  }
}

}  // namespace
}  // namespace upin::simnet
