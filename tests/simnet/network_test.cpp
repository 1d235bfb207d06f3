// Tests for simnet/network: construction, ping/traceroute/bwtest models,
// determinism, outages and the saturation mechanics behind Figs 7/8.
#include "simnet/network.hpp"

#include <gtest/gtest.h>

#include "scion/beacon.hpp"
#include "scion/scionlab.hpp"
#include "support/random_topology.hpp"

namespace upin::simnet {
namespace {

using util::sim_seconds;
using util::SimTime;

/// Three nodes in a line: A(Amsterdam) - B(Frankfurt) - C(Dublin).
struct LineFixture {
  Network net{42};
  NodeId a, b, c;

  explicit LineFixture(double ab_capacity = 100.0, double bc_capacity = 100.0,
                       double util_base = 0.2) {
    a = net.add_node({"A", {52.37, 4.90}, 0.05, 0.1});
    b = net.add_node({"B", {50.11, 8.68}, 0.05, 0.1});
    c = net.add_node({"C", {53.35, -6.26}, 0.05, 0.1});
    EXPECT_TRUE(net.add_duplex(a, b, ab_capacity, ab_capacity, util_base).ok());
    EXPECT_TRUE(net.add_duplex(b, c, bc_capacity, bc_capacity, util_base).ok());
  }

  [[nodiscard]] std::vector<NodeId> route() const { return {a, b, c}; }
};

TEST(NetworkBuild, NodesAndLinks) {
  LineFixture fix;
  EXPECT_EQ(fix.net.node_count(), 3u);
  EXPECT_EQ(fix.net.link_count(), 4u);  // two duplex pairs
  EXPECT_EQ(fix.net.find_node("B"), fix.b);
  EXPECT_FALSE(fix.net.find_node("missing").has_value());
  EXPECT_NE(fix.net.find_link(fix.a, fix.b), nullptr);
  EXPECT_EQ(fix.net.find_link(fix.a, fix.c), nullptr);
}

TEST(NetworkBuild, RejectsBadLinks) {
  Network net(1);
  const NodeId a = net.add_node({"A", {0, 0}});
  LinkSpec to_unknown;
  to_unknown.from = a;
  to_unknown.to = 99;
  EXPECT_EQ(net.add_link(to_unknown).error().code,
            util::ErrorCode::kInvalidArgument);
  LinkSpec self;
  self.from = a;
  self.to = a;
  EXPECT_EQ(net.add_link(self).error().code,
            util::ErrorCode::kInvalidArgument);
  const NodeId b = net.add_node({"B", {1, 1}});
  LinkSpec good;
  good.from = a;
  good.to = b;
  ASSERT_TRUE(net.add_link(good).ok());
  EXPECT_EQ(net.add_link(good).error().code, util::ErrorCode::kConflict);
}

TEST(NetworkBuild, PropagationFromGeographyOrOverride) {
  LineFixture fix;
  const double ab_ms = util::to_millis(fix.net.link_propagation(fix.a, fix.b));
  EXPECT_NEAR(ab_ms, 2.2, 1.5);  // Amsterdam-Frankfurt ~360 km

  Network net(1);
  const NodeId x = net.add_node({"X", {0, 0}});
  const NodeId y = net.add_node({"Y", {10, 10}});
  LinkSpec pinned;
  pinned.from = x;
  pinned.to = y;
  pinned.propagation = util::sim_millis(7.0);
  ASSERT_TRUE(net.add_link(pinned).ok());
  EXPECT_DOUBLE_EQ(util::to_millis(net.link_propagation(x, y)), 7.0);
}

TEST(Ping, RequiresValidRoute) {
  LineFixture fix;
  EXPECT_FALSE(fix.net.ping({fix.a}, {}, SimTime::zero()).ok());
  EXPECT_FALSE(fix.net.ping({fix.a, fix.c}, {}, SimTime::zero()).ok());
}

TEST(Ping, DeliversExpectedCount) {
  LineFixture fix;
  PingOptions options;
  options.count = 30;
  const auto stats = fix.net.ping(fix.route(), options, SimTime::zero());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().sent(), 30u);
  EXPECT_LT(stats.value().loss_pct(), 50.0);
  ASSERT_TRUE(stats.value().avg_ms().has_value());
}

TEST(Ping, RttReflectsGeography) {
  LineFixture fix;
  const auto stats = fix.net.ping(fix.route(), {}, SimTime::zero());
  ASSERT_TRUE(stats.ok());
  // one-way ~ AMS->FRA (2.2ms) + FRA->DUB (9ms) => RTT >= ~22ms.
  EXPECT_GT(*stats.value().avg_ms(), 15.0);
  EXPECT_LT(*stats.value().avg_ms(), 60.0);
}

TEST(Ping, DeterministicForSameSeedAndTime) {
  LineFixture fix1, fix2;
  const auto s1 = fix1.net.ping(fix1.route(), {}, sim_seconds(100));
  const auto s2 = fix2.net.ping(fix2.route(), {}, sim_seconds(100));
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  ASSERT_EQ(s1.value().rtt_ms.size(), s2.value().rtt_ms.size());
  for (std::size_t i = 0; i < s1.value().rtt_ms.size(); ++i) {
    EXPECT_EQ(s1.value().rtt_ms[i].has_value(),
              s2.value().rtt_ms[i].has_value());
    if (s1.value().rtt_ms[i].has_value()) {
      EXPECT_DOUBLE_EQ(*s1.value().rtt_ms[i], *s2.value().rtt_ms[i]);
    }
  }
}

TEST(Ping, DifferentTimesGiveDifferentSamples) {
  LineFixture fix;
  const auto s1 = fix.net.ping(fix.route(), {}, sim_seconds(0));
  const auto s2 = fix.net.ping(fix.route(), {}, sim_seconds(1000));
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE(s1.value().avg_ms().has_value());
  ASSERT_TRUE(s2.value().avg_ms().has_value());
  EXPECT_NE(*s1.value().avg_ms(), *s2.value().avg_ms());
}

TEST(Ping, OutageDropsEverything) {
  LineFixture fix;
  fix.net.add_outage({fix.b, sim_seconds(0), sim_seconds(100), 1.0});
  const auto stats = fix.net.ping(fix.route(), {}, sim_seconds(10));
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats.value().loss_pct(), 100.0);
  EXPECT_FALSE(stats.value().avg_ms().has_value());
  EXPECT_FALSE(stats.value().min_ms().has_value());
  EXPECT_FALSE(stats.value().stddev_ms().has_value());
}

TEST(Ping, OutageWindowBoundariesRespected) {
  LineFixture fix;
  fix.net.add_outage({fix.b, sim_seconds(50), sim_seconds(60), 1.0});
  const auto before = fix.net.ping(fix.route(), {}, sim_seconds(10));
  const auto after = fix.net.ping(fix.route(), {}, sim_seconds(70));
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_LT(before.value().loss_pct(), 50.0);
  EXPECT_LT(after.value().loss_pct(), 50.0);
}

TEST(Ping, PartialOutageLosesSome) {
  LineFixture fix;
  fix.net.add_outage({fix.b, sim_seconds(0), sim_seconds(1000), 0.5});
  PingOptions options;
  options.count = 200;
  const auto stats = fix.net.ping(fix.route(), options, sim_seconds(10));
  ASSERT_TRUE(stats.ok());
  // Forward and reverse both cross the node: ~75% packet loss.
  EXPECT_GT(stats.value().loss_pct(), 50.0);
  EXPECT_LT(stats.value().loss_pct(), 95.0);
}

TEST(Traceroute, PerHopRttsAreOrdered) {
  LineFixture fix;
  const auto trace = fix.net.traceroute(fix.route(), SimTime::zero());
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace.value().hops.size(), 2u);
  ASSERT_TRUE(trace.value().hops[0].rtt_ms.has_value());
  ASSERT_TRUE(trace.value().hops[1].rtt_ms.has_value());
  EXPECT_LT(*trace.value().hops[0].rtt_ms, *trace.value().hops[1].rtt_ms);
  EXPECT_EQ(trace.value().hops[1].node, fix.c);
}

TEST(Bwtest, ValidatesArguments) {
  LineFixture fix;
  BwtestOptions options;
  options.packet_bytes = 2.0;  // < 4 bytes
  EXPECT_FALSE(fix.net.bwtest(fix.route(), options, SimTime::zero()).ok());
  options.packet_bytes = 1000.0;
  options.duration_s = 11.0;  // > 10 s cap (paper §3.3)
  EXPECT_FALSE(fix.net.bwtest(fix.route(), options, SimTime::zero()).ok());
}

TEST(Bwtest, UnderloadAchievesRoughlyTarget) {
  LineFixture fix(100.0, 100.0, 0.1);
  BwtestOptions options;
  options.packet_bytes = 1000.0;
  options.target_mbps = 12.0;
  const auto result = fix.net.bwtest(fix.route(), options, SimTime::zero());
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().achieved_mbps, 12.0, 1.5);
  EXPECT_LE(result.value().achieved_mbps, result.value().attempted_mbps);
}

TEST(Bwtest, SaturationCapsThroughput) {
  LineFixture fix(30.0, 100.0, 0.2);
  BwtestOptions options;
  options.packet_bytes = 1452.0;
  options.target_mbps = 150.0;
  const auto result = fix.net.bwtest(fix.route(), options, SimTime::zero());
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().achieved_mbps, 30.0);
  EXPECT_GT(result.value().packets_lost, 0u);
}

TEST(Bwtest, FragmentationDoublesFrames) {
  LineFixture fix;
  BwtestOptions small;
  small.packet_bytes = 64.0;
  BwtestOptions large;
  large.packet_bytes = 1452.0;
  EXPECT_EQ(fix.net.bwtest(fix.route(), small, SimTime::zero())
                .value()
                .frames_per_packet,
            1);
  EXPECT_EQ(fix.net.bwtest(fix.route(), large, SimTime::zero())
                .value()
                .frames_per_packet,
            2);
}

TEST(Bwtest, FragmentationDisabledSingleFrame) {
  NetworkConfig config;
  config.fragmentation_enabled = false;
  Network net(42, config);
  const NodeId a = net.add_node({"A", {52.37, 4.90}});
  const NodeId b = net.add_node({"B", {50.11, 8.68}});
  ASSERT_TRUE(net.add_duplex(a, b, 100, 100).ok());
  BwtestOptions options;
  options.packet_bytes = 1452.0;
  EXPECT_EQ(net.bwtest({a, b}, options, SimTime::zero()).value().frames_per_packet,
            1);
}

TEST(Bwtest, SenderPpsCapLimitsSmallPackets) {
  LineFixture fix(1000.0, 1000.0, 0.05);
  BwtestOptions options;
  options.packet_bytes = 64.0;
  options.target_mbps = 150.0;
  const auto result = fix.net.bwtest(fix.route(), options, SimTime::zero());
  ASSERT_TRUE(result.ok());
  // 60k pps cap * 64 B * 8 = 30.7 Mbps attempted, regardless of target.
  EXPECT_NEAR(result.value().attempted_mbps, 30.7, 0.5);
}

TEST(Bwtest, InversionUnderSaturation) {
  // The Fig 7 / Fig 8 mechanics in isolation: a 35 Mbps bottleneck.
  LineFixture fix(35.0, 200.0, 0.1);
  BwtestOptions small;
  small.packet_bytes = 64.0;
  BwtestOptions large;
  large.packet_bytes = 1452.0;

  small.target_mbps = large.target_mbps = 12.0;
  const double small_12 =
      fix.net.bwtest(fix.route(), small, SimTime::zero()).value().achieved_mbps;
  const double large_12 =
      fix.net.bwtest(fix.route(), large, SimTime::zero()).value().achieved_mbps;
  EXPECT_GT(large_12, small_12) << "Fig 7 shape: MTU wins under light load";

  small.target_mbps = large.target_mbps = 150.0;
  const double small_150 =
      fix.net.bwtest(fix.route(), small, SimTime::zero()).value().achieved_mbps;
  const double large_150 =
      fix.net.bwtest(fix.route(), large, SimTime::zero()).value().achieved_mbps;
  EXPECT_GT(small_150, large_150) << "Fig 8 shape: inversion under saturation";
}

TEST(Bwtest, OutageKillsThroughput) {
  LineFixture fix;
  fix.net.add_outage({fix.b, sim_seconds(0), sim_seconds(100), 1.0});
  BwtestOptions options;
  options.packet_bytes = 1000.0;
  const auto result = fix.net.bwtest(fix.route(), options, sim_seconds(10));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().achieved_mbps, 0.0);
}

TEST(Utilization, StaysInBounds) {
  LineFixture fix;
  for (double t = 0; t < 7200; t += 137) {
    const double u = fix.net.utilization(fix.a, fix.b, sim_seconds(t));
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 0.97);
  }
}

TEST(Utilization, StableWithinMinuteBucket) {
  LineFixture fix;
  EXPECT_DOUBLE_EQ(fix.net.utilization(fix.a, fix.b, sim_seconds(30)),
                   fix.net.utilization(fix.a, fix.b, sim_seconds(30)));
}

TEST(FrameLoss, WithinProbabilityBounds) {
  LineFixture fix;
  for (double t = 0; t < 3600; t += 97) {
    const double p = fix.net.frame_loss(fix.a, fix.b, sim_seconds(t));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(FrameLoss, UnknownLinkIsTotalLoss) {
  LineFixture fix;
  EXPECT_DOUBLE_EQ(fix.net.frame_loss(fix.a, fix.c, SimTime::zero()), 1.0);
}

TEST(OutageDrop, MaxOfOverlappingWindows) {
  LineFixture fix;
  fix.net.add_outage({fix.b, sim_seconds(0), sim_seconds(100), 0.3});
  fix.net.add_outage({fix.b, sim_seconds(50), sim_seconds(150), 0.8});
  EXPECT_DOUBLE_EQ(fix.net.outage_drop(fix.b, sim_seconds(75)), 0.8);
  EXPECT_DOUBLE_EQ(fix.net.outage_drop(fix.b, sim_seconds(10)), 0.3);
  EXPECT_DOUBLE_EQ(fix.net.outage_drop(fix.b, sim_seconds(200)), 0.0);
  EXPECT_DOUBLE_EQ(fix.net.outage_drop(fix.a, sim_seconds(75)), 0.0);
}

TEST(PingStats, Accessors) {
  PingStats stats;
  stats.rtt_ms = {10.0, std::nullopt, 14.0, 12.0};
  EXPECT_EQ(stats.sent(), 4u);
  EXPECT_EQ(stats.lost(), 1u);
  EXPECT_DOUBLE_EQ(stats.loss_pct(), 25.0);
  EXPECT_DOUBLE_EQ(*stats.avg_ms(), 12.0);
  EXPECT_DOUBLE_EQ(*stats.min_ms(), 10.0);
  EXPECT_DOUBLE_EQ(*stats.max_ms(), 14.0);
  EXPECT_NEAR(*stats.stddev_ms(), 2.0, 1e-9);
}

TEST(PingStats, EmptyIsWellDefined) {
  const PingStats stats;
  EXPECT_EQ(stats.sent(), 0u);
  EXPECT_DOUBLE_EQ(stats.loss_pct(), 0.0);
  EXPECT_FALSE(stats.avg_ms().has_value());
}

TEST(Multibwtest, EmptyFlowListIsInvalid) {
  LineFixture fix;
  const auto outcome = fix.net.multibwtest({}, SimTime::zero());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, util::ErrorCode::kInvalidArgument);
}

TEST(Multibwtest, LoneFlowReproducesBwtestBitIdentically) {
  LineFixture fix;
  BwtestOptions options;
  options.packet_bytes = 1000.0;
  options.target_mbps = 12.0;
  const auto solo = fix.net.bwtest(fix.route(), options, SimTime::zero());
  ASSERT_TRUE(solo.ok());
  const auto multi =
      fix.net.multibwtest({FlowSpec{fix.route(), options}}, SimTime::zero());
  ASSERT_TRUE(multi.ok());
  ASSERT_EQ(multi.value().flows.size(), 1u);
  ASSERT_TRUE(multi.value().flows[0].ok);
  const BwtestResult& a = solo.value();
  const BwtestResult& b = multi.value().flows[0].result;
  EXPECT_EQ(a.attempted_mbps, b.attempted_mbps);
  EXPECT_EQ(a.achieved_mbps, b.achieved_mbps);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_TRUE(multi.value().shared_bottlenecks.empty());
}

TEST(Multibwtest, ConcurrentFlowsContendOnSharedLinks) {
  // A 30 Mbps line cannot carry two 20 Mbps flows: together they achieve
  // less than twice what either achieves alone.
  LineFixture fix(30.0, 30.0, 0.1);
  BwtestOptions options;
  options.packet_bytes = 1000.0;
  options.target_mbps = 20.0;
  const auto solo = fix.net.bwtest(fix.route(), options, SimTime::zero());
  ASSERT_TRUE(solo.ok());
  const auto multi = fix.net.multibwtest(
      {FlowSpec{fix.route(), options}, FlowSpec{fix.route(), options}},
      SimTime::zero());
  ASSERT_TRUE(multi.ok());
  ASSERT_EQ(multi.value().flows.size(), 2u);
  double combined = 0.0;
  for (const MultibwtestOutcome::Flow& flow : multi.value().flows) {
    ASSERT_TRUE(flow.ok);
    EXPECT_LT(flow.result.achieved_mbps, solo.value().achieved_mbps);
    combined += flow.result.achieved_mbps;
  }
  EXPECT_LT(combined, 2.0 * solo.value().achieved_mbps);
  EXPECT_LE(combined, 30.0);
}

TEST(Multibwtest, ReportsSharedBottleneckLinks) {
  LineFixture fix(30.0, 30.0, 0.1);
  BwtestOptions options;
  options.packet_bytes = 1000.0;
  options.target_mbps = 20.0;
  // Both flows cross A->B; only one continues to C.
  const auto multi = fix.net.multibwtest(
      {FlowSpec{{fix.a, fix.b}, options}, FlowSpec{fix.route(), options}},
      SimTime::zero());
  ASSERT_TRUE(multi.ok());
  ASSERT_EQ(multi.value().shared_bottlenecks.size(), 1u);
  const SharedBottleneck& shared = multi.value().shared_bottlenecks.front();
  EXPECT_EQ(shared.from, fix.a);
  EXPECT_EQ(shared.to, fix.b);
  EXPECT_EQ(shared.flows, (std::vector<std::size_t>{0, 1}));
  EXPECT_GT(shared.offered_wire_mbps, 0.0);
  EXPECT_GT(shared.available_mbps, 0.0);
}

// ---- Route: prepared once, probed many times ---------------------------

void expect_same(const util::Result<PingStats>& got,
                 const util::Result<PingStats>& want) {
  ASSERT_EQ(got.ok(), want.ok());
  if (!got.ok()) {
    EXPECT_EQ(got.error(), want.error());
    return;
  }
  EXPECT_EQ(got.value().rtt_ms, want.value().rtt_ms);
}

void expect_same(const util::Result<BwtestResult>& got,
                 const util::Result<BwtestResult>& want) {
  ASSERT_EQ(got.ok(), want.ok());
  if (!got.ok()) {
    EXPECT_EQ(got.error(), want.error());
    return;
  }
  EXPECT_EQ(got.value().attempted_mbps, want.value().attempted_mbps);
  EXPECT_EQ(got.value().achieved_mbps, want.value().achieved_mbps);
  EXPECT_EQ(got.value().packets_sent, want.value().packets_sent);
  EXPECT_EQ(got.value().packets_lost, want.value().packets_lost);
  EXPECT_EQ(got.value().frames_per_packet, want.value().frames_per_packet);
  EXPECT_EQ(got.value().bottleneck_available_mbps,
            want.value().bottleneck_available_mbps);
}

/// Faults off, or garbled answers and server-down windows frequent enough
/// that a probe train meets both.
NetworkConfig route_oracle_config(bool faults) {
  NetworkConfig config;
  if (faults) {
    config.faults.garble_prob = 0.15;
    config.faults.server_down_per_hour = 4.0;
    config.faults.server_down_min_s = 300.0;
    config.faults.server_down_max_s = 900.0;
  }
  return config;
}

/// A 40-call train over one reused Route — a ping, an upstream and a
/// downstream bwtest per call at a random instant — against a Route
/// prepared for each call alone and against the vector entry points.
/// Returns how many probes failed.
std::size_t check_route_train(const Network& net,
                              const std::vector<NodeId>& nodes,
                              util::Rng& rng) {
  std::size_t failures = 0;
  const util::Result<Network::Route> reused = net.prepare(nodes);
  EXPECT_TRUE(reused.ok()) << reused.error().message;
  if (!reused.ok()) return failures;
  EXPECT_EQ(reused.value().nodes(), nodes);
  const std::vector<NodeId> reversed(nodes.rbegin(), nodes.rend());
  EXPECT_EQ(reused.value().nodes(Direction::kDownstream), reversed);
  for (int call = 0; call < 40; ++call) {
    SCOPED_TRACE("call " + std::to_string(call));
    const SimTime start = sim_seconds(rng.uniform(0.0, 20'000.0));
    const util::Result<Network::Route> fresh = net.prepare(nodes);
    if (!fresh.ok()) {
      ADD_FAILURE() << fresh.error().message;
      return failures;
    }

    PingOptions ping;
    ping.count = static_cast<std::size_t>(rng.uniform_int(1, 30));
    const util::Result<PingStats> pinged = net.ping(reused.value(), ping, start);
    expect_same(pinged, net.ping(fresh.value(), ping, start));
    expect_same(pinged, net.ping(nodes, ping, start));
    if (!pinged.ok()) ++failures;

    BwtestOptions bw;
    bw.packet_bytes = rng.bernoulli(0.5) ? 64.0 : 1472.0;
    bw.target_mbps = rng.bernoulli(0.5) ? 12.0 : 150.0;
    for (const Direction direction :
         {Direction::kUpstream, Direction::kDownstream}) {
      const util::Result<BwtestResult> measured =
          net.bwtest(reused.value(), direction, bw, start);
      expect_same(measured, net.bwtest(fresh.value(), direction, bw, start));
      expect_same(measured,
                  net.bwtest(direction == Direction::kUpstream ? nodes
                                                               : reversed,
                             bw, start));
      if (!measured.ok()) ++failures;
    }
  }
  return failures;
}

TEST(RouteOracle, ReusedRouteEqualsFreshOnScionlabRoutes) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  const scion::Beaconing beaconing(env.topology);
  for (const bool faults : {false, true}) {
    SCOPED_TRACE(faults ? "faults on" : "faults off");
    const scion::Topology::Compiled compiled =
        env.topology.compile(2024, route_oracle_config(faults));
    util::Rng rng(faults ? 11 : 10);
    std::size_t routes = 0;
    std::size_t failures = 0;
    for (const scion::SnetAddress& server : env.servers) {
      const std::vector<scion::Path>& paths =
          beaconing.paths(env.user_as, server.ia);
      if (paths.empty() || !rng.bernoulli(0.5)) continue;
      const scion::Path& path = paths[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(paths.size()) - 1))];
      std::vector<NodeId> nodes;
      for (const scion::PathHop& hop : path.hops()) {
        nodes.push_back(compiled.node_of.at(hop.ia));
      }
      SCOPED_TRACE(path.sequence());
      failures += check_route_train(compiled.network, nodes, rng);
      ++routes;
    }
    EXPECT_GE(routes, 5u);
    // With faults on, the trains also compare error results.
    if (faults) {
      EXPECT_GT(failures, 0u);
    }
  }
}

TEST(RouteOracle, ReusedRouteEqualsFreshOnRandomTopologies) {
  for (const bool faults : {false, true}) {
    SCOPED_TRACE(faults ? "faults on" : "faults off");
    std::size_t routes = 0;
    std::size_t failures = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      util::Rng rng(seed);
      const scion::Topology topology = test_support::random_topology(rng);
      const scion::Topology::Compiled compiled =
          topology.compile(seed, route_oracle_config(faults));
      const scion::Beaconing beaconing(topology);
      const std::vector<scion::AsInfo>& ases = topology.ases();
      for (int pick = 0; pick < 3; ++pick) {
        const auto as_index = [&] {
          return static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(ases.size()) - 1));
        };
        const scion::IsdAsn src = ases[as_index()].ia;
        const scion::IsdAsn dst = ases[as_index()].ia;
        if (src == dst) continue;
        const std::vector<scion::Path>& paths = beaconing.paths(src, dst);
        if (paths.empty()) continue;
        std::vector<NodeId> nodes;
        for (const scion::PathHop& hop : paths.back().hops()) {
          nodes.push_back(compiled.node_of.at(hop.ia));
        }
        SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                     paths.back().sequence());
        failures += check_route_train(compiled.network, nodes, rng);
        ++routes;
      }
    }
    EXPECT_GE(routes, 8u);
    if (faults) {
      EXPECT_GT(failures, 0u);
    }
  }
}

TEST(RouteOracle, PrepareFailsAsPingDoes) {
  LineFixture fix;
  // A one-way link: the route resolves forward, not back.
  const NodeId d = fix.net.add_node({"D", {48.86, 2.35}});
  LinkSpec one_way;
  one_way.from = fix.c;
  one_way.to = d;
  ASSERT_TRUE(fix.net.add_link(one_way).ok());

  const std::vector<std::vector<NodeId>> broken = {
      {fix.a},              // fewer than two nodes
      {fix.a, 99},          // unknown node
      {fix.a, fix.c},       // missing forward link
      {fix.b, fix.c, d},    // missing reverse link
  };
  for (const std::vector<NodeId>& nodes : broken) {
    const util::Result<Network::Route> prepared = fix.net.prepare(nodes);
    ASSERT_FALSE(prepared.ok());
    const util::Result<PingStats> pinged =
        fix.net.ping(nodes, {}, SimTime::zero());
    ASSERT_FALSE(pinged.ok());
    EXPECT_EQ(prepared.error(), pinged.error());
    const util::Result<BwtestResult> measured =
        fix.net.bwtest(nodes, {}, SimTime::zero());
    ASSERT_FALSE(measured.ok());
    EXPECT_EQ(prepared.error(), measured.error());
  }
  EXPECT_EQ(fix.net.prepare({fix.a, fix.c}).error().message, "no link A -> C");
  EXPECT_EQ(fix.net.prepare({fix.b, fix.c, d}).error().message,
            "no link D -> C");
}

}  // namespace
}  // namespace upin::simnet
