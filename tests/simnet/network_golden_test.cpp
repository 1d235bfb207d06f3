// Golden values for simnet/network on the compiled SCIONLab topology.
//
// Every expected number below was recorded from the string-label
// evaluation (one heap-built RNG label per link, bucket and probe) and is
// compared bit for bit, so any change to how substream seeds are derived
// or how bucketed draws are reused must reproduce the exact same draws.
// The scenarios cover a plain 30-probe ping, one with lost probes, a
// probe train straddling a 10-s and a 60-s bucket edge, traceroute,
// single-flow bwtest, a two-flow multibwtest sharing the access link,
// and link utilization / frame loss either side of a bucket edge.  The
// draws pass through libm (sin, cos, exp, log, pow); the values were
// recorded on x86-64 with glibc 2.36.
//
// NetworkConcurrency checks the header's promise that one frozen Network
// serves concurrent measurements: whatever a measurement caches must live
// on its own stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <thread>
#include <vector>

#include "scion/scionlab.hpp"
#include "simnet/network.hpp"

namespace upin::simnet {
namespace {

using scion::IsdAsn;
using scion::make_asn;
using util::SimTime;

constexpr std::uint64_t kSeed = 20230917;

constexpr IsdAsn kEthzCore{17, make_asn(0, 0x1101)};
constexpr IsdAsn kOhio{16, make_asn(0, 0x1004)};

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// The testbed compiled into a network, plus IA -> node lookups.
struct Testbed {
  explicit Testbed(NetworkConfig config = {})
      : compiled(scion::scionlab_topology().topology.compile(kSeed, config)) {}

  [[nodiscard]] std::vector<NodeId> route(std::initializer_list<IsdAsn> ases) const {
    std::vector<NodeId> nodes;
    for (const IsdAsn ia : ases) nodes.push_back(compiled.node_of.at(ia));
    return nodes;
  }

  [[nodiscard]] const Network& net() const { return compiled.network; }

  scion::Topology::Compiled compiled;
};

/// User AS -> ETHZ-AP -> ETHZ core -> AWS Frankfurt -> AWS Ohio -> Dublin:
/// five links, the access hop included.
std::vector<NodeId> five_hop_route(const Testbed& bed) {
  return bed.route({scion::scionlab::kUserAs, scion::scionlab::kEthzAp,
                    kEthzCore, scion::scionlab::kFrankfurtCore, kOhio,
                    scion::scionlab::kIreland});
}

void expect_rtts(const PingStats& stats,
                 const std::vector<std::optional<double>>& expected) {
  ASSERT_EQ(stats.rtt_ms.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(stats.rtt_ms[i].has_value(), expected[i].has_value())
        << "probe " << i;
    if (expected[i].has_value()) {
      EXPECT_EQ(bits(*stats.rtt_ms[i]), bits(*expected[i]))
          << "probe " << i << ": " << *stats.rtt_ms[i] << " vs " << *expected[i];
    }
  }
}

TEST(NetworkGolden, ThirtyProbePing) {
  const Testbed bed;
  const auto stats =
      bed.net().ping(five_hop_route(bed), {}, util::sim_seconds(1234.5));
  ASSERT_TRUE(stats.ok());
  const std::vector<std::optional<double>> expected = {
      0x1.53ac53cc9af0ap+7, 0x1.4f80eca3735d2p+7, 0x1.51dad1e2d4e18p+7,
      0x1.4dcf1bac9160cp+7, 0x1.5125a7db542b2p+7, 0x1.4fb25a78372acp+7,
      0x1.4c162e6ce33b6p+7, 0x1.519b7d06f9728p+7, 0x1.4c17b7c49f2b8p+7,
      0x1.5114928bcb0bcp+7, 0x1.4b554cbb7ae99p+7, 0x1.4f170c9bbb94p+7,
      0x1.565eb570ff2dp+7, 0x1.4dc02dd7fd2adp+7, 0x1.50a239739667p+7,
      0x1.4f601016ed1d2p+7, 0x1.50f278fdef728p+7, 0x1.4d49e140c8184p+7,
      0x1.563b17263b0dp+7, 0x1.4e0969c4aba79p+7, 0x1.4f891e99640e8p+7,
      0x1.4cea3e4eab25ap+7, 0x1.574e7a5152802p+7, 0x1.4fbcbe5685c38p+7,
      0x1.4d3d383073cb7p+7, 0x1.519ed749c97d6p+7, 0x1.4c99702e5c25ap+7,
      0x1.4cd0fa0c75e9p+7, 0x1.4d3e7d681ba5cp+7, 0x1.4fd07b7b329cdp+7};
  expect_rtts(stats.value(), expected);
}

TEST(NetworkGolden, PingWithLostProbes) {
  // 30 % of all 10-s buckets congested at 5-15 % extra loss: some probes
  // of the train are lost.
  NetworkConfig config;
  config.micro_congestion_prob = 0.3;
  config.micro_congestion_loss_min = 0.05;
  config.micro_congestion_loss_max = 0.15;
  const Testbed bed(config);
  const auto stats =
      bed.net().ping(five_hop_route(bed), {}, util::sim_seconds(4321.0));
  ASSERT_TRUE(stats.ok());
  ASSERT_GT(stats.value().lost(), 0u);
  ASSERT_LT(stats.value().lost(), stats.value().sent());
  const std::vector<std::optional<double>> expected = {
      std::nullopt, 0x1.4ee41088c16ccp+7, 0x1.4ccfff206a58dp+7,
      0x1.4ddda219a8f82p+7, 0x1.4bc40700b7bdp+7, 0x1.4beadfe911c99p+7,
      0x1.50bf49b360c2ap+7, std::nullopt, 0x1.4c5d543545a92p+7,
      0x1.4ba964d24632ep+7, 0x1.4d23939fd24c6p+7, std::nullopt,
      0x1.4dce47229f926p+7, std::nullopt, 0x1.4d895ef73906ep+7,
      0x1.5010143d147bcp+7, std::nullopt, 0x1.4d0f320b85c98p+7,
      0x1.4cbb5e88be44fp+7, 0x1.50751df819fbcp+7, std::nullopt,
      0x1.4f785096177e8p+7, std::nullopt, 0x1.4eb5f2dde9584p+7,
      0x1.4ef4478c095d6p+7, 0x1.4dfeed6e7d60bp+7, 0x1.50ddedcc37051p+7,
      0x1.4e70c9f6f08d2p+7, 0x1.4cebbb9ca8dcp+7, 0x1.5533ff0cafdbfp+7};
  expect_rtts(stats.value(), expected);
}

TEST(NetworkGolden, PingStraddlingBucketEdges) {
  // 30 probes 100 ms apart from t = 118.5 s cross t = 120 s, an edge of
  // both the 10-s congestion and the 60-s noise buckets.
  const Testbed bed;
  const auto stats =
      bed.net().ping(five_hop_route(bed), {}, util::sim_seconds(118.5));
  ASSERT_TRUE(stats.ok());
  const std::vector<std::optional<double>> expected = {
      0x1.4f0357783dfcep+7, 0x1.50ea6f32600aap+7, 0x1.510ad125ff1d4p+7,
      0x1.4d4a5f10be119p+7, 0x1.5092743d77314p+7, 0x1.520942423b1e6p+7,
      0x1.4ff811e671144p+7, 0x1.4fd8561229be8p+7, 0x1.4d098e3fff6dap+7,
      0x1.4d47ad842a658p+7, 0x1.4d657a66d772ap+7, 0x1.510aa1209394cp+7,
      0x1.4ec61cecbf56cp+7, 0x1.5543a82beefa4p+7, 0x1.4ee98c47c8854p+7,
      0x1.4d3684f05c4f2p+7, 0x1.4e4ff53889485p+7, 0x1.4d11260389514p+7,
      0x1.4e721b79e2bbfp+7, 0x1.5029551ca7cf4p+7, 0x1.4f7692c5e9f43p+7,
      0x1.4ee7c551730c7p+7, 0x1.4d7a803319aaap+7, 0x1.552757427b1a2p+7,
      0x1.5570e1848d023p+7, 0x1.511c0f71f1c99p+7, 0x1.4f805be2332c6p+7,
      0x1.4f287ce734c04p+7, 0x1.4ff4fdd89974fp+7, 0x1.48b424eb69d68p+7};
  expect_rtts(stats.value(), expected);
}

TEST(NetworkGolden, TracerouteHopRtts) {
  const Testbed bed;
  const auto trace =
      bed.net().traceroute(five_hop_route(bed), util::sim_seconds(600.0));
  ASSERT_TRUE(trace.ok());
  const std::vector<std::optional<double>> expected = {
      0x1.ec99919ef9783p+2, 0x1.141a1893cba33p+3, 0x1.951dd1e614bb2p+3,
      0x1.8e68b2666f2a1p+6, 0x1.4d314d03d83bcp+7};
  ASSERT_EQ(trace.value().hops.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(trace.value().hops[i].rtt_ms.has_value(), expected[i].has_value());
    if (expected[i].has_value()) {
      EXPECT_EQ(bits(*trace.value().hops[i].rtt_ms), bits(*expected[i]))
          << "hop " << i;
    }
  }
}

TEST(NetworkGolden, Bwtest) {
  const Testbed bed;
  // Download direction, Dublin -> user AS, at the paper's two rates.
  std::vector<NodeId> route = five_hop_route(bed);
  std::reverse(route.begin(), route.end());

  BwtestOptions slow;
  slow.packet_bytes = 1000.0;
  slow.target_mbps = 12.0;
  const auto low = bed.net().bwtest(route, slow, util::sim_seconds(900.0));
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(bits(low.value().achieved_mbps), bits(0x1.8p+3));
  EXPECT_EQ(low.value().packets_lost, 11u);

  BwtestOptions fast;
  fast.packet_bytes = 1400.0;
  fast.target_mbps = 150.0;
  const auto high = bed.net().bwtest(route, fast, util::sim_seconds(905.0));
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(bits(high.value().achieved_mbps), bits(0x1.d6517c24635b7p-1));
  EXPECT_EQ(high.value().packets_lost, 39929u);
}

TEST(NetworkGolden, TwoFlowMultibwtest) {
  const Testbed bed;
  // Both flows come down the user AS's 40 Mbps access link.
  std::vector<NodeId> via_ohio = five_hop_route(bed);
  std::reverse(via_ohio.begin(), via_ohio.end());
  const std::vector<NodeId> direct =
      bed.route({scion::scionlab::kIreland, scion::scionlab::kFrankfurtCore,
                 kEthzCore, scion::scionlab::kEthzAp, scion::scionlab::kUserAs});
  BwtestOptions options;
  options.packet_bytes = 1000.0;
  options.target_mbps = 30.0;
  const auto outcome = bed.net().multibwtest(
      {{via_ohio, options}, {direct, options}}, util::sim_seconds(1500.0));
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().flows.size(), 2u);
  ASSERT_TRUE(outcome.value().flows[0].ok);
  ASSERT_TRUE(outcome.value().flows[1].ok);
  EXPECT_EQ(bits(outcome.value().flows[0].result.achieved_mbps),
            bits(0x1.9affd28e08f1fp+3));
  EXPECT_EQ(outcome.value().flows[0].result.packets_lost, 6427u);
  EXPECT_EQ(bits(outcome.value().flows[1].result.achieved_mbps),
            bits(0x1.9190d6fff2a78p+3));
  EXPECT_EQ(outcome.value().flows[1].result.packets_lost, 6424u);
  ASSERT_FALSE(outcome.value().shared_bottlenecks.empty());
  EXPECT_EQ(bits(outcome.value().shared_bottlenecks.back().available_mbps),
            bits(0x1.cc6d3cd115b96p+4));
}

TEST(NetworkGolden, LinkStateEitherSideOfBucketEdge) {
  NetworkConfig config;
  config.micro_congestion_prob = 0.5;
  const Testbed bed(config);
  const NodeId from = bed.compiled.node_of.at(scion::scionlab::kFrankfurtCore);
  const NodeId to = bed.compiled.node_of.at(kOhio);
  const SimTime before = util::sim_seconds(180.0) - util::SimDuration(1);
  const SimTime after = util::sim_seconds(180.0);
  EXPECT_EQ(bits(bed.net().utilization(from, to, before)), bits(0x1.8f228dec06dbdp-2));
  EXPECT_EQ(bits(bed.net().utilization(from, to, after)), bits(0x1.c949e6e1aaaacp-2));
  EXPECT_EQ(bits(bed.net().frame_loss(from, to, before)), bits(0x1.e40bfab5bff76p-4));
  EXPECT_EQ(bits(bed.net().frame_loss(from, to, after)), bits(0x1.d8a3ef1319eb2p-5));
}

TEST(NetworkConcurrency, SharedNetworkPingsMatchSequential) {
  const Testbed bed;
  const scion::IsdAsn kOvguCore{19, make_asn(0, 0x1301)};
  const std::vector<std::vector<NodeId>> routes = {
      five_hop_route(bed),
      bed.route({scion::scionlab::kUserAs, scion::scionlab::kEthzAp, kEthzCore,
                 scion::scionlab::kFrankfurtCore, scion::scionlab::kIreland}),
      bed.route({scion::scionlab::kUserAs, scion::scionlab::kEthzAp, kEthzCore,
                 scion::scionlab::kFrankfurtCore, scion::scionlab::kSingapore}),
      bed.route({scion::scionlab::kUserAs, scion::scionlab::kEthzAp, kEthzCore,
                 kOvguCore, scion::scionlab::kGermanyAp}),
  };
  constexpr int kTrains = 40;
  // Train k of every route starts at 7.3 k s: trains cross bucket edges.
  const auto run_route = [&](const std::vector<NodeId>& route) {
    std::vector<std::vector<std::optional<double>>> rtts;
    for (int k = 0; k < kTrains; ++k) {
      const auto stats = bed.net().ping(route, {}, util::sim_seconds(7.3 * k));
      rtts.push_back(stats.ok() ? stats.value().rtt_ms
                                : std::vector<std::optional<double>>{});
    }
    return rtts;
  };

  std::vector<std::vector<std::vector<std::optional<double>>>> sequential;
  for (const auto& route : routes) sequential.push_back(run_route(route));

  std::vector<std::vector<std::vector<std::optional<double>>>> concurrent(
      routes.size());
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < routes.size(); ++r) {
    threads.emplace_back([&, r] { concurrent[r] = run_route(routes[r]); });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t r = 0; r < routes.size(); ++r) {
    ASSERT_EQ(concurrent[r].size(), sequential[r].size());
    for (std::size_t k = 0; k < sequential[r].size(); ++k) {
      ASSERT_FALSE(sequential[r][k].empty()) << "route " << r << " train " << k;
      EXPECT_EQ(concurrent[r][k], sequential[r][k])
          << "route " << r << " train " << k;
    }
  }
}

}  // namespace
}  // namespace upin::simnet
