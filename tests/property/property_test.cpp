// Property-based suites (parameterized gtest): invariants that must hold
// across whole input families, not just hand-picked cases.
#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>

#include "apps/bwspec.hpp"
#include "apps/host.hpp"
#include "docdb/filter.hpp"
#include "util/strings.hpp"
#include "scion/beacon.hpp"
#include "scion/scionlab.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace upin {
namespace {

using util::Rng;
using util::Value;

// ---------------------------------------------------------- JSON round trip

/// Generate a random JSON value of bounded depth from a seeded Rng.
Value random_value(Rng& rng, int depth) {
  const std::int64_t kind = rng.uniform_int(0, depth > 0 ? 6 : 4);
  switch (kind) {
    case 0: return Value(nullptr);
    case 1: return Value(rng.bernoulli(0.5));
    case 2: return Value(rng.uniform_int(-1'000'000, 1'000'000));
    case 3: return Value(rng.uniform(-1e6, 1e6));
    case 4: {
      std::string text;
      const auto length = rng.uniform_int(0, 12);
      for (std::int64_t i = 0; i < length; ++i) {
        text.push_back(static_cast<char>(rng.uniform_int(32, 126)));
      }
      return Value(text);
    }
    case 5: {
      Value::Array array;
      const auto length = rng.uniform_int(0, 4);
      for (std::int64_t i = 0; i < length; ++i) {
        array.push_back(random_value(rng, depth - 1));
      }
      return Value(std::move(array));
    }
    default: {
      util::JsonObject object;
      const auto fields = rng.uniform_int(0, 4);
      for (std::int64_t i = 0; i < fields; ++i) {
        object.set("k" + std::to_string(i), random_value(rng, depth - 1));
      }
      return Value(std::move(object));
    }
  }
}

class JsonRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonRoundTripProperty, ParseOfDumpIsIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const Value original = random_value(rng, 3);
    const auto compact = Value::parse(original.dump());
    ASSERT_TRUE(compact.ok()) << original.dump();
    EXPECT_EQ(compact.value(), original);
    const auto pretty = Value::parse(original.dump(2));
    ASSERT_TRUE(pretty.ok());
    EXPECT_EQ(pretty.value(), original);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------------- filter/order consistency

class FilterOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FilterOrderProperty, ComparisonOperatorsAgreeWithCompareValues) {
  Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    const double pivot = rng.uniform(-100, 100);
    const double sample = rng.uniform(-100, 100);
    const Value query_gt = Value::object(
        {{"x", Value::object({{"$gt", pivot}})}});
    const Value query_lte = Value::object(
        {{"x", Value::object({{"$lte", pivot}})}});
    const auto gt = docdb::Filter::compile(query_gt).value();
    const auto lte = docdb::Filter::compile(query_lte).value();
    const Value doc = Value::object({{"x", sample}});
    // Exactly one of the two matches: $gt and $lte partition the line.
    EXPECT_NE(gt.matches(doc), lte.matches(doc));
    EXPECT_EQ(gt.matches(doc),
              docdb::compare_values(Value(sample), Value(pivot)) > 0);
  }
}

TEST_P(FilterOrderProperty, CompareValuesIsATotalOrder) {
  Rng rng(GetParam());
  std::vector<Value> values;
  for (int i = 0; i < 20; ++i) values.push_back(random_value(rng, 1));
  for (const Value& a : values) {
    EXPECT_EQ(docdb::compare_values(a, a), 0);
    for (const Value& b : values) {
      EXPECT_EQ(docdb::compare_values(a, b), -docdb::compare_values(b, a));
      for (const Value& c : values) {
        // Transitivity of <=.
        if (docdb::compare_values(a, b) <= 0 &&
            docdb::compare_values(b, c) <= 0) {
          EXPECT_LE(docdb::compare_values(a, c), 0);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterOrderProperty,
                         ::testing::Values(11, 22, 33, 44));

// ------------------------------------------------------- quantile properties

class QuantileProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileProperty, BoundedMonotoneAndStableUnderShuffle) {
  Rng rng(GetParam());
  std::vector<double> samples;
  const auto n = rng.uniform_int(1, 200);
  for (std::int64_t i = 0; i < n; ++i) samples.push_back(rng.normal(50, 20));

  const double lo = *std::min_element(samples.begin(), samples.end());
  const double hi = *std::max_element(samples.begin(), samples.end());
  double previous = lo;
  for (double q = 0.0; q <= 1.0; q += 0.1) {
    const double value = util::quantile(samples, q);
    EXPECT_GE(value, lo);
    EXPECT_LE(value, hi);
    EXPECT_GE(value, previous - 1e-12);
    previous = value;
  }

  std::vector<double> shuffled = samples;
  rng.shuffle(shuffled);
  EXPECT_DOUBLE_EQ(util::quantile(samples, 0.37),
                   util::quantile(shuffled, 0.37));
}

TEST_P(QuantileProperty, BoxStatsInvariants) {
  Rng rng(GetParam() ^ 0xbeef);
  std::vector<double> samples;
  const auto n = rng.uniform_int(1, 150);
  for (std::int64_t i = 0; i < n; ++i) {
    samples.push_back(rng.pareto(1.0, 1.5));  // heavy tail -> outliers
  }
  const util::BoxStats box = util::box_stats(samples);
  EXPECT_LE(box.minimum, box.whisker_low);
  EXPECT_LE(box.whisker_low, box.q1 + 1e-12);
  EXPECT_LE(box.q1, box.median);
  EXPECT_LE(box.median, box.q3);
  EXPECT_LE(box.q3 - 1e-12, box.whisker_high);
  EXPECT_LE(box.whisker_high, box.maximum);
  // Every outlier lies strictly outside the fences.
  for (const double outlier : box.outliers) {
    EXPECT_TRUE(outlier < box.q1 - 1.5 * box.iqr ||
                outlier > box.q3 + 1.5 * box.iqr);
  }
  // Count conservation: outliers + whisker-range samples == all samples.
  std::size_t inside = 0;
  for (const double s : samples) {
    if (s >= box.whisker_low && s <= box.whisker_high) ++inside;
  }
  EXPECT_EQ(inside + box.outliers.size(), samples.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileProperty,
                         ::testing::Values(7, 14, 28, 56, 112));

// ---------------------------------------------------------- bwspec algebra

struct BwCase {
  double duration;
  double size;
  double mbps;
};

class BwSpecProperty : public ::testing::TestWithParam<BwCase> {};

TEST_P(BwSpecProperty, WildcardResolutionIsConsistent) {
  const BwCase param = GetParam();
  const std::string spec_text = util::format("%g,%g,?,%gMbps", param.duration,
                                             param.size, param.mbps);
  const auto spec = apps::BwSpec::parse(spec_text);
  ASSERT_TRUE(spec.ok()) << spec_text;
  const auto resolved = spec.value().resolve(1452.0);
  ASSERT_TRUE(resolved.ok()) << spec_text;
  const apps::BwSpec& s = resolved.value();
  // count*size*8/duration within one packet of the requested bandwidth.
  const double bits_short =
      *s.target_mbps * 1e6 * *s.duration_s - *s.packet_count * *s.packet_bytes * 8.0;
  EXPECT_GE(bits_short, -1e-6);
  EXPECT_LT(bits_short, *s.packet_bytes * 8.0);
}

/// Prints {2.5, 750, 33.3} as "2_5s_750B_33_3Mbps".  ctest names each
/// case after this text (gtest_discover_tests replaces the case index
/// with the printed value), so it is kept to alphanumerics and '_'.
void PrintTo(const BwCase& param, std::ostream* out) {
  std::string name = util::format("%gs_%gB_%gMbps", param.duration,
                                  param.size, param.mbps);
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  *out << name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BwSpecProperty,
    ::testing::Values(BwCase{3, 64, 12}, BwCase{3, 1452, 12},
                      BwCase{3, 64, 150}, BwCase{3, 1452, 150},
                      BwCase{5, 100, 150}, BwCase{10, 4, 0.1},
                      BwCase{1, 1000, 1000}, BwCase{2.5, 750, 33.3}));

// --------------------------------------------------- path-combination laws

class BeaconProperty : public ::testing::TestWithParam<int> {
 protected:
  static const scion::ScionlabEnv& env() {
    static const scion::ScionlabEnv instance = scion::scionlab_topology();
    return instance;
  }
  static const scion::Beaconing& beacons() {
    static const scion::Beaconing instance(env().topology);
    return instance;
  }
};

TEST_P(BeaconProperty, PathsToEveryServerAreWellFormed) {
  const int server_id = GetParam();
  const scion::SnetAddress& server =
      env().servers[static_cast<std::size_t>(server_id - 1)];
  const auto paths = beacons().paths(env().user_as, server.ia);
  ASSERT_FALSE(paths.empty()) << "unreachable server " << server_id;

  std::set<std::string> sequences;
  std::size_t previous_hops = 0;
  for (const scion::Path& path : paths) {
    // Endpoints.
    EXPECT_EQ(path.source(), env().user_as);
    EXPECT_EQ(path.destination(), server.ia);
    // Loop freedom.
    std::set<scion::IsdAsn> seen;
    for (const scion::PathHop& hop : path.hops()) {
      EXPECT_TRUE(seen.insert(hop.ia).second);
    }
    // Every consecutive pair is an actual link.
    for (std::size_t i = 0; i + 1 < path.hops().size(); ++i) {
      EXPECT_NE(env().topology.find_link(path.hops()[i].ia,
                                         path.hops()[i + 1].ia),
                nullptr);
    }
    // MTU positive, static latency non-negative.
    EXPECT_GT(path.mtu(), 0.0);
    EXPECT_GE(path.static_latency().count(), 0);
    // Ranking and uniqueness.
    EXPECT_GE(path.hop_count(), previous_hops);
    previous_hops = path.hop_count();
    EXPECT_TRUE(sequences.insert(path.sequence()).second);
    // Sequence round-trips through the parser.
    const auto reparsed = scion::Path::parse_sequence(path.sequence());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(reparsed.value().hops(), path.hops());
  }
}

INSTANTIATE_TEST_SUITE_P(AllServers, BeaconProperty,
                         ::testing::Range(1, 22));  // server ids 1..21

// ------------------------------------------------------ bwtest monotonicity

class BwtestProperty : public ::testing::TestWithParam<double> {};

TEST_P(BwtestProperty, AchievedBoundedAndMonotoneInCapacity) {
  const double packet_bytes = GetParam();
  double previous_achieved = 0.0;
  for (const double capacity : {5.0, 15.0, 45.0, 135.0, 400.0}) {
    simnet::Network net(42);
    const auto a = net.add_node({"A", {52.4, 4.9}});
    const auto b = net.add_node({"B", {50.1, 8.7}});
    ASSERT_TRUE(net.add_duplex(a, b, capacity, capacity, 0.1).ok());
    simnet::BwtestOptions options;
    options.packet_bytes = packet_bytes;
    options.target_mbps = 150.0;
    const auto result = net.bwtest({a, b}, options, util::SimTime::zero());
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result.value().achieved_mbps, 0.0);
    EXPECT_LE(result.value().achieved_mbps, result.value().attempted_mbps);
    EXPECT_LE(result.value().attempted_mbps, 150.0 + 1e-9);
    // More capacity can only help (up to measurement noise).
    EXPECT_GE(result.value().achieved_mbps, previous_achieved * 0.9);
    previous_achieved = result.value().achieved_mbps;
  }
}

INSTANTIATE_TEST_SUITE_P(PacketSizes, BwtestProperty,
                         ::testing::Values(64.0, 256.0, 750.0, 1452.0));

// ----------------------------------------------------- campaign determinism

class DeterminismProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismProperty, SameSeedSameMeasurements) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  apps::ScionHost host_a(env, GetParam(), env.user_as, "10.0.8.1");
  apps::ScionHost host_b(env, GetParam(), env.user_as, "10.0.8.1");
  const scion::SnetAddress ireland{scion::scionlab::kIreland, "172.31.43.7"};

  const auto ping_a = host_a.ping(ireland, {});
  const auto ping_b = host_b.ping(ireland, {});
  ASSERT_TRUE(ping_a.ok());
  ASSERT_TRUE(ping_b.ok());
  EXPECT_EQ(ping_a.value().stats.rtt_ms, ping_b.value().stats.rtt_ms);

  apps::BwtestOptions bw;
  bw.cs_spec = "3,MTU,?,12Mbps";
  const auto bw_a = host_a.bwtestclient(ireland, bw);
  const auto bw_b = host_b.bwtestclient(ireland, bw);
  ASSERT_TRUE(bw_a.ok());
  ASSERT_TRUE(bw_b.ok());
  EXPECT_DOUBLE_EQ(bw_a.value().client_to_server.achieved_mbps,
                   bw_b.value().client_to_server.achieved_mbps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismProperty,
                         ::testing::Values(1, 42, 1234, 987654321));

}  // namespace
}  // namespace upin
