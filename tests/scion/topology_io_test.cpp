// Tests for scion/topology_io: serialization round trips and validation.
#include "scion/topology_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "scion/beacon.hpp"
#include "scion/scionlab.hpp"
#include "support/temp_path.hpp"

namespace upin::scion {
namespace {

using util::Value;

TEST(TopologyIo, RoundTripPreservesStructure) {
  const ScionlabEnv env = scionlab_topology();
  const Value document = topology_to_json(env.topology);
  const auto reloaded = topology_from_json(document);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().ases().size(), env.topology.ases().size());
  EXPECT_EQ(reloaded.value().links().size(), env.topology.links().size());
  EXPECT_TRUE(reloaded.value().validate().ok());
}

TEST(TopologyIo, RoundTripPreservesMetadata) {
  const ScionlabEnv env = scionlab_topology();
  const auto reloaded = topology_from_json(topology_to_json(env.topology));
  ASSERT_TRUE(reloaded.ok());
  const AsInfo* original = env.topology.find_as(scionlab::kSingapore);
  const AsInfo* copy = reloaded.value().find_as(scionlab::kSingapore);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->name, original->name);
  EXPECT_EQ(copy->role, original->role);
  EXPECT_EQ(copy->country, original->country);
  EXPECT_EQ(copy->operator_name, original->operator_name);
  EXPECT_DOUBLE_EQ(copy->location.lat_deg, original->location.lat_deg);
  EXPECT_DOUBLE_EQ(copy->jitter_ms, original->jitter_ms);
}

TEST(TopologyIo, RoundTripPreservesLinkParameters) {
  const ScionlabEnv env = scionlab_topology();
  const auto reloaded = topology_from_json(topology_to_json(env.topology));
  ASSERT_TRUE(reloaded.ok());
  const AsLink* original =
      env.topology.find_link(scionlab::kEthzAp, scionlab::kUserAs);
  const AsLink* copy =
      reloaded.value().find_link(scionlab::kEthzAp, scionlab::kUserAs);
  ASSERT_NE(copy, nullptr);
  EXPECT_DOUBLE_EQ(copy->capacity_ab_mbps, original->capacity_ab_mbps);
  EXPECT_DOUBLE_EQ(copy->capacity_ba_mbps, original->capacity_ba_mbps);
  EXPECT_DOUBLE_EQ(copy->mtu, original->mtu);
  EXPECT_EQ(copy->type, original->type);
}

TEST(TopologyIo, ReloadedTopologyProducesSamePaths) {
  const ScionlabEnv env = scionlab_topology();
  const auto reloaded = topology_from_json(topology_to_json(env.topology));
  ASSERT_TRUE(reloaded.ok());
  const Beaconing original_beacons(env.topology);
  const Beaconing reloaded_beacons(reloaded.value());
  const auto original_paths =
      original_beacons.paths(env.user_as, scionlab::kIreland);
  const auto reloaded_paths =
      reloaded_beacons.paths(env.user_as, scionlab::kIreland);
  ASSERT_EQ(original_paths.size(), reloaded_paths.size());
  for (std::size_t i = 0; i < original_paths.size(); ++i) {
    EXPECT_EQ(original_paths[i].sequence(), reloaded_paths[i].sequence());
    EXPECT_DOUBLE_EQ(original_paths[i].mtu(), reloaded_paths[i].mtu());
  }
}

TEST(TopologyIo, FileRoundTrip) {
  const std::string path = test_support::temp_path("upin_topo", ".json");
  const ScionlabEnv env = scionlab_topology();
  ASSERT_TRUE(save_topology(env.topology, path).ok());
  const auto loaded = load_topology(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().ases().size(), env.topology.ases().size());
  std::filesystem::remove(path);
}

TEST(TopologyIo, LoadMissingFileFails) {
  EXPECT_FALSE(load_topology("/nonexistent/topo.json").ok());
}

TEST(TopologyIo, ParseMinimalCustomTopology) {
  const auto document = Value::parse(R"({
    "ases": [
      {"ia": "1-1", "role": "core", "lat": 50, "lon": 8, "country": "DE"},
      {"ia": "1-2", "role": "non-core", "lat": 52, "lon": 4, "country": "NL"}
    ],
    "links": [
      {"a": "1-1", "b": "1-2", "type": "parent-child"}
    ]
  })");
  ASSERT_TRUE(document.ok());
  const auto topology = topology_from_json(document.value());
  ASSERT_TRUE(topology.ok());
  EXPECT_EQ(topology.value().ases().size(), 2u);
  // Defaults applied.
  EXPECT_DOUBLE_EQ(topology.value().links()[0].capacity_ab_mbps, 1000.0);
  EXPECT_DOUBLE_EQ(topology.value().links()[0].mtu, 1472.0);
}

TEST(TopologyIo, RejectsStructurallyInvalidTopologies) {
  // Missing arrays.
  EXPECT_FALSE(topology_from_json(Value::parse(R"({})").value()).ok());
  // Unknown role.
  EXPECT_FALSE(topology_from_json(Value::parse(R"({
    "ases": [{"ia": "1-1", "role": "boss", "lat": 0, "lon": 0}],
    "links": []
  })").value()).ok());
  // Parent-child across ISDs (add_link rule).
  EXPECT_FALSE(topology_from_json(Value::parse(R"({
    "ases": [
      {"ia": "1-1", "role": "core", "lat": 0, "lon": 0},
      {"ia": "2-1", "role": "non-core", "lat": 1, "lon": 1}
    ],
    "links": [{"a": "1-1", "b": "2-1", "type": "parent-child"}]
  })").value()).ok());
  // Orphan leaf (validate rule).
  EXPECT_FALSE(topology_from_json(Value::parse(R"({
    "ases": [
      {"ia": "1-1", "role": "core", "lat": 0, "lon": 0},
      {"ia": "1-2", "role": "non-core", "lat": 1, "lon": 1}
    ],
    "links": []
  })").value()).ok());
  // Bad ISD-AS text.
  EXPECT_FALSE(topology_from_json(Value::parse(R"({
    "ases": [{"ia": "nope", "role": "core", "lat": 0, "lon": 0}],
    "links": []
  })").value()).ok());
}

TEST(TopologyIo, ParseHelpers) {
  EXPECT_EQ(parse_role("core").value(), AsRole::kCore);
  EXPECT_EQ(parse_role("attachment-point").value(), AsRole::kAttachmentPoint);
  EXPECT_FALSE(parse_role("").ok());
  EXPECT_EQ(parse_link_type("peer").value(), LinkType::kPeer);
  EXPECT_FALSE(parse_link_type("sibling").ok());
}

}  // namespace
}  // namespace upin::scion
