// random_topology.hpp — seeded random SCION topologies for path oracles.
//
// Small AS graphs (a handful to a few dozen ASes) with every link type
// the control plane combines: a connected core mesh across ISDs, a
// parent→child hierarchy in which every non-core AS climbs to a core of
// its own ISD (some through several parents), and peering links between
// non-core ASes within and across ISDs.  Locations and link MTUs are
// random too, so paths differ in static latency and MTU.  A topology is a
// pure function of the Rng's state and the config; every one passes
// `Topology::validate`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "scion/topology.hpp"
#include "util/rng.hpp"

namespace upin::test_support {

struct RandomTopologyConfig {
  std::int64_t min_ases = 6;
  std::int64_t max_ases = 15;
  std::int64_t max_isds = 3;       ///< ISDs are 1..k, k uniform in [1, max]
  std::int64_t max_cores_per_isd = 2;
  double extra_core_link_prob = 0.3;  ///< per core pair beyond the spanning chain
  double extra_parent_prob = 0.3;     ///< per non-core AS: one more parent
  double peer_link_prob = 0.15;       ///< per pair of non-core ASes
};

inline scion::Topology random_topology(util::Rng& rng,
                                       const RandomTopologyConfig& config = {}) {
  using scion::AsInfo;
  using scion::AsLink;
  using scion::AsRole;
  using scion::IsdAsn;
  using scion::LinkType;

  const std::int64_t isd_count = rng.uniform_int(1, config.max_isds);
  const std::int64_t as_count = rng.uniform_int(
      std::max(config.min_ases, isd_count), config.max_ases);

  // The first AS of each ISD is a core; each later AS is a further core
  // of a random ISD while that ISD has room, else a non-core AS.
  std::vector<AsInfo> ases;
  std::vector<std::int64_t> cores_in(static_cast<std::size_t>(isd_count) + 1, 0);
  for (std::int64_t i = 0; i < as_count; ++i) {
    const auto isd = static_cast<std::uint16_t>(
        i < isd_count ? i + 1 : rng.uniform_int(1, isd_count));
    AsInfo info;
    info.ia = IsdAsn(isd, static_cast<std::uint64_t>(100 + i));
    info.name = info.ia.to_string();
    info.location = {rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0)};
    const bool core =
        i < isd_count || (cores_in[isd] < config.max_cores_per_isd &&
                          rng.bernoulli(0.25));
    if (core) {
      info.role = AsRole::kCore;
      ++cores_in[isd];
    } else {
      const AsRole roles[] = {AsRole::kNonCore, AsRole::kAttachmentPoint,
                              AsRole::kUser};
      info.role = roles[rng.uniform_int(0, 2)];
    }
    ases.push_back(info);
  }

  scion::Topology topology;
  for (const AsInfo& info : ases) (void)topology.add_as(info);

  const auto add = [&](IsdAsn a, IsdAsn b, LinkType type) {
    const double mtus[] = {1280.0, 1400.0, 1472.0, 8972.0};
    AsLink link;
    link.a = a;
    link.b = b;
    link.type = type;
    link.mtu = mtus[rng.uniform_int(0, 3)];
    (void)topology.add_link(link);  // a duplicate pair is simply skipped
  };

  // Core mesh: a chain through every core in random order keeps the core
  // graph connected (every ISD reaches every other); extra links add
  // alternative core segments.
  std::vector<IsdAsn> cores;
  for (const AsInfo& info : ases) {
    if (info.role == AsRole::kCore) cores.push_back(info.ia);
  }
  rng.shuffle(cores);
  for (std::size_t i = 0; i + 1 < cores.size(); ++i) {
    add(cores[i], cores[i + 1], LinkType::kCore);
  }
  for (std::size_t i = 0; i < cores.size(); ++i) {
    for (std::size_t j = i + 2; j < cores.size(); ++j) {
      if (rng.bernoulli(config.extra_core_link_prob)) {
        add(cores[i], cores[j], LinkType::kCore);
      }
    }
  }

  // Hierarchy: each non-core AS takes a parent among the earlier ASes of
  // its ISD (the ISD's first core is always one), so every AS climbs to a
  // core and parent links never form a cycle.
  for (std::size_t i = 0; i < ases.size(); ++i) {
    if (ases[i].role == AsRole::kCore) continue;
    std::vector<IsdAsn> candidates;
    for (std::size_t j = 0; j < i; ++j) {
      if (ases[j].ia.isd() == ases[i].ia.isd()) candidates.push_back(ases[j].ia);
    }
    const auto pick = [&] {
      return candidates[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(candidates.size()) - 1))];
    };
    add(pick(), ases[i].ia, LinkType::kParentChild);
    if (rng.bernoulli(config.extra_parent_prob)) {
      add(pick(), ases[i].ia, LinkType::kParentChild);
    }
  }

  // Peering between non-core ASes, within and across ISDs.
  for (std::size_t i = 0; i < ases.size(); ++i) {
    for (std::size_t j = i + 1; j < ases.size(); ++j) {
      if (ases[i].role == AsRole::kCore || ases[j].role == AsRole::kCore) {
        continue;
      }
      if (rng.bernoulli(config.peer_link_prob)) {
        add(ases[i].ia, ases[j].ia, LinkType::kPeer);
      }
    }
  }
  return topology;
}

}  // namespace upin::test_support
