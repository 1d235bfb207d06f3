#include "scion/scionlab.hpp"

#include <cassert>

namespace upin::scion {

namespace {

constexpr IsdAsn ia16(std::uint16_t low) { return IsdAsn{16, make_asn(0, low)}; }
constexpr IsdAsn ia17(std::uint16_t low) { return IsdAsn{17, make_asn(0, low)}; }
constexpr IsdAsn ia18(std::uint16_t low) { return IsdAsn{18, make_asn(0, low)}; }
constexpr IsdAsn ia19(std::uint16_t low) { return IsdAsn{19, make_asn(0, low)}; }
constexpr IsdAsn ia20(std::uint16_t low) { return IsdAsn{20, make_asn(0, low)}; }
constexpr IsdAsn ia25(std::uint16_t low) { return IsdAsn{25, make_asn(0, low)}; }
constexpr IsdAsn ia26(std::uint16_t low) { return IsdAsn{26, make_asn(0, low)}; }

struct AsRow {
  IsdAsn ia;
  const char* name;
  AsRole role;
  double lat;
  double lon;
  const char* city;
  const char* country;
  const char* op;
  double jitter_ms;
};

struct ParentRow {
  IsdAsn parent;
  IsdAsn child;
  double down_mbps;  ///< parent -> child
  double up_mbps;    ///< child -> parent
  double util_base;
  double mtu;
};

struct CoreRow {
  IsdAsn a;
  IsdAsn b;
  double util_base;
};

}  // namespace

ScionlabEnv::ScionlabEnv(const ScionlabEnv& other)
    : topology(other.topology), user_as(other.user_as), servers(other.servers) {}

ScionlabEnv::ScionlabEnv(ScionlabEnv&& other) noexcept
    : topology(std::move(other.topology)),
      user_as(other.user_as),
      servers(std::move(other.servers)) {}

ScionlabEnv& ScionlabEnv::operator=(const ScionlabEnv& other) {
  if (this != &other) *this = ScionlabEnv(other);
  return *this;
}

ScionlabEnv& ScionlabEnv::operator=(ScionlabEnv&& other) noexcept {
  if (this != &other) {
    topology = std::move(other.topology);
    user_as = other.user_as;
    servers = std::move(other.servers);
    const std::lock_guard<std::mutex> lock(store_mutex_);
    store_.reset();
  }
  return *this;
}

const Beaconing& ScionlabEnv::beaconing() const {
  const std::lock_guard<std::mutex> lock(store_mutex_);
  if (store_ == nullptr) store_ = std::make_unique<const Beaconing>(topology);
  return *store_;
}

ScionlabEnv scionlab_topology() {
  ScionlabEnv env;
  env.user_as = scionlab::kUserAs;
  Topology& topo = env.topology;

  const AsRow as_rows[] = {
      // ---- ISD 16: AWS (three cores form the AWS global backbone) -----
      {ia16(0x1001), "AWS Frankfurt", AsRole::kCore, 50.11, 8.68, "Frankfurt", "DE", "AWS", 0.15},
      {ia16(0x1004), "AWS Ohio", AsRole::kCore, 39.96, -83.00, "Columbus", "US", "AWS", 0.90},
      {ia16(0x1007), "AWS Singapore", AsRole::kCore, 1.35, 103.82, "Singapore", "SG", "AWS", 1.00},
      {ia16(0x1002), "AWS Ireland", AsRole::kAttachmentPoint, 53.35, -6.26, "Dublin", "IE", "AWS", 0.15},
      {ia16(0x1003), "AWS N. Virginia", AsRole::kNonCore, 39.04, -77.49, "Ashburn", "US", "AWS", 0.20},
      {ia16(0x1005), "AWS Oregon", AsRole::kNonCore, 45.84, -119.70, "Boardman", "US", "AWS", 0.20},
      {ia16(0x1006), "AWS Tokyo", AsRole::kNonCore, 35.68, 139.69, "Tokyo", "JP", "AWS", 0.25},
      {ia16(0x1008), "AWS Sao Paulo", AsRole::kNonCore, -23.55, -46.63, "Sao Paulo", "BR", "AWS", 0.30},
      {ia16(0x1009), "AWS Mumbai", AsRole::kNonCore, 19.08, 72.88, "Mumbai", "IN", "AWS", 0.30},
      // ---- ISD 17: Switzerland ----------------------------------------
      {ia17(0x1101), "ETH Zurich core", AsRole::kCore, 47.38, 8.54, "Zurich", "CH", "ETH Zurich", 0.12},
      {ia17(0x1102), "SWITCH core", AsRole::kCore, 46.20, 6.14, "Geneva", "CH", "SWITCH", 0.12},
      {ia17(0x1107), "ETHZ-AP", AsRole::kAttachmentPoint, 47.38, 8.54, "Zurich", "CH", "ETH Zurich", 0.12},
      {ia17(0x1103), "ETH student net", AsRole::kNonCore, 47.38, 8.54, "Zurich", "CH", "ETH Zurich", 0.12},
      // ---- ISD 18: North America ---------------------------------------
      {ia18(0x1201), "CMU core", AsRole::kCore, 40.44, -79.94, "Pittsburgh", "US", "CMU", 0.15},
      {ia18(0x1202), "CMU AP", AsRole::kAttachmentPoint, 40.44, -79.94, "Pittsburgh", "US", "CMU", 0.15},
      {ia18(0x1203), "Berkeley", AsRole::kNonCore, 37.87, -122.27, "Berkeley", "US", "UC Berkeley", 0.20},
      {ia18(0x1204), "Toronto", AsRole::kNonCore, 43.65, -79.38, "Toronto", "CA", "UofT", 0.20},
      {ia18(0x1205), "Columbia", AsRole::kNonCore, 40.71, -74.01, "New York", "US", "Columbia", 0.20},
      // ---- ISD 19: Europe -----------------------------------------------
      {ia19(0x1301), "OVGU core", AsRole::kCore, 52.12, 11.63, "Magdeburg", "DE", "OVGU", 0.12},
      {ia19(0x1302), "GEANT core", AsRole::kCore, 52.37, 4.90, "Amsterdam", "NL", "GEANT", 0.12},
      {ia19(0x1303), "Magdeburg AP", AsRole::kAttachmentPoint, 52.12, 11.63, "Magdeburg", "DE", "OVGU", 0.12},
      {ia19(0x1304), "Darmstadt", AsRole::kNonCore, 49.87, 8.65, "Darmstadt", "DE", "TU Darmstadt", 0.15},
      {ia19(0x1305), "Passau", AsRole::kNonCore, 48.57, 13.43, "Passau", "DE", "Uni Passau", 0.15},
      {ia19(0x1306), "Valencia", AsRole::kNonCore, 39.47, -0.38, "Valencia", "ES", "UPV", 0.20},
      {ia19(0x1307), "London", AsRole::kNonCore, 51.51, -0.13, "London", "GB", "UCL", 0.15},
      {ia19(0x1308), "Paris", AsRole::kNonCore, 48.86, 2.35, "Paris", "FR", "Sorbonne", 0.15},
      // ---- ISD 20: Korea -------------------------------------------------
      {ia20(0x1401), "KISTI core", AsRole::kCore, 36.35, 127.38, "Daejeon", "KR", "KISTI", 0.18},
      {ia20(0x1402), "KAIST AP", AsRole::kAttachmentPoint, 36.37, 127.36, "Daejeon", "KR", "KAIST", 0.18},
      {ia20(0x1403), "Korea University", AsRole::kNonCore, 37.59, 127.03, "Seoul", "KR", "Korea Univ", 0.18},
      {ia20(0x1404), "Busan", AsRole::kNonCore, 35.18, 129.08, "Busan", "KR", "PNU", 0.20},
      // ---- ISD 25: Taiwan -------------------------------------------------
      {ia25(0x1501), "NTU core", AsRole::kCore, 25.03, 121.57, "Taipei", "TW", "NTU", 0.18},
      {ia25(0x1502), "Taipei", AsRole::kNonCore, 25.03, 121.57, "Taipei", "TW", "NTU", 0.18},
      {ia25(0x1503), "Hsinchu", AsRole::kNonCore, 24.80, 120.97, "Hsinchu", "TW", "NCTU", 0.18},
      // ---- ISD 26: Japan --------------------------------------------------
      {ia26(0x1601), "WIDE core", AsRole::kCore, 35.68, 139.69, "Tokyo", "JP", "WIDE", 0.18},
      {ia26(0x1602), "Osaka", AsRole::kNonCore, 34.69, 135.50, "Osaka", "JP", "Osaka Univ", 0.18},
      // ---- The experimenters' AS (paper §3.2), attached to ETHZ-AP ------
      {scionlab::kUserAs, "MY_AS (UPIN client)", AsRole::kUser, 52.37, 4.90, "Amsterdam", "NL", "UvA", 0.12},
  };

  for (const AsRow& row : as_rows) {
    AsInfo info;
    info.ia = row.ia;
    info.name = row.name;
    info.role = row.role;
    info.location = {row.lat, row.lon};
    info.city = row.city;
    info.country = row.country;
    info.operator_name = row.op;
    info.jitter_ms = row.jitter_ms;
    const util::Status added = topo.add_as(std::move(info));
    assert(added.ok());
    (void)added;
  }

  // Parent -> child links.  The experimenters' access link is the shared
  // bottleneck for every bandwidth test (asymmetric, as §6.2 observes).
  const ParentRow parent_rows[] = {
      // ISD 16: AWS regions hang off the three AWS cores.
      {ia16(0x1001), ia16(0x1002), 200, 200, 0.30, 1472},  // FRA -> Dublin
      {ia16(0x1004), ia16(0x1002), 150, 150, 0.35, 1472},  // Ohio -> Dublin
      {ia16(0x1007), ia16(0x1002), 150, 150, 0.40, 1472},  // SIN -> Dublin
      {ia16(0x1004), ia16(0x1003), 200, 200, 0.30, 1472},  // Ohio -> N. Virginia
      {ia16(0x1001), ia16(0x1003), 150, 150, 0.35, 1472},  // FRA -> N. Virginia
      {ia16(0x1004), ia16(0x1005), 200, 200, 0.30, 1472},  // Ohio -> Oregon
      {ia16(0x1007), ia16(0x1005), 150, 150, 0.35, 1472},  // SIN -> Oregon
      {ia16(0x1007), ia16(0x1006), 200, 200, 0.30, 1472},  // SIN -> Tokyo
      {ia16(0x1004), ia16(0x1006), 150, 150, 0.35, 1472},  // Ohio -> Tokyo
      {ia16(0x1004), ia16(0x1008), 150, 150, 0.35, 1472},  // Ohio -> Sao Paulo
      {ia16(0x1007), ia16(0x1009), 150, 150, 0.35, 1472},  // SIN -> Mumbai
      // ISD 17
      {ia17(0x1101), ia17(0x1107), 500, 500, 0.20, 1472},
      {ia17(0x1102), ia17(0x1107), 500, 500, 0.20, 1472},
      {ia17(0x1107), ia17(0x1103), 300, 300, 0.20, 1472},
      // The user VM's tunnel to the attachment point: 40 Mbps down,
      // 14 Mbps up, MTU 1452 (overlay).
      {ia17(0x1107), scionlab::kUserAs, 40, 14, 0.15, 1452},
      // ISD 18
      {ia18(0x1201), ia18(0x1202), 400, 400, 0.25, 1472},
      {ia18(0x1202), ia18(0x1203), 200, 200, 0.30, 1472},  // leaves attach at the AP
      {ia18(0x1202), ia18(0x1204), 200, 200, 0.30, 1472},
      {ia18(0x1202), ia18(0x1205), 200, 200, 0.30, 1472},
      // ISD 19
      {ia19(0x1301), ia19(0x1303), 400, 400, 0.20, 1472},
      {ia19(0x1302), ia19(0x1303), 300, 300, 0.25, 1472},
      {ia19(0x1301), ia19(0x1304), 200, 200, 0.25, 1472},
      {ia19(0x1301), ia19(0x1305), 200, 200, 0.25, 1472},
      {ia19(0x1308), ia19(0x1306), 200, 200, 0.30, 1472},  // Valencia via Paris
      {ia19(0x1302), ia19(0x1307), 300, 300, 0.25, 1472},
      {ia19(0x1302), ia19(0x1308), 300, 300, 0.25, 1472},
      // ISD 20
      {ia20(0x1401), ia20(0x1402), 300, 300, 0.25, 1472},
      {ia20(0x1401), ia20(0x1403), 200, 200, 0.30, 1472},
      {ia20(0x1401), ia20(0x1404), 200, 200, 0.30, 1472},
      // ISD 25
      {ia25(0x1501), ia25(0x1502), 200, 200, 0.25, 1472},
      {ia25(0x1501), ia25(0x1503), 200, 200, 0.25, 1472},
      // ISD 26
      {ia26(0x1601), ia26(0x1602), 200, 200, 0.25, 1472},
  };

  for (const ParentRow& row : parent_rows) {
    AsLink link;
    link.a = row.parent;
    link.b = row.child;
    link.type = LinkType::kParentChild;
    link.capacity_ab_mbps = row.down_mbps;
    link.capacity_ba_mbps = row.up_mbps;
    link.util_base = row.util_base;
    link.mtu = row.mtu;
    const util::Status added = topo.add_link(link);
    assert(added.ok());
    (void)added;
  }

  // Peering links between non-core ASes (used by the SCION peering
  // shortcut; chosen off the user AS's up segments so the paper's
  // reachability figures are unaffected).
  const std::pair<IsdAsn, IsdAsn> peer_rows[] = {
      {ia19(0x1304), ia19(0x1305)},  // Darmstadt <-> Passau
      {ia18(0x1203), ia18(0x1205)},  // Berkeley <-> Columbia
      {ia19(0x1307), ia18(0x1205)},  // London <-> Columbia (cross-ISD)
  };
  for (const auto& [a, b] : peer_rows) {
    AsLink link;
    link.a = a;
    link.b = b;
    link.type = LinkType::kPeer;
    link.capacity_ab_mbps = 100;
    link.capacity_ba_mbps = 100;
    link.util_base = 0.25;
    link.mtu = 1472;
    const util::Status added = topo.add_link(link);
    assert(added.ok());
    (void)added;
  }

  // Core mesh (intra- and inter-ISD).
  const CoreRow core_rows[] = {
      // AWS backbone
      {ia16(0x1001), ia16(0x1004), 0.35},
      {ia16(0x1001), ia16(0x1007), 0.40},
      {ia16(0x1004), ia16(0x1007), 0.40},
      // Switzerland
      {ia17(0x1101), ia17(0x1102), 0.20},
      // Europe
      {ia19(0x1301), ia19(0x1302), 0.20},
      // Switzerland <-> Europe <-> AWS Frankfurt
      {ia17(0x1101), ia19(0x1301), 0.20},
      {ia17(0x1101), ia19(0x1302), 0.20},
      {ia17(0x1102), ia19(0x1302), 0.25},
      {ia17(0x1101), ia16(0x1001), 0.25},
      {ia17(0x1102), ia16(0x1001), 0.30},
      {ia19(0x1301), ia16(0x1001), 0.25},
      {ia19(0x1302), ia16(0x1001), 0.25},
      // Transatlantic
      {ia19(0x1302), ia18(0x1201), 0.35},
      {ia16(0x1001), ia18(0x1201), 0.35},
      {ia16(0x1004), ia18(0x1201), 0.30},
      // Asia
      {ia16(0x1007), ia20(0x1401), 0.35},
      {ia16(0x1007), ia25(0x1501), 0.35},
      {ia16(0x1007), ia26(0x1601), 0.35},
      {ia20(0x1401), ia26(0x1601), 0.30},
      {ia20(0x1401), ia25(0x1501), 0.30},
      {ia25(0x1501), ia26(0x1601), 0.30},
      // Transpacific
      {ia18(0x1201), ia26(0x1601), 0.40},
  };

  for (const CoreRow& row : core_rows) {
    AsLink link;
    link.a = row.a;
    link.b = row.b;
    link.type = LinkType::kCore;
    link.capacity_ab_mbps = 1000;
    link.capacity_ba_mbps = 1000;
    link.util_base = row.util_base;
    link.mtu = 1460;
    const util::Status added = topo.add_link(link);
    assert(added.ok());
    (void)added;
  }

  // availableServers: the 21 testable destinations (ids 1..21 in order).
  // Server 1 is the Germany AP, server 2 N. Virginia (the Fig 9 paths
  // 2_16..2_23 belong to destination id 2).
  env.servers = {
      {scionlab::kGermanyAp, "141.44.25.144"},   // 1  Germany (featured)
      {scionlab::kNVirginia, "172.31.19.144"},   // 2  N. Virginia (featured)
      {scionlab::kIreland, "172.31.43.7"},       // 3  Ireland (featured)
      {scionlab::kSingapore, "172.31.10.7"},     // 4  Singapore (featured)
      {scionlab::kKorea, "163.152.6.10"},        // 5  Korea (featured)
      {ia16(0x1001), "172.31.0.5"},              // 6
      {ia16(0x1004), "172.31.4.8"},              // 7
      {ia16(0x1005), "172.31.8.9"},              // 8
      {ia16(0x1006), "172.31.12.11"},            // 9
      {ia16(0x1008), "172.31.16.13"},            // 10
      {ia16(0x1009), "172.31.20.15"},            // 11
      {ia17(0x1103), "192.33.93.177"},           // 12
      {ia18(0x1202), "128.2.24.100"},            // 13
      {ia18(0x1203), "128.32.33.5"},             // 14
      {ia18(0x1204), "142.1.1.10"},              // 15
      {ia18(0x1205), "160.39.2.20"},             // 16
      {ia19(0x1304), "130.83.58.2"},             // 17
      {ia19(0x1306), "158.42.3.3"},              // 18
      {ia19(0x1307), "138.40.5.5"},              // 19
      {ia20(0x1402), "143.248.1.7"},             // 20
      {ia26(0x1602), "133.1.7.7"},               // 21
  };

  assert(env.topology.validate().ok());
  return env;
}

ScionlabEnv scionlab_topology_multihomed() {
  ScionlabEnv env = scionlab_topology();
  Topology& topo = env.topology;

  // A second attachment point in Geneva, under the SWITCH core.  Its
  // uplink mirrors the ETHZ-AP's, and the user AS gets a second 40/14
  // overlay tunnel — so up-segments via the two APs are disjoint from
  // the first hop on.
  AsInfo ap;
  ap.ia = scionlab::kSwitchAp;
  ap.name = "SWITCH-AP";
  ap.role = AsRole::kAttachmentPoint;
  ap.location = {46.20, 6.14};
  ap.city = "Geneva";
  ap.country = "CH";
  ap.operator_name = "SWITCH";
  ap.jitter_ms = 0.12;
  const util::Status ap_added = topo.add_as(std::move(ap));
  assert(ap_added.ok());
  (void)ap_added;

  const ParentRow extra_rows[] = {
      {ia17(0x1102), scionlab::kSwitchAp, 500, 500, 0.20, 1472},
      {scionlab::kSwitchAp, scionlab::kUserAs, 40, 14, 0.15, 1452},
  };
  for (const ParentRow& row : extra_rows) {
    AsLink link;
    link.a = row.parent;
    link.b = row.child;
    link.type = LinkType::kParentChild;
    link.capacity_ab_mbps = row.down_mbps;
    link.capacity_ba_mbps = row.up_mbps;
    link.util_base = row.util_base;
    link.mtu = row.mtu;
    const util::Status added = topo.add_link(link);
    assert(added.ok());
    (void)added;
  }

  assert(env.topology.validate().ok());
  return env;
}

}  // namespace upin::scion
