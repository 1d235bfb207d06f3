// scionlab.hpp — the embedded SCIONLab-like testbed.
//
// A 35-AS topology standing in for the SCIONLab deployment of paper §3.1
// (Fig 1): seven ISDs, core / non-core / attachment-point roles, real-city
// geography, plus the authors' own user AS attached to the ETHZ
// attachment point (§3.2).  The 21 "availableServers" destinations match
// the paper's reachability study (§6, Fig 4); the five featured servers
// are in Germany, Ireland, N. Virginia, Singapore and Korea, as in §6.
//
// The topology is synthetic but structure-preserving: the Ireland AS has
// parents in Frankfurt, Ohio and Singapore, so its down-segments create
// the three latency layers of Fig 5 with Ohio/Singapore as the
// second-last hop — exactly the paper's observation.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "scion/beacon.hpp"
#include "scion/topology.hpp"

namespace upin::scion {

/// The assembled testbed: topology + user AS + availableServers registry,
/// and the testbed's one segment store.
struct ScionlabEnv {
  ScionlabEnv() = default;
  /// A copied, moved or assigned env starts with no store of its own and
  /// builds one from its own topology on first use, so no env refers to
  /// another's topology.  Assignment drops the target's store: hosts on
  /// the target must not outlive its old topology anyway.
  ScionlabEnv(const ScionlabEnv& other);
  ScionlabEnv(ScionlabEnv&& other) noexcept;
  ScionlabEnv& operator=(const ScionlabEnv& other);
  ScionlabEnv& operator=(ScionlabEnv&& other) noexcept;

  Topology topology;
  IsdAsn user_as;                     ///< "MY_AS", 17-ffaa:1:f00
  std::vector<SnetAddress> servers;   ///< 21 destinations, ids 1..21 in order

  /// The segment store of this testbed, shared by every host on it, as a
  /// deployment's path servers are: built from `topology` (default
  /// `BeaconConfig`) on the first call, under a lock, and the same object
  /// from then on.  `Beaconing::paths` is a pure, thread-safe memo, so
  /// hosts on several threads share it freely.  Finish `topology` before
  /// the first call: the store does not see later edits.
  [[nodiscard]] const Beaconing& beaconing() const;

 private:
  mutable std::mutex store_mutex_;
  mutable std::unique_ptr<const Beaconing> store_;
};

/// Well-known ASes (the paper's featured destinations).
namespace scionlab {
inline constexpr IsdAsn kUserAs{17, make_asn(1, 0xf00)};
inline constexpr IsdAsn kEthzAp{17, make_asn(0, 0x1107)};
/// Second attachment point, present only in the multihomed variant.
inline constexpr IsdAsn kSwitchAp{17, make_asn(0, 0x1108)};
inline constexpr IsdAsn kGermanyAp{19, make_asn(0, 0x1303)};     ///< Magdeburg
inline constexpr IsdAsn kIreland{16, make_asn(0, 0x1002)};       ///< AWS Dublin
inline constexpr IsdAsn kNVirginia{16, make_asn(0, 0x1003)};     ///< AWS Ashburn
inline constexpr IsdAsn kSingapore{16, make_asn(0, 0x1007)};     ///< AWS Singapore
inline constexpr IsdAsn kKorea{20, make_asn(0, 0x1403)};         ///< Korea Univ.
inline constexpr IsdAsn kOhio{16, make_asn(0, 0x1004)};          ///< AWS Ohio
inline constexpr IsdAsn kFrankfurtCore{16, make_asn(0, 0x1001)};
}  // namespace scionlab

/// Build the full testbed.  Deterministic; `validate()` holds on the
/// returned topology.
[[nodiscard]] ScionlabEnv scionlab_topology();

/// The testbed with the user AS multihomed: a second attachment point
/// (SWITCH-AP, Geneva, under the SWITCH core) carries a second 40/14
/// access link to MY_AS.  Paths through the two APs share no early hop,
/// so multipath plans can aggregate beyond one access link — the
/// substrate for the strategy tournament's k>1 regimes.  The single-AP
/// `scionlab_topology()` stays the paper-faithful default.
[[nodiscard]] ScionlabEnv scionlab_topology_multihomed();

}  // namespace upin::scion
