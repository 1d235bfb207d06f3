// host.hpp — the SCION end host and its application surface.
//
// A ScionHost binds the testbed (topology + compiled network + virtual
// clock) to one local AS and exposes the applications of paper §3.3 as
// library calls with the same semantics:
//
//   address()        ~ `scion address`
//   showpaths()      ~ `scion showpaths --extended -m N`
//   ping()           ~ `scion ping <dst> -c N --interval I --sequence S`
//   traceroute()     ~ `scion traceroute <dst> --sequence S`
//   bwtestclient()   ~ `scion-bwtestclient -s <dst> -cs SPEC [-sc SPEC]`
//
// Each call consumes virtual time exactly like the real command consumes
// wall time (30 pings at 0.1 s ≈ 3 s, one bwtest = its duration), so a
// measurement campaign lays its samples on a faithful shared timeline —
// the property behind the Fig 9 congestion-episode reading.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/bwspec.hpp"
#include "scion/beacon.hpp"
#include "scion/control_plane.hpp"
#include "scion/scionlab.hpp"
#include "util/clock.hpp"

namespace upin::apps {

/// Host-level behaviour knobs (beyond the network model itself).
struct HostConfig {
  /// How long a failed command burns before the SCMP error arrives when
  /// the destination is unreachable (`scion ping`'s fail-fast, formerly a
  /// hardcoded ~1 s).
  double scmp_error_fail_fast_s = 1.0;
  /// Path cache + revocation propagation tuning.
  scion::ControlPlaneConfig control_plane;
};

/// Result of `scion address`.
struct AddressInfo {
  scion::SnetAddress local;
  std::string as_name;
  scion::AsRole role = scion::AsRole::kUser;
};

struct ShowpathsOptions {
  std::size_t max_paths = 10;  ///< -m; the paper uses 40
  bool extended = false;       ///< adds MTU / status / latency metadata
};

/// One row of showpaths output.
struct PathListing {
  scion::Path path;
  std::string render;  ///< the printed line (interfaces, and metadata if extended)
};

struct PingOptions {
  std::size_t count = 30;               ///< -c
  double interval_s = 0.1;              ///< --interval
  std::string sequence;                 ///< --sequence hop predicates; empty = best path
  double payload_bytes = 64.0;
};

struct PingReport {
  scion::Path path;                     ///< the path actually probed
  simnet::PingStats stats;
  [[nodiscard]] std::string summary() const;  ///< "30 packets, 3.3% loss, avg 41.2ms"
};

struct TracerouteReport {
  scion::Path path;
  simnet::TraceResult trace;
};

struct BwtestOptions {
  std::string cs_spec = "3,1000,?,12Mbps";  ///< -cs client->server
  std::string sc_spec;                      ///< -sc; empty = reuse cs (§3.3)
  std::string sequence;                     ///< hop predicates; empty = best path
};

struct BwtestReport {
  scion::Path path;
  BwSpec cs_resolved;
  BwSpec sc_resolved;
  simnet::BwtestResult client_to_server;
  simnet::BwtestResult server_to_client;
};

/// One subflow of a multipath operation: a pinned hop sequence plus its
/// relative send weight (normalized across the spec list; callers
/// typically derive both from a `select::MultipathPlan`).
struct SubflowSpec {
  std::string sequence;
  double weight = 1.0;
};

struct MultipathPingOptions {
  std::size_t count = 30;   ///< total probes, split across subflows by weight
  double interval_s = 0.1;
  double payload_bytes = 64.0;
};

/// Weighted round-robin probe train over k concurrent subflows.  The
/// subflows run in parallel on the timeline (the clock advances once, by
/// the longest subflow schedule), and each can fail individually.
struct MultipathPingReport {
  struct Subflow {
    scion::Path path;          ///< resolved path (default when pick failed)
    std::size_t probes = 0;    ///< weighted share of `count`
    bool ok = false;
    util::Error error;         ///< meaningful only when !ok
    simnet::PingStats stats;   ///< meaningful only when ok
  };
  std::vector<Subflow> subflows;
  simnet::PingStats aggregate;  ///< delivered probes across live subflows
};

struct MultipathBwtestOptions {
  double duration_s = 3.0;
  double packet_bytes = 1000.0;
  double total_target_mbps = 12.0;  ///< split across subflows by weight
  bool downstream = false;  ///< probe server->client instead of client->server
};

/// Concurrent weighted bandwidth probes over k subflows, with the shared
/// links modelled as contended (simnet::Network::multibwtest).
struct MultipathBwtestReport {
  struct Subflow {
    scion::Path path;
    double target_mbps = 0.0;  ///< weighted share of the total target
    bool ok = false;
    util::Error error;
    simnet::BwtestResult result;
  };
  std::vector<Subflow> subflows;
  double attempted_mbps = 0.0;  ///< summed over live subflows
  double achieved_mbps = 0.0;   ///< summed over live subflows (goodput)
  std::vector<simnet::SharedBottleneck> shared_bottlenecks;
};

/// A host inside the testbed.  Not copyable.  Refers to the env, and
/// through it to the testbed's segment store, which every host on the env
/// shares; owns its compiled network, control plane and clock (one
/// campaign = one host on one timeline).
class ScionHost {
 public:
  /// `local_host_ip` is this host's address within its AS.
  ScionHost(const scion::ScionlabEnv& env, std::uint64_t seed,
            scion::IsdAsn local_as, std::string local_host_ip,
            simnet::NetworkConfig net_config = {}, HostConfig config = {});

  ScionHost(const ScionHost&) = delete;
  ScionHost& operator=(const ScionHost&) = delete;

  [[nodiscard]] AddressInfo address() const;

  /// Paths to `dst`, ranked by hop count (then static latency), at most
  /// `options.max_paths` — the `scion showpaths` contract.
  [[nodiscard]] util::Result<std::vector<PathListing>> showpaths(
      scion::IsdAsn dst, const ShowpathsOptions& options) const;

  /// `scion ping`: the one-subflow `multipath_ping` over the path named
  /// by `options.sequence` (the best live path when empty), reported as
  /// that subflow.  With a zero count it still picks the path, then
  /// sends nothing and succeeds.
  [[nodiscard]] util::Result<PingReport> ping(const scion::SnetAddress& dst,
                                              const PingOptions& options);

  [[nodiscard]] util::Result<TracerouteReport> traceroute(
      const scion::SnetAddress& dst, const std::string& sequence = {});

  [[nodiscard]] util::Result<BwtestReport> bwtestclient(
      const scion::SnetAddress& server, const BwtestOptions& options);

  /// Probe `dst` over `subflows.size()` concurrent paths, splitting
  /// `options.count` probes by normalized weight (largest remainder).
  /// This is the host's one ping life cycle: pick each subflow's path,
  /// run it on the network, advance the clock once by the longest
  /// `occupied_s`, then reclassify dead subflows with the end-of-run
  /// control-plane view (a revocation delivered mid-probe beats expiry
  /// beats the data-plane error; a subflow that lost every probe on a
  /// revoked path reports kRevoked).  A subflow weighted down to zero
  /// probes sends nothing and succeeds.  Succeeds when at least one
  /// subflow does, else fails with the first subflow's error;
  /// kInvalidArgument on an empty spec list or non-positive weights.
  [[nodiscard]] util::Result<MultipathPingReport> multipath_ping(
      const scion::SnetAddress& dst, const std::vector<SubflowSpec>& subflows,
      const MultipathPingOptions& options);

  /// Drive `options.total_target_mbps` at `server` over the subflows
  /// concurrently (per-subflow target = normalized weight x total), with
  /// shared links contended.  Succeeds when at least one subflow ran.
  [[nodiscard]] util::Result<MultipathBwtestReport> multipath_bwtest(
      const scion::SnetAddress& server,
      const std::vector<SubflowSpec>& subflows,
      const MultipathBwtestOptions& options);

  /// The shared virtual clock (exposed so campaigns can schedule pauses).
  [[nodiscard]] util::VirtualClock& clock() noexcept { return clock_; }
  [[nodiscard]] const util::VirtualClock& clock() const noexcept { return clock_; }

  /// Inject an outage on an AS (benchmark staging for Fig 9).
  void inject_outage(scion::IsdAsn as, util::SimTime start, util::SimTime end,
                     double drop_prob = 1.0);

  [[nodiscard]] const scion::ScionlabEnv& env() const noexcept { return env_; }
  /// The testbed's segment store (`ScionlabEnv::beaconing`), which every
  /// host on the env shares; the host keeps no store of its own.
  [[nodiscard]] const scion::Beaconing& beaconing() const {
    return env_.beaconing();
  }
  [[nodiscard]] const simnet::Network& network() const noexcept {
    return compiled_.network;
  }
  /// Path lookup cache + revocation state for this host.  Mutable even on
  /// const hosts: lookups touch LRU order and deliver pending revocations.
  [[nodiscard]] scion::ControlPlane& control_plane() const noexcept {
    return control_plane_;
  }
  [[nodiscard]] const HostConfig& config() const noexcept { return config_; }

  /// Translate a path into the simnet route of its ASes.
  [[nodiscard]] util::Result<std::vector<simnet::NodeId>> route_of(
      const scion::Path& path) const;

 private:
  /// What the host keeps per `--sequence` text, since a campaign probes
  /// the same few hundred sequences over and over: the parsed AS chain
  /// (or the parse error) and the prepared route, built from the first
  /// path picked for the text.  A picked path's AS chain equals the
  /// parsed one, so every later pick of the text runs on that route.
  /// Each probe still syncs the control plane and picks the path, so
  /// revocation, expiry and cache statistics are read per probe.  The
  /// best-path (empty) sequence names no fixed path and is not kept.
  using PreparedRoute = std::optional<util::Result<simnet::Network::Route>>;
  struct SequenceMemo {
    util::Result<std::vector<scion::IsdAsn>> ases;
    PreparedRoute route;
  };

  /// A path picked for a probe, with the memo of the sequence that named
  /// it (null for the best-path pick).
  struct PickedPath {
    scion::Path path;
    SequenceMemo* memo = nullptr;
  };

  /// Path selected by `sequence` (validated against discovered paths), or
  /// the best (first-ranked) live path when the sequence is empty.  Never
  /// returns a path whose revocation was delivered before now — a pinned
  /// revoked sequence fails with kRevoked without touching the network.
  [[nodiscard]] util::Result<PickedPath> pick_path(
      scion::IsdAsn dst, const std::string& sequence);

  /// The prepared route of `path`, picked for the sequence of `memo`:
  /// the memo's, prepared on first use, or for a best-path pick (null
  /// `memo`) one prepared into `scratch`.
  [[nodiscard]] util::Result<const simnet::Network::Route*> prepared_route(
      const scion::Path& path, SequenceMemo* memo, PreparedRoute& scratch);

  /// `BwSpec::parse(text)`, memoized by text.
  [[nodiscard]] const util::Result<BwSpec>& parsed_spec(const std::string& text);

  /// Reclassify a probe that died mid-flight: revocation delivered inside
  /// the probe window beats expiry beats the original error.
  [[nodiscard]] util::Error classify_dead_path(const scion::Path& path,
                                               util::Error original) const;

  /// Virtual seconds a probe with a `schedule_s` schedule occupies: all
  /// of it when it ran (`failure` null), timed out or got a garbled
  /// answer; `scmp_error_fail_fast_s` when the destination was
  /// unreachable; nothing on an argument error.
  [[nodiscard]] double occupied_s(const util::Error* failure,
                                  double schedule_s) const;

  const scion::ScionlabEnv& env_;
  scion::Topology::Compiled compiled_;
  HostConfig config_;
  mutable scion::ControlPlane control_plane_;
  util::VirtualClock clock_;
  scion::IsdAsn local_as_;
  std::string local_host_ip_;
  std::unordered_map<std::string, SequenceMemo> sequences_;
  std::unordered_map<std::string, util::Result<BwSpec>> specs_;
};

}  // namespace upin::apps
