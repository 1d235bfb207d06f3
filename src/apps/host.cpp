#include "apps/host.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/strings.hpp"

namespace upin::apps {

using scion::IsdAsn;
using scion::Path;
using scion::SnetAddress;
using util::ErrorCode;
using util::Result;
using util::SimTime;

ScionHost::ScionHost(const scion::ScionlabEnv& env, std::uint64_t seed,
                     IsdAsn local_as, std::string local_host_ip,
                     simnet::NetworkConfig net_config, HostConfig config)
    : env_(env),
      beaconing_(env.topology),
      compiled_(env.topology.compile(seed, net_config)),
      config_(config),
      control_plane_(seed, config.control_plane, env.topology, beaconing_,
                     compiled_.node_of, compiled_.network.faults(), local_as),
      local_as_(local_as),
      local_host_ip_(std::move(local_host_ip)) {}

AddressInfo ScionHost::address() const {
  AddressInfo info;
  info.local = SnetAddress{local_as_, local_host_ip_};
  if (const scion::AsInfo* as_info = env_.topology.find_as(local_as_)) {
    info.as_name = as_info->name;
    info.role = as_info->role;
  }
  return info;
}

Result<std::vector<PathListing>> ScionHost::showpaths(
    IsdAsn dst, const ShowpathsOptions& options) const {
  if (env_.topology.find_as(dst) == nullptr) {
    return util::Error{ErrorCode::kNotFound,
                       "unknown destination AS " + dst.to_string()};
  }
  control_plane_.sync(clock_.now());
  std::vector<Path> paths =
      control_plane_.annotated_paths(local_as_, dst, clock_.now());
  if (paths.size() > options.max_paths) paths.resize(options.max_paths);

  std::vector<PathListing> listings;
  listings.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    PathListing listing;
    listing.path = paths[i];
    // Path status reflects current liveness: a hop inside an active hard
    // outage window makes the path show "timeout", as in the real
    // `showpaths` output.  A delivered revocation ("revoked") wins over
    // the data-plane view; stale lifetime flags lose to both.
    if (listing.path.status() != "revoked") {
      for (const scion::PathHop& hop : listing.path.hops()) {
        const auto node = compiled_.node_of.find(hop.ia);
        if (node != compiled_.node_of.end() &&
            compiled_.network.outage_drop(node->second, clock_.now()) >= 1.0) {
          listing.path.set_status("timeout");
          break;
        }
      }
    }
    std::string render =
        util::format("[%2zu] %s", i, listing.path.sequence().c_str());
    if (options.extended) {
      render += util::format(
          " MTU: %d, Status: %s, Latency: %dms",
          static_cast<int>(listing.path.mtu()), listing.path.status().c_str(),
          static_cast<int>(util::to_millis(listing.path.static_latency())));
    }
    listing.render = std::move(render);
    listings.push_back(std::move(listing));
  }
  return listings;
}

Result<Path> ScionHost::pick_path(IsdAsn dst, const std::string& sequence) {
  const SimTime now = clock_.now();
  control_plane_.sync(now);
  // A sequence names its path by the AS chain.  A malformed one still
  // costs the lookup, and "no path" is reported before it.
  std::optional<util::Error> malformed;
  std::vector<IsdAsn> ases;
  if (!sequence.empty()) {
    const Result<Path> wanted = Path::parse_sequence(sequence);
    if (wanted.ok()) {
      ases.reserve(wanted.value().hops().size());
      for (const scion::PathHop& hop : wanted.value().hops()) {
        ases.push_back(hop.ia);
      }
    } else {
      malformed = wanted.error();
    }
  }
  scion::PathPick pick = control_plane_.pick(local_as_, dst, ases, now);
  if (!pick.any) {
    return util::Error{ErrorCode::kUnreachable,
                       "no path to " + dst.to_string()};
  }
  if (malformed.has_value()) return *malformed;
  if (!pick.path.has_value()) {
    return util::Error{ErrorCode::kNotFound,
                       "no discovered path matches sequence: " + sequence};
  }
  if (pick.path->status() == "revoked") {
    // Without a sequence every path is revoked (host-level failover skips
    // dead paths until their fault window heals); with one, the named
    // path is.  The revocation was delivered before send time: fail
    // without putting a single probe on the wire (the churn invariant).
    if (sequence.empty()) {
      return util::Error{ErrorCode::kRevoked,
                         "all paths to " + dst.to_string() +
                             " are revoked by the control plane"};
    }
    return util::Error{ErrorCode::kRevoked,
                       "path revoked by control plane: " + sequence};
  }
  return std::move(*pick.path);
}

util::Error ScionHost::classify_dead_path(const Path& path,
                                          util::Error original) const {
  // A probe train that died mid-flight is reclassified with the
  // control-plane taxonomy: a revocation delivered inside the window
  // explains the death better than a generic timeout, and an elapsed
  // lifetime better than nothing.  Garbled answers keep their class —
  // the server responded, so the path itself was alive.
  if (original.code != ErrorCode::kTimeout &&
      original.code != ErrorCode::kUnreachable) {
    return original;
  }
  if (control_plane_.path_revoked(path, clock_.now())) {
    return util::Error{ErrorCode::kRevoked,
                       "path revoked mid-probe: " + path.to_string() +
                           " (" + original.message + ")"};
  }
  if (path.expired(clock_.now())) {
    return util::Error{ErrorCode::kExpired,
                       "path lifetime expired mid-probe: " + path.to_string() +
                           " (" + original.message + ")"};
  }
  return original;
}

Result<std::vector<simnet::NodeId>> ScionHost::route_of(
    const Path& path) const {
  std::vector<simnet::NodeId> route;
  route.reserve(path.hops().size());
  for (const scion::PathHop& hop : path.hops()) {
    const auto it = compiled_.node_of.find(hop.ia);
    if (it == compiled_.node_of.end()) {
      return util::Error{ErrorCode::kNotFound,
                         "AS not in compiled network: " + hop.ia.to_string()};
    }
    route.push_back(it->second);
  }
  return route;
}

std::string PingReport::summary() const {
  const auto avg = stats.avg_ms();
  return util::format(
      "%zu packets sent, %zu lost (%.1f%%), avg RTT %s", stats.sent(),
      stats.lost(), stats.loss_pct(),
      avg.has_value() ? util::format("%.2fms", *avg).c_str() : "n/a");
}

Result<PingReport> ScionHost::ping(const SnetAddress& dst,
                                   const PingOptions& options) {
  Result<Path> path = pick_path(dst.ia, options.sequence);
  if (!path.ok()) return Result<PingReport>(path.error());
  Result<std::vector<simnet::NodeId>> route = route_of(path.value());
  if (!route.ok()) return Result<PingReport>(route.error());

  simnet::PingOptions ping_options;
  ping_options.count = options.count;
  ping_options.interval = util::sim_seconds(options.interval_s);
  ping_options.payload_bytes = options.payload_bytes;

  Result<simnet::PingStats> stats =
      compiled_.network.ping(route.value(), ping_options, clock_.now());
  if (!stats.ok()) {
    // Failed commands still burn wall clock: a timed-out or garbled run
    // occupied its full schedule before the client gave up, while an
    // unreachable destination fails fast (the SCMP error returns after
    // config().scmp_error_fail_fast_s).
    if (stats.error().code == ErrorCode::kTimeout ||
        stats.error().code == ErrorCode::kBadResponse) {
      clock_.advance(util::sim_seconds(static_cast<double>(options.count) *
                                       options.interval_s));
    } else if (stats.error().code == ErrorCode::kUnreachable) {
      clock_.advance(util::sim_seconds(config_.scmp_error_fail_fast_s));
    }
    control_plane_.sync(clock_.now());
    return Result<PingReport>(
        classify_dead_path(path.value(), stats.error()));
  }

  // The command occupies the timeline for count * interval.
  clock_.advance(util::sim_seconds(static_cast<double>(options.count) *
                                   options.interval_s));

  if (stats.value().sent() > 0 && stats.value().lost() == stats.value().sent()) {
    // Every probe died on the wire — a flapped link, not a dark server.
    // If the control plane delivered a covering revocation by the end of
    // the run, report that instead of silent 100 % loss.
    control_plane_.sync(clock_.now());
    if (control_plane_.path_revoked(path.value(), clock_.now())) {
      return Result<PingReport>(util::Error{
          ErrorCode::kRevoked,
          "path revoked mid-probe: " + path.value().to_string()});
    }
  }

  PingReport report;
  report.path = std::move(path).value();
  report.stats = std::move(stats).value();
  return report;
}

Result<TracerouteReport> ScionHost::traceroute(const SnetAddress& dst,
                                               const std::string& sequence) {
  Result<Path> path = pick_path(dst.ia, sequence);
  if (!path.ok()) return Result<TracerouteReport>(path.error());
  Result<std::vector<simnet::NodeId>> route = route_of(path.value());
  if (!route.ok()) return Result<TracerouteReport>(route.error());

  Result<simnet::TraceResult> trace =
      compiled_.network.traceroute(route.value(), clock_.now());
  if (!trace.ok()) return Result<TracerouteReport>(trace.error());
  clock_.advance(util::sim_seconds(1.0));

  TracerouteReport report;
  report.path = std::move(path).value();
  report.trace = std::move(trace).value();
  return report;
}

Result<BwtestReport> ScionHost::bwtestclient(const SnetAddress& server,
                                             const BwtestOptions& options) {
  Result<Path> path = pick_path(server.ia, options.sequence);
  if (!path.ok()) return Result<BwtestReport>(path.error());
  Result<std::vector<simnet::NodeId>> route = route_of(path.value());
  if (!route.ok()) return Result<BwtestReport>(route.error());

  Result<BwSpec> cs_parsed = BwSpec::parse(options.cs_spec);
  if (!cs_parsed.ok()) return Result<BwtestReport>(cs_parsed.error());
  Result<BwSpec> cs = cs_parsed.value().resolve(path.value().mtu());
  if (!cs.ok()) return Result<BwtestReport>(cs.error());

  // "The parameters for the client-to-server direction ... by default,
  // they are used for the server-to-client too" (§3.3).
  Result<BwSpec> sc_parsed = BwSpec::parse(
      options.sc_spec.empty() ? options.cs_spec : options.sc_spec);
  if (!sc_parsed.ok()) return Result<BwtestReport>(sc_parsed.error());
  Result<BwSpec> sc = sc_parsed.value().resolve(path.value().mtu());
  if (!sc.ok()) return Result<BwtestReport>(sc.error());

  const auto run = [&](const BwSpec& spec,
                       const std::vector<simnet::NodeId>& direction_route)
      -> Result<simnet::BwtestResult> {
    simnet::BwtestOptions bw_options;
    bw_options.duration_s = *spec.duration_s;
    bw_options.packet_bytes = *spec.packet_bytes;
    bw_options.target_mbps = *spec.target_mbps;
    Result<simnet::BwtestResult> result =
        compiled_.network.bwtest(direction_route, bw_options, clock_.now());
    // The test occupies the timeline whether it succeeded, the server
    // errored mid-run, or the transfer timed out; an unreachable server
    // fails fast and only argument errors cost nothing.
    if (result.ok() || result.error().code == util::ErrorCode::kBadResponse ||
        result.error().code == util::ErrorCode::kTimeout) {
      clock_.advance(util::sim_seconds(*spec.duration_s));
    } else if (result.error().code == util::ErrorCode::kUnreachable) {
      clock_.advance(util::sim_seconds(config_.scmp_error_fail_fast_s));
    }
    if (!result.ok()) {
      control_plane_.sync(clock_.now());
      return Result<simnet::BwtestResult>(
          classify_dead_path(path.value(), result.error()));
    }
    return result;
  };

  Result<simnet::BwtestResult> cs_result = run(cs.value(), route.value());
  if (!cs_result.ok()) return Result<BwtestReport>(cs_result.error());

  std::vector<simnet::NodeId> reverse_route(route.value().rbegin(),
                                            route.value().rend());
  Result<simnet::BwtestResult> sc_result = run(sc.value(), reverse_route);
  if (!sc_result.ok()) return Result<BwtestReport>(sc_result.error());

  BwtestReport report;
  report.path = std::move(path).value();
  report.cs_resolved = std::move(cs).value();
  report.sc_resolved = std::move(sc).value();
  report.client_to_server = cs_result.value();
  report.server_to_client = sc_result.value();
  return report;
}

namespace {

/// Weights normalized to sum 1; kInvalidArgument on empty input or a
/// non-positive weight.
Result<std::vector<double>> normalized_weights(
    const std::vector<SubflowSpec>& subflows) {
  if (subflows.empty()) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "multipath needs at least one subflow"};
  }
  double total = 0.0;
  for (const SubflowSpec& spec : subflows) {
    if (!(spec.weight > 0.0)) {
      return util::Error{ErrorCode::kInvalidArgument,
                         "subflow weights must be positive"};
    }
    total += spec.weight;
  }
  std::vector<double> weights;
  weights.reserve(subflows.size());
  for (const SubflowSpec& spec : subflows) {
    weights.push_back(spec.weight / total);
  }
  return weights;
}

/// Integer split of `total` by weight, largest remainder (ties to the
/// earlier subflow) so the shares always sum to `total` exactly.
std::vector<std::size_t> split_by_weight(std::size_t total,
                                         const std::vector<double>& weights) {
  std::vector<std::size_t> shares(weights.size(), 0);
  std::vector<double> remainders(weights.size(), 0.0);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double exact = static_cast<double>(total) * weights[i];
    shares[i] = static_cast<std::size_t>(exact);
    remainders[i] = exact - static_cast<double>(shares[i]);
    assigned += shares[i];
  }
  while (assigned < total) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < weights.size(); ++i) {
      if (remainders[i] > remainders[best]) best = i;
    }
    ++shares[best];
    remainders[best] = -1.0;
    ++assigned;
  }
  return shares;
}

}  // namespace

Result<MultipathPingReport> ScionHost::multipath_ping(
    const SnetAddress& dst, const std::vector<SubflowSpec>& subflows,
    const MultipathPingOptions& options) {
  Result<std::vector<double>> weights = normalized_weights(subflows);
  if (!weights.ok()) return Result<MultipathPingReport>(weights.error());
  const std::vector<std::size_t> probes =
      split_by_weight(options.count, weights.value());

  // Every subflow launches at the same instant; the clock advances once
  // below, by the longest subflow schedule.
  const SimTime start = clock_.now();
  MultipathPingReport report;
  report.subflows.reserve(subflows.size());
  double burn_s = 0.0;
  for (std::size_t i = 0; i < subflows.size(); ++i) {
    MultipathPingReport::Subflow subflow;
    subflow.probes = probes[i];
    Result<Path> path = pick_path(dst.ia, subflows[i].sequence);
    if (!path.ok()) {
      subflow.error = path.error();
      report.subflows.push_back(std::move(subflow));
      continue;
    }
    subflow.path = std::move(path).value();
    if (subflow.probes == 0) {
      // The weight rounded this subflow out of the schedule entirely.
      subflow.ok = true;
      report.subflows.push_back(std::move(subflow));
      continue;
    }
    Result<std::vector<simnet::NodeId>> route = route_of(subflow.path);
    if (!route.ok()) {
      subflow.error = route.error();
      report.subflows.push_back(std::move(subflow));
      continue;
    }
    simnet::PingOptions ping_options;
    ping_options.count = subflow.probes;
    ping_options.interval = util::sim_seconds(options.interval_s);
    ping_options.payload_bytes = options.payload_bytes;
    Result<simnet::PingStats> stats =
        compiled_.network.ping(route.value(), ping_options, start);
    const double schedule_s =
        static_cast<double>(subflow.probes) * options.interval_s;
    if (!stats.ok()) {
      subflow.error = stats.error();
      if (subflow.error.code == ErrorCode::kTimeout ||
          subflow.error.code == ErrorCode::kBadResponse) {
        burn_s = std::max(burn_s, schedule_s);
      } else if (subflow.error.code == ErrorCode::kUnreachable) {
        burn_s = std::max(burn_s, config_.scmp_error_fail_fast_s);
      }
      report.subflows.push_back(std::move(subflow));
      continue;
    }
    burn_s = std::max(burn_s, schedule_s);
    subflow.ok = true;
    subflow.stats = std::move(stats).value();
    report.subflows.push_back(std::move(subflow));
  }

  clock_.advance(util::sim_seconds(burn_s));
  control_plane_.sync(clock_.now());

  // Post-mortems with the end-of-run control-plane view: mid-probe
  // revocations reclassify dead subflows, and a fully-lost subflow whose
  // covering revocation arrived by now reports kRevoked, as in ping().
  for (MultipathPingReport::Subflow& subflow : report.subflows) {
    if (!subflow.ok) {
      if (!subflow.path.hops().empty()) {
        subflow.error = classify_dead_path(subflow.path, subflow.error);
      }
      continue;
    }
    if (subflow.stats.sent() > 0 &&
        subflow.stats.lost() == subflow.stats.sent() &&
        control_plane_.path_revoked(subflow.path, clock_.now())) {
      subflow.ok = false;
      subflow.error = util::Error{
          ErrorCode::kRevoked,
          "path revoked mid-probe: " + subflow.path.to_string()};
    }
  }

  bool any_ok = false;
  for (const MultipathPingReport::Subflow& subflow : report.subflows) {
    if (!subflow.ok) continue;
    any_ok = true;
    report.aggregate.rtt_ms.insert(report.aggregate.rtt_ms.end(),
                                   subflow.stats.rtt_ms.begin(),
                                   subflow.stats.rtt_ms.end());
  }
  if (!any_ok) {
    for (const MultipathPingReport::Subflow& subflow : report.subflows) {
      if (!subflow.ok) return Result<MultipathPingReport>(subflow.error);
    }
  }
  return report;
}

Result<MultipathBwtestReport> ScionHost::multipath_bwtest(
    const SnetAddress& server, const std::vector<SubflowSpec>& subflows,
    const MultipathBwtestOptions& options) {
  Result<std::vector<double>> weights = normalized_weights(subflows);
  if (!weights.ok()) return Result<MultipathBwtestReport>(weights.error());

  const SimTime start = clock_.now();
  MultipathBwtestReport report;
  report.subflows.resize(subflows.size());
  std::vector<simnet::FlowSpec> flows;
  std::vector<std::size_t> flow_owner;  // flow index -> subflow index
  for (std::size_t i = 0; i < subflows.size(); ++i) {
    MultipathBwtestReport::Subflow& subflow = report.subflows[i];
    subflow.target_mbps = weights.value()[i] * options.total_target_mbps;
    Result<Path> path = pick_path(server.ia, subflows[i].sequence);
    if (!path.ok()) {
      subflow.error = path.error();
      continue;
    }
    subflow.path = std::move(path).value();
    Result<std::vector<simnet::NodeId>> route = route_of(subflow.path);
    if (!route.ok()) {
      subflow.error = route.error();
      continue;
    }
    simnet::FlowSpec flow;
    flow.route = std::move(route).value();
    if (options.downstream) {
      std::reverse(flow.route.begin(), flow.route.end());
    }
    flow.options.duration_s = options.duration_s;
    flow.options.packet_bytes = options.packet_bytes;
    flow.options.target_mbps = subflow.target_mbps;
    flows.push_back(std::move(flow));
    flow_owner.push_back(i);
  }

  double burn_s = 0.0;
  if (!flows.empty()) {
    Result<simnet::MultibwtestOutcome> outcome =
        compiled_.network.multibwtest(flows, start);
    if (!outcome.ok()) return Result<MultipathBwtestReport>(outcome.error());
    for (std::size_t f = 0; f < outcome.value().flows.size(); ++f) {
      MultipathBwtestReport::Subflow& subflow = report.subflows[flow_owner[f]];
      simnet::MultibwtestOutcome::Flow& flow = outcome.value().flows[f];
      if (flow.ok) {
        subflow.ok = true;
        subflow.result = flow.result;
        burn_s = std::max(burn_s, options.duration_s);
        report.attempted_mbps += flow.result.attempted_mbps;
        report.achieved_mbps += flow.result.achieved_mbps;
      } else {
        subflow.error = flow.error;
        if (flow.error.code == ErrorCode::kBadResponse ||
            flow.error.code == ErrorCode::kTimeout) {
          burn_s = std::max(burn_s, options.duration_s);
        } else if (flow.error.code == ErrorCode::kUnreachable) {
          burn_s = std::max(burn_s, config_.scmp_error_fail_fast_s);
        }
      }
    }
    report.shared_bottlenecks = std::move(outcome.value().shared_bottlenecks);
  }

  clock_.advance(util::sim_seconds(burn_s));
  control_plane_.sync(clock_.now());
  bool any_ok = false;
  for (MultipathBwtestReport::Subflow& subflow : report.subflows) {
    if (subflow.ok) {
      any_ok = true;
    } else if (!subflow.path.hops().empty()) {
      subflow.error = classify_dead_path(subflow.path, subflow.error);
    }
  }
  if (!any_ok) {
    for (const MultipathBwtestReport::Subflow& subflow : report.subflows) {
      if (!subflow.ok) return Result<MultipathBwtestReport>(subflow.error);
    }
  }
  return report;
}

void ScionHost::inject_outage(IsdAsn as, SimTime start, SimTime end,
                              double drop_prob) {
  const auto it = compiled_.node_of.find(as);
  if (it == compiled_.node_of.end()) return;
  compiled_.network.add_outage(
      simnet::OutageWindow{it->second, start, end, drop_prob});
}

}  // namespace upin::apps
