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
      compiled_(env.topology.compile(seed, net_config)),
      config_(config),
      control_plane_(seed, config.control_plane, env.topology, env.beaconing(),
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

namespace {

/// The AS chain a hop sequence names.
Result<std::vector<IsdAsn>> sequence_ases(const std::string& sequence) {
  const Result<Path> parsed = Path::parse_sequence(sequence);
  if (!parsed.ok()) return parsed.error();
  std::vector<IsdAsn> ases;
  ases.reserve(parsed.value().hops().size());
  for (const scion::PathHop& hop : parsed.value().hops()) {
    ases.push_back(hop.ia);
  }
  return ases;
}

}  // namespace

Result<ScionHost::PickedPath> ScionHost::pick_path(
    IsdAsn dst, const std::string& sequence) {
  const SimTime now = clock_.now();
  control_plane_.sync(now);
  // A sequence names its path by the AS chain.  A malformed one still
  // costs the lookup, and "no path" is reported before it.
  SequenceMemo* memo = nullptr;
  if (!sequence.empty()) {
    auto it = sequences_.find(sequence);
    if (it == sequences_.end()) {
      it = sequences_
               .emplace(sequence,
                        SequenceMemo{sequence_ases(sequence), std::nullopt})
               .first;
    }
    memo = &it->second;
  }
  static const std::vector<IsdAsn> kBestPath;
  scion::PathPick pick = control_plane_.pick(
      local_as_, dst,
      memo != nullptr && memo->ases.ok() ? memo->ases.value() : kBestPath, now);
  if (!pick.any) {
    return util::Error{ErrorCode::kUnreachable,
                       "no path to " + dst.to_string()};
  }
  if (memo != nullptr && !memo->ases.ok()) return memo->ases.error();
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
  return PickedPath{std::move(*pick.path), memo};
}

Result<const simnet::Network::Route*> ScionHost::prepared_route(
    const Path& path, SequenceMemo* memo, PreparedRoute& scratch) {
  PreparedRoute& slot = memo != nullptr ? memo->route : scratch;
  if (!slot.has_value()) {
    const Result<std::vector<simnet::NodeId>> nodes = route_of(path);
    slot = nodes.ok() ? compiled_.network.prepare(nodes.value())
                      : Result<simnet::Network::Route>(nodes.error());
  }
  if (!slot->ok()) return slot->error();
  return &slot->value();
}

const Result<BwSpec>& ScionHost::parsed_spec(const std::string& text) {
  auto it = specs_.find(text);
  if (it == specs_.end()) it = specs_.emplace(text, BwSpec::parse(text)).first;
  return it->second;
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

double ScionHost::occupied_s(const util::Error* failure,
                             double schedule_s) const {
  // Failed commands still burn wall clock: a timed-out or garbled run
  // occupied its full schedule before the client gave up, while the SCMP
  // error for an unreachable destination returns fast.
  if (failure == nullptr || failure->code == ErrorCode::kTimeout ||
      failure->code == ErrorCode::kBadResponse) {
    return schedule_s;
  }
  if (failure->code == ErrorCode::kUnreachable) {
    return config_.scmp_error_fail_fast_s;
  }
  return 0.0;
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
  // `scion ping` is the one-subflow case of the weighted multipath probe.
  Result<MultipathPingReport> run = multipath_ping(
      dst, {SubflowSpec{options.sequence, 1.0}},
      {options.count, options.interval_s, options.payload_bytes});
  if (!run.ok()) return Result<PingReport>(run.error());
  MultipathPingReport::Subflow& subflow = run.value().subflows.front();
  PingReport report;
  report.path = std::move(subflow.path);
  report.stats = std::move(subflow.stats);
  return report;
}

Result<TracerouteReport> ScionHost::traceroute(const SnetAddress& dst,
                                               const std::string& sequence) {
  Result<PickedPath> picked = pick_path(dst.ia, sequence);
  if (!picked.ok()) return Result<TracerouteReport>(picked.error());
  Result<std::vector<simnet::NodeId>> route = route_of(picked.value().path);
  if (!route.ok()) return Result<TracerouteReport>(route.error());

  Result<simnet::TraceResult> trace =
      compiled_.network.traceroute(route.value(), clock_.now());
  if (!trace.ok()) return Result<TracerouteReport>(trace.error());
  clock_.advance(util::sim_seconds(1.0));

  TracerouteReport report;
  report.path = std::move(picked.value().path);
  report.trace = std::move(trace).value();
  return report;
}

Result<BwtestReport> ScionHost::bwtestclient(const SnetAddress& server,
                                             const BwtestOptions& options) {
  Result<PickedPath> picked = pick_path(server.ia, options.sequence);
  if (!picked.ok()) return Result<BwtestReport>(picked.error());
  Path& path = picked.value().path;
  PreparedRoute scratch;
  const Result<const simnet::Network::Route*> route =
      prepared_route(path, picked.value().memo, scratch);
  if (!route.ok()) return Result<BwtestReport>(route.error());

  const Result<BwSpec>& cs_parsed = parsed_spec(options.cs_spec);
  if (!cs_parsed.ok()) return Result<BwtestReport>(cs_parsed.error());
  Result<BwSpec> cs = cs_parsed.value().resolve(path.mtu());
  if (!cs.ok()) return Result<BwtestReport>(cs.error());

  // "The parameters for the client-to-server direction ... by default,
  // they are used for the server-to-client too" (§3.3).
  const Result<BwSpec>& sc_parsed =
      parsed_spec(options.sc_spec.empty() ? options.cs_spec : options.sc_spec);
  if (!sc_parsed.ok()) return Result<BwtestReport>(sc_parsed.error());
  Result<BwSpec> sc = sc_parsed.value().resolve(path.mtu());
  if (!sc.ok()) return Result<BwtestReport>(sc.error());

  const auto run = [&](const BwSpec& spec, simnet::Direction direction)
      -> Result<simnet::BwtestResult> {
    simnet::BwtestOptions bw_options;
    bw_options.duration_s = *spec.duration_s;
    bw_options.packet_bytes = *spec.packet_bytes;
    bw_options.target_mbps = *spec.target_mbps;
    Result<simnet::BwtestResult> result = compiled_.network.bwtest(
        *route.value(), direction, bw_options, clock_.now());
    clock_.advance(util::sim_seconds(occupied_s(
        result.ok() ? nullptr : &result.error(), *spec.duration_s)));
    if (!result.ok()) {
      return Result<simnet::BwtestResult>(
          classify_dead_path(path, result.error()));
    }
    return result;
  };

  Result<simnet::BwtestResult> cs_result =
      run(cs.value(), simnet::Direction::kUpstream);
  if (!cs_result.ok()) return Result<BwtestReport>(cs_result.error());
  Result<simnet::BwtestResult> sc_result =
      run(sc.value(), simnet::Direction::kDownstream);
  if (!sc_result.ok()) return Result<BwtestReport>(sc_result.error());

  BwtestReport report;
  report.path = std::move(path);
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
  // below, by the longest time a subflow occupies.
  const SimTime start = clock_.now();
  MultipathPingReport report;
  report.subflows.resize(subflows.size());
  double burn_s = 0.0;
  for (std::size_t i = 0; i < subflows.size(); ++i) {
    MultipathPingReport::Subflow& subflow = report.subflows[i];
    subflow.probes = probes[i];
    Result<PickedPath> picked = pick_path(dst.ia, subflows[i].sequence);
    if (!picked.ok()) {
      subflow.error = picked.error();
      continue;
    }
    subflow.path = std::move(picked.value().path);
    if (subflow.probes == 0) {
      // The weight rounded this subflow out of the schedule entirely.
      subflow.ok = true;
      continue;
    }
    PreparedRoute scratch;
    const Result<const simnet::Network::Route*> route =
        prepared_route(subflow.path, picked.value().memo, scratch);
    if (!route.ok()) {
      subflow.error = route.error();
      continue;
    }
    simnet::PingOptions ping_options;
    ping_options.count = subflow.probes;
    ping_options.interval = util::sim_seconds(options.interval_s);
    ping_options.payload_bytes = options.payload_bytes;
    Result<simnet::PingStats> stats =
        compiled_.network.ping(*route.value(), ping_options, start);
    burn_s = std::max(
        burn_s, occupied_s(stats.ok() ? nullptr : &stats.error(),
                           static_cast<double>(subflow.probes) *
                               options.interval_s));
    if (!stats.ok()) {
      subflow.error = stats.error();
      continue;
    }
    subflow.ok = true;
    subflow.stats = std::move(stats).value();
  }

  clock_.advance(util::sim_seconds(burn_s));

  // Post-mortems at the end-of-run instant (the revocation log is read
  // by time, so no sync is needed): mid-probe revocations reclassify dead
  // subflows, and a subflow that lost every probe on the wire (a flapped
  // link, not a dark server) reports kRevoked when a covering revocation
  // arrived by the end of the run.
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
    return Result<MultipathPingReport>(report.subflows.front().error);
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
    Result<PickedPath> picked = pick_path(server.ia, subflows[i].sequence);
    if (!picked.ok()) {
      subflow.error = picked.error();
      continue;
    }
    subflow.path = std::move(picked.value().path);
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
      burn_s = std::max(burn_s, occupied_s(flow.ok ? nullptr : &flow.error,
                                           options.duration_s));
      if (flow.ok) {
        subflow.ok = true;
        subflow.result = flow.result;
        report.attempted_mbps += flow.result.attempted_mbps;
        report.achieved_mbps += flow.result.achieved_mbps;
      } else {
        subflow.error = flow.error;
      }
    }
    report.shared_bottlenecks = std::move(outcome.value().shared_bottlenecks);
  }

  clock_.advance(util::sim_seconds(burn_s));
  bool any_ok = false;
  for (MultipathBwtestReport::Subflow& subflow : report.subflows) {
    if (subflow.ok) {
      any_ok = true;
    } else if (!subflow.path.hops().empty()) {
      subflow.error = classify_dead_path(subflow.path, subflow.error);
    }
  }
  if (!any_ok) {
    return Result<MultipathBwtestReport>(report.subflows.front().error);
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
