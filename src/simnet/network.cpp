#include "simnet/network.hpp"

#include <algorithm>
#include <cmath>

#include "util/stats.hpp"

namespace upin::simnet {

using util::ErrorCode;
using util::Result;
using util::Rng;
using util::SimDuration;
using util::SimTime;
using util::Status;

// ----------------------------------------------------------------- PingStats

std::size_t PingStats::lost() const noexcept {
  std::size_t lost_count = 0;
  for (const auto& rtt : rtt_ms) {
    if (!rtt.has_value()) ++lost_count;
  }
  return lost_count;
}

double PingStats::loss_pct() const noexcept {
  if (rtt_ms.empty()) return 0.0;
  return 100.0 * static_cast<double>(lost()) /
         static_cast<double>(rtt_ms.size());
}

namespace {

std::vector<double> delivered(const PingStats& stats) {
  std::vector<double> values;
  values.reserve(stats.rtt_ms.size());
  for (const auto& rtt : stats.rtt_ms) {
    if (rtt.has_value()) values.push_back(*rtt);
  }
  return values;
}

}  // namespace

std::optional<double> PingStats::avg_ms() const noexcept {
  const std::vector<double> values = delivered(*this);
  if (values.empty()) return std::nullopt;
  return util::mean(values);
}

std::optional<double> PingStats::min_ms() const noexcept {
  const std::vector<double> values = delivered(*this);
  if (values.empty()) return std::nullopt;
  return *std::min_element(values.begin(), values.end());
}

std::optional<double> PingStats::max_ms() const noexcept {
  const std::vector<double> values = delivered(*this);
  if (values.empty()) return std::nullopt;
  return *std::max_element(values.begin(), values.end());
}

std::optional<double> PingStats::stddev_ms() const noexcept {
  const std::vector<double> values = delivered(*this);
  if (values.size() < 2) return std::nullopt;
  return util::stddev(values);
}

// ------------------------------------------------------------------- Network

namespace {

constexpr double kTwoPi = 2.0 * 3.14159265358979323846;

std::uint64_t endpoint_key(NodeId from, NodeId to) noexcept {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

/// Wire footprint and pacing of a constant-rate flow — the sender-side
/// half of the bwtest model, shared by the single- and multi-flow paths
/// so both compute identical loads.
struct WirePlan {
  int frames = 1;            ///< underlay frames per application packet
  double wire_bytes = 0.0;   ///< bytes on the wire per application packet
  double pps_effective = 0.0;
  double attempted_mbps = 0.0;
  double wire_mbps = 0.0;
};

WirePlan wire_plan(const BwtestOptions& options, const NetworkConfig& config) {
  WirePlan plan;

  // Wire footprint of one application packet.
  const double scion_packet_bytes =
      options.packet_bytes + config.scion_header_bytes;
  const double frame_capacity = config.underlay_mtu - config.underlay_header_bytes;
  if (config.fragmentation_enabled) {
    plan.frames =
        static_cast<int>(std::ceil(scion_packet_bytes / frame_capacity));
    plan.frames = std::max(plan.frames, 1);
  }
  plan.wire_bytes = scion_packet_bytes +
                    static_cast<double>(plan.frames) * config.underlay_header_bytes;

  // Sender pacing: the VM cannot exceed its packets-per-second budget.
  const double pps_target =
      options.target_mbps * 1e6 / 8.0 / options.packet_bytes;
  plan.pps_effective = std::min(pps_target, config.sender_pps_cap);
  plan.attempted_mbps = plan.pps_effective * options.packet_bytes * 8.0 / 1e6;
  plan.wire_mbps = plan.pps_effective * plan.wire_bytes * 8.0 / 1e6;
  return plan;
}

}  // namespace

Network::Network(std::uint64_t seed, NetworkConfig config)
    : config_(config),
      master_(seed),
      // The fault schedule forks off the same experiment seed (under a
      // fixed label) so identically-seeded replicas see identical faults.
      faults_(seed ^ util::fnv1a64("faultplan"), config.faults) {}

NodeId Network::add_node(NodeSpec spec) {
  nodes_.push_back(std::move(spec));
  return static_cast<NodeId>(nodes_.size() - 1);
}

Result<LinkId> Network::add_link(LinkSpec spec) {
  if (spec.from >= nodes_.size() || spec.to >= nodes_.size()) {
    return util::Error{ErrorCode::kInvalidArgument, "link endpoint unknown"};
  }
  if (spec.from == spec.to) {
    return util::Error{ErrorCode::kInvalidArgument, "self-link not allowed"};
  }
  const std::uint64_t key = endpoint_key(spec.from, spec.to);
  if (by_endpoints_.contains(key)) {
    return util::Error{ErrorCode::kConflict, "duplicate link"};
  }
  if (!spec.propagation.has_value()) {
    const double km =
        haversine_km(nodes_[spec.from].location, nodes_[spec.to].location);
    spec.propagation = propagation_delay(km);
  }
  // Substream labels are "util:<from>><to>:<minute>" and
  // "cong:<from>><to>:<10 s bucket>"; hash the fixed prefixes once.
  const std::string label =
      std::to_string(spec.from) + ">" + std::to_string(spec.to);
  Link link;
  link.spec = spec;
  link.util_prefix = util::fnv1a64("util:" + label + ":");
  link.cong_prefix = util::fnv1a64("cong:" + label + ":");
  link.phase =
      static_cast<double>(util::fnv1a64(label) % 10'000) / 10'000.0 * kTwoPi;
  links_.push_back(std::move(link));
  const auto id = static_cast<LinkId>(links_.size() - 1);
  by_endpoints_.emplace(key, id);
  return id;
}

Status Network::add_duplex(NodeId a, NodeId b, double capacity_ab_mbps,
                           double capacity_ba_mbps, double util_base) {
  LinkSpec forward;
  forward.from = a;
  forward.to = b;
  forward.capacity_mbps = capacity_ab_mbps;
  forward.util_base = util_base;
  LinkSpec backward = forward;
  backward.from = b;
  backward.to = a;
  backward.capacity_mbps = capacity_ba_mbps;

  const Result<LinkId> first = add_link(forward);
  if (!first.ok()) return Status(first.error());
  const Result<LinkId> second = add_link(backward);
  if (!second.ok()) return Status(second.error());
  return Status::success();
}

void Network::add_outage(OutageWindow window) {
  outages_.push_back(window);
}

std::optional<NodeId> Network::find_node(std::string_view name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return static_cast<NodeId>(i);
  }
  return std::nullopt;
}

const Network::Link* Network::find(NodeId from, NodeId to) const {
  const auto it = by_endpoints_.find(endpoint_key(from, to));
  if (it == by_endpoints_.end()) return nullptr;
  return &links_[it->second];
}

const LinkSpec* Network::find_link(NodeId from, NodeId to) const {
  const Link* link = find(from, to);
  return link == nullptr ? nullptr : &link->spec;
}

SimDuration Network::link_propagation(NodeId from, NodeId to) const {
  const LinkSpec* link = find_link(from, to);
  if (link == nullptr || !link->propagation.has_value()) return SimDuration::zero();
  return *link->propagation;
}

std::string Network::route_label(const std::vector<NodeId>& route) {
  std::string label;
  for (const NodeId node : route) {
    label += std::to_string(node);
    label.push_back('-');
  }
  return label;
}

std::uint64_t Network::route_prefix(std::string_view tag,
                                    const std::vector<NodeId>& route) noexcept {
  std::uint64_t hash = util::fnv1a64_extend(util::fnv1a64(tag), ":");
  for (const NodeId node : route) {
    hash = util::fnv1a64_extend(hash, static_cast<std::int64_t>(node));
    hash = util::fnv1a64_extend(hash, "-");
  }
  return util::fnv1a64_extend(hash, ":");
}

double Network::utilization(NodeId from, NodeId to, SimTime t) const {
  const Link* link = find(from, to);
  if (link == nullptr) return 0.0;
  HopMemo memo;
  return link_utilization(*link, t, memo);
}

double Network::frame_loss(NodeId from, NodeId to, SimTime t) const {
  const Link* link = find(from, to);
  if (link == nullptr) return 1.0;
  HopMemo memo;
  return link_frame_loss(*link, t, memo);
}

double Network::link_utilization(const Link& link, SimTime t,
                                 HopMemo& memo) const {
  if (t.count() == memo.util_instant) return memo.util;
  const double seconds = util::to_seconds(t);
  const double wave =
      link.spec.util_amplitude *
      std::sin(kTwoPi * seconds / link.spec.util_period_s + link.phase);
  // Per-minute noise bucket, stable across repeated queries.
  const auto bucket = static_cast<std::int64_t>(seconds / 60.0);
  if (bucket != memo.noise_bucket) {
    Rng noise_rng =
        master_.fork_hashed(util::fnv1a64_extend(link.util_prefix, bucket));
    memo.noise = noise_rng.normal(0.0, 0.05);
    memo.noise_bucket = bucket;
  }
  memo.util = std::clamp(link.spec.util_base + wave + memo.noise, 0.0, 0.97);
  memo.util_instant = t.count();
  return memo.util;
}

double Network::link_frame_loss(const Link& link, SimTime t,
                                HopMemo& memo) const {
  // An injected link flap drops every frame for the episode's duration.
  if (faults_.config().link_flap_per_hour > 0.0 &&
      faults_.link_flapped(link.spec.from, link.spec.to, t)) {
    return 1.0;
  }
  double loss = link.spec.base_loss;

  // Micro-congestion: some 10-second windows on some links lose a visible
  // fraction of frames (the paper's occasional ~10% loss readings, §6.3).
  const auto bucket = static_cast<std::int64_t>(util::to_seconds(t) / 10.0);
  if (bucket != memo.cong_bucket) {
    Rng bucket_rng =
        master_.fork_hashed(util::fnv1a64_extend(link.cong_prefix, bucket));
    memo.cong_loss = 0.0;
    if (bucket_rng.bernoulli(config_.micro_congestion_prob)) {
      memo.cong_loss = bucket_rng.uniform(config_.micro_congestion_loss_min,
                                          config_.micro_congestion_loss_max);
    }
    memo.cong_bucket = bucket;
  }
  loss += memo.cong_loss;

  // Heavily utilized links shed additional frames.
  const double util = link_utilization(link, t, memo);
  if (util > config_.congested_util_threshold) {
    loss += (util - config_.congested_util_threshold) * 2.0;
  }
  return std::clamp(loss, 0.0, 1.0);
}

double Network::outage_drop(NodeId node, SimTime t) const {
  double drop = 0.0;
  for (const OutageWindow& window : outages_) {
    if (window.node == node && t >= window.start && t < window.end) {
      drop = std::max(drop, window.drop_prob);
    }
  }
  return drop;
}

Network::Hops Network::hops_of(const std::vector<NodeId>& route) const {
  Hops hops;
  hops.reserve(route.size() - 1);
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    hops.push_back(Hop{find(route[i], route[i + 1]), {}});
  }
  return hops;
}

Result<Network::Hops> Network::resolve(const std::vector<NodeId>& route) const {
  if (route.size() < 2) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "route needs at least two nodes"};
  }
  for (const NodeId node : route) {
    if (node >= nodes_.size()) {
      return util::Error{ErrorCode::kInvalidArgument, "route node unknown"};
    }
  }
  Hops hops = hops_of(route);
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (hops[i].link == nullptr) {
      return util::Error{ErrorCode::kInvalidArgument,
                         "no link " + nodes_[route[i]].name + " -> " +
                             nodes_[route[i + 1]].name};
    }
  }
  return hops;
}

double Network::one_way_ms(std::span<Hop> hops, SimTime t, Rng& rng) const {
  double total_ms = 0.0;
  for (Hop& hop : hops) {
    const LinkSpec& link = hop.link->spec;
    total_ms += util::to_millis(link.propagation.value_or(SimDuration::zero()));
    // Forwarding cost and queueing jitter at the receiving node.
    const NodeSpec& node = nodes_[link.to];
    total_ms += node.process_ms;
    total_ms += node.jitter_ms * rng.lognormal(0.0, 0.6);
    // Queueing delay on the link, superlinear in background utilization.
    const double util = link_utilization(*hop.link, t, hop.memo);
    total_ms += util * util * util * 4.0 * rng.lognormal(0.0, 0.8);
  }
  return total_ms;
}

bool Network::frame_survives(std::span<Hop> hops, SimTime t, Rng& rng) const {
  for (Hop& hop : hops) {
    if (rng.bernoulli(link_frame_loss(*hop.link, t, hop.memo))) return false;
    // Without outages the drop is 0, but the trial still consumes its draw.
    const double drop =
        outages_.empty() ? 0.0 : outage_drop(hop.link->spec.to, t);
    if (rng.bernoulli(drop)) return false;
  }
  return true;
}

Result<Network::Route> Network::prepare(
    const std::vector<NodeId>& nodes) const {
  Route route;
  route.nodes_[0] = nodes;
  route.nodes_[1].assign(nodes.rbegin(), nodes.rend());
  for (std::size_t way = 0; way < 2; ++way) {
    Result<Hops> hops = resolve(route.nodes_[way]);
    if (!hops.ok()) return Result<Route>(hops.error());
    route.hops_[way] = std::move(hops).value();
    route.bwerr_prefix_[way] = route_prefix("bwerr", route.nodes_[way]);
    route.bwtest_prefix_[way] = route_prefix("bwtest", route.nodes_[way]);
  }
  route.ping_prefix_ = route_prefix("ping", nodes);
  return route;
}

Result<PingStats> Network::ping(const std::vector<NodeId>& route,
                                const PingOptions& options,
                                SimTime start) const {
  const Result<Route> prepared = prepare(route);
  if (!prepared.ok()) return Result<PingStats>(prepared.error());
  return ping(prepared.value(), options, start);
}

Result<PingStats> Network::ping(const Route& route, const PingOptions& options,
                                SimTime start) const {
  const std::vector<NodeId>& nodes = route.nodes();
  // Injected destination faults (§4.1.2 fault classes), checked at the
  // operation's start time: a dark server refuses outright, a slow one
  // exhausts the probe timeout, a garbling one answers unparseably.
  if (faults_.active()) {
    const NodeId destination = nodes.back();
    if (faults_.server_down(destination, start)) {
      return util::Error{ErrorCode::kUnreachable,
                         "injected fault: destination server down"};
    }
    if (faults_.slow_responder(destination, start)) {
      return util::Error{ErrorCode::kTimeout,
                         "injected fault: destination responding too slowly"};
    }
    if (faults_.garbled("ping:" + route_label(nodes), start)) {
      return util::Error{ErrorCode::kBadResponse,
                         "injected fault: garbled echo response"};
    }
  }

  // Fresh memos for this probe train: copies of the route's pristine hops.
  Hops forward = route.hops_[0];
  Hops backward = route.hops_[1];
  PingStats stats;
  stats.rtt_ms.reserve(options.count);
  // Probe substreams are "ping:<route>:<t ns>"; only <t> varies.
  for (std::size_t i = 0; i < options.count; ++i) {
    const SimTime t = start + options.interval * static_cast<std::int64_t>(i);
    Rng rng = master_.fork_hashed(
        util::fnv1a64_extend(route.ping_prefix_, t.count()));
    const bool delivered_fwd = frame_survives(forward, t, rng);
    const bool delivered_bwd =
        delivered_fwd && frame_survives(backward, t, rng);
    if (!delivered_fwd || !delivered_bwd) {
      stats.rtt_ms.push_back(std::nullopt);
      continue;
    }
    const double rtt =
        one_way_ms(forward, t, rng) + one_way_ms(backward, t, rng);
    stats.rtt_ms.push_back(rtt);
  }
  return stats;
}

Result<TraceResult> Network::traceroute(const std::vector<NodeId>& route,
                                        SimTime start) const {
  Result<Hops> forward = resolve(route);
  if (!forward.ok()) return Result<TraceResult>(forward.error());
  // The reply to hop h crosses the last h links of the reversed route; a
  // missing reverse link silences every hop behind it.
  Hops backward = hops_of(std::vector<NodeId>(route.rbegin(), route.rend()));

  TraceResult result;
  const std::uint64_t probe_prefix = route_prefix("trace", route);
  for (std::size_t hop = 1; hop < route.size(); ++hop) {
    const std::span<Hop> fwd = std::span<Hop>(forward.value()).first(hop);
    const std::span<Hop> bwd = std::span<Hop>(backward).last(hop);
    TraceHop trace_hop;
    trace_hop.node = route[hop];
    if (std::all_of(bwd.begin(), bwd.end(),
                    [](const Hop& h) { return h.link != nullptr; })) {
      const SimTime t =
          start + util::sim_millis(static_cast<double>(hop) * 50.0);
      std::uint64_t label = util::fnv1a64_extend(
          probe_prefix, static_cast<std::int64_t>(hop));
      label = util::fnv1a64_extend(util::fnv1a64_extend(label, ":"), t.count());
      Rng rng = master_.fork_hashed(label);
      if (frame_survives(fwd, t, rng) && frame_survives(bwd, t, rng)) {
        trace_hop.rtt_ms = one_way_ms(fwd, t, rng) + one_way_ms(bwd, t, rng);
      }
    }
    result.hops.push_back(trace_hop);
  }
  return result;
}

Result<BwtestResult> Network::bwtest(const std::vector<NodeId>& route,
                                     const BwtestOptions& options,
                                     SimTime start) const {
  const Result<Route> prepared = prepare(route);
  if (!prepared.ok()) return Result<BwtestResult>(prepared.error());
  return bwtest(prepared.value(), Direction::kUpstream, options, start);
}

Result<BwtestResult> Network::bwtest(const Route& route, Direction direction,
                                     const BwtestOptions& options,
                                     SimTime start) const {
  return bwtest_loaded(route, direction, options, start, nullptr, 0.0);
}

Result<BwtestResult> Network::bwtest_loaded(
    const Route& route, Direction direction, const BwtestOptions& options,
    SimTime start, const std::unordered_map<std::uint64_t, double>* total_wire_mbps,
    double own_wire_mbps) const {
  const std::size_t way = Route::index(direction);
  const std::vector<NodeId>& nodes = route.nodes_[way];
  if (options.packet_bytes < 4.0) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "bwtest packet size must be >= 4 bytes"};
  }
  if (options.duration_s <= 0.0 || options.duration_s > 10.0) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "bwtest duration must be in (0, 10] seconds"};
  }

  // Injected destination faults, mirroring the ping checks above.
  if (faults_.active()) {
    const NodeId destination = nodes.back();
    if (faults_.server_down(destination, start)) {
      return util::Error{ErrorCode::kUnreachable,
                         "injected fault: bwtest server down"};
    }
    if (faults_.slow_responder(destination, start)) {
      return util::Error{ErrorCode::kTimeout,
                         "injected fault: bwtest server responding too slowly"};
    }
    if (faults_.garbled("bwtest:" + route_label(nodes), start)) {
      return util::Error{ErrorCode::kBadResponse,
                         "injected fault: garbled bwtest response"};
    }
  }

  // Server-side failure (§4.1.2 "Error Messages"): the responder is up
  // but replies with an error; the caller must tolerate it.
  {
    Rng error_rng = master_.fork_hashed(
        util::fnv1a64_extend(route.bwerr_prefix_[way], start.count()));
    if (error_rng.bernoulli(config_.server_error_prob)) {
      return util::Error{ErrorCode::kBadResponse,
                         "bwtestserver returned an error"};
    }
  }

  BwtestResult result;

  const WirePlan plan = wire_plan(options, config_);
  const int frames = plan.frames;
  result.attempted_mbps = plan.attempted_mbps;
  const double wire_mbps = plan.wire_mbps;
  const double pps_effective = plan.pps_effective;

  // Per-link frame survival: byte-share under overload plus ambient loss
  // plus outage drops at the receiving node.
  double frame_survival = 1.0;
  double bottleneck_available = std::numeric_limits<double>::infinity();
  const SimTime mid = start + util::sim_seconds(options.duration_s / 2.0);
  Hops hops = route.hops_[way];
  for (Hop& hop : hops) {
    const LinkSpec& link = hop.link->spec;
    const NodeId from = link.from;
    const NodeId to = link.to;
    const double available =
        link.capacity_mbps * (1.0 - link_utilization(*hop.link, mid, hop.memo));
    bottleneck_available = std::min(bottleneck_available, available);
    // Concurrent subflows on this link dilute the share: the flow gets
    // its proportional cut of the headroom.  `cross == 0` (the lone-flow
    // case) reduces to the legacy single-flow formula exactly.
    double cross = 0.0;
    if (total_wire_mbps != nullptr) {
      const auto it = total_wire_mbps->find(endpoint_key(from, to));
      if (it != total_wire_mbps->end()) {
        cross = std::max(0.0, it->second - own_wire_mbps);
      }
    }
    const double share = std::min(1.0, available / (wire_mbps + cross));
    frame_survival *= share;
    frame_survival *= 1.0 - link_frame_loss(*hop.link, mid, hop.memo);
    frame_survival *= 1.0 - outage_drop(to, mid);
  }
  frame_survival = std::clamp(frame_survival, 0.0, 1.0);

  // A fragmented packet is delivered only when every frame survives.
  const double packet_survival = std::pow(frame_survival, frames);

  // "bwtest:<route>:<start ns>:<packet bytes>:<target Mbps>", streamed.
  std::uint64_t label =
      util::fnv1a64_extend(route.bwtest_prefix_[way], start.count());
  for (const double knob : {options.packet_bytes, options.target_mbps}) {
    label = util::fnv1a64_extend_fixed(util::fnv1a64_extend(label, ":"),
                                       knob);
  }
  Rng rng = master_.fork_hashed(label);
  const double measurement_noise = rng.lognormal(0.0, 0.03);
  result.achieved_mbps = std::min(
      result.attempted_mbps,
      result.attempted_mbps * packet_survival * measurement_noise);
  result.frames_per_packet = frames;
  result.packets_sent =
      static_cast<std::uint64_t>(pps_effective * options.duration_s);
  result.packets_lost = static_cast<std::uint64_t>(
      static_cast<double>(result.packets_sent) * (1.0 - packet_survival));
  result.bottleneck_available_mbps = bottleneck_available;
  return result;
}

Result<MultibwtestOutcome> Network::multibwtest(
    const std::vector<FlowSpec>& flows, SimTime start) const {
  if (flows.empty()) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "multibwtest needs at least one flow"};
  }
  MultibwtestOutcome outcome;
  outcome.flows.resize(flows.size());

  // Dry pass: each flow alone decides whether it sends at all (route
  // validation, injected faults, server-side errors).  Every verdict is
  // label-deterministic, so the loaded re-run below reaches the same one.
  std::vector<std::optional<Route>> routes(flows.size());
  std::vector<bool> sends(flows.size(), false);
  std::vector<double> flow_wire(flows.size(), 0.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    Result<Route> prepared = prepare(flows[i].route);
    if (!prepared.ok()) {
      outcome.flows[i].error = prepared.error();
      continue;
    }
    routes[i] = std::move(prepared).value();
    const Result<BwtestResult> dry =
        bwtest_loaded(*routes[i], Direction::kUpstream, flows[i].options,
                      start, nullptr, 0.0);
    if (!dry.ok()) {
      outcome.flows[i].error = dry.error();
      continue;
    }
    sends[i] = true;
    flow_wire[i] = wire_plan(flows[i].options, config_).wire_mbps;
  }

  // Total offered wire load per directed link, plus who crosses it.
  std::unordered_map<std::uint64_t, double> total_wire;
  std::vector<std::uint64_t> link_order;
  std::unordered_map<std::uint64_t, SharedBottleneck> by_link;
  double max_duration_s = 0.0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (!sends[i]) continue;
    max_duration_s = std::max(max_duration_s, flows[i].options.duration_s);
    for (std::size_t h = 0; h + 1 < flows[i].route.size(); ++h) {
      const std::uint64_t key =
          endpoint_key(flows[i].route[h], flows[i].route[h + 1]);
      const auto [it, inserted] = by_link.try_emplace(key);
      if (inserted) {
        link_order.push_back(key);
        it->second.from = flows[i].route[h];
        it->second.to = flows[i].route[h + 1];
      }
      it->second.flows.push_back(i);
      it->second.offered_wire_mbps += flow_wire[i];
      total_wire[key] += flow_wire[i];
    }
  }

  // Loaded pass: every sending flow against the others' wire load.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (!sends[i]) continue;
    Result<BwtestResult> loaded =
        bwtest_loaded(*routes[i], Direction::kUpstream, flows[i].options,
                      start, &total_wire, flow_wire[i]);
    if (!loaded.ok()) {
      outcome.flows[i].error = loaded.error();
      continue;
    }
    outcome.flows[i].ok = true;
    outcome.flows[i].result = std::move(loaded).value();
  }

  // Contention report: links carrying 2+ subflows, headroom at mid-test.
  const SimTime mid = start + util::sim_seconds(max_duration_s / 2.0);
  for (const std::uint64_t key : link_order) {
    SharedBottleneck& bottleneck = by_link.at(key);
    if (bottleneck.flows.size() < 2) continue;
    const LinkSpec* link = find_link(bottleneck.from, bottleneck.to);
    if (link != nullptr) {
      bottleneck.available_mbps =
          link->capacity_mbps *
          (1.0 - utilization(bottleneck.from, bottleneck.to, mid));
    }
    outcome.shared_bottlenecks.push_back(std::move(bottleneck));
  }
  return outcome;
}

}  // namespace upin::simnet
