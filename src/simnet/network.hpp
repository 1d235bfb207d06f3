// network.hpp — stochastic time-indexed network model.
//
// The substrate standing in for the live SCIONLab data plane.  Nodes and
// directed links form a graph; measurements (SCMP-like probes, bwtester-
// like constant-rate flows) are evaluated against time-varying link state:
//
//  * latency    = geography-derived propagation + per-hop processing +
//                 lognormal queueing jitter (per-node jitter scale lets
//                 specific ASes — the paper's Singapore/Ohio — be noisy);
//  * loss       = per-frame base loss + time-bucketed micro-congestion +
//                 injected outage windows (Fig 9's 100 %-loss episode);
//  * bandwidth  = wire-overhead-aware saturation model: a constant-rate
//                 flow of S-byte packets occupies S + header bytes per
//                 packet on the wire, is paced at most `sender_pps_cap`
//                 packets/s, and fragments into multiple underlay frames
//                 when it exceeds the underlay MTU.  Every frame must
//                 survive the bottleneck's byte-share under overload, so
//                 fragmented (MTU-sized) flows collapse quadratically —
//                 reproducing the paper's Fig 7 ordering *and* Fig 8
//                 inversion with one mechanism.
//
// All stochastic draws are forked deterministically from the network seed,
// the route, and the virtual time, so any measurement is reproducible in
// isolation regardless of what ran before it.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simnet/faultplan.hpp"
#include "simnet/geo.hpp"
#include "util/clock.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace upin::simnet {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

/// A network element (an AS host / border router in the SCION layer).
struct NodeSpec {
  std::string name;
  GeoPoint location;
  double process_ms = 0.05;  ///< per-hop forwarding latency
  double jitter_ms = 0.15;   ///< queueing jitter scale at this node
};

/// A directed link.  Propagation delay defaults to the geography of its
/// endpoints but can be pinned explicitly (e.g. for tests).
struct LinkSpec {
  NodeId from = 0;
  NodeId to = 0;
  double capacity_mbps = 1000.0;  ///< wire capacity in this direction
  double base_loss = 5e-4;        ///< per-frame loss floor
  double util_base = 0.25;        ///< mean background utilization
  double util_amplitude = 0.15;   ///< diurnal swing of utilization
  double util_period_s = 3600.0;  ///< period of the swing
  std::optional<util::SimDuration> propagation;  ///< override geo delay
};

/// A scheduled degradation: packets crossing `node` between `start` and
/// `end` are dropped with probability `drop_prob` (1.0 = hard outage).
/// This is how benches stage the Fig 9 congestion episode.
struct OutageWindow {
  NodeId node = 0;
  util::SimTime start{};
  util::SimTime end{};
  double drop_prob = 1.0;
};

/// Model-wide constants (tunable for ablations).
struct NetworkConfig {
  double scion_header_bytes = 88.0;    ///< SCION common+address+path headers
  double underlay_header_bytes = 28.0; ///< IP+UDP overlay encapsulation
  double underlay_mtu = 1500.0;        ///< bytes per underlay frame
  double sender_pps_cap = 60'000.0;    ///< end-host packet pacing limit
  bool fragmentation_enabled = true;   ///< ablation: no frag loss coupling
  double micro_congestion_prob = 0.01;    ///< chance a 10 s bucket is congested
  double micro_congestion_loss_min = 0.03;
  double micro_congestion_loss_max = 0.12;
  double congested_util_threshold = 0.92; ///< util above this adds loss
  /// Probability a bwtest server answers with an error instead of running
  /// the test (paper §4.1.2's "Error Messages" fault class: "a server is
  /// not down but it provides a bad response").
  double server_error_prob = 0.003;
  /// Scheduled fault injection (server-down windows, link flaps, slow
  /// responders, garbled responses) on top of the stochastic base model.
  /// All rates default to zero — no faults unless a campaign asks.
  FaultPlanConfig faults;
};

/// Result of an SCMP-echo-like probe train.
struct PingStats {
  std::vector<std::optional<double>> rtt_ms;  ///< per probe; nullopt = lost

  [[nodiscard]] std::size_t sent() const noexcept { return rtt_ms.size(); }
  [[nodiscard]] std::size_t lost() const noexcept;
  [[nodiscard]] double loss_pct() const noexcept;
  /// Mean RTT over the delivered probes; nullopt when all were lost.
  [[nodiscard]] std::optional<double> avg_ms() const noexcept;
  [[nodiscard]] std::optional<double> min_ms() const noexcept;
  [[nodiscard]] std::optional<double> max_ms() const noexcept;
  /// Sample standard deviation of delivered RTTs (jitter proxy).
  [[nodiscard]] std::optional<double> stddev_ms() const noexcept;
};

struct PingOptions {
  std::size_t count = 30;
  util::SimDuration interval = util::sim_millis(100);
  double payload_bytes = 64.0;
};

/// Per-hop RTTs of a traceroute probe.
struct TraceHop {
  NodeId node = 0;
  std::optional<double> rtt_ms;  ///< nullopt when the hop did not answer
};

struct TraceResult {
  std::vector<TraceHop> hops;
};

struct BwtestOptions {
  double duration_s = 3.0;
  double packet_bytes = 1000.0;  ///< application payload per packet
  double target_mbps = 12.0;
};

struct BwtestResult {
  double attempted_mbps = 0.0;  ///< offered after sender pacing limits
  double achieved_mbps = 0.0;   ///< payload delivered / duration
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_lost = 0;
  int frames_per_packet = 1;
  double bottleneck_available_mbps = 0.0;  ///< diagnosis: min wire headroom
};

/// One flow of a concurrent multipath bandwidth test.
struct FlowSpec {
  std::vector<NodeId> route;
  BwtestOptions options;
};

/// A directed link crossed by two or more concurrent subflows — the
/// capacity they compete for (the paper's Fig 9 congestion episode when
/// it sits on the shared access hop).
struct SharedBottleneck {
  NodeId from = 0;
  NodeId to = 0;
  std::vector<std::size_t> flows;  ///< indices into the FlowSpec list
  double available_mbps = 0.0;     ///< headroom left by background traffic
  double offered_wire_mbps = 0.0;  ///< summed wire load of those subflows
};

/// Which way a bandwidth test runs over a prepared route: client to
/// server (the route's own order) or server to client (its reversal).
enum class Direction : std::uint8_t { kUpstream = 0, kDownstream = 1 };

/// Outcome of `multibwtest`: per-flow results (a flow can fail
/// individually, e.g. its destination is down) plus the contention report.
struct MultibwtestOutcome {
  struct Flow {
    bool ok = false;
    util::Error error;
    BwtestResult result;  ///< meaningful only when `ok`
  };
  std::vector<Flow> flows;
  std::vector<SharedBottleneck> shared_bottlenecks;
};

/// The network model.  Thread-safe for concurrent measurements after the
/// topology is frozen (all mutation happens during construction).
class Network {
 public:
  explicit Network(std::uint64_t seed = 42, NetworkConfig config = {});

  // ---- construction ----------------------------------------------------
  NodeId add_node(NodeSpec spec);
  /// Add a directed link; kInvalidArgument on unknown endpoints or a
  /// duplicate (from,to) pair.
  util::Result<LinkId> add_link(LinkSpec spec);
  /// Convenience: two directed links with per-direction capacities.
  util::Status add_duplex(NodeId a, NodeId b, double capacity_ab_mbps,
                          double capacity_ba_mbps, double util_base = 0.25);
  void add_outage(OutageWindow window);

  // ---- introspection ---------------------------------------------------
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const noexcept { return links_.size(); }
  [[nodiscard]] const NodeSpec& node(NodeId id) const { return nodes_.at(id); }
  [[nodiscard]] std::optional<NodeId> find_node(std::string_view name) const;
  [[nodiscard]] const LinkSpec* find_link(NodeId from, NodeId to) const;
  [[nodiscard]] util::SimDuration link_propagation(NodeId from, NodeId to) const;
  [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }
  /// The injected-fault schedule (inert unless config().faults enables it).
  [[nodiscard]] const FaultPlan& faults() const noexcept { return faults_; }

  // ---- measurements ----------------------------------------------------
  class Route;

  /// Resolve `nodes` (source..destination) and its reversal once, for any
  /// number of probes: kInvalidArgument on fewer than two nodes, an
  /// unknown node or a missing link, the forward route checked before the
  /// reverse one (the errors `ping` reports).
  [[nodiscard]] util::Result<Route> prepare(
      const std::vector<NodeId>& nodes) const;

  /// Probe `route` with `options.count` echo packets starting at virtual
  /// time `start`.  The vector overload is `prepare` + this.
  [[nodiscard]] util::Result<PingStats> ping(const Route& route,
                                             const PingOptions& options,
                                             util::SimTime start) const;
  [[nodiscard]] util::Result<PingStats> ping(const std::vector<NodeId>& route,
                                             const PingOptions& options,
                                             util::SimTime start) const;

  [[nodiscard]] util::Result<TraceResult> traceroute(
      const std::vector<NodeId>& route, util::SimTime start) const;

  /// Constant-rate flow over `route` in `direction`.  The vector overload
  /// is `prepare` + an upstream run: the flow goes along `route`, whose
  /// links must exist both ways.
  [[nodiscard]] util::Result<BwtestResult> bwtest(
      const Route& route, Direction direction, const BwtestOptions& options,
      util::SimTime start) const;
  [[nodiscard]] util::Result<BwtestResult> bwtest(
      const std::vector<NodeId>& route, const BwtestOptions& options,
      util::SimTime start) const;

  /// `flows.size()` concurrent constant-rate flows sharing the network:
  /// on every directed link, a flow's byte-share is computed against the
  /// link headroom minus the wire load of the other flows crossing it
  /// (`share = min(1, available / (own_wire + cross_wire))`).  A single
  /// flow reproduces `bwtest` bit-identically.  Flows fail individually
  /// (an unresolvable route, injected faults, server errors); failed
  /// flows offer no load.  Each flow is prepared once, for both passes.
  /// kInvalidArgument when `flows` is empty.
  [[nodiscard]] util::Result<MultibwtestOutcome> multibwtest(
      const std::vector<FlowSpec>& flows, util::SimTime start) const;

  /// Background utilization of the (from,to) link at time `t` — exposed
  /// for tests and the ablation benches.
  [[nodiscard]] double utilization(NodeId from, NodeId to, util::SimTime t) const;

  /// Effective per-frame loss probability on a link at `t` (base +
  /// micro-congestion + utilization penalty), before outages.
  [[nodiscard]] double frame_loss(NodeId from, NodeId to, util::SimTime t) const;

  /// Drop probability due to outage windows covering `node` at `t`.
  [[nodiscard]] double outage_drop(NodeId node, util::SimTime t) const;

 private:
  /// A link plus what add_link derives from it once: the FNV-1a state of
  /// its "util:<from>><to>:" and "cong:<from>><to>:" substream label
  /// prefixes, and the phase of its diurnal swing.
  struct Link {
    LinkSpec spec;
    std::uint64_t util_prefix = 0;
    std::uint64_t cong_prefix = 0;
    double phase = 0.0;
  };
  /// The bucketed draws of one link, kept for the last bucket seen, and
  /// its utilisation at the last instant seen.  A measurement evaluates
  /// each hop at many instants that almost always share one 10-s
  /// congestion bucket and one 60-s noise bucket, so it draws each at
  /// most once per bucket; and it reads a hop's utilisation twice per
  /// instant (frame loss, then queueing delay), so the diurnal `sin` is
  /// evaluated once per instant.  Lives on the measuring call's stack,
  /// never in the Network.
  struct HopMemo {
    static constexpr std::int64_t kNoBucket =
        std::numeric_limits<std::int64_t>::min();
    std::int64_t noise_bucket = kNoBucket;
    double noise = 0.0;
    std::int64_t cong_bucket = kNoBucket;
    double cong_loss = 0.0;
    std::int64_t util_instant = kNoBucket;  ///< SimTime::count() of `util`
    double util = 0.0;
  };
  /// One directed hop of a resolved route and its memo slot; null `link`
  /// only from `hops_of` (a missing link).
  struct Hop {
    const Link* link = nullptr;
    HopMemo memo;
  };
  using Hops = std::vector<Hop>;

 public:
  /// A route resolved once and probed many times (a host keeps one per
  /// hop sequence it measures): the node list and its reversal, the links
  /// both ways, and the FNV-1a states of the "ping:<route>:" label and of
  /// the "bwerr:<route>:" and "bwtest:<route>:" labels in each direction.
  /// Its hops' memos stay pristine; every probe copies them, so a probe
  /// draws exactly what it would on a freshly prepared route.  Points into
  /// the network's links: valid while the network lives and gains no link.
  class Route {
   public:
    [[nodiscard]] const std::vector<NodeId>& nodes(
        Direction direction = Direction::kUpstream) const noexcept {
      return nodes_[index(direction)];
    }

   private:
    friend class Network;
    static constexpr std::size_t index(Direction direction) noexcept {
      return static_cast<std::size_t>(direction);
    }
    std::array<std::vector<NodeId>, 2> nodes_;
    std::array<Hops, 2> hops_;
    std::uint64_t ping_prefix_ = 0;
    std::array<std::uint64_t, 2> bwerr_prefix_{};
    std::array<std::uint64_t, 2> bwtest_prefix_{};
  };

 private:
  [[nodiscard]] const Link* find(NodeId from, NodeId to) const;
  /// One hop per consecutive node pair of a route of two or more known
  /// nodes; a missing link is a null hop.
  [[nodiscard]] Hops hops_of(const std::vector<NodeId>& route) const;
  /// `hops_of`, failing with kInvalidArgument on an unknown node or a
  /// missing link.
  [[nodiscard]] util::Result<Hops> resolve(
      const std::vector<NodeId>& route) const;

  [[nodiscard]] double link_utilization(const Link& link, util::SimTime t,
                                        HopMemo& memo) const;
  [[nodiscard]] double link_frame_loss(const Link& link, util::SimTime t,
                                       HopMemo& memo) const;
  [[nodiscard]] double one_way_ms(std::span<Hop> hops, util::SimTime t,
                                  util::Rng& rng) const;
  /// Whether a single frame crossing `hops` at `t` survives.
  [[nodiscard]] bool frame_survives(std::span<Hop> hops, util::SimTime t,
                                    util::Rng& rng) const;

  /// bwtest core shared with multibwtest: `total_wire_mbps` (keyed by
  /// endpoint pair) is the combined wire load of every concurrent flow on
  /// that link, `own_wire_mbps` this flow's contribution.  Null map means
  /// a lone flow — the exact legacy bwtest computation.
  [[nodiscard]] util::Result<BwtestResult> bwtest_loaded(
      const Route& route, Direction direction, const BwtestOptions& options,
      util::SimTime start,
      const std::unordered_map<std::uint64_t, double>* total_wire_mbps,
      double own_wire_mbps) const;

  [[nodiscard]] static std::string route_label(const std::vector<NodeId>& route);
  /// FNV-1a state of "<tag>:" + route_label(route) + ":", streamed.
  [[nodiscard]] static std::uint64_t route_prefix(
      std::string_view tag, const std::vector<NodeId>& route) noexcept;

  std::vector<NodeSpec> nodes_;
  std::vector<Link> links_;
  std::unordered_map<std::uint64_t, LinkId> by_endpoints_;
  std::vector<OutageWindow> outages_;
  NetworkConfig config_;
  util::Rng master_;
  FaultPlan faults_;
};

}  // namespace upin::simnet
