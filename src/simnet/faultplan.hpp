// faultplan.hpp — deterministic fault injection for the simulated testbed.
//
// The paper's test suite is explicitly engineered for a fallible network
// (§4.1.2: servers go down, answer slowly, or answer with garbage), but
// the base Network only models *probabilistic* loss plus bench-staged
// outage windows.  A FaultPlan layers scheduled fault episodes on top:
//
//   * server-down windows   — a destination AS is dark; operations
//                             targeting it fail with kUnreachable;
//   * link flaps            — a directed link drops every frame for the
//                             duration of the flap (100 % loss);
//   * slow-responder windows — the destination answers, but too slowly;
//                             operations time out (kTimeout);
//   * garbled responses     — a per-operation chance the server replies
//                             with an unparseable answer (kBadResponse).
//
// Every episode schedule is forked from (seed, entity label) and every
// per-operation draw from (seed, operation label, virtual time), so a
// campaign under faults is bit-reproducible and any single operation's
// outcome can be replayed in isolation — the property the measure layer's
// crash-safe resume depends on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.hpp"
#include "util/memo.hpp"
#include "util/rng.hpp"

namespace upin::simnet {

/// One scheduled fault episode in virtual time.
struct FaultWindow {
  util::SimTime start{};
  util::SimTime end{};
};

/// Knobs for the injected fault classes.  All rates default to zero, so a
/// default-constructed plan injects nothing and the base model is
/// unchanged.
struct FaultPlanConfig {
  double horizon_s = 24.0 * 3600.0;  ///< schedule episodes within [0, horizon)

  double server_down_per_hour = 0.0;  ///< mean down episodes per node per hour
  double server_down_min_s = 30.0;
  double server_down_max_s = 300.0;

  double link_flap_per_hour = 0.0;  ///< mean flaps per directed link per hour
  double link_flap_min_s = 5.0;
  double link_flap_max_s = 60.0;

  double slow_per_hour = 0.0;  ///< mean slow-responder episodes per node per hour
  double slow_min_s = 10.0;
  double slow_max_s = 120.0;

  double garble_prob = 0.0;  ///< per-operation garbled-response probability

  /// Any fault class enabled?
  [[nodiscard]] bool any() const noexcept {
    return server_down_per_hour > 0.0 || link_flap_per_hour > 0.0 ||
           slow_per_hour > 0.0 || garble_prob > 0.0;
  }
};

/// A reproducible schedule of fault episodes, queried by the Network at
/// measurement time.  Thread-safe: all queries are pure functions of
/// (seed, config, arguments).  Each node's or link's episode list is
/// drawn on its first query and kept.
class FaultPlan {
 public:
  FaultPlan() = default;  ///< inert plan, injects nothing
  FaultPlan(std::uint64_t seed, FaultPlanConfig config);

  [[nodiscard]] bool active() const noexcept { return config_.any(); }
  [[nodiscard]] const FaultPlanConfig& config() const noexcept { return config_; }

  /// Is node `node` inside a server-down episode at `t`?
  [[nodiscard]] bool server_down(std::uint32_t node, util::SimTime t) const;

  /// Is node `node` inside a slow-responder episode at `t`?
  [[nodiscard]] bool slow_responder(std::uint32_t node, util::SimTime t) const;

  /// Is the directed link (from, to) flapped at `t`?
  [[nodiscard]] bool link_flapped(std::uint32_t from, std::uint32_t to,
                                  util::SimTime t) const;

  /// Per-operation garbled-response draw, keyed by the operation label and
  /// its virtual start time (re-attempts at a later time redraw).
  [[nodiscard]] bool garbled(std::string_view op_label, util::SimTime t) const;

  /// The full episode schedule for an entity stream — exposed so tests
  /// and benches can reconcile observed failures against injected faults.
  /// The reference stays valid while the plan lives unassigned.
  [[nodiscard]] const std::vector<FaultWindow>& server_down_windows(
      std::uint32_t node) const;
  [[nodiscard]] const std::vector<FaultWindow>& slow_windows(
      std::uint32_t node) const;
  [[nodiscard]] const std::vector<FaultWindow>& link_flap_windows(
      std::uint32_t from, std::uint32_t to) const;

 private:
  using Schedules = util::Memo<std::uint64_t, std::vector<FaultWindow>>;

  [[nodiscard]] std::vector<FaultWindow> schedule(const std::string& stream,
                                                  double per_hour, double min_s,
                                                  double max_s) const;
  [[nodiscard]] static bool covers(const std::vector<FaultWindow>& windows,
                                   util::SimTime t) noexcept;

  FaultPlanConfig config_{};
  util::Rng master_{0};
  Schedules down_;  ///< by node
  Schedules slow_;  ///< by node
  Schedules flap_;  ///< by (from << 32 | to)
};

}  // namespace upin::simnet
