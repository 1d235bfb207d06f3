#include "upin/controller.hpp"

#include "measure/retry.hpp"

namespace upin::upinfw {

using util::ErrorCode;
using util::Result;
using util::SimTime;

PathController::PathController(apps::ScionHost& host,
                               const select::PathSelector& selector,
                               std::string strategy_key,
                               util::JsonObject strategy_knobs)
    : host_(host),
      selector_(selector),
      strategy_key_(std::move(strategy_key)),
      strategy_knobs_(std::move(strategy_knobs)) {}

Result<select::Selection> PathController::run_selection(
    const select::UserRequest& request) const {
  return selector_.select_with(strategy_key_, request, strategy_knobs_);
}

Result<scion::SnetAddress> PathController::address_of(int server_id) const {
  const auto& servers = host_.env().servers;
  if (server_id < 1 || static_cast<std::size_t>(server_id) > servers.size()) {
    return util::Error{ErrorCode::kNotFound,
                       "unknown server id " + std::to_string(server_id)};
  }
  return servers[static_cast<std::size_t>(server_id) - 1];
}

Result<ActiveIntent> PathController::apply(
    const select::UserRequest& request) {
  Result<select::Selection> selection = run_selection(request);
  if (!selection.ok()) return Result<ActiveIntent>(selection.error());
  if (selection.value().ranked.empty()) {
    return util::Error{ErrorCode::kNotFound,
                       "no path satisfies: " + request.describe()};
  }
  ActiveIntent intent{request, selection.value().ranked.front()};
  active_[request.server_id] = intent;
  return intent;
}

std::optional<ActiveIntent> PathController::active(int server_id) const {
  const auto it = active_.find(server_id);
  if (it == active_.end()) return std::nullopt;
  return it->second;
}

bool PathController::release(int server_id) {
  return active_.erase(server_id) > 0;
}

Result<apps::PingReport> PathController::ping(
    int server_id, const apps::PingOptions& options) {
  Result<scion::SnetAddress> address = address_of(server_id);
  if (!address.ok()) return Result<apps::PingReport>(address.error());

  apps::PingOptions pinned = options;
  const auto it = active_.find(server_id);
  if (it != active_.end()) {
    pinned.sequence = it->second.chosen.summary.sequence;
  }
  Result<apps::PingReport> report = host_.ping(address.value(), pinned);
  if (!report.ok() && it != active_.end() &&
      measure::control_plane_death(report.error())) {
    // The pinned path died under the control plane, not the data plane:
    // fail over inside the intent's policy instead of burning the retry
    // and breaker budget on a path known to be dead.
    std::optional<Result<apps::PingReport>> failed_over =
        failover_ping(server_id, address.value(), options);
    if (failed_over.has_value()) return *std::move(failed_over);
  }
  return report;
}

std::optional<Result<apps::PingReport>> PathController::failover_ping(
    int server_id, const scion::SnetAddress& address,
    const apps::PingOptions& options) {
  const auto it = active_.find(server_id);
  if (it == active_.end()) return std::nullopt;
  ActiveIntent& intent = it->second;
  scion::ControlPlane& control_plane = host_.control_plane();
  const SimTime detected_at = host_.clock().now();

  // How long traffic sat on the dead path after its revocation arrived.
  std::optional<SimTime> revoked_since;
  const util::Result<scion::Path> dead =
      scion::Path::parse_sequence(intent.chosen.summary.sequence);
  if (dead.ok()) {
    revoked_since = control_plane.revoked_since(dead.value(), detected_at);
  }

  Result<select::Selection> selection = run_selection(intent.request);
  if (!selection.ok()) return std::nullopt;
  for (const select::RankedPath& candidate : selection.value().ranked) {
    if (candidate.summary.path_id == intent.chosen.summary.path_id) continue;
    if (control_plane.hops_revoked(candidate.summary.hops,
                                   host_.clock().now())) {
      continue;
    }
    apps::PingOptions failover = options;
    failover.sequence = candidate.summary.sequence;
    Result<apps::PingReport> retried = host_.ping(address, failover);
    if (!retried.ok()) continue;  // next-best candidate
    intent.chosen = candidate;
    ++failovers_;
    measure::record_revocation_failover(
        revoked_since.has_value() ? detected_at - *revoked_since
                                  : util::SimTime::zero());
    return retried;
  }
  return std::nullopt;
}

Result<std::vector<int>> PathController::reresolve_all() {
  std::vector<int> changed;
  for (auto& [server_id, intent] : active_) {
    Result<select::Selection> selection = run_selection(intent.request);
    if (!selection.ok() || selection.value().ranked.empty()) {
      continue;  // keep the old pin when nothing qualifies
    }
    select::RankedPath best = std::move(selection.value().ranked.front());
    if (best.summary.path_id != intent.chosen.summary.path_id) {
      changed.push_back(server_id);
    }
    intent.chosen = std::move(best);
  }
  return changed;
}

Result<ActiveMultipath> PathController::apply_multipath(
    const select::UserRequest& request, std::size_t k) {
  Result<select::Selection> selection = run_selection(request);
  if (!selection.ok()) return Result<ActiveMultipath>(selection.error());
  Result<select::MultipathPlan> plan =
      select::plan_multipath(selection.value(), k);
  if (!plan.ok()) return Result<ActiveMultipath>(plan.error());
  ActiveMultipath intent{request, k, std::move(plan).value()};
  multipath_[request.server_id] = intent;
  return intent;
}

std::optional<ActiveMultipath> PathController::active_multipath(
    int server_id) const {
  const auto it = multipath_.find(server_id);
  if (it == multipath_.end()) return std::nullopt;
  return it->second;
}

namespace {

std::vector<apps::SubflowSpec> subflow_specs(
    const select::MultipathPlan& plan) {
  std::vector<apps::SubflowSpec> specs;
  specs.reserve(plan.subflows.size());
  for (const select::MultipathSubflow& subflow : plan.subflows) {
    specs.push_back(
        apps::SubflowSpec{subflow.summary.sequence, subflow.weight});
  }
  return specs;
}

}  // namespace

Result<apps::MultipathPingReport> PathController::multipath_ping(
    int server_id, const apps::MultipathPingOptions& options) {
  Result<scion::SnetAddress> address = address_of(server_id);
  if (!address.ok()) return Result<apps::MultipathPingReport>(address.error());
  const auto it = multipath_.find(server_id);
  if (it == multipath_.end()) {
    return util::Error{ErrorCode::kNotFound,
                       "no multipath plan pinned for server " +
                           std::to_string(server_id)};
  }

  Result<apps::MultipathPingReport> report =
      host_.multipath_ping(address.value(), subflow_specs(it->second.plan),
                           options);

  // Did the control plane kill the run (or any subflow of it)?
  bool revoked = !report.ok() && measure::control_plane_death(report.error());
  if (report.ok()) {
    for (const apps::MultipathPingReport::Subflow& subflow :
         report.value().subflows) {
      if (!subflow.ok && measure::control_plane_death(subflow.error)) {
        revoked = true;
        break;
      }
    }
  }
  if (!revoked) return report;

  // Graceful multipath failover: measure how long traffic sat on the
  // dead subflow, re-resolve the plan inside the intent's policy and
  // retry once over the fresh subflow set.
  scion::ControlPlane& control_plane = host_.control_plane();
  const SimTime detected_at = host_.clock().now();
  std::optional<SimTime> revoked_since;
  for (const select::MultipathSubflow& subflow : it->second.plan.subflows) {
    const util::Result<scion::Path> dead =
        scion::Path::parse_sequence(subflow.summary.sequence);
    if (!dead.ok()) continue;
    const std::optional<SimTime> since =
        control_plane.revoked_since(dead.value(), detected_at);
    if (since.has_value() &&
        (!revoked_since.has_value() || *since < *revoked_since)) {
      revoked_since = since;
    }
  }

  Result<ActiveMultipath> replanned =
      apply_multipath(it->second.request, it->second.k);
  if (!replanned.ok()) return report;  // no live alternative: surface as-is
  ++failovers_;
  measure::record_revocation_failover(revoked_since.has_value()
                                          ? detected_at - *revoked_since
                                          : util::SimTime::zero());
  return host_.multipath_ping(address.value(),
                              subflow_specs(replanned.value().plan), options);
}

}  // namespace upin::upinfw
